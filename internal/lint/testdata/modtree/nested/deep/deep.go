package deep
