package inner
