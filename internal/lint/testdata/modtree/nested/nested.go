package nested
