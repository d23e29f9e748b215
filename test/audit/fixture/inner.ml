let v = 5
