let b () = 6
