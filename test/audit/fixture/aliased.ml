let h () = 7
