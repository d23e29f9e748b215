let f ?(x = 1) () = x
let g ?(x = 2) () = x
let run ?(retries = 3) () = retries
let unused = 4
