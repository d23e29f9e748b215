let f ?(x = 1) () = x
let g ?(x = 2) () = x
let run ?(retries = 3) () = retries
let unused = 4
let hooked = 5
let test_only = 6
let untested = 7
