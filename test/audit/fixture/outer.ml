module M = struct
  include Inner
end

module N = struct
  include Inner_bare

  let c () = b () + 1
end
