let dead n = n

let own n = n + 1

let probe n = own n

let make ?(never = 0) ?(tested = 0) ?(inner = 0) () = never + tested + inner

let scale ?(fwd = 1) n = fwd * n

let shift ?(partial = 0) ~by () = partial + by

let _inner = make ~inner:1 ()
