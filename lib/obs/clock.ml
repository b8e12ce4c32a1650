let raw_ns () = Int64.to_int (Monotonic_clock.now ())
let epoch = raw_ns ()
let now_ns () = raw_ns () - epoch
let s_of_ns ns = float_of_int ns *. 1e-9
