type t = unit

let create ?context:_ () = ()
let counters () = (0, 0)
let entries () = 0
