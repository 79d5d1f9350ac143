(* splitmix64-style mixer with constants truncated to OCaml's 63-bit ints,
   so results are identical on every 64-bit platform. *)

type t = { mutable state : int }

let golden = 0x1E3779B97F4A7C15

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let create ~seed = { state = mix (seed * 2 + 1) }

let next t =
  t.state <- t.state + golden;
  mix t.state land max_int

let split t =
  let seed = next t in
  { state = mix seed }

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = next t land 1 = 1
let float t = float_of_int (next t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
