type t = { width : int; bits : int }

let max_width = 62

let check_width width =
  if width < 1 || width > max_width then
    invalid_arg (Printf.sprintf "Bitvec: width %d out of range 1..%d" width max_width)

let mask width = if width = max_width then -1 lxor min_int else (1 lsl width) - 1

let make ~width v =
  check_width width;
  { width; bits = v land mask width }

let zero ~width = make ~width 0
let one ~width = make ~width 1
let of_bool b = make ~width:1 (if b then 1 else 0)
let width t = t.width
let bits t = t.bits
let to_unsigned t = t.bits

let signed ~width bits =
  if bits land (1 lsl (width - 1)) = 0 then bits else bits - (1 lsl width)

let to_signed t = signed ~width:t.width t.bits

let to_bool t = t.bits <> 0
let equal a b = a.width = b.width && a.bits = b.bits
let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c else Int.compare a.bits b.bits

(* SWAR popcount: [bits] is non-negative and below 2^62, so the 64-bit
   masks lose nothing to the 63-bit int, and the byte sums (at most 62)
   never carry into the top bit of the final multiply. *)
let popcount_bits x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let popcount t = popcount_bits t.bits

let hamming a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitvec.hamming: width mismatch %d vs %d" a.width b.width);
  popcount_bits (a.bits lxor b.bits)

let lift2 f a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitvec: width mismatch %d vs %d" a.width b.width);
  make ~width:a.width (f a.bits b.bits)

let add a b = lift2 ( + ) a b
let sub a b = lift2 ( - ) a b
let mul a b = lift2 ( * ) a b
let neg a = make ~width:a.width (-a.bits)
let logand a b = lift2 ( land ) a b
let logor a b = lift2 ( lor ) a b
let logxor a b = lift2 ( lxor ) a b
let lognot a = make ~width:a.width (lnot a.bits)

let shift_left a n =
  if n < 0 then invalid_arg "Bitvec.shift_left: negative count";
  if n >= a.width then zero ~width:a.width else make ~width:a.width (a.bits lsl n)

let shift_right_logical a n =
  if n < 0 then invalid_arg "Bitvec.shift_right_logical: negative count";
  if n >= a.width then zero ~width:a.width else make ~width:a.width (a.bits lsr n)

let shift_right_arith a n =
  if n < 0 then invalid_arg "Bitvec.shift_right_arith: negative count";
  let n = min n (a.width - 1) in
  make ~width:a.width (to_signed a asr n)

let cmp2 f a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitvec: width mismatch %d vs %d" a.width b.width);
  f (to_signed a) (to_signed b)

let lt a b = cmp2 ( < ) a b
let le a b = cmp2 ( <= ) a b
let gt a b = cmp2 ( > ) a b
let ge a b = cmp2 ( >= ) a b

let resize ~width t =
  check_width width;
  make ~width (to_signed t)

let pp ppf t = Format.fprintf ppf "%dw%d" (to_signed t) t.width
let to_string t = Format.asprintf "%a" pp t
