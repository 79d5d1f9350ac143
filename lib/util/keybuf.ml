type t = Buffer.t

let create n = Buffer.create n
let contents = Buffer.contents
let length = Buffer.length
let tag = Buffer.add_char

(* Zigzag folds the sign into bit 0 so small negatives stay short; LEB128
   then writes seven bits per byte, high bit set on every byte but the
   last.  [lsr] keeps the loop finite for the full 63-bit range. *)
let int b n =
  let rec go z =
    if z lsr 7 = 0 then Buffer.add_uint8 b z
    else begin
      Buffer.add_uint8 b (z land 0x7f lor 0x80);
      go (z lsr 7)
    end
  in
  go ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let string b s =
  int b (String.length s);
  Buffer.add_string b s

let list b f xs =
  int b (List.length xs);
  List.iter (f b) xs

let ints b xs = list b int xs
