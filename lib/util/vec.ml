type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size

let push t x =
  if t.size = Array.length t.data then begin
    let cap = max 8 (2 * Array.length t.data) in
    let fresh = Array.make cap x in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.size - 1

let check t i fn =
  if i < 0 || i >= t.size then invalid_arg (Printf.sprintf "Vec.%s: index %d" fn i)

let get t i =
  check t i "get";
  t.data.(i)

let set t i x =
  check t i "set";
  t.data.(i) <- x

let to_array t = Array.sub t.data 0 t.size

let iteri t ~f =
  for i = 0 to t.size - 1 do
    f i t.data.(i)
  done

let of_list xs =
  let t = create () in
  List.iter (fun x -> ignore (push t x)) xs;
  t
