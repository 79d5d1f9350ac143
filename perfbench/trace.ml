(* In-memory spans for the traced run: name, start, end, parent and request
   id, recorded around the benchmark's calls into each layer's public
   functions and written out once, when the run ends.  Single-threaded by
   design: the traced replay issues its calls one at a time, so the parent
   is simply the innermost open span. *)

type span = {
  id : int;
  name : string;
  rid : int;  (** top-level request the span belongs to *)
  parent : int option;
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let spans = ref []
let open_ = ref []
let next_id = ref 0
let request = ref 0

(* Starts a new top-level request: every span opened until the next call
   carries this id. *)
let new_request () = incr request

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ with p :: _ -> Some p | [] -> None in
  open_ := id :: !open_;
  let start = now () in
  let finish () =
    open_ := List.tl !open_;
    spans := { id; name; rid = !request; parent; start; stop = now () } :: !spans
  in
  Fun.protect ~finally:finish f

(* A finished top-level span timed elsewhere (by a client thread). *)
let add ~name ~start ~stop =
  let id = !next_id in
  incr next_id;
  spans := { id; name; rid = !request; parent = None; start; stop } :: !spans

let all () = List.rev !spans
let named name = List.filter (fun s -> s.name = name) (all ())
let duration s = s.stop -. s.start

(* Sum of the self times of every span with this name: its duration minus
   what its child spans cover. *)
let self_total name =
  let all = all () in
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        let children =
          List.filter_map
            (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
            all
        in
        acc +. Stats.self_time ~start:s.start ~stop:s.stop children)
    0. all

let per_call_ms name =
  match named name with [] -> 0. | ss -> 1e3 *. Stats.median (List.map duration ss)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%s,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.rid
            (match s.parent with Some p -> string_of_int p | None -> "null")
            s.start s.stop)
        (all ()))
