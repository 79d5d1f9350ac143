type t = {
  name : string;
  mutable nodes : string list;
  mutable edges : string list;
  seen : (string, unit) Hashtbl.t;
}

let create ~name = { name; nodes = []; edges = []; seen = Hashtbl.create 16 }

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let node t ~id ?shape ?style label =
  if not (Hashtbl.mem t.seen id) then begin
    Hashtbl.add t.seen id ();
    let attrs =
      [ Some (Printf.sprintf "label=\"%s\"" (escape label));
        Option.map (Printf.sprintf "shape=%s") shape;
        Option.map (Printf.sprintf "style=%s") style ]
      |> List.filter_map Fun.id
      |> String.concat ", "
    in
    t.nodes <- Printf.sprintf "  \"%s\" [%s];" (escape id) attrs :: t.nodes
  end

let edge t ?style ?label src dst =
  let attrs =
    [ Option.map (Printf.sprintf "style=%s") style;
      Option.map (fun l -> Printf.sprintf "label=\"%s\"" (escape l)) label ]
    |> List.filter_map Fun.id
    |> String.concat ", "
  in
  let suffix = if attrs = "" then "" else " [" ^ attrs ^ "]" in
  t.edges <-
    Printf.sprintf "  \"%s\" -> \"%s\"%s;" (escape src) (escape dst) suffix :: t.edges

let render t =
  String.concat "\n"
    ((Printf.sprintf "digraph \"%s\" {" (escape t.name))
     :: List.rev t.nodes
    @ List.rev t.edges
    @ [ "}"; "" ])
