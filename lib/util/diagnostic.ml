type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  path : string;
  message : string;
}

let make severity ~rule ~path fmt =
  Printf.ksprintf (fun message -> { rule; severity; path; message }) fmt

let error ~rule ~path fmt = make Error ~rule ~path fmt
let warning ~rule ~path fmt = make Warning ~rule ~path fmt
let info ~rule ~path fmt = make Info ~rule ~path fmt

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let prefix seg ds = List.map (fun d -> { d with path = seg ^ "/" ^ d.path }) ds

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let errors ds = List.filter is_error ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.path b.path in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.message b.message

let to_string d =
  Printf.sprintf "%s[%s] %s: %s" (severity_name d.severity) d.rule d.path d.message

let render_text ds =
  List.sort compare ds |> List.map to_string |> String.concat "\n"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ds =
  let one d =
    Printf.sprintf "  {\"rule\": \"%s\", \"severity\": \"%s\", \"path\": \"%s\", \"message\": \"%s\"}"
      (json_escape d.rule)
      (severity_name d.severity)
      (json_escape d.path) (json_escape d.message)
  in
  match List.sort compare ds with
  | [] -> "[]"
  | ds -> Printf.sprintf "[\n%s\n]" (String.concat ",\n" (List.map one ds))

let fail_on_errors ~header ds =
  match errors ds with
  | [] -> ()
  | es ->
    let lines =
      List.sort compare es |> List.map (fun d -> "  " ^ to_string d) |> String.concat "\n"
    in
    failwith (Printf.sprintf "%s\n%s" header lines)
