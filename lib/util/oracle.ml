let var = "IMPACT_CHECK"
let enabled () = match Sys.getenv_opt var with None | Some ("" | "0") -> false | Some _ -> true
let message oracle msg = Printf.sprintf "%s (%s): %s" var oracle msg
let fail oracle msg = failwith (message oracle msg)
