let enabled name = match Sys.getenv_opt name with None | Some ("" | "0") -> false | Some _ -> true
