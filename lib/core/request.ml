module Module_library = Impact_modlib.Module_library

type raw = Int of int | Float of float | Text of string | Items of raw list

let rec pp_raw ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float x -> Format.fprintf ppf "%g" x
  | Text s -> Format.pp_print_string ppf s
  | Items xs ->
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp_raw ppf xs

type error = { field : string; reason : string }

let message e = e.field ^ " " ^ e.reason

type 'a field = {
  name : string;
  default : 'a option;  (* [None]: the field is required *)
  domain : string;
  show : 'a -> string;
  read : raw -> ('a, string) result;  (* the reason on a value out of the domain *)
  list : bool;
}

let name f = f.name

let doc f =
  match f.default with
  | Some d -> Printf.sprintf "%s (default %s)" f.domain (f.show d)
  | None -> f.domain

let scalar_of_arg s =
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> ( match float_of_string_opt s with Some x -> Float x | None -> Text s)

let of_arg f s =
  if not f.list then scalar_of_arg s
  else Items (if s = "" then [] else List.map scalar_of_arg (String.split_on_char ',' s))

let check f raw = Result.map_error (fun reason -> { field = f.name; reason }) (f.read raw)

let number = function Int n -> Some (float_of_int n) | Float x -> Some x | Text _ | Items _ -> None

(* An integral float converts only inside the int range (+-2^62). *)
let integer = function
  | Int n -> Some n
  | Float x when Float.is_integer x && Float.abs x < 0x1p62 -> Some (int_of_float x)
  | Float _ | Text _ | Items _ -> None

let show_float = Printf.sprintf "%g"

let target =
  {
    name = "target";
    default = None;
    domain = "a design file or bench:NAME";
    show = Fun.id;
    read = (function Text s when s <> "" -> Ok s | _ -> Error "must name a design file or bench:NAME");
    list = false;
  }

let objective =
  {
    name = "objective";
    default = Some Solution.Minimize_power;
    domain = "power or area";
    show = Solution.objective_name;
    read =
      (fun raw ->
        match
          List.find_opt
            (fun o -> raw = Text (Solution.objective_name o))
            [ Solution.Minimize_power; Solution.Minimize_area ]
        with
        | Some o -> Ok o
        | None -> Error "must be power or area");
    list = false;
  }

(* The paper's laxity multiplies the minimum ENC into the search's budget,
   so it is at least 1; NaN or infinity would price the budget as NaN or
   infinity. *)
let read_laxity raw =
  match number raw with
  | None -> Error "must be a number"
  | Some x when Float.is_finite x && x >= 1. -> Ok x
  | Some _ -> Error "must be finite and at least 1"

let laxity =
  {
    name = "laxity";
    default = Some 2.0;
    domain = "a finite number of at least 1";
    show = show_float;
    read = read_laxity;
    list = false;
  }

let laxities =
  {
    name = "laxities";
    default = Some [ 1.0; 1.5; 2.0; 2.5; 3.0 ];
    domain = "a non-empty list of laxities";
    show = (fun ls -> String.concat "," (List.map show_float ls));
    read =
      (function
      | Items [] -> Error "must not be empty"
      | Items xs ->
        let rec read_all i = function
          | [] -> Ok []
          | x :: rest -> (
            match read_laxity x with
            | Ok l -> Result.map (List.cons l) (read_all (i + 1) rest)
            | Error reason -> Error (Printf.sprintf "entry %d %s" i reason))
        in
        read_all 1 xs
      | _ -> Error "must be a list of laxities");
    list = true;
  }

(* Leaf scheduling gives an operation ceil(delay / clock) states and lists
   every one of them ([Leaf.run]), so the clock bounds how many states the
   slowest unit spans: at 1e-9 ns the 28 ns array multiplier alone would
   ask for 2.8e10.  At the floor it spans [max_op_states], and the largest
   built-in design (atm) still synthesises in about 3 s. *)
let max_op_states = 64

let min_clock_ns =
  List.fold_left
    (fun m s -> Float.max m s.Module_library.delay_ns)
    0.
    (Module_library.all_specs Module_library.default)
  /. float_of_int max_op_states

let clock =
  let domain = Printf.sprintf "a finite period of at least %g ns" min_clock_ns in
  {
    name = "clock";
    default = Some Driver.default_options.clock_ns;
    domain;
    show = show_float;
    read =
      (fun raw ->
        match number raw with
        | None -> Error "must be a number"
        | Some x when Float.is_finite x && x >= min_clock_ns -> Ok x
        | Some _ -> Error ("must be " ^ domain));
    list = false;
  }

let passes =
  {
    name = "passes";
    default = Some 60;
    domain = "an integer of at least 1";
    show = string_of_int;
    read =
      (fun raw ->
        match integer raw with
        | None -> Error "must be an integer"
        | Some n when n >= 1 -> Ok n
        | Some _ -> Error "must be at least 1");
    list = false;
  }

let seed =
  {
    name = "seed";
    default = Some Driver.default_options.seed;
    domain = "an integer";
    show = string_of_int;
    read = (fun raw -> Option.to_result ~none:"must be an integer" (integer raw));
    list = false;
  }

type t = {
  target : string;
  objective : Solution.objective;
  laxity : float;
  laxities : float list;
  passes : int;
  options : Driver.options;
}

let validate fields =
  let get f =
    match (List.assoc_opt f.name fields, f.default) with
    | Some raw, _ -> check f raw
    | None, Some d -> Ok d
    | None, None -> Error { field = f.name; reason = "is missing" }
  in
  let ( let* ) = Result.bind in
  let* tg = get target in
  let* objective = get objective in
  let* laxity = get laxity in
  let* laxities = get laxities in
  let* clock_ns = get clock in
  let* passes = get passes in
  let* seed = get seed in
  Ok
    {
      target = tg;
      objective;
      laxity;
      laxities;
      passes;
      options = { Driver.default_options with clock_ns; seed };
    }

let failure = function
  | Impact_sim.Sim.Stuck msg -> Some ("sim/nonterminating", "CDFG simulation did not terminate: " ^ msg)
  | Impact_lang.Interp.Nonterminating msg ->
    Some ("lang/nonterminating", "interpreter did not terminate: " ^ msg)
  | Impact_rtl.Rtl_sim.Deadlock msg -> Some ("rtl/deadlock", "RTL simulation stopped: " ^ msg)
  | _ -> None
