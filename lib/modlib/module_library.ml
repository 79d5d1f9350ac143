type fu_class = Class_add_sub | Class_mul | Class_cmp | Class_logic | Class_shift | Class_alu

type spec = {
  spec_name : string;
  fu_class : fu_class;
  delay_ns : float;
  area : float;
  cap_per_op : float;
  pipelined : bool;
}

type t = spec list

(* Relative numbers follow the usual area/delay/energy orderings of the
   implementation families; the adder delay (10 ns) and mux delay (3 ns) are
   the paper's own constants. *)
let default : t =
  [
    { spec_name = "add_ripple"; fu_class = Class_add_sub; delay_ns = 10.0; area = 80.; cap_per_op = 1.00; pipelined = false };
    { spec_name = "add_cla"; fu_class = Class_add_sub; delay_ns = 6.0; area = 130.; cap_per_op = 1.35; pipelined = false };
    { spec_name = "add_csel"; fu_class = Class_add_sub; delay_ns = 4.0; area = 185.; cap_per_op = 1.80; pipelined = false };
    { spec_name = "mul_array"; fu_class = Class_mul; delay_ns = 28.0; area = 760.; cap_per_op = 7.50; pipelined = false };
    { spec_name = "mul_booth"; fu_class = Class_mul; delay_ns = 22.0; area = 880.; cap_per_op = 8.00; pipelined = false };
    { spec_name = "mul_wallace"; fu_class = Class_mul; delay_ns = 16.0; area = 1050.; cap_per_op = 9.00; pipelined = false };
    { spec_name = "mul_pipe2"; fu_class = Class_mul; delay_ns = 24.0; area = 1300.; cap_per_op = 9.80; pipelined = true };
    { spec_name = "cmp_ripple"; fu_class = Class_cmp; delay_ns = 4.0; area = 36.; cap_per_op = 0.35; pipelined = false };
    { spec_name = "cmp_fast"; fu_class = Class_cmp; delay_ns = 2.5; area = 60.; cap_per_op = 0.50; pipelined = false };
    { spec_name = "logic_std"; fu_class = Class_logic; delay_ns = 1.5; area = 18.; cap_per_op = 0.12; pipelined = false };
    { spec_name = "shift_barrel"; fu_class = Class_shift; delay_ns = 4.5; area = 120.; cap_per_op = 0.90; pipelined = false };
    { spec_name = "alu_std"; fu_class = Class_alu; delay_ns = 11.0; area = 160.; cap_per_op = 1.50; pipelined = false };
    { spec_name = "alu_fast"; fu_class = Class_alu; delay_ns = 7.0; area = 240.; cap_per_op = 2.00; pipelined = false };
  ]

let all_specs t = t

let spec_serves spec cls =
  spec.fu_class = cls
  ||
  match (spec.fu_class, cls) with
  | Class_alu, (Class_add_sub | Class_cmp | Class_logic) -> true
  | _ -> false

let specs_of_class t cls =
  List.filter (fun s -> spec_serves s cls) t
  |> List.sort (fun a b -> Float.compare a.delay_ns b.delay_ns)

let fastest t cls =
  match specs_of_class t cls with
  | s :: _ -> s
  | [] -> invalid_arg "Module_library.fastest: empty class"

let smallest t cls =
  match
    List.sort (fun a b -> Float.compare a.area b.area) (specs_of_class t cls)
  with
  | s :: _ -> s
  | [] -> invalid_arg "Module_library.smallest: empty class"

let find t name =
  match List.find_opt (fun s -> s.spec_name = name) t with
  | Some s -> s
  | None -> raise Not_found

let class_of_op = function
  | Impact_cdfg.Ir.Op_add | Impact_cdfg.Ir.Op_sub -> Some Class_add_sub
  | Impact_cdfg.Ir.Op_mul -> Some Class_mul
  | Impact_cdfg.Ir.Op_lt | Impact_cdfg.Ir.Op_le | Impact_cdfg.Ir.Op_gt | Impact_cdfg.Ir.Op_ge | Impact_cdfg.Ir.Op_eq | Impact_cdfg.Ir.Op_ne -> Some Class_cmp
  | Impact_cdfg.Ir.Op_and | Impact_cdfg.Ir.Op_or | Impact_cdfg.Ir.Op_xor | Impact_cdfg.Ir.Op_not -> Some Class_logic
  | Impact_cdfg.Ir.Op_shl | Impact_cdfg.Ir.Op_shr -> Some Class_shift
  | Impact_cdfg.Ir.Op_copy | Impact_cdfg.Ir.Op_resize | Impact_cdfg.Ir.Op_select | Impact_cdfg.Ir.Op_loop_merge | Impact_cdfg.Ir.Op_end_loop | Impact_cdfg.Ir.Op_output _ ->
    None

let width_factor width = float_of_int width /. 16.

let scaled_area spec ~width = spec.area *. width_factor width
let scaled_cap spec ~width = spec.cap_per_op *. width_factor width

let mux2_delay_ns = 3.0
let mux2_area ~width = 14. *. width_factor width
let mux2_cap ~width = 0.18 *. width_factor width

let register_area ~width = 55. *. width_factor width
let register_write_cap ~width = 0.45 *. width_factor width
let register_clock_cap ~width = 0.025 *. width_factor width

let chain_overhead = 0.10

let controller_state_cap = 0.012
let controller_transition_cap = 0.004
let wire_cap_per_fanout = 0.03
let glitch_factor chain_pos = 1. +. (0.15 *. float_of_int chain_pos)
let controller_ff_cap = 0.05
