module Ir = Impact_cdfg.Ir
module Graph = Impact_cdfg.Graph
module Guard = Impact_cdfg.Guard
module Stg = Impact_sched.Stg
module Bitvec = Impact_util.Bitvec

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') name

let module_name (program : Graph.program) = sanitize program.Graph.prog_name

let const_literal v =
  Printf.sprintf "%d'sh%X" (Bitvec.width v) (Bitvec.bits v)

type emitter = {
  buf : Buffer.t;
  g : Graph.t;
  b : Binding.t;
  mutable fired : Ir.node_id list;  (* nodes already fired in the state *)
}

let line e fmt = Printf.ksprintf (fun s -> Buffer.add_string e.buf s; Buffer.add_char e.buf '\n') fmt

let reg_name reg = Printf.sprintf "r%d" reg
let temp_name nid = Printf.sprintf "t_n%d" nid
let input_reg_name e name = reg_name (Binding.reg_of_input e.b name)

(* Value currently on an edge, as seen inside a state: a temp if its
   producer already fired this state, otherwise its register. *)
let edge_expr e eid =
  let edge = Graph.edge e.g eid in
  match edge.Ir.source with
  | Ir.Const v -> const_literal v
  | Ir.Primary_input name -> input_reg_name e name
  | Ir.From_node nid ->
    if List.mem nid e.fired then temp_name nid else reg_name (Binding.reg_of e.b nid)

let guard_expr e guard =
  match Guard.atoms guard with
  | [] -> "1'b1"
  | atoms ->
    atoms
    |> List.map (fun { Guard.cond_edge; value } ->
           Printf.sprintf "(%s == 1'b%d)" (edge_expr e cond_edge) (if value then 1 else 0))
    |> String.concat " && "

let compute_expr e (n : Ir.node) phase =
  let op i = edge_expr e n.Ir.inputs.(i) in
  match phase with
  | Stg.Merge_init -> op 0
  | Stg.Merge_back -> op 1
  | Stg.Normal -> (
    match n.Ir.kind with
    | Ir.Op_add -> Printf.sprintf "%s + %s" (op 0) (op 1)
    | Ir.Op_sub -> Printf.sprintf "%s - %s" (op 0) (op 1)
    | Ir.Op_mul -> Printf.sprintf "%s * %s" (op 0) (op 1)
    | Ir.Op_lt -> Printf.sprintf "%s < %s" (op 0) (op 1)
    | Ir.Op_le -> Printf.sprintf "%s <= %s" (op 0) (op 1)
    | Ir.Op_gt -> Printf.sprintf "%s > %s" (op 0) (op 1)
    | Ir.Op_ge -> Printf.sprintf "%s >= %s" (op 0) (op 1)
    | Ir.Op_eq -> Printf.sprintf "%s == %s" (op 0) (op 1)
    | Ir.Op_ne -> Printf.sprintf "%s != %s" (op 0) (op 1)
    | Ir.Op_and -> Printf.sprintf "%s & %s" (op 0) (op 1)
    | Ir.Op_or -> Printf.sprintf "%s | %s" (op 0) (op 1)
    | Ir.Op_xor -> Printf.sprintf "%s ^ %s" (op 0) (op 1)
    | Ir.Op_not -> Printf.sprintf "~%s" (op 0)
    | Ir.Op_shl -> Printf.sprintf "%s <<< %s" (op 0) (op 1)
    | Ir.Op_shr -> Printf.sprintf "%s >>> %s" (op 0) (op 1)
    | Ir.Op_select -> Printf.sprintf "(%s) ? %s : %s" (op 0) (op 1) (op 2)
    | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> op 0
    | Ir.Op_resize -> op 0 (* signed assignment extends/truncates *)
    | Ir.Op_loop_merge -> assert false)

let fu_comment e nid =
  match Binding.fu_of e.b nid with
  | Some fu ->
    Printf.sprintf " // %s on fu%d (%s)" (Graph.node e.g nid).Ir.n_name fu
      (Binding.fu_module e.b fu).Impact_modlib.Module_library.spec_name
  | None -> Printf.sprintf " // %s" (Graph.node e.g nid).Ir.n_name

let state_name s = Printf.sprintf "S%d" s

let emit (program : Graph.program) (stg : Stg.t) binding =
  let g = program.Graph.graph in
  let e = { buf = Buffer.create 4096; g; b = binding; fired = [] } in
  let n_states = Array.length stg.Stg.states in
  let state_bits = max 1 (int_of_float (ceil (log (float_of_int (n_states + 1)) /. log 2.))) in
  line e "// Generated by the IMPACT reproduction: %s" program.Graph.prog_name;
  line e "// states: %d (clock %.1f ns), registers: %d, functional units: %d"
    (Stg.state_count stg) stg.Stg.clock_ns (Binding.reg_count binding)
    (Binding.fu_count binding);
  line e "module %s (" (module_name program);
  line e "  input wire clk,";
  line e "  input wire rst,";
  line e "  input wire start,";
  List.iter
    (fun (name, width) -> line e "  input wire signed [%d:0] %s," (width - 1) (sanitize name))
    program.Graph.prog_inputs;
  let outs = program.Graph.prog_outputs in
  List.iteri
    (fun i (name, nid) ->
      let width = (Graph.node g nid).Ir.n_width in
      line e "  output wire signed [%d:0] %s," (width - 1) (sanitize name);
      ignore i)
    outs;
  line e "  output reg done";
  line e ");";
  line e "";
  (* State encoding: IDLE = 0, STG state s = s + 1. *)
  line e "  localparam IDLE = %d'd0;" state_bits;
  for s = 0 to n_states - 1 do
    line e "  localparam %s = %d'd%d;" (state_name s) state_bits (s + 1)
  done;
  line e "  reg [%d:0] state;" (state_bits - 1);
  line e "";
  (* Registers. *)
  List.iter
    (fun reg ->
      let holders =
        List.map (fun nid -> (Graph.node g nid).Ir.n_name) (Binding.reg_values binding reg)
        @ Binding.reg_input_names binding reg
      in
      line e "  reg signed [%d:0] %s; // %s"
        (Binding.reg_width binding reg - 1)
        (reg_name reg) (String.concat ", " holders))
    (Binding.reg_ids binding);
  line e "";
  (* Chaining temporaries: one per node that fires anywhere. *)
  let fires = Hashtbl.create 64 in
  Stg.iter_firings stg ~f:(fun _ fr -> Hashtbl.replace fires fr.Stg.f_node ());
  Graph.iter_nodes g ~f:(fun n ->
      if Hashtbl.mem fires n.Ir.n_id then
        line e "  reg signed [%d:0] %s;" (n.Ir.n_width - 1) (temp_name n.Ir.n_id));
  line e "";
  (* Outputs read their registers continuously. *)
  List.iter
    (fun (name, nid) ->
      line e "  assign %s = %s;" (sanitize name) (reg_name (Binding.reg_of binding nid)))
    outs;
  line e "";
  line e "  always @(posedge clk) begin";
  line e "    done <= 1'b0;";
  line e "    if (rst) state <= IDLE;";
  line e "    else case (state)";
  line e "      IDLE: if (start) begin";
  List.iter
    (fun (name, _) ->
      line e "        %s <= %s;" (input_reg_name e name) (sanitize name))
    program.Graph.prog_inputs;
  line e "        state <= %s;" (state_name stg.Stg.entry);
  line e "      end";
  for s = 0 to n_states - 1 do
    if s = stg.Stg.exit_id then begin
      line e "      %s: begin" (state_name s);
      line e "        done <= 1'b1;";
      line e "        state <= IDLE;";
      line e "      end"
    end
    else begin
      line e "      %s: begin" (state_name s);
      e.fired <- [];
      List.iter
        (fun fr ->
          let n = Graph.node g fr.Stg.f_node in
          let expr = compute_expr e n fr.Stg.f_phase in
          let reg = reg_name (Binding.reg_of binding fr.Stg.f_node) in
          let t = temp_name fr.Stg.f_node in
          if Guard.equal Guard.always fr.Stg.f_guard then begin
            line e "        %s = %s;%s" t expr (fu_comment e fr.Stg.f_node);
            line e "        %s <= %s;" reg t
          end
          else begin
            (* The unselected unit holds; the temp mirrors the simulator's
               fresh-else-register read rule. *)
            let gexpr = guard_expr e fr.Stg.f_guard in
            line e "        if (%s) %s = %s; else %s = %s;%s" gexpr t expr t reg
              (fu_comment e fr.Stg.f_node);
            line e "        if (%s) %s <= %s;" gexpr reg t
          end;
          e.fired <- fr.Stg.f_node :: e.fired)
        (Stg.firings_of stg s);
      (match stg.Stg.succs.(s) with
      | [] -> ()
      | transitions ->
        let rec branches first = function
          | [] -> ()
          | [ { Stg.t_dst; _ } ] when not first ->
            line e "        else state <= %s;" (state_name t_dst)
          | { Stg.t_guard; t_dst } :: rest ->
            line e "        %s (%s) state <= %s;"
              (if first then "if" else "else if")
              (guard_expr e t_guard) (state_name t_dst);
            branches false rest
        in
        (match transitions with
        | [ { Stg.t_dst; _ } ] -> line e "        state <= %s;" (state_name t_dst)
        | _ -> branches true transitions));
      line e "      end"
    end
  done;
  line e "      default: state <= IDLE;";
  line e "    endcase";
  line e "  end";
  line e "endmodule";
  Buffer.contents e.buf

let emit_testbench (program : Graph.program) ~vectors =
  let g = program.Graph.graph in
  let name = module_name program in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "// Self-checking testbench for %s (expected values from the reference" name;
  line "// interpreter of the IMPACT reproduction).";
  line "`timescale 1ns/1ns";
  line "module %s_tb;" name;
  line "  reg clk = 0, rst = 1, start = 0;";
  List.iter
    (fun (input, width) -> line "  reg signed [%d:0] %s;" (width - 1) (sanitize input))
    program.Graph.prog_inputs;
  List.iter
    (fun (output, nid) ->
      line "  wire signed [%d:0] %s;" ((Graph.node g nid).Ir.n_width - 1) (sanitize output))
    program.Graph.prog_outputs;
  line "  wire done;";
  line "  integer errors = 0;";
  line "";
  let ports =
    [ "clk"; "rst"; "start" ]
    @ List.map (fun (n, _) -> sanitize n) program.Graph.prog_inputs
    @ List.map (fun (n, _) -> sanitize n) program.Graph.prog_outputs
    @ [ "done" ]
  in
  line "  %s dut (%s);" name (String.concat ", " (List.map (fun p -> "." ^ p ^ "(" ^ p ^ ")") ports));
  line "";
  line "  always #5 clk = ~clk;";
  line "";
  line "  task run_vector;";
  line "    begin";
  line "      @(negedge clk) start = 1;";
  line "      @(negedge clk) start = 0;";
  line "      wait (done);";
  line "      @(negedge clk);";
  line "    end";
  line "  endtask";
  line "";
  line "  initial begin";
  line "    repeat (2) @(negedge clk);";
  line "    rst = 0;";
  List.iteri
    (fun i (inputs, expected) ->
      line "    // vector %d" i;
      List.iter
        (fun (input, width) ->
          let v = Option.value (List.assoc_opt input inputs) ~default:0 in
          line "    %s = %d'sh%X;" (sanitize input) width
            (Bitvec.bits (Bitvec.make ~width v)))
        program.Graph.prog_inputs;
      line "    run_vector;";
      List.iter
        (fun (output, nid) ->
          match List.assoc_opt output expected with
          | Some v ->
            let width = (Graph.node g nid).Ir.n_width in
            line "    if (%s !== %d'sh%X) begin errors = errors + 1; $display(\"FAIL vector %d output %s: got %%h\", %s); end"
              (sanitize output) width
              (Bitvec.bits (Bitvec.make ~width v))
              i (sanitize output) (sanitize output)
          | None -> ())
        program.Graph.prog_outputs)
    vectors;
  line "    if (errors == 0) $display(\"PASS (%d vectors)\");" (List.length vectors);
  line "    else $display(\"FAIL (%%0d errors)\", errors);";
  line "    $finish;";
  line "  end";
  line "endmodule";
  Buffer.contents buf
