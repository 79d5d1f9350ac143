module Graph = Impact_cdfg.Graph
module Ir = Impact_cdfg.Ir
module Stg = Impact_sched.Stg
module Bitvec = Impact_util.Bitvec
module Vec = Impact_util.Vec

type signal = { sig_id : string; sig_name : string; sig_width : int }

type t = {
  signals : signal array;  (* state first, then registers *)
  changes : (int * int * int) Vec.t;  (* time, signal index, value bits *)
  mutable total_cycles : int;
}

(* Short printable VCD identifiers drawn from the printable ASCII range. *)
let vcd_id k =
  let base = 94 and first = 33 in
  let rec build k acc =
    let c = Char.chr (first + (k mod base)) in
    let acc = String.make 1 c ^ acc in
    if k < base then acc else build ((k / base) - 1) acc
  in
  build k ""

let bits_string ~width v =
  String.init width (fun i -> if (v lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let capture (program : Graph.program) stg binding ~workload =
  let g = program.Graph.graph in
  let state_bits =
    max 1
      (int_of_float
         (ceil (log (float_of_int (max 2 (Array.length stg.Stg.states))) /. log 2.)))
  in
  let regs = Array.of_list (Binding.reg_ids binding) in
  let signals =
    Array.append
      [| { sig_id = vcd_id 0; sig_name = "state"; sig_width = state_bits } |]
      (Array.mapi
         (fun i reg ->
           let holders =
             List.map (fun nid -> (Graph.node g nid).Ir.n_name) (Binding.reg_values binding reg)
             @ Binding.reg_input_names binding reg
           in
           let pretty =
             String.map
               (fun c ->
                 if
                   (c >= 'a' && c <= 'z')
                   || (c >= 'A' && c <= 'Z')
                   || (c >= '0' && c <= '9')
                 then c
                 else '_')
               (String.concat "_" holders)
           in
           {
             sig_id = vcd_id (i + 1);
             sig_name = Printf.sprintf "r%d_%s" reg pretty;
             sig_width = Binding.reg_width binding reg;
           })
         regs)
  in
  let sig_of_reg = Array.make (Array.fold_left max (-1) regs + 1) (-1) in
  Array.iteri (fun i reg -> sig_of_reg.(reg) <- i + 1) regs;
  let changes = Vec.create () in
  let last = Array.make (Array.length signals) (-1) in
  let time = ref (-1) in
  let record i v =
    let bits = v land Bitvec.mask signals.(i).sig_width in
    if last.(i) <> bits then begin
      last.(i) <- bits;
      ignore (Vec.push changes (!time, i, bits))
    end
  in
  let observer =
    {
      Rtl_sim.on_cycle =
        (fun ~pass:_ ~state ->
          incr time;
          record 0 state);
      on_firing =
        (fun ~pass:_ ~state:_ ~firing ~inputs:_ ~output ->
          let i = sig_of_reg.(Binding.reg_of binding firing.Stg.f_node) in
          if i > 0 then record i output);
    }
  in
  let result = Rtl_sim.simulate ~observer program stg binding ~workload in
  ( { signals; changes; total_cycles = result.Rtl_sim.total_cycles },
    result )

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$version IMPACT reproduction $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf "$scope module dut $end\n";
  Array.iter
    (fun sg ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" sg.sig_width sg.sig_id sg.sig_name))
    t.signals;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let current = ref (-1) in
  Vec.iteri t.changes ~f:(fun _ (time, i, v) ->
      if time <> !current then begin
        current := time;
        Buffer.add_string buf (Printf.sprintf "#%d\n" time)
      end;
      let id = t.signals.(i).sig_id and bits = bits_string ~width:t.signals.(i).sig_width v in
      if String.length bits = 1 then Buffer.add_string buf (bits ^ id ^ "\n")
      else Buffer.add_string buf ("b" ^ bits ^ " " ^ id ^ "\n"));
  Buffer.add_string buf (Printf.sprintf "#%d\n" t.total_cycles);
  Buffer.contents buf

let change_count t = Vec.length t.changes
