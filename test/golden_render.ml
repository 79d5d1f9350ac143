(* The rendering behind the Figure-13 sweep digests of test_golden.ml and
   figure13_default.ml: the %h-rendered sweep (base power and area, every
   point's normalised A-Power/I-Power/I-Area and supplies) and, for each of
   its designs, the cost, area, ENC, Vdd, STG signature and the
   accepted-move list. *)

module Stg = Impact_sched.Stg
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver

let render_design buf (d : Driver.design) =
  let s = d.Driver.d_solution in
  Printf.bprintf buf "design cost=%h area=%h enc=%h vdd=%h\nsig=%s\n" s.Solution.cost
    s.Solution.area s.Solution.enc s.Solution.vdd (Stg.signature s.Solution.stg);
  List.iter
    (fun m -> Printf.bprintf buf "move %s\n" (Moves.describe m))
    d.Driver.d_search.Search.moves_applied

let render (sw : Driver.sweep) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "base power=%h area=%h\n" sw.Driver.sw_base_power sw.Driver.sw_base_area;
  List.iter
    (fun p ->
      Printf.bprintf buf "point %h a_power=%h i_power=%h i_area=%h a_vdd=%h i_vdd=%h\n"
        p.Driver.sp_laxity p.Driver.sp_a_power p.Driver.sp_i_power p.Driver.sp_i_area
        p.Driver.sp_a_vdd p.Driver.sp_i_vdd;
      render_design buf p.Driver.sp_area_design;
      render_design buf p.Driver.sp_power_design)
    sw.Driver.sw_points;
  Buffer.contents buf

let sweep_digest sw = Digest.to_hex (Digest.string (render sw))
