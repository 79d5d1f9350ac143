(* Unit and property tests for the utility substrate. *)

module Bitvec = Impact_util.Bitvec
module Rng = Impact_util.Rng
module Stats = Impact_util.Stats
module Linsolve = Impact_util.Linsolve
module Table = Impact_util.Table
module Keybuf = Impact_util.Keybuf
module Ir = Impact_cdfg.Ir
module Sim = Impact_sim.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Bitvec ------------------------------------------------------------ *)

let test_bitvec_roundtrip () =
  let v = Bitvec.make ~width:16 (-3) in
  check_int "signed" (-3) (Bitvec.to_signed v);
  check_int "unsigned" 65533 (Bitvec.to_unsigned v);
  check_int "width" 16 (Bitvec.width v)

let test_bitvec_wrap () =
  let v = Bitvec.make ~width:8 300 in
  check_int "wraps mod 256" 44 (Bitvec.to_signed v);
  let max_pos = Bitvec.make ~width:8 127 in
  let one = Bitvec.one ~width:8 in
  check_int "overflow wraps to min" (-128) (Bitvec.to_signed (Bitvec.add max_pos one))

let test_bitvec_arith () =
  let mk = Bitvec.make ~width:16 in
  check_int "add" 12 (Bitvec.to_signed (Bitvec.add (mk 7) (mk 5)));
  check_int "sub" 2 (Bitvec.to_signed (Bitvec.sub (mk 7) (mk 5)));
  check_int "mul" 35 (Bitvec.to_signed (Bitvec.mul (mk 7) (mk 5)));
  check_int "neg" (-7) (Bitvec.to_signed (Bitvec.neg (mk 7)));
  check_bool "lt signed" true (Bitvec.lt (mk (-1)) (mk 0));
  check_bool "ge signed" true (Bitvec.ge (mk 3) (mk (-3)))

let test_bitvec_shift () =
  let mk = Bitvec.make ~width:16 in
  check_int "shl" 40 (Bitvec.to_signed (Bitvec.shift_left (mk 5) 3));
  check_int "asr negative" (-2) (Bitvec.to_signed (Bitvec.shift_right_arith (mk (-8)) 2));
  check_int "lsr" 16382 (Bitvec.to_signed (Bitvec.shift_right_logical (mk (-8)) 2));
  check_int "shl overflow drops" 0 (Bitvec.to_signed (Bitvec.shift_left (mk 1) 16))

let test_bitvec_hamming () =
  let mk = Bitvec.make ~width:8 in
  check_int "identical" 0 (Bitvec.hamming (mk 42) (mk 42));
  check_int "all bits" 8 (Bitvec.hamming (mk 0) (mk 255));
  check_int "one bit" 1 (Bitvec.hamming (mk 4) (mk 0));
  Alcotest.check_raises "width mismatch" (Invalid_argument "Bitvec.hamming: width mismatch 8 vs 16")
    (fun () -> ignore (Bitvec.hamming (mk 0) (Bitvec.make ~width:16 0)))

let test_bitvec_resize () =
  let v = Bitvec.make ~width:8 (-3) in
  check_int "sign extend" (-3) (Bitvec.to_signed (Bitvec.resize ~width:16 v));
  let big = Bitvec.make ~width:16 300 in
  check_int "truncate" 44 (Bitvec.to_signed (Bitvec.resize ~width:8 big))

let bitvec_props =
  let gen = QCheck.Gen.(pair (int_range 1 30) (int_range (-100000) 100000)) in
  let arb = QCheck.make gen ~print:(fun (w, v) -> Printf.sprintf "w=%d v=%d" w v) in
  [
    QCheck.Test.make ~name:"bitvec add commutative" ~count:500 arb (fun (w, v) ->
        let a = Bitvec.make ~width:w v and b = Bitvec.make ~width:w (v / 3 + 7) in
        Bitvec.equal (Bitvec.add a b) (Bitvec.add b a));
    QCheck.Test.make ~name:"bitvec sub then add restores" ~count:500 arb (fun (w, v) ->
        let a = Bitvec.make ~width:w v and b = Bitvec.make ~width:w (v * 5 + 1) in
        Bitvec.equal a (Bitvec.add (Bitvec.sub a b) b));
    QCheck.Test.make ~name:"bitvec signed fits range" ~count:500 arb (fun (w, v) ->
        let s = Bitvec.to_signed (Bitvec.make ~width:w v) in
        s >= -(1 lsl (w - 1)) && s < 1 lsl (w - 1));
    QCheck.Test.make ~name:"hamming triangle inequality" ~count:500 arb (fun (w, v) ->
        let a = Bitvec.make ~width:w v
        and b = Bitvec.make ~width:w (v + 13)
        and c = Bitvec.make ~width:w (v * 2 - 5) in
        Bitvec.hamming a c <= Bitvec.hamming a b + Bitvec.hamming b c);
  ]

(* --- The simulators' operator kernel ----------------------------------- *)

(* [Sim.eval] on raw bits against Bitvec's own operations, for every kind
   but the phase-driven loop merge.  Operand values lean on the edges of
   their width (zero, one, all ones, the sign bit and the largest positive
   value), so signed comparisons meet negative operands often; a shift's
   amount has a width of its own and is 0, the width, just above it, or
   above 62 about as often as it is random; a resize goes to a random width,
   narrower or wider. *)
let kernel_kinds =
  [|
    Ir.Op_add; Ir.Op_sub; Ir.Op_mul; Ir.Op_lt; Ir.Op_le; Ir.Op_gt; Ir.Op_ge; Ir.Op_eq;
    Ir.Op_ne; Ir.Op_and; Ir.Op_or; Ir.Op_xor; Ir.Op_not; Ir.Op_shl; Ir.Op_shr;
    Ir.Op_copy; Ir.Op_resize; Ir.Op_select; Ir.Op_end_loop; Ir.Op_output "o";
  |]

let kernel_reference kind ~width (ops : Bitvec.t array) =
  let a = ops.(0) and b () = ops.(1) in
  let amount () = min (Bitvec.to_unsigned (b ())) Bitvec.max_width in
  match kind with
  | Ir.Op_add -> Bitvec.add a (b ())
  | Ir.Op_sub -> Bitvec.sub a (b ())
  | Ir.Op_mul -> Bitvec.mul a (b ())
  | Ir.Op_lt -> Bitvec.of_bool (Bitvec.lt a (b ()))
  | Ir.Op_le -> Bitvec.of_bool (Bitvec.le a (b ()))
  | Ir.Op_gt -> Bitvec.of_bool (Bitvec.gt a (b ()))
  | Ir.Op_ge -> Bitvec.of_bool (Bitvec.ge a (b ()))
  | Ir.Op_eq -> Bitvec.of_bool (Bitvec.equal a (b ()))
  | Ir.Op_ne -> Bitvec.of_bool (not (Bitvec.equal a (b ())))
  | Ir.Op_and -> Bitvec.logand a (b ())
  | Ir.Op_or -> Bitvec.logor a (b ())
  | Ir.Op_xor -> Bitvec.logxor a (b ())
  | Ir.Op_not -> Bitvec.lognot a
  | Ir.Op_shl -> Bitvec.shift_left a (amount ())
  | Ir.Op_shr -> Bitvec.shift_right_arith a (amount ())
  | Ir.Op_copy | Ir.Op_end_loop | Ir.Op_output _ -> a
  | Ir.Op_resize -> Bitvec.resize ~width a
  | Ir.Op_select -> if Bitvec.to_bool a then b () else ops.(2)
  | Ir.Op_loop_merge -> assert false

let kernel_case =
  let open QCheck.Gen in
  let value w =
    map
      (fun v -> Bitvec.make ~width:w v)
      (oneof
         [
           int; int; return 0; return 1; return (-1); return (1 lsl (w - 1));
           return ((1 lsl (w - 1)) - 1);
         ])
  in
  let amount w =
    int_range 1 Bitvec.max_width >>= fun bw ->
    map
      (fun v -> Bitvec.make ~width:bw v)
      (oneof
         [ int; return 0; return w; return (w + 1); int_range 63 (1 lsl 20); return max_int ])
  in
  int_bound (Array.length kernel_kinds - 1) >>= fun k ->
  int_range 1 Bitvec.max_width >>= fun w ->
  int_range 1 Bitvec.max_width >>= fun width ->
  let kind = kernel_kinds.(k) in
  let ops =
    match kind with
    | Ir.Op_shl | Ir.Op_shr -> map2 (fun a b -> [| a; b |]) (value w) (amount w)
    | Ir.Op_select -> map3 (fun c a b -> [| c; a; b |]) (value 1) (value w) (value w)
    | _ -> array_size (return (Ir.op_arity kind)) (value w)
  in
  map (fun ops -> (kind, width, ops)) ops

let kernel_prop =
  let print (kind, width, ops) =
    Printf.sprintf "%s width=%d operands=%s" (Ir.op_name kind) width
      (String.concat " " (Array.to_list (Array.map Bitvec.to_string ops)))
  in
  QCheck.Test.make ~name:"int kernel matches Bitvec on every kind" ~count:5000
    (QCheck.make kernel_case ~print)
    (fun (kind, width, ops) ->
      let expected = kernel_reference kind ~width ops in
      let ws = Array.map Bitvec.width ops in
      let out = Sim.result_width kind ~width ws in
      let bits i = if i < Array.length ops then Bitvec.bits ops.(i) else 0 in
      out = Bitvec.width expected
      && Sim.eval kind ~width:out ~in_width:ws.(0) (bits 0) (bits 1) (bits 2)
         = Bitvec.bits expected)

(* --- Rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 3 9 in
    check_bool "in range" true (v >= 3 && v <= 9)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int parent 1000000) in
  let ys = List.init 50 (fun _ -> Rng.int child 1000000) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_float_distribution () =
  let rng = Rng.create ~seed:99 in
  let acc = Stats.create () in
  for _ = 1 to 10_000 do
    Stats.add acc (Rng.float rng)
  done;
  check_bool "mean near 0.5" true (abs_float (Stats.mean acc -. 0.5) < 0.02)

(* --- Stats ------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.of_list [ 1.; 2.; 3.; 4. ] in
  check_float "mean" 2.5 (Stats.mean s);
  check_float "variance" 1.25 (Stats.variance s);
  check_float "min" 1. (Stats.min_value s);
  check_float "max" 4. (Stats.max_value s);
  check_float "total" 10. (Stats.total s)

let test_stats_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = [| 2.; 4.; 6.; 8. |] in
  check_float "perfect correlation" 1. (Stats.pearson xs ys);
  let zs = [| 8.; 6.; 4.; 2. |] in
  check_float "perfect anticorrelation" (-1.) (Stats.pearson xs zs);
  check_float "constant series" 0. (Stats.pearson xs [| 1.; 1.; 1.; 1. |])

let test_stats_weighted_mean () =
  check_float "weighted" 3. (Stats.weighted_mean [ (1., 1.); (1., 5.) ]);
  check_float "empty" 0. (Stats.weighted_mean [])

(* --- Linsolve ---------------------------------------------------------- *)

let test_linsolve_identity () =
  let a = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let x = Linsolve.solve a [| 3.; 4. |] in
  check_float "x0" 3. x.(0);
  check_float "x1" 4. x.(1)

let test_linsolve_general () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Linsolve.solve a [| 5.; 10. |] in
  check_float "x0" 1. x.(0);
  check_float "x1" 3. x.(1)

let test_linsolve_singular () =
  let a = [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  Alcotest.check_raises "singular" Linsolve.Singular (fun () ->
      ignore (Linsolve.solve a [| 1.; 2. |]))

let test_hitting_times_chain () =
  (* Two-state chain: 0 -> 1 with prob 1, 1 absorbs with prob 1.
     Expected steps: state 1 takes 1 step, state 0 takes 2. *)
  let q = [| [| 0.; 1. |]; [| 0.; 0. |] |] in
  let t = Linsolve.hitting_times q in
  check_float "from 1" 1. t.(1);
  check_float "from 0" 2. t.(0)

let test_hitting_times_geometric () =
  (* Single state looping with probability 9/10: expected visits 10. *)
  let q = [| [| 0.9 |] |] in
  let t = Linsolve.hitting_times q in
  check_bool "close to 10" true (abs_float (t.(0) -. 10.) < 1e-9)

(* --- Table ------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_float_row t ~decimals:2 "y" [ 3.14159 ];
  let out = Table.render t in
  check_bool "has title" true (String.length out > 0 && String.sub out 0 2 = "==");
  check_bool "contains pi" true
    (String.split_on_char '\n' out |> List.exists (fun l -> l = "y     3.14"))

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only" ])

(* --- Keybuf ------------------------------------------------------------ *)

let key fields =
  let kb = Keybuf.create 16 in
  fields kb;
  Keybuf.contents kb

let test_keybuf_lists () =
  let two_lists a b kb =
    Keybuf.ints kb a;
    Keybuf.ints kb b
  in
  check_bool "adjacent int lists cannot alias" true
    (key (two_lists [ 1; 2 ] [ 3 ]) <> key (two_lists [ 1 ] [ 2; 3 ]));
  check_bool "an empty list is not elided" true
    (key (two_lists [] [ 0 ]) <> key (two_lists [ 0 ] []));
  let two_strings a b kb =
    Keybuf.string kb a;
    Keybuf.string kb b
  in
  check_bool "adjacent strings cannot alias" true
    (key (two_strings "ab" "c") <> key (two_strings "a" "bc"))

let test_keybuf_ints () =
  check_bool "-1 and 1 differ" true (key (fun kb -> Keybuf.int kb (-1)) <> key (fun kb -> Keybuf.int kb 1));
  check_int "small negatives take one byte" 1 (String.length (key (fun kb -> Keybuf.int kb (-64))));
  check_int "ids below 64 take one byte" 1 (String.length (key (fun kb -> Keybuf.int kb 63)));
  check_int "64 takes two" 2 (String.length (key (fun kb -> Keybuf.int kb 64)));
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "%d encodes in at most 9 bytes" n) true
        (String.length (key (fun kb -> Keybuf.int kb n)) <= 9))
    [ min_int; max_int; -1; 0 ]

let test_keybuf_floats () =
  check_bool "0.0 and -0.0 differ" true
    (key (fun kb -> Keybuf.float kb 0.0) <> key (fun kb -> Keybuf.float kb (-0.0)));
  check_int "floats are raw 64-bit words" 8 (String.length (key (fun kb -> Keybuf.float kb 1.5)))

let keybuf_int_prop =
  let extreme = QCheck.Gen.oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ] in
  let gen = QCheck.Gen.(frequency [ (3, int); (1, extreme); (2, int_range (-300) 300) ]) in
  QCheck.Test.make ~name:"keybuf int injective" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair int int) (QCheck.Gen.pair gen gen))
    (fun (a, b) ->
      key (fun kb -> Keybuf.int kb a) = key (fun kb -> Keybuf.int kb b) = (a = b))

let () =
  let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests in
  Alcotest.run "impact_util"
    [
      ( "bitvec",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitvec_roundtrip;
          Alcotest.test_case "wrap" `Quick test_bitvec_wrap;
          Alcotest.test_case "arith" `Quick test_bitvec_arith;
          Alcotest.test_case "shift" `Quick test_bitvec_shift;
          Alcotest.test_case "hamming" `Quick test_bitvec_hamming;
          Alcotest.test_case "resize" `Quick test_bitvec_resize;
        ] );
      ("bitvec-props", qsuite bitvec_props);
      ("kernel", qsuite [ kernel_prop ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "float distribution" `Quick test_rng_float_distribution;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "weighted mean" `Quick test_stats_weighted_mean;
        ] );
      ( "linsolve",
        [
          Alcotest.test_case "identity" `Quick test_linsolve_identity;
          Alcotest.test_case "general" `Quick test_linsolve_general;
          Alcotest.test_case "singular" `Quick test_linsolve_singular;
          Alcotest.test_case "hitting chain" `Quick test_hitting_times_chain;
          Alcotest.test_case "hitting geometric" `Quick test_hitting_times_geometric;
        ] );
      ( "keybuf",
        [
          Alcotest.test_case "lists and strings" `Quick test_keybuf_lists;
          Alcotest.test_case "ints" `Quick test_keybuf_ints;
          Alcotest.test_case "floats" `Quick test_keybuf_floats;
        ]
        @ qsuite [ keybuf_int_prop ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
    ]
