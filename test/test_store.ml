(* The persistent content-addressed store: envelope round-trips, pure-read
   hits, write-order eviction, corruption resilience (truncation, bit
   flips, version skew all read as misses, never crashes), the single-flight
   scheduler under thread races, and — the contract the layer above depends
   on — warm Driver answers bit-identical to the cold searches that
   populated the store, across every benchmark and every tier. *)

module Store = Impact_store.Store
module Wire = Impact_store.Wire
module Suite = Impact_benchmarks.Suite
module Stg = Impact_sched.Stg
module Scheduler = Impact_sched.Scheduler
module Module_library = Impact_modlib.Module_library
module Estimate = Impact_power.Estimate
module Solution = Impact_core.Solution
module Moves = Impact_core.Moves
module Search = Impact_core.Search
module Driver = Impact_core.Driver
module Tier = Impact_core.Tier
module Sim = Impact_sim.Sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "impact-test-store.%d.%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* The on-disk path of a content key's object, mirroring the store layout
   (namespace directory, then two-char fan-out under objects/) — used to
   corrupt objects behind the API's back.  [object_path] hashes a raw name
   first. *)
let object_path_of_key ?(ns = Store.default_ns) dir ck =
  List.fold_left Filename.concat dir [ "objects"; ns; String.sub ck 0 2; ck ]

let object_path ?ns dir name = object_path_of_key ?ns dir (Store.key name)

let tier name st =
  match List.assoc_opt name st.Store.st_tiers with
  | Some t -> t
  | None -> Alcotest.failf "no %S tier in stats" name

let tier_reads name st =
  let t = tier name st in
  t.Store.ts_hits + t.Store.ts_misses

(* Eviction ranks objects by file mtime.  A test that expects a particular
   object to go first gives every object an explicit write time with
   [age], [n] seconds into a fixed epoch, so coarse filesystem timestamps
   cannot tie two writes. *)
let age d name n =
  let t = 1e9 +. float_of_int n in
  Unix.utimes (object_path d name) t t

let mtime d name = (Unix.stat (object_path d name)).Unix.st_mtime
let exists d name = Sys.file_exists (object_path d name)

(* --- store primitives ----------------------------------------------------- *)

(* [find]/[put] take content keys (hex digests); [k] is the canonical-key
   step the Driver layer performs. *)
let k = Store.key

let test_roundtrip () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      check_bool "fresh store misses" true (Store.find s (k "k1") = None);
      Store.put s (k "k1") "payload one";
      Store.put s (k "k2") (String.make 4096 '\x00');
      check_bool "hit k1" true (Store.find s (k "k1") = Some "payload one");
      check_bool "hit k2" true
        (Store.find s (k "k2") = Some (String.make 4096 '\x00'));
      (* A second handle on the same directory sees the same objects — the
         persistence is real, not just the memory layer. *)
      let s2 = Store.open_store ~dir:d () in
      check_bool "second handle hit" true (Store.find s2 (k "k1") = Some "payload one");
      let st = Store.stats s in
      check_int "entries" 2 st.Store.st_entries;
      check_int "writes" 2 st.Store.st_writes;
      check_int "hits" 2 st.Store.st_hits;
      check_int "misses" 1 st.Store.st_misses;
      check_bool "bytes counted" true (st.Store.st_bytes > 4096))

let test_clear_gc () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      for i = 1 to 8 do
        Store.put s (k (Printf.sprintf "k%d" i)) (String.make 1000 (Char.chr (64 + i)))
      done;
      check_int "gc to cap evicts" 6 (Store.gc ~max_bytes:2100 s);
      let st = Store.stats s in
      check_int "entries after gc" 2 st.Store.st_entries;
      check_bool "fits cap" true (st.Store.st_bytes <= 2100);
      check_int "clear removes the rest" 2 (Store.clear s);
      check_int "empty" 0 (Store.stats s).Store.st_entries;
      check_bool "cleared key misses" true (Store.find s (k "k8") = None))

let test_write_order_eviction () =
  with_dir (fun d ->
      (* Cap fits roughly two objects; eviction order is write order. *)
      let s = Store.open_store ~dir:d ~max_bytes:2500 () in
      Store.put s (k "a") (String.make 1000 'a');
      age d "a" 1;
      Store.put s (k "b") (String.make 1000 'b');
      age d "b" 2;
      Store.put s (k "c") (String.make 1000 'c');
      let st = Store.stats s in
      check_bool "evicted down to cap" true (st.Store.st_bytes <= 2500);
      check_bool "oldest object evicted" true
        (not (Sys.file_exists (object_path d "a")));
      check_bool "newest object kept" true (Sys.file_exists (object_path d "c")))

let test_hit_is_pure_read () =
  with_dir (fun d ->
      (* A hit, from disk or from the memory layer, leaves the object's
         bytes and mtime as they were and writes no other file. *)
      let payload = String.make 1000 'a' in
      Store.put (Store.open_store ~dir:d ()) (k "a") payload;
      age d "a" 1;
      let path = object_path d "a" in
      let bytes () = In_channel.with_open_bin path In_channel.input_all in
      let before = bytes () and written = mtime d "a" in
      let s = Store.open_store ~dir:d () in
      check_bool "disk hit" true (Store.find s (k "a") = Some payload);
      check_bool "memory hit" true (Store.find s (k "a") = Some payload);
      check_int "both were hits" 2 (Store.stats s).Store.st_hits;
      check_bool "bytes unchanged" true (bytes () = before);
      check_bool "mtime unchanged" true (mtime d "a" = written);
      check_bool "no clock file" false (Sys.file_exists (Filename.concat d "clock")))

let test_eviction_across_handles () =
  with_dir (fun d ->
      (* Two handles interleave writes; a third evicts in write order,
         whichever handle wrote an object and whether it was hit since.
         Equal write times fall back to key order. *)
      let h1 = Store.open_store ~dir:d () and h2 = Store.open_store ~dir:d () in
      let put h name n =
        Store.put h (k name) (String.make 100 'x');
        age d name n
      in
      put h1 "a" 1;
      put h2 "b" 2;
      put h1 "c" 3;
      put h2 "d" 4;
      put h1 "e" 4;
      check_bool "the oldest object hits" true (Store.find h2 (k "a") <> None);
      let h3 = Store.open_store ~dir:d () in
      check_int "gc evicts the two oldest" 2 (Store.gc ~max_bytes:(3 * 128) h3);
      check_bool "oldest evicted though hit" false (exists d "a");
      check_bool "second oldest evicted" false (exists d "b");
      check_bool "newer kept" true (exists d "c" && exists d "d" && exists d "e");
      let lower, higher = if k "d" < k "e" then ("d", "e") else ("e", "d") in
      check_int "down to one object" 2 (Store.gc ~max_bytes:128 h3);
      check_bool "older than the tie evicted" false (exists d "c");
      check_bool "a write-time tie evicts the lower key" false (exists d lower);
      check_bool "the higher key kept" true (exists d higher);
      (* The object a write just made ranks newest, even beside an object
         whose writer's clock ran ahead of this one's. *)
      age d higher 2_000_000_000;
      Store.put (Store.open_store ~dir:d ~max_bytes:128 ()) (k "f") (String.make 100 'x');
      check_bool "the future-dated object evicted" false (exists d higher);
      check_bool "the fresh write kept" true (exists d "f"))

let test_tiers () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      (* The same content key names different objects in different tiers. *)
      Store.put s ~ns:"sim" (k "x") "sim payload";
      Store.put s (k "x") "design payload";
      check_bool "namespaces are distinct" true
        (Store.find s ~ns:"sim" (k "x") = Some "sim payload"
        && Store.find s (k "x") = Some "design payload");
      check_bool "sim-only key misses in design" true (Store.find s (k "y") = None);
      let st = Store.stats s in
      check_int "sim entries" 1 (tier "sim" st).Store.ts_entries;
      check_int "sim hits" 1 (tier "sim" st).Store.ts_hits;
      check_int "sim writes" 1 (tier "sim" st).Store.ts_writes;
      check_int "design entries" 1 (tier "design" st).Store.ts_entries;
      check_int "design misses" 1 (tier "design" st).Store.ts_misses;
      check_bool "tier bytes counted" true ((tier "sim" st).Store.ts_bytes > 0);
      (* A fresh handle discovers the tiers from the disk layout. *)
      let st2 = Store.stats (Store.open_store ~dir:d ()) in
      check_int "tiers discovered" 2 (List.length st2.Store.st_tiers);
      (* Namespaces become directory names; reject anything that could
         escape the layout. *)
      check_bool "invalid namespace rejected" true
        (match Store.put s ~ns:"../evil" (k "x") "p" with
        | exception Invalid_argument _ -> true
        | () -> false))

let test_hits_per_ns () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      Store.put s ~ns:"sim" (k "x") "sim payload";
      Store.put s (k "x") "design payload";
      ignore (Store.find s ~ns:"sim" (k "x"));
      ignore (Store.find s ~ns:"sim" (k "x"));
      ignore (Store.find s (k "x"));
      ignore (Store.find s (k "missing"));
      check_int "sim hits" 2 (Store.hits ~ns:"sim" s);
      check_int "design hits" 1 (Store.hits ~ns:Store.default_ns s);
      check_int "unread namespace" 0 (Store.hits ~ns:"traces" s);
      check_int "all namespaces" 3 (Store.hits s);
      let st = Store.stats s in
      check_int "agrees with stats" (tier "sim" st).Store.ts_hits (Store.hits ~ns:"sim" s);
      check_int "agrees with stats total" st.Store.st_hits (Store.hits s);
      check_bool "reading a counter lists no namespace" true
        (List.assoc_opt "traces" st.Store.st_tiers = None))

(* An overwrite must replace the memory layer's copy too, or the handle
   keeps serving the payload it replaced. *)
let test_put_overwrites_memory () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d () in
      Store.put s (k "x") "old";
      check_bool "old hits" true (Store.find s (k "x") = Some "old");
      Store.put s (k "x") "new";
      check_bool "same handle sees the overwrite" true (Store.find s (k "x") = Some "new");
      check_bool "disk holds the overwrite" true
        (Store.find (Store.open_store ~dir:d ()) (k "x") = Some "new"))

let test_human_bytes () =
  check_string "bytes" "512 B" (Store.human_bytes 512);
  check_string "kib" "65.4 KiB" (Store.human_bytes 66969);
  check_string "mib" "256.0 MiB" (Store.human_bytes (256 * 1024 * 1024));
  check_string "zero" "0 B" (Store.human_bytes 0)

(* --- corruption ----------------------------------------------------------- *)

let corrupt path f =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let raw' = f (Bytes.of_string raw) in
  let oc = open_out_bin path in
  output_bytes oc raw';
  close_out oc

let test_corruption () =
  let damage =
    [
      ("truncated", fun b -> Bytes.sub b 0 (Bytes.length b / 2));
      ("empty", fun _ -> Bytes.create 0);
      ( "flipped payload bit",
        fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          b );
      ( "flipped checksum bit",
        fun b ->
          (* Byte 14 is inside the 16-byte payload digest (offsets 12-27). *)
          Bytes.set b 14 (Char.chr (Char.code (Bytes.get b 14) lxor 0x80));
          b );
      ( "version skew",
        fun b ->
          (* Last magic byte is the format version. *)
          Bytes.set b 11 '\xff';
          b );
      ("garbage", fun _ -> Bytes.of_string "not an impact store object");
    ]
  in
  List.iter
    (fun (name, f) ->
      with_dir (fun d ->
          let s = Store.open_store ~dir:d () in
          Store.put s (k "victim") "precious payload";
          let path = object_path d "victim" in
          corrupt path f;
          (* A fresh handle, so the memory layer cannot mask the damage. *)
          let s2 = Store.open_store ~dir:d () in
          check_bool (name ^ " reads as miss") true (Store.find s2 (k "victim") = None);
          check_bool (name ^ " object removed") true (not (Sys.file_exists path));
          (* The store stays usable: the overwrite repairs the entry. *)
          Store.put s2 (k "victim") "precious payload";
          check_bool (name ^ " rewrite hits") true
            (Store.find s2 (k "victim") = Some "precious payload")))
    damage

(* --- the byte tally -------------------------------------------------------- *)

(* A handle scans the store only when its running byte tally passes the
   cap.  An over-count costs one extra scan; an under-count would leave the
   store over its cap, so these cases pin every path that moves the tally.
   Objects here are 28-byte envelopes around the payload. *)

let test_tally_overwrite_grows () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d ~max_bytes:2500 () in
      Store.put s (k "a") (String.make 1000 'a');
      age d "a" 1;
      Store.put s (k "b") (String.make 1000 'b');
      Store.put s (k "b") (String.make 1000 'B');
      age d "b" 2;
      check_int "a same-size overwrite stays under the cap" 0
        (Store.stats s).Store.st_evicted;
      Store.put s (k "b") (String.make 1500 'b');
      let st = Store.stats s in
      check_int "growing overwrite evicts" 1 st.Store.st_evicted;
      check_bool "fits cap" true (st.Store.st_bytes <= 2500);
      check_bool "older object evicted" false (exists d "a");
      check_bool "overwrite kept" true
        (Store.find s (k "b") = Some (String.make 1500 'b')))

let test_tally_corrupt_removal () =
  with_dir (fun d ->
      (* No memory layer, so [find] reads the damaged object from disk. *)
      let s = Store.open_store ~dir:d ~max_bytes:3084 ~mem_capacity:0 () in
      List.iteri
        (fun i n ->
          Store.put s (k n) (String.make 1000 'x');
          age d n i)
        [ "a"; "b"; "c" ];
      corrupt (object_path d "b") (fun b ->
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          b);
      check_bool "corrupt object misses" true (Store.find s (k "b") = None);
      Store.put s (k "d") (String.make 1000 'x');
      age d "d" 3;
      check_int "the removed object's bytes are free again" 0
        (Store.stats s).Store.st_evicted;
      check_bool "a c d kept" true (exists d "a" && exists d "c" && exists d "d");
      Store.put s (k "e") (String.make 1000 'x');
      let st = Store.stats s in
      check_int "the next object over the cap evicts one" 1 st.Store.st_evicted;
      check_bool "oldest evicted" false (exists d "a");
      check_bool "fits cap" true (st.Store.st_bytes <= 3084))

let test_tally_cross_process () =
  with_dir (fun d ->
      (* [b] seeds its tally before [a] writes, so only the over-cap rescan
         can learn of [a]'s objects.  [b0] was written before [a]'s objects
         and [b1]..[b6] after, so the rescan evicts [b0] and all of [a]'s.
         Objects are 144 bytes, so [b]'s seventh passes its cap. *)
      let written = ref 0 in
      let put h n c =
        Store.put h (k n) (String.make 116 c);
        incr written;
        age d n !written
      in
      let b = Store.open_store ~dir:d ~max_bytes:1000 () in
      let put_b n = put b n 'b' in
      put_b "b0";
      let a = Store.open_store ~dir:d ~max_bytes:1000 () in
      List.iter (fun n -> put a n 'a') [ "a1"; "a2"; "a3"; "a4"; "a5" ];
      check_int "a stays under the cap" 0 (Store.stats a).Store.st_evicted;
      List.iter put_b [ "b1"; "b2"; "b3"; "b4"; "b5"; "b6" ];
      let st = Store.stats b in
      check_int "b's rescan evicts a's objects too" 6 st.Store.st_evicted;
      check_bool "fits cap" true (st.Store.st_bytes <= 1000);
      check_bool "a's objects evicted" true
        (List.for_all (fun n -> not (exists d n)) [ "a1"; "a2"; "a3"; "a4"; "a5" ]);
      check_bool "b's oldest evicted" false (exists d "b0");
      check_bool "b's newer objects kept" true
        (List.for_all (exists d) [ "b1"; "b2"; "b3"; "b4"; "b5"; "b6" ]);
      (* The rescan left the tally at the true total, so the very next
         object over the cap evicts again. *)
      put_b "b7";
      let st = Store.stats b in
      check_int "the tally holds the rescanned total" 7 st.Store.st_evicted;
      check_bool "still fits cap" true (st.Store.st_bytes <= 1000))

let test_tally_after_clear () =
  with_dir (fun d ->
      let s = Store.open_store ~dir:d ~max_bytes:2500 () in
      Store.put s (k "a") (String.make 1000 'a');
      Store.put s (k "b") (String.make 1000 'b');
      check_int "clear" 2 (Store.clear s);
      Store.put s (k "c") (String.make 1000 'c');
      age d "c" 1;
      Store.put s (k "d") (String.make 1000 'd');
      age d "d" 2;
      check_int "two objects fit after clear" 0 (Store.stats s).Store.st_evicted;
      Store.put s (k "e") (String.make 1000 'e');
      let st = Store.stats s in
      check_int "the third evicts" 1 st.Store.st_evicted;
      check_bool "fits cap" true (st.Store.st_bytes <= 2500);
      check_bool "oldest evicted" false (exists d "c");
      check_bool "newer kept" true (exists d "d" && exists d "e"))

(* --- wire JSON ------------------------------------------------------------ *)

let test_wire_json () =
  let rt s =
    match Wire.parse s with
    | Ok j -> Wire.to_string j
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  check_string "object" {|{"op":"ping","id":3}|} (rt {| { "op" : "ping", "id": 3 } |});
  check_string "escapes" {|{"s":"a\"b\\c\nd"}|} (rt {|{"s":"a\"b\\c\nd"}|});
  check_string "numbers" {|[1,-2.5,0.125,1e+30]|} (rt "[1, -2.5, 0.125, 1e30]");
  check_string "atoms" {|[true,false,null]|} (rt "[true, false, null]");
  check_bool "trailing junk rejected" true
    (match Wire.parse "{} junk" with Error _ -> true | Ok _ -> false);
  check_bool "unterminated rejected" true
    (match Wire.parse {|{"a": 1|} with Error _ -> true | Ok _ -> false);
  (* Frames: length prefix + payload round-trips through a pipe. *)
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w and ic = Unix.in_channel_of_descr r in
  Wire.write_frame oc "hello frames";
  close_out oc;
  (match Wire.read_frame ic with
  | Ok (Some s) -> check_string "frame payload" "hello frames" s
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error e -> Alcotest.fail e);
  (match Wire.read_frame ic with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected EOF"
  | Error e -> Alcotest.fail e);
  close_in ic

(* --- warm Driver answers are bit-identical to cold ------------------------ *)

(* Small but real search options: a few iterations, restructuring on, so
   the persisted entry carries non-trivial moves and restructured ports. *)
let small_options =
  {
    Driver.default_options with
    depth = 2;
    max_candidates = 6;
    max_iterations = 3;
  }

let ledger_terms d =
  match Solution.ledger d.Driver.d_solution with
  | None -> []
  | Some l -> List.sort compare (Estimate.ledger_terms l)

let design_fingerprint d =
  ( d.Driver.d_solution.Solution.cost,
    d.Driver.d_solution.Solution.area,
    d.Driver.d_solution.Solution.enc,
    d.Driver.d_solution.Solution.vdd,
    d.Driver.d_enc_min,
    Stg.signature d.Driver.d_solution.Solution.stg,
    List.map Moves.describe d.Driver.d_search.Search.moves_applied,
    ledger_terms d )

let test_warm_identity () =
  List.iter
    (fun bench ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed:7 ~passes:10 in
          let synth store =
            Driver.synthesize ~options:small_options ~store prog ~workload
              ~objective:Solution.Minimize_power ~laxity:2.0 ()
          in
          let cold = synth store in
          let st = Store.stats store in
          let name = bench.Suite.bench_name in
          (* One cold search populates every tier exactly once. *)
          check_int (name ^ " cold design write") 1 (tier "design" st).Store.ts_writes;
          check_int (name ^ " cold traces write") 1 (tier "traces" st).Store.ts_writes;
          (* The warm call runs on a reopened handle, as a new process
             would: its tiers are served from disk, not from the first
             handle's workload environment. *)
          let store' = Store.open_store ~dir:d () in
          let warm = synth store' in
          let st' = Store.stats store' in
          check_bool (name ^ " warm design hit") true ((tier "design" st').Store.ts_hits > 0);
          check_bool (name ^ " warm traces hit") true ((tier "traces" st').Store.ts_hits > 0);
          check_int (name ^ " warm writes nothing new") 0
            (tier "design" st').Store.ts_writes;
          check_bool
            (bench.Suite.bench_name ^ " warm bit-identical")
            true
            (design_fingerprint warm = design_fingerprint cold)))
    Suite.all

(* The warm sweep runs on a reopened handle, as a new process would.  Its
   answer is the cold one point for point, the sweep entry hits, and no
   namespace is written. *)
let test_warm_sweep_identity () =
  with_dir (fun d ->
      let bench = Suite.gcd in
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:7 ~passes:10 in
      let laxities = [ 1.0; 2.0; 3.0 ] in
      let sweep store =
        Driver.figure13 ~options:small_options ~store prog ~workload ~laxities
      in
      let cold = sweep (Store.open_store ~dir:d ()) in
      let store = Store.open_store ~dir:d () in
      let warm = sweep store in
      let st = Store.stats store in
      check_int "sweep entry hit" 1 (tier Store.default_ns st).Store.ts_hits;
      List.iter
        (fun (ns, t) -> check_int (ns ^ " not written") 0 t.Store.ts_writes)
        st.Store.st_tiers;
      check_bool "base identical" true
        (warm.Driver.sw_base_power = cold.Driver.sw_base_power
        && warm.Driver.sw_base_area = cold.Driver.sw_base_area);
      check_int "point count" (List.length cold.Driver.sw_points)
        (List.length warm.Driver.sw_points);
      List.iter2
        (fun p q ->
          check_bool
            (Printf.sprintf "point %g identical" p.Driver.sp_laxity)
            true
            (p.Driver.sp_laxity = q.Driver.sp_laxity
            && p.Driver.sp_a_power = q.Driver.sp_a_power
            && p.Driver.sp_i_power = q.Driver.sp_i_power
            && p.Driver.sp_i_area = q.Driver.sp_i_area
            && p.Driver.sp_a_vdd = q.Driver.sp_a_vdd
            && p.Driver.sp_i_vdd = q.Driver.sp_i_vdd
            && design_fingerprint p.Driver.sp_area_design
               = design_fingerprint q.Driver.sp_area_design
            && design_fingerprint p.Driver.sp_power_design
               = design_fingerprint q.Driver.sp_power_design))
        cold.Driver.sw_points warm.Driver.sw_points)

(* A corrupted design object must silently fall back to the cold path and
   repair the entry — same answer, one more write. *)
let test_warm_corruption_falls_back () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let bench = Suite.gcd in
      let prog = Suite.program bench in
      let workload = bench.Suite.workload ~seed:7 ~passes:10 in
      let synth store =
        Driver.synthesize ~options:small_options ~store prog ~workload
          ~objective:Solution.Minimize_power ~laxity:2.0 ()
      in
      let cold = synth store in
      let key =
        Driver.design_key ~options:small_options prog ~workload
          ~objective:Solution.Minimize_power ~laxity:2.0
      in
      let path = object_path_of_key d key in
      check_bool "object exists" true (Sys.file_exists path);
      corrupt path (fun b -> Bytes.sub b 0 (Bytes.length b - 7));
      let store2 = Store.open_store ~dir:d () in
      let again = synth store2 in
      check_bool "fallback identical" true
        (design_fingerprint again = design_fingerprint cold);
      check_int "entry repaired" 1 (tier "design" (Store.stats store2)).Store.ts_writes;
      (* And the repaired entry serves warm. *)
      let warm = synth store2 in
      check_bool "repaired warm identical" true
        (design_fingerprint warm = design_fingerprint cold))

(* A stored design whose schedule was replaced by another valid schedule
   of the same program (the minimum-ENC one) is a miss: the recorded
   figures and ledger terms no longer match what the binding prices to
   against that schedule.  The cold design is returned and rewritten. *)
let test_tampered_schedule () =
  with_dir (fun d ->
      let prog = Suite.program Suite.gcd in
      let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
      let objective = Solution.Minimize_power and laxity = 2.0 in
      let synth store =
        Driver.synthesize ~options:small_options ~store prog ~workload ~objective ~laxity ()
      in
      let cold = synth (Store.open_store ~dir:d ()) in
      let key = Driver.design_key ~options:small_options prog ~workload ~objective ~laxity in
      let store = Store.open_store ~dir:d () in
      let entry =
        match Option.bind (Store.find store key) (Tier.decode Tier.design_tier) with
        | Some entry -> entry
        | None -> Alcotest.fail "no design entry to tamper with"
      in
      let min_stg =
        Scheduler.min_enc_schedule small_options.Driver.style
          ~clock_ns:small_options.Driver.clock_ns prog Module_library.default
      in
      check_bool "another schedule" true
        (Stg.signature min_stg <> Stg.signature entry.Tier.de_stg);
      Store.put store key (Tier.encode Tier.design_tier { entry with Tier.de_stg = min_stg });
      let store = Store.open_store ~dir:d () in
      let again = synth store in
      let st = Store.stats store in
      check_int "read as a miss and rewritten" 1 (tier "design" st).Store.ts_writes;
      check_bool "cold design, bit for bit" true (design_fingerprint again = design_fingerprint cold))

(* The combinator's two miss paths on a hit-shaped entry: an envelope that
   validates but carries another tier's tag, and an entry that restore
   rejects.  Either way the cold path runs once, its answer overwrites the
   entry, and the next call hits. *)
let test_find_or_compute_miss_paths () =
  let toy : int Tier.t = Tier.make ~ns:"toy" ~tag:"toy" in
  let call store colds =
    Tier.find_or_compute ~store toy
      ~key:(fun () -> k "entry")
      ~restore:(fun v -> if v >= 0 then Some v else None)
      ~persist:Fun.id ~fingerprint:string_of_int
      (fun () ->
        incr colds;
        42)
  in
  List.iter
    (fun (name, payload) ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          Store.put ~ns:"toy" store (k "entry") payload;
          let colds = ref 0 in
          check_int (name ^ ": cold answer") 42 (call store colds);
          check_int (name ^ ": cold ran once") 1 !colds;
          check_bool (name ^ ": entry overwritten") true
            (Option.bind (Store.find ~ns:"toy" store (k "entry")) (Tier.decode toy) = Some 42);
          check_int (name ^ ": next call hits") 42 (call store colds);
          check_int (name ^ ": no second cold run") 1 !colds))
    [
      ("foreign tag", Tier.encode (Tier.make ~ns:"toy" ~tag:"other" : int Tier.t) 7);
      ("rejected by restore", Tier.encode toy (-1));
    ]

(* The same on the real design tier: a sweep-tagged payload under a design
   key reads as a miss, the cold search overwrites it, and the repaired
   entry serves warm. *)
let test_foreign_tag_design_entry () =
  with_dir (fun d ->
      let prog = Suite.program Suite.gcd in
      let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
      let synth ?store () =
        Driver.synthesize ~options:small_options ?store prog ~workload
          ~objective:Solution.Minimize_power ~laxity:2.0 ()
      in
      let key =
        Driver.design_key ~options:small_options prog ~workload
          ~objective:Solution.Minimize_power ~laxity:2.0
      in
      Store.put (Store.open_store ~dir:d ()) key
        (Tier.encode (Tier.make ~ns:Store.default_ns ~tag:"sweep" : unit Tier.t) ());
      let store = Store.open_store ~dir:d () in
      let cold = synth ~store () in
      let st = Store.stats store in
      check_int "foreign entry overwritten" 1 (tier "design" st).Store.ts_writes;
      check_bool "cold answer" true (design_fingerprint cold = design_fingerprint (synth ()));
      (* The store counts the foreign envelope as a hit; the tier did not. *)
      let hits_before = (tier "design" st).Store.ts_hits in
      let warm = synth ~store () in
      let st = Store.stats store in
      check_int "repaired entry hits" (hits_before + 1) (tier "design" st).Store.ts_hits;
      check_int "no second write" 1 (tier "design" st).Store.ts_writes;
      check_bool "warm identical" true (design_fingerprint warm = design_fingerprint cold))

(* Entries written before bindings became arrays carry the tags "design"
   and "sweep"; entries whose search stats still held the flat path's two
   batch counters carry "design-dense" and "sweep-dense".  Such an entry
   must read as a miss, never be decoded as the current layout: here a
   genuine entry of each tier, re-tagged with an old tag, is overwritten by
   a cold run whose answer equals a storeless one. *)
let test_old_layout_tags () =
  let prog = Suite.program Suite.gcd in
  let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
  let laxities = [ 1.0; 2.0 ] in
  let synth store =
    Driver.synthesize ~options:small_options ?store prog ~workload
      ~objective:Solution.Minimize_power ~laxity:2.0 ()
  in
  let sweep store = Driver.figure13 ~options:small_options ?store prog ~workload ~laxities in
  let sweep_fingerprint sw =
    ( sw.Driver.sw_base_power,
      sw.Driver.sw_base_area,
      List.map
        (fun p -> (p.Driver.sp_a_power, p.Driver.sp_i_power, p.Driver.sp_i_area))
        sw.Driver.sw_points )
  in
  let retag store key tag =
    match Store.find store key with
    | None -> Alcotest.failf "no %s entry to re-tag" tag
    | Some payload ->
      let _, entry = (Marshal.from_string payload 0 : string * Obj.t) in
      Store.put store key (Tier.encode (Tier.make ~ns:Store.default_ns ~tag : Obj.t Tier.t) entry)
  in
  let check_miss name key tag run fingerprint =
    with_dir (fun d ->
        let store = Store.open_store ~dir:d () in
        ignore (run (Some store));
        retag store key tag;
        let store = Store.open_store ~dir:d () in
        let cold = run (Some store) in
        check_int (name ^ ": old-tag entry overwritten") 1
          (tier "design" (Store.stats store)).Store.ts_writes;
        check_bool (name ^ ": cold answer") true (fingerprint cold = fingerprint (run None)))
  in
  List.iter
    (fun tag ->
      check_miss tag
        (Driver.design_key ~options:small_options prog ~workload
           ~objective:Solution.Minimize_power ~laxity:2.0)
        tag synth design_fingerprint)
    [ "design"; "design-dense" ];
  List.iter
    (fun tag ->
      check_miss tag
        (Driver.sweep_key ~options:small_options prog ~workload ~laxities)
        tag sweep sweep_fingerprint)
    [ "sweep"; "sweep-dense" ]

(* A store filled by older builds holds objects in namespaces no tier
   reads any more: "frag" (the scheduler's fragments) and "sim" (whole
   behavioural runs).  The store version did not change, so its design
   and traces entries keep answering; the leftovers are never read or
   rewritten, and gc and clear reclaim them like any object. *)
let test_leftover_frag_objects () =
  with_dir (fun d ->
      let prog = Suite.program Suite.gcd in
      let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
      let synth store =
        design_fingerprint
          (Driver.synthesize ~options:small_options ~store prog ~workload
             ~objective:Solution.Minimize_power ~laxity:2.0 ())
      in
      let storeless =
        design_fingerprint
          (Driver.synthesize ~options:small_options prog ~workload
             ~objective:Solution.Minimize_power ~laxity:2.0 ())
      in
      let leftovers = [ ("frag", "frag"); ("sim", "sim-columnar") ] in
      let leave_leftovers () =
        List.iter
          (fun (ns, tag) ->
            Store.put ~ns (Store.open_store ~dir:d ()) (k ("leftover " ^ ns))
              (Marshal.to_string (tag, String.make 64 'f', 1_000) []))
          leftovers
      in
      let no_leftover_traffic name st =
        List.iter
          (fun (ns, _) ->
            check_int (name ^ ": " ^ ns ^ " not read") 0 (tier_reads ns st);
            check_int (name ^ ": " ^ ns ^ " not written") 0 (tier ns st).Store.ts_writes;
            check_int (name ^ ": the " ^ ns ^ " leftover stays") 1 (tier ns st).Store.ts_entries)
          leftovers
      in
      leave_leftovers ();
      let store = Store.open_store ~dir:d () in
      check_bool "cold fill bit-identical to storeless" true (synth store = storeless);
      no_leftover_traffic "cold" (Store.stats store);
      let store = Store.open_store ~dir:d () in
      check_bool "warm answer bit-identical to storeless" true (synth store = storeless);
      let st = Store.stats store in
      check_bool "answered from the store" true ((tier "design" st).Store.ts_hits > 0);
      no_leftover_traffic "warm" st;
      let _, evicted = Store.gc_report ~max_bytes:0 store in
      List.iter
        (fun (ns, _) ->
          check_bool ("gc evicts the " ^ ns ^ " leftover") true
            (List.exists (fun g -> g.Store.gt_ns = ns && g.Store.gt_evicted = 1) evicted))
        leftovers;
      check_int "gc emptied the store" 0 (Store.stats store).Store.st_entries;
      leave_leftovers ();
      check_int "clear removes the leftovers" 2 (Store.clear store);
      check_int "clear emptied the store" 0 (Store.stats store).Store.st_entries)

(* The tiered warm miss: same program and workload at a different laxity
   misses the design tier (a genuinely new search) but reuses the front-end
   tier — the switching-statistics memos — and the result is bit-identical
   to a storeless cold run.  Runs under IMPACT_STORE_CHECK=1 so every
   seeded memo entry is recomputed and asserted against its cold twin. *)
let test_warm_miss_reuses_front_tiers () =
  List.iter
    (fun bench ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          let name = bench.Suite.bench_name in
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed:7 ~passes:10 in
          let synth ?store laxity =
            Driver.synthesize ~options:small_options ?store prog ~workload
              ~objective:Solution.Minimize_power ~laxity ()
          in
          ignore (synth ~store 2.0);
          (* A reopened handle, as a new process: the traces tier is read
             from disk, not from the first handle's workload environment. *)
          let store = Store.open_store ~dir:d () in
          Unix.putenv "IMPACT_STORE_CHECK" "1";
          let warm_miss =
            Fun.protect
              ~finally:(fun () -> Unix.putenv "IMPACT_STORE_CHECK" "0")
              (fun () -> synth ~store 3.0)
          in
          let st' = Store.stats store in
          check_int (name ^ " design tier misses again") 1 (tier "design" st').Store.ts_writes;
          check_bool (name ^ " traces tier hit") true ((tier "traces" st').Store.ts_hits > 0);
          let cold = synth 3.0 in
          check_bool
            (name ^ " warm miss bit-identical to storeless cold")
            true
            (design_fingerprint warm_miss = design_fingerprint cold)))
    [ Suite.gcd; Suite.dealer ]

(* --- the per-handle workload environment ------------------------------------ *)

(* Repeated and shifted-laxity requests on one handle take the environment
   from the handle's memo: neither rebuilds it (so neither simulates) nor,
   when the design tier answers, reads the traces tier.  Both are
   bit-identical to storeless cold runs. *)
let test_env_memo_reuse () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let prog = Suite.program Suite.gcd in
      let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
      let synth ?store laxity =
        Driver.synthesize ~options:small_options ?store prog ~workload
          ~objective:Solution.Minimize_power ~laxity ()
      in
      ignore (synth ~store 2.0);
      let st = Store.stats store and m = Tier.env_memo_stats () in
      let again = synth ~store 2.0 in
      let st' = Store.stats store and m' = Tier.env_memo_stats () in
      check_int "memo hit" (m.Tier.em_hits + 1) m'.Tier.em_hits;
      check_int "no rebuild" m.Tier.em_builds m'.Tier.em_builds;
      check_int "design hit" ((tier "design" st).Store.ts_hits + 1) (tier "design" st').Store.ts_hits;
      check_int "traces tier not read" (tier_reads "traces" st) (tier_reads "traces" st');
      check_bool "repeat bit-identical to storeless cold" true
        (design_fingerprint again = design_fingerprint (synth 2.0));
      let shifted = synth ~store 3.0 in
      let st'' = Store.stats store and m'' = Tier.env_memo_stats () in
      check_int "shifted: memo hit" (m.Tier.em_hits + 2) m''.Tier.em_hits;
      check_int "shifted: no rebuild" m.Tier.em_builds m''.Tier.em_builds;
      check_int "shifted: design write" 2 (tier "design" st'').Store.ts_writes;
      check_bool "shifted bit-identical to storeless cold" true
        (design_fingerprint shifted = design_fingerprint (synth 3.0)))

(* Calls without a store build their own environment and leave the memo
   alone. *)
let test_env_memo_storeless () =
  let prog = Suite.program Suite.gcd in
  let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
  let m = Tier.env_memo_stats () in
  ignore
    (Driver.synthesize ~options:small_options prog ~workload ~objective:Solution.Minimize_power
       ~laxity:2.0 ());
  ignore (Driver.figure13 ~options:small_options prog ~workload ~laxities:[ 1.0; 2.0 ]);
  let m' = Tier.env_memo_stats () in
  check_int "no build" m.Tier.em_builds m'.Tier.em_builds;
  check_int "no hit" m.Tier.em_hits m'.Tier.em_hits

(* One slot per program: another workload for the same program replaces
   the environment, returning to the first rebuilds it, and another
   program gets a slot of its own. *)
let test_env_memo_slot () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let synth bench ~seed ~passes =
        ignore
          (Driver.synthesize ~options:small_options ~store (Suite.program bench)
             ~workload:(bench.Suite.workload ~seed ~passes)
             ~objective:Solution.Minimize_power ~laxity:2.0 ())
      in
      let m = Tier.env_memo_stats () in
      List.iter (fun seed -> synth Suite.gcd ~seed ~passes:10) [ 7; 8; 7 ];
      let m' = Tier.env_memo_stats () in
      check_int "each workload change rebuilds" (m.Tier.em_builds + 3) m'.Tier.em_builds;
      check_int "no hit" m.Tier.em_hits m'.Tier.em_hits;
      synth Suite.paulin ~seed:7 ~passes:4;
      synth Suite.gcd ~seed:7 ~passes:10;
      let m'' = Tier.env_memo_stats () in
      check_int "another program builds its own" (m'.Tier.em_builds + 1) m''.Tier.em_builds;
      check_int "and leaves the first one's" (m'.Tier.em_hits + 1) m''.Tier.em_hits)

(* One content identity per request.  Each request builds its own workload
   list and names it by a flight key before synthesizing, as the daemon
   does; on one handle a cold request, two warm repeats and a
   shifted-laxity request each digest their workload once, and the program
   (freshly elaborated, so no earlier test digested it) is digested once
   in all.  More requests than a few interleave before each synthesizes,
   so no digest can be kept for them between requests; a request that
   brings no id, or one naming another list, still digests once, and a
   storeless one not at all. *)
let test_digest_counts () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let prog = Impact_lang.Elaborate.from_source Suite.gcd.Suite.source in
      let objective = Solution.Minimize_power in
      let workload () = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
      let flight_key laxity =
        let workload = workload () in
        let workload_id = Tier.workload_id workload in
        ignore
          (Driver.design_key ~workload_id ~options:small_options prog ~workload ~objective
             ~laxity);
        (workload, workload_id)
      in
      let synthesize ?workload_id ?store laxity workload =
        ignore
          (Driver.synthesize ~options:small_options ?store ?workload_id prog ~workload ~objective
             ~laxity ())
      in
      let request laxity =
        let workload, workload_id = flight_key laxity in
        synthesize ~workload_id ~store laxity workload
      in
      let workloads_since before =
        (Tier.digest_stats ()).Tier.dg_workloads - before.Tier.dg_workloads
      in
      let design_hits () =
        match List.assoc_opt "design" (Store.stats store).Store.st_tiers with
        | Some t -> t.Store.ts_hits
        | None -> 0
      in
      let start = Tier.digest_stats () in
      List.iter
        (fun (name, laxity) ->
          let before = Tier.digest_stats () and hits = design_hits () in
          request laxity;
          let after = Tier.digest_stats () in
          check_int (name ^ ": one workload digest") 1
            (after.Tier.dg_workloads - before.Tier.dg_workloads);
          check_bool (name ^ ": design tier answers only the repeats") (name = "warm")
            (design_hits () > hits))
        [ ("cold", 2.0); ("warm", 2.0); ("warm", 2.0); ("shifted", 3.0) ];
      let before = Tier.digest_stats () in
      let queued = List.init 20 (fun _ -> flight_key 2.0) in
      List.iter (fun (workload, workload_id) -> synthesize ~workload_id ~store 2.0 workload) queued;
      check_int "twenty interleaved requests: twenty digests" 20 (workloads_since before);
      let before = Tier.digest_stats () in
      synthesize ~store 2.0 (workload ());
      check_int "no id: one digest" 1 (workloads_since before);
      let before = Tier.digest_stats () in
      synthesize ~workload_id:(snd (flight_key 2.0)) ~store 2.0 (workload ());
      check_int "another list's id: one digest each" 2 (workloads_since before);
      let before = Tier.digest_stats () in
      synthesize 2.0 (workload ());
      check_int "storeless: no digest" 0 (workloads_since before);
      check_int "one program digest" 1
        ((Tier.digest_stats ()).Tier.dg_programs - start.Tier.dg_programs))

let with_store_check f =
  Unix.putenv "IMPACT_STORE_CHECK" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "IMPACT_STORE_CHECK" "0") f

(* Under IMPACT_STORE_CHECK a memo hit is rebuilt cold and compared: real
   requests pass, and a rebuild that disagrees on the run, the minimum ENC
   or the reference area fails. *)
let test_env_memo_check () =
  with_dir (fun d ->
      let store = Store.open_store ~dir:d () in
      let prog = Suite.program Suite.gcd in
      let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
      let synth laxity =
        Driver.synthesize ~options:small_options ~store prog ~workload
          ~objective:Solution.Minimize_power ~laxity ()
      in
      let cold = synth 2.0 in
      let m = Tier.env_memo_stats () in
      let warm, shifted = with_store_check (fun () -> (synth 2.0, synth 3.0)) in
      check_int "checked hits" (m.Tier.em_hits + 2) (Tier.env_memo_stats ()).Tier.em_hits;
      check_bool "checked hit identical" true (design_fingerprint warm = design_fingerprint cold);
      check_bool "checked shifted identical" true
        (design_fingerprint shifted
        = design_fingerprint
            (Driver.synthesize ~options:small_options prog ~workload
               ~objective:Solution.Minimize_power ~laxity:3.0 ()));
      let build store =
        Driver.build_env ~options:small_options ?store prog ~workload
          ~objective:Solution.Minimize_area ~laxity:1.0
      in
      let diverging perturb = function
        | Some st -> build (Some st)
        | None -> perturb (build None)
      in
      List.iter
        (fun (name, perturb) ->
          check_bool (name ^ ": divergence fails") true
            (match
               with_store_check (fun () ->
                   Tier.workload_env store ~options:small_options prog
                     ~workload:(Tier.workload_id workload) (diverging perturb))
             with
            | _ -> false
            | exception Failure _ -> true))
        [
          ("enc_min", fun (env, enc_min) -> (env, Float.succ enc_min));
          ( "area_ref",
            fun (env, enc_min) -> ({ env with Solution.area_ref = Float.succ env.Solution.area_ref }, enc_min) );
          ( "run",
            fun (env, enc_min) ->
              let other = Sim.simulate prog ~workload:(Suite.gcd.Suite.workload ~seed:8 ~passes:10) in
              ({ env with Solution.est_ctx = Estimate.create_ctx other }, enc_min) );
        ])

(* --- golden keys and payload bytes ------------------------------------------

   A drifted key does not fail a lookup, it just reads as a miss, so no
   warm/cold identity test would notice it.  These literals pin the content
   keys of every tier for bench:gcd under default options.  Payloads are
   not pinned here: their bytes follow the search, which test_golden pins,
   and the restore checks and IMPACT_STORE_CHECK guard their decoding. *)

let test_golden_keys () =
  let prog = Suite.program Suite.gcd in
  let workload = Suite.gcd.Suite.workload ~seed:7 ~passes:10 in
  let options = Driver.default_options in
  let pin name expected actual = check_string name expected actual in
  pin "traces_key" "3f40b0ddeb3fd818043b3780b1889082" (Driver.traces_key prog ~workload);
  pin "design_key" "503c91d35ca6140f49dc7101b093de0e"
    (Driver.design_key ~options prog ~workload ~objective:Solution.Minimize_power
       ~laxity:2.0);
  pin "sweep_key" "8a4d69971f357d3feda9b774f97ba6d3" (Driver.sweep_key ~options prog ~workload ~laxities:[ 1.0; 2.0 ])

(* --- single-flight scheduler ---------------------------------------------- *)

module Flight = Impact_store.Flight

let spin_until ?(timeout = 10.0) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.yield ();
      go ()
    end
  in
  go ()

(* Four identical requests racing: exactly one computes, the three others
   provably attach to the in-flight leader (observed via [Flight.waiting])
   before the leader is released, and all four share the result. *)
let test_flight_coalesce () =
  let t = Flight.create ~limit:2 () in
  let gate = Atomic.make false in
  let execs = Atomic.make 0 in
  let work () =
    Atomic.incr execs;
    while not (Atomic.get gate) do
      Thread.yield ()
    done;
    42
  in
  let results = Array.make 4 (0, false) in
  let threads =
    Array.init 4 (fun i ->
        Thread.create (fun () -> results.(i) <- Flight.run t "k" work) ())
  in
  check_bool "followers attach" true (spin_until (fun () -> Flight.waiting t = 3));
  Atomic.set gate true;
  Array.iter Thread.join threads;
  check_int "computed exactly once" 1 (Atomic.get execs);
  Array.iter (fun (v, _) -> check_int "shared result" 42 v) results;
  check_int "three marked coalesced" 3
    (Array.to_list results |> List.filter snd |> List.length);
  let st = Flight.stats t in
  check_int "one leader" 1 st.Flight.fl_led;
  check_int "coalesced stat" 3 st.Flight.fl_coalesced;
  (* The flight is gone once published: a later call computes afresh. *)
  let v, coalesced = Flight.run t "k" (fun () -> 43) in
  check_bool "fresh flight after completion" true (v = 43 && not coalesced)

(* A leader's exception propagates to every coalesced follower, and the
   failed flight does not poison later calls on the same key. *)
let test_flight_exception () =
  let t = Flight.create ~limit:1 () in
  let gate = Atomic.make false in
  let work () =
    while not (Atomic.get gate) do
      Thread.yield ()
    done;
    failwith "leader failed"
  in
  let outcomes = Array.make 3 "" in
  let threads =
    Array.init 3 (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              (match Flight.run t "k" work with
              | _ -> "no exception"
              | exception Failure m -> m))
          ())
  in
  check_bool "followers attach" true (spin_until (fun () -> Flight.waiting t = 2));
  Atomic.set gate true;
  Array.iter Thread.join threads;
  Array.iter (fun o -> check_string "failure propagates" "leader failed" o) outcomes;
  let v, coalesced = Flight.run t "k" (fun () -> 7) in
  check_bool "fresh flight after failure" true (v = 7 && not coalesced)

(* Distinct keys overlap up to the admission limit: each leader blocks
   until the other has started, which can only terminate if both were
   admitted concurrently. *)
let test_flight_distinct_overlap () =
  let t = Flight.create ~limit:2 () in
  let started = Atomic.make 0 in
  let work () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Thread.yield ()
    done
  in
  let a = Thread.create (fun () -> ignore (Flight.run t "a" work)) () in
  let b = Thread.create (fun () -> ignore (Flight.run t "b" work)) () in
  Thread.join a;
  Thread.join b;
  check_int "both leaders ran concurrently" 2 (Atomic.get started)

(* Race stress: random thread/key/limit mixes.  Invariants: every call
   gets its key's value, concurrent executions never exceed the admission
   limit, every key is computed at least once, and every call either led
   or coalesced. *)
let prop_flight_stress =
  QCheck.Test.make ~count:25 ~name:"flight: dedup + admission under races"
    QCheck.(triple (int_range 1 4) (int_range 1 3) (int_range 4 16))
    (fun (limit, nkeys, nthreads) ->
      let t = Flight.create ~limit () in
      let active = Atomic.make 0 in
      let high = Atomic.make 0 in
      let execs = Array.init nkeys (fun _ -> Atomic.make 0) in
      let ok = Atomic.make true in
      let work ki () =
        let a = Atomic.fetch_and_add active 1 + 1 in
        let rec bump () =
          let h = Atomic.get high in
          if a > h && not (Atomic.compare_and_set high h a) then bump ()
        in
        bump ();
        Atomic.incr execs.(ki);
        Thread.yield ();
        Atomic.decr active;
        100 + ki
      in
      let threads =
        List.init nthreads (fun i ->
            let ki = i mod nkeys in
            Thread.create
              (fun () ->
                let v, _ = Flight.run t (string_of_int ki) (work ki) in
                if v <> 100 + ki then Atomic.set ok false)
              ())
      in
      List.iter Thread.join threads;
      let st = Flight.stats t in
      Atomic.get ok
      && Atomic.get high <= limit
      && Array.for_all (fun e -> Atomic.get e >= 1) execs
      && st.Flight.fl_led + st.Flight.fl_coalesced = nthreads)

(* Different seeds must produce different keys (no false sharing), and for
   any seed the warm answer must reproduce the cold one. *)
let prop_warm_identity_over_seeds =
  QCheck.Test.make ~count:6 ~name:"store: warm == cold for random seeds"
    QCheck.(int_range 1 1000)
    (fun seed ->
      with_dir (fun d ->
          let store = Store.open_store ~dir:d () in
          let bench = Suite.gcd in
          let prog = Suite.program bench in
          let workload = bench.Suite.workload ~seed ~passes:8 in
          let options = { small_options with Driver.seed } in
          let synth () =
            Driver.synthesize ~options ~store prog ~workload
              ~objective:Solution.Minimize_power ~laxity:2.0 ()
          in
          let cold = synth () in
          let warm = synth () in
          design_fingerprint warm = design_fingerprint cold
          && (Store.stats store).Store.st_hits >= 1))

let () =
  Alcotest.run "store"
    [
      ( "object store",
        [
          Alcotest.test_case "roundtrip + stats" `Quick test_roundtrip;
          Alcotest.test_case "clear and gc" `Quick test_clear_gc;
          Alcotest.test_case "write-order eviction" `Quick test_write_order_eviction;
          Alcotest.test_case "a hit is a pure read" `Quick test_hit_is_pure_read;
          Alcotest.test_case "eviction follows write order across handles" `Quick
            test_eviction_across_handles;
          Alcotest.test_case "tier namespaces" `Quick test_tiers;
          Alcotest.test_case "per-namespace hits" `Quick test_hits_per_ns;
          Alcotest.test_case "put overwrites the memory layer" `Quick
            test_put_overwrites_memory;
          Alcotest.test_case "human-readable sizes" `Quick test_human_bytes;
          Alcotest.test_case "tally: growing overwrite evicts" `Quick
            test_tally_overwrite_grows;
          Alcotest.test_case "tally: corrupt removal frees bytes" `Quick
            test_tally_corrupt_removal;
          Alcotest.test_case "tally: rescan sees other handles" `Quick
            test_tally_cross_process;
          Alcotest.test_case "tally: eviction after clear" `Quick test_tally_after_clear;
          Alcotest.test_case "corruption reads as miss" `Quick test_corruption;
        ] );
      ("wire", [ Alcotest.test_case "json + frames" `Quick test_wire_json ]);
      ( "single flight",
        [
          Alcotest.test_case "identical requests coalesce" `Quick test_flight_coalesce;
          Alcotest.test_case "leader exception propagates" `Quick test_flight_exception;
          Alcotest.test_case "distinct keys overlap" `Quick test_flight_distinct_overlap;
          QCheck_alcotest.to_alcotest prop_flight_stress;
        ] );
      ( "driver warm path",
        [
          Alcotest.test_case "six benchmarks bit-identical" `Slow test_warm_identity;
          Alcotest.test_case "figure13 sweep bit-identical" `Slow
            test_warm_sweep_identity;
          Alcotest.test_case "golden keys and payload bytes" `Quick test_golden_keys;
          Alcotest.test_case "find-or-compute miss paths" `Quick
            test_find_or_compute_miss_paths;
          Alcotest.test_case "foreign-tag design entry" `Quick test_foreign_tag_design_entry;
          Alcotest.test_case "tampered schedule reads as a miss" `Quick test_tampered_schedule;
          Alcotest.test_case "old-layout tags read as misses" `Quick test_old_layout_tags;
          Alcotest.test_case "leftover frag objects" `Quick test_leftover_frag_objects;
          Alcotest.test_case "corrupt entry falls back cold" `Quick
            test_warm_corruption_falls_back;
          Alcotest.test_case "warm miss reuses front tiers" `Slow
            test_warm_miss_reuses_front_tiers;
          QCheck_alcotest.to_alcotest prop_warm_identity_over_seeds;
        ] );
      ( "workload env",
        [
          Alcotest.test_case "repeat and shifted reuse it" `Quick test_env_memo_reuse;
          Alcotest.test_case "storeless calls leave it alone" `Quick test_env_memo_storeless;
          Alcotest.test_case "one slot per program" `Quick test_env_memo_slot;
          Alcotest.test_case "store check rebuilds hits" `Quick test_env_memo_check;
          Alcotest.test_case "one digest per request" `Quick test_digest_counts;
        ] );
    ]
