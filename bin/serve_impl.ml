(* The serve daemon: concurrent synthesize/lint/sweep requests over a
   Unix-domain socket, answered from one shared in-memory + on-disk store.

   Framing and JSON are {!Impact_store.Wire}: each frame is the payload's
   decimal byte length, a newline, then the payload.  Every request gets
   exactly one terminal frame with ["event":"result"]; heavy operations
   additionally stream a ["queued"] event first, and the request that
   actually executes streams ["running"] when it starts.

   Concurrency model: one thread per client connection; heavy work goes
   through a {!Impact_store.Flight} scheduler keyed by the request's own
   parsed fields (op, target, options fingerprint, passes, objective and
   laxity or the laxity list; a design file by the MD5 of its text); the
   store keys are rendered once, inside the driver.  Distinct
   requests execute concurrently, bounded by the machine's physical core
   count, and a sweep's points fan out over the shared domain pool;
   identical in-flight requests coalesce onto one computation (one
   search, one store write) and every waiter receives the leader's result
   — followers' ones marked ["coalesced"].  The store handle's own lock
   makes the cache safe for the light operations that bypass the
   scheduler.  An exception that escapes an op still answers its request
   with an error result, and the connection stays open.

   The daemon's one store handle also keeps each program's workload
   environment ({!Impact_core.Tier.workload_env}): the first request for a
   program simulates it and seeds the estimator from the traces tier;
   every later request for that program and workload copies it with its
   own budget and objective, so a design-tier hit only replays the stored
   decision.  Concurrent requests share its estimation context,
   whose memo tables are sharded and whose values are pure. *)

module Wire = Impact_store.Wire
module Store = Impact_store.Store
module Flight = Impact_store.Flight
module Parallel = Impact_util.Parallel
module Diagnostic = Impact_util.Diagnostic
module Solution = Impact_core.Solution
module Driver = Impact_core.Driver
module Search = Impact_core.Search
module Tier = Impact_core.Tier

type server = {
  sv_store : Store.t;
  sv_pool : Parallel.pool option;
  sv_flight : ((string * Wire.json) list * bool) Flight.t;
      (* heavy-op scheduler; a flight's value is the rendered result fields
         plus the warm flag, shared verbatim by coalesced followers *)
  sv_stop : bool Atomic.t;
  sv_listen : Unix.file_descr;
  sv_next_id : int Atomic.t;
}

let send oc json = Wire.write_frame oc (Wire.to_string json)

let error_result ~op msg =
  Wire.Obj
    [
      ("event", Wire.Str "result");
      ("op", Wire.Str op);
      ("ok", Wire.Bool false);
      ("error", Wire.Str msg);
    ]

let field name req = Wire.member name req
let str_field name req = Option.bind (field name req) Wire.str

let num_field name ~default req =
  match Option.bind (field name req) Wire.num with Some f -> f | None -> default

let int_field name ~default req =
  int_of_float (num_field name ~default:(float_of_int default) req)

let options_of_request req =
  {
    Driver.default_options with
    clock_ns = num_field "clock" ~default:15.0 req;
    seed = int_field "seed" ~default:1 req;
  }

(* A workload needs a pass: a count below one is answered with an error. *)
let with_passes ~op oc req f =
  let passes = int_field "passes" ~default:60 req in
  if passes < 1 then send oc (error_result ~op "passes must be at least 1") else f passes

(* Loads a synthesize or sweep request's target and workload, and gives
   [f] its flight key maker: [key fields] names the request by the op, the
   target, its options fingerprint, passes and the op's own [fields].  A
   built-in is named by its spec and a design file by the MD5 of its text,
   so a file edited between requests never shares a flight. *)
let with_target ~op oc req f =
  with_passes ~op oc req @@ fun passes ->
  match str_field "target" req with
  | None -> send oc (error_result ~op "missing target")
  | Some spec -> (
    match Cli_common.load_target spec with
    | Error msg -> send oc (error_result ~op msg)
    | Ok target ->
      let options = options_of_request req in
      let workload = target.Cli_common.tg_workload ~seed:options.Driver.seed ~passes in
      let name =
        if Cli_common.bench_name spec = None then
          Digest.to_hex (Digest.string target.Cli_common.tg_source)
        else spec
      in
      let key fields =
        String.concat "|"
          (op :: name :: Driver.options_fingerprint options :: string_of_int passes :: fields)
      in
      f target ~options ~workload ~key)

(* Progress bracket: [queued] on arrival, [running] (on the leader's
   connection) once the scheduler admits the flight, then the terminal
   frame.  [key] is the request's flight key: identical in-flight
   requests join one computation and share its rendered fields — followers'
   results additionally carry ["coalesced": true].  The warm flag comes
   from the design tier's hit delta around the leader's computation; with
   overlapping distinct requests it can over-report, which errs on the
   harmless side (claiming warm for a cold answer bit-identical to the
   warm one). *)
let heavy sv oc ~op ~key f =
  let id = float_of_int (Atomic.fetch_and_add sv.sv_next_id 1) in
  send oc (Wire.Obj [ ("event", Wire.Str "queued"); ("id", Wire.Num id) ]);
  let result =
    match
      Flight.run sv.sv_flight key (fun () ->
          send oc (Wire.Obj [ ("event", Wire.Str "running"); ("id", Wire.Num id) ]);
          let design_hits () = Store.hits ~ns:Store.default_ns sv.sv_store in
          let hits_before = design_hits () in
          let fields = f () in
          (fields, design_hits () > hits_before))
    with
    | exception e -> error_result ~op (Printexc.to_string e)
    | (fields, warm), coalesced ->
      Wire.Obj
        ([
           ("event", Wire.Str "result");
           ("op", Wire.Str op);
           ("id", Wire.Num id);
           ("ok", Wire.Bool true);
         ]
        @ fields
        @ [ ("warm", Wire.Bool warm); ("coalesced", Wire.Bool coalesced) ])
  in
  send oc result

let objective_of_request req =
  match str_field "objective" req with
  | Some "area" -> Solution.Minimize_area
  | _ -> Solution.Minimize_power

let run_synthesize sv oc req =
  with_target ~op:"synthesize" oc req (fun target ~options ~workload ~key ->
      let objective = objective_of_request req in
      let laxity = num_field "laxity" ~default:2.0 req in
      let key = key [ Solution.objective_name objective; Printf.sprintf "%h" laxity ] in
      heavy sv oc ~op:"synthesize" ~key (fun () ->
          let design =
            Driver.synthesize ~options ~store:sv.sv_store target.Cli_common.tg_program ~workload
              ~objective ~laxity ()
          in
          let sol = design.Driver.d_solution in
          [
            ("target", Wire.Str target.Cli_common.tg_name);
            ("objective", Wire.Str (Solution.objective_name objective));
            ("laxity", Wire.Num laxity);
            ("cost", Wire.Num sol.Solution.cost);
            ("area", Wire.Num sol.Solution.area);
            ("enc", Wire.Num sol.Solution.enc);
            ("vdd", Wire.Num sol.Solution.vdd);
            ( "moves",
              Wire.Num
                (float_of_int
                   (List.length design.Driver.d_search.Search.moves_applied)) );
          ]))

let run_sweep sv oc req =
  with_target ~op:"sweep" oc req (fun target ~options ~workload ~key ->
      let laxities =
        match field "laxities" req with
        | Some (Wire.Arr xs) ->
          List.filter_map Wire.num xs |> fun ls ->
          if ls = [] then [ 1.0; 1.5; 2.0; 2.5; 3.0 ] else ls
        | _ -> [ 1.0; 1.5; 2.0; 2.5; 3.0 ]
      in
      let key = key (List.map (Printf.sprintf "%h") laxities) in
      heavy sv oc ~op:"sweep" ~key (fun () ->
          let sweep =
            Driver.figure13 ~options ?pool:sv.sv_pool ~store:sv.sv_store
              target.Cli_common.tg_program ~workload ~laxities
          in
          [
            ("target", Wire.Str target.Cli_common.tg_name);
            ( "points",
              Wire.Arr
                (List.map
                   (fun p ->
                     Wire.Obj
                       [
                         ("laxity", Wire.Num p.Driver.sp_laxity);
                         ("a_power", Wire.Num p.Driver.sp_a_power);
                         ("i_power", Wire.Num p.Driver.sp_i_power);
                         ("i_area", Wire.Num p.Driver.sp_i_area);
                       ])
                   sweep.Driver.sw_points) );
          ]))

let run_lint oc req =
  with_passes ~op:"lint" oc req @@ fun passes ->
  match str_field "target" req with
  | None -> send oc (error_result ~op:"lint" "missing target")
  | Some spec -> (
    let clock = num_field "clock" ~default:15.0 req in
    let seed = int_field "seed" ~default:1 req in
    match Cli_common.lint_target spec ~clock ~passes ~seed with
    | Error msg -> send oc (error_result ~op:"lint" msg)
    | Ok (name, diags) ->
      let errors = Diagnostic.count Diagnostic.Error diags in
      let warnings = Diagnostic.count Diagnostic.Warning diags in
      send oc
        (Wire.Obj
           [
             ("event", Wire.Str "result");
             ("op", Wire.Str "lint");
             ("ok", Wire.Bool (errors = 0));
             ("target", Wire.Str name);
             ("errors", Wire.Num (float_of_int errors));
             ("warnings", Wire.Num (float_of_int warnings));
           ]))

let run_cache_stats sv oc =
  let s = Store.stats sv.sv_store in
  let fl = Flight.stats sv.sv_flight in
  let dg = Tier.digest_stats () and em = Tier.env_memo_stats () in
  let num n = Wire.Num (float_of_int n) in
  send oc
    (Wire.Obj
       [
         ("event", Wire.Str "result");
         ("op", Wire.Str "cache-stats");
         ("ok", Wire.Bool true);
         ("dir", Wire.Str (Store.dir sv.sv_store));
         ("entries", num s.Store.st_entries);
         ("bytes", num s.Store.st_bytes);
         ("hits", num s.Store.st_hits);
         ("misses", num s.Store.st_misses);
         ("writes", num s.Store.st_writes);
         ("evicted", num s.Store.st_evicted);
         ( "tiers",
           Wire.Obj
             (List.map
                (fun (ns, t) ->
                  ( ns,
                    Wire.Obj
                      [
                        ("entries", num t.Store.ts_entries);
                        ("bytes", num t.Store.ts_bytes);
                        ("hits", num t.Store.ts_hits);
                        ("misses", num t.Store.ts_misses);
                        ("writes", num t.Store.ts_writes);
                      ] ))
                s.Store.st_tiers) );
         ("flights", num fl.Flight.fl_led);
         ("coalesced", num fl.Flight.fl_coalesced);
         ("concurrency", num (Flight.limit sv.sv_flight));
         (* Content digests computed by the daemon: one per program served,
            one per led flight (a coalesced follower digests nothing). *)
         ( "digests",
           Wire.Obj
             [ ("programs", num dg.Tier.dg_programs); ("workloads", num dg.Tier.dg_workloads) ] );
         (* Workload environments built for the handle's memo (one per
            program and workload) and requests served from it. *)
         ( "env",
           Wire.Obj [ ("builds", num em.Tier.em_builds); ("hits", num em.Tier.em_hits) ] );
       ])

let dispatch sv oc req =
  match str_field "op" req with
  | Some "ping" ->
    send oc
      (Wire.Obj
         [ ("event", Wire.Str "result"); ("op", Wire.Str "ping"); ("ok", Wire.Bool true) ])
  | Some "synthesize" -> run_synthesize sv oc req
  | Some "sweep" -> run_sweep sv oc req
  | Some "lint" -> run_lint oc req
  | Some "cache-stats" -> run_cache_stats sv oc
  | Some "shutdown" ->
    send oc
      (Wire.Obj
         [
           ("event", Wire.Str "result"); ("op", Wire.Str "shutdown"); ("ok", Wire.Bool true);
         ]);
    Atomic.set sv.sv_stop true;
    (* Wake the accept loop: shutting the listening socket down makes the
       blocked accept fail immediately. *)
    (try Unix.shutdown sv.sv_listen Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | Some op -> send oc (error_result ~op (Printf.sprintf "unknown op %s" op))
  | None -> send oc (error_result ~op:"?" "missing op")

let handle_client sv fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    if not (Atomic.get sv.sv_stop) then
      match Wire.read_frame ic with
      | Ok None | Error _ -> ()
      | Ok (Some payload) ->
        (match Wire.parse payload with
        | Error msg -> send oc (error_result ~op:"?" ("bad request: " ^ msg))
        | Ok req -> (
          (* Whatever escapes an op still answers its request, and the
             connection stays open for the next one. *)
          try dispatch sv oc req
          with e ->
            let op = Option.value (str_field "op" req) ~default:"?" in
            send oc (error_result ~op (Printexc.to_string e))));
        loop ()
  in
  (try loop () with Sys_error _ | Unix.Unix_error _ -> ());
  close_out_noerr oc

let serve ~socket_path ?cache_dir ~jobs () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store =
    match cache_dir with
    | Some dir -> Store.open_store ~dir ()
    | None -> Store.open_store ()
  in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 16;
  (* Admission bound: distinct heavy requests overlap up to the physical
     core count (a single-core box degrades to serialised execution with
     dedup, matching the skipped concurrency gate in the bench). *)
  let limit = max 1 (Parallel.detected_domains ()) in
  Parallel.with_jobs jobs (fun pool ->
      let sv =
        {
          sv_store = store;
          sv_pool = pool;
          sv_flight = Flight.create ~limit ();
          sv_stop = Atomic.make false;
          sv_listen = listen_fd;
          sv_next_id = Atomic.make 1;
        }
      in
      Printf.printf "impact serve: listening on %s (store %s, %d concurrent)\n%!" socket_path
        (Store.dir store) limit;
      let threads = ref [] in
      let rec accept_loop () =
        match Unix.accept listen_fd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          if not (Atomic.get sv.sv_stop) then accept_loop ()
        | exception Unix.Unix_error _ -> ()  (* listening socket was shut down *)
        | fd, _ ->
          threads := Thread.create (handle_client sv) fd :: !threads;
          if not (Atomic.get sv.sv_stop) then accept_loop ()
      in
      accept_loop ();
      List.iter Thread.join !threads);
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ())

(* The request client: send each JSON argument as one frame, print every
   frame the server answers with (one per line), and exit non-zero when any
   terminal result reports failure. *)
let request ~socket_path payloads =
  let parse_failures =
    List.filter_map
      (fun p -> match Wire.parse p with Ok _ -> None | Error msg -> Some (p, msg))
      payloads
  in
  if parse_failures <> [] then begin
    List.iter
      (fun (p, msg) -> Printf.eprintf "request is not valid JSON (%s): %s\n" msg p)
      parse_failures;
    2
  end
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot connect to %s: %s\n" socket_path (Unix.error_message e);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      2
    | () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      List.iter (Wire.write_frame oc) payloads;
      let expected = List.length payloads in
      let failures = ref 0 in
      let rec loop results =
        if results < expected then
          match Wire.read_frame ic with
          | Ok None ->
            Printf.eprintf "server closed the connection early\n";
            failures := !failures + (expected - results)
          | Error msg ->
            Printf.eprintf "protocol error: %s\n" msg;
            failures := !failures + (expected - results)
          | Ok (Some payload) ->
            print_endline payload;
            let terminal, failed =
              match Wire.parse payload with
              | Error _ -> (false, false)
              | Ok json -> (
                match Option.bind (Wire.member "event" json) Wire.str with
                | Some "result" -> (
                  ( true,
                    match Option.bind (Wire.member "ok" json) Wire.bool_ with
                    | Some false -> true
                    | _ -> false ))
                | _ -> (false, false))
            in
            if failed then incr failures;
            loop (if terminal then results + 1 else results)
      in
      loop 0;
      close_out_noerr oc;
      if !failures > 0 then 1 else 0
  end
