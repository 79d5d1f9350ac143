(* Envelope layout: MAGIC (12 bytes, version baked into the last byte) ^
   logical clock (8 bytes, big-endian) ^ recompute cost in ns (8 bytes,
   big-endian) ^ MD5(payload) (16 bytes) ^ payload.  Bumping the format
   version changes MAGIC, so objects written by any other version fail
   validation and read as misses — version skew is indistinguishable from
   absence, which is the behaviour a cache wants.

   The payload digest deliberately excludes the clock and cost words: a hit
   refreshes the clock by rewriting its 8 bytes in place without touching
   (or re-checksumming) the payload.  The clock is a store-wide monotonic
   counter persisted in a [clock] file at the root, so recency ordering
   survives process restarts at full resolution — unlike the 1-second
   mtime granularity it replaces, under which hits within the same second
   tied arbitrarily. *)

let magic = "IMPACTSTORE\002"
let clock_off = String.length magic
let cost_off = clock_off + 8
let digest_off = cost_off + 8
let header_len = digest_off + 16
let default_max_bytes = 256 * 1024 * 1024
let default_ns = "design"

type tier_stats = {
  ts_entries : int;
  ts_bytes : int;
  ts_hits : int;
  ts_misses : int;
  ts_writes : int;
}

type stats = {
  st_entries : int;
  st_bytes : int;
  st_mem_entries : int;
  st_hits : int;
  st_misses : int;
  st_writes : int;
  st_evicted : int;
  st_tiers : (string * tier_stats) list;
}

type gc_tier = { gt_ns : string; gt_evicted : int; gt_bytes : int }

(* Per-namespace lookup/write counters (disk entry/byte counts are computed
   by scanning in [stats]). *)
type counters = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_writes : int;
}

type t = {
  root : string;
  cap : int;
  mem_capacity : int;
  mem : (string, string) Hashtbl.t;  (* keyed by "<ns>:<key>" *)
  mem_order : string Queue.t;  (* FIFO of memory-layer keys *)
  lock : Mutex.t;
  tiers : (string, counters) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable evicted : int;
  mutable tmp_counter : int;
}

let getenv_opt name =
  match Sys.getenv_opt name with Some "" | None -> None | some -> some

let default_dir () =
  match getenv_opt "IMPACT_CACHE_DIR" with
  | Some d -> d
  | None -> (
    match getenv_opt "XDG_CACHE_HOME" with
    | Some c -> Filename.concat c "impact"
    | None -> (
      match getenv_opt "HOME" with
      | Some h -> Filename.concat (Filename.concat h ".cache") "impact"
      | None -> ".impact-cache"))

let mkdir_p path =
  let rec go path =
    if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let objects_dir t = Filename.concat t.root "objects"
let tmp_dir t = Filename.concat t.root "tmp"
let clock_path t = Filename.concat t.root "clock"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_clock t =
  match read_file (clock_path t) with
  | exception Sys_error _ -> 0
  | s -> ( match int_of_string_opt (String.trim s) with Some c when c >= 0 -> c | _ -> 0)

let open_store ?dir ?max_bytes ?(mem_capacity = 128) () =
  let root = match dir with Some d -> d | None -> default_dir () in
  let cap =
    match max_bytes with
    | Some b -> b
    | None -> (
      match getenv_opt "IMPACT_CACHE_MAX_BYTES" with
      | Some s -> ( match int_of_string_opt s with Some b when b > 0 -> b | _ -> default_max_bytes)
      | None -> default_max_bytes)
  in
  let t =
    {
      root;
      cap;
      mem_capacity;
      mem = Hashtbl.create 64;
      mem_order = Queue.create ();
      lock = Mutex.create ();
      tiers = Hashtbl.create 8;
      clock = 0;
      hits = 0;
      misses = 0;
      writes = 0;
      evicted = 0;
      tmp_counter = 0;
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  t.clock <- load_clock t;
  t

let dir t = t.root
let max_bytes t = t.cap
let key s = Digest.to_hex (Digest.string s)

(* Keys are hex digests; anything else would escape the layout. *)
let valid_key k =
  String.length k = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k

(* Namespaces become directory names; constrain them accordingly. *)
let valid_ns ns =
  String.length ns > 0
  && String.length ns <= 32
  && String.for_all (function 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true | _ -> false) ns

let object_path t ns k =
  Filename.concat
    (Filename.concat (Filename.concat (objects_dir t) ns) (String.sub k 0 2))
    k

let counters_for t ns =
  match Hashtbl.find_opt t.tiers ns with
  | Some c -> c
  | None ->
    let c = { c_hits = 0; c_misses = 0; c_writes = 0 } in
    Hashtbl.replace t.tiers ns c;
    c

(* Allocate the next logical-clock tick and persist the counter (atomic
   rename, so a torn write can never leave garbage).  Persistence is
   best-effort: losing the file only costs eviction-order fidelity. *)
let bump_clock t =
  t.clock <- t.clock + 1;
  t.tmp_counter <- t.tmp_counter + 1;
  let tmp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "clock.%d.%d" (Unix.getpid ()) t.tmp_counter)
  in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (string_of_int t.clock));
     Sys.rename tmp (clock_path t)
   with Sys_error _ | Unix.Unix_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
  t.clock

let put_int64_be b off v =
  Bytes.set_int64_be b off v

let header ~clock ~cost_ns payload =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  put_int64_be b clock_off (Int64.of_int clock);
  put_int64_be b cost_off (Int64.of_int (max 0 cost_ns));
  Bytes.blit_string (Digest.string payload) 0 b digest_off 16;
  Bytes.unsafe_to_string b

(* Validate an envelope; [None] for any structural problem. *)
let unwrap data =
  let n = String.length data in
  if n < header_len then None
  else if String.sub data 0 (String.length magic) <> magic then None
  else begin
    let digest = String.sub data digest_off 16 in
    let payload = String.sub data header_len (n - header_len) in
    if Digest.string payload = digest then Some payload else None
  end

(* The clock and cost words of an on-disk envelope, without validating the
   payload: this is all eviction ranking needs, and reading 28 bytes per
   object keeps the scan cheap. *)
let read_header path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic header_len with
        | exception End_of_file -> None
        | h ->
          if String.sub h 0 (String.length magic) <> magic then None
          else
            Some
              ( Int64.to_int (String.get_int64_be h clock_off),
                Int64.to_int (String.get_int64_be h cost_off) ))

(* Refresh an object's recency in place: 8 bytes at a fixed offset, outside
   the checksummed region, so a concurrent reader sees either clock. *)
let refresh_clock t path =
  let clock = bump_clock t in
  match Unix.openfile path [ Unix.O_WRONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Bytes.create 8 in
        put_int64_be b 0 (Int64.of_int clock);
        ignore (Unix.lseek fd clock_off Unix.SEEK_SET);
        ignore (Unix.write fd b 0 8))

let mem_key ns k = ns ^ ":" ^ k

(* A known key keeps its FIFO slot but takes the new payload: an overwrite
   must never leave the replaced payload serving hits. *)
let remember t mk payload =
  if not (Hashtbl.mem t.mem mk) then Queue.push mk t.mem_order;
  Hashtbl.replace t.mem mk payload;
  while Hashtbl.length t.mem > t.mem_capacity do
    Hashtbl.remove t.mem (Queue.pop t.mem_order)
  done

let check_args fname ns k =
  if not (valid_key k) then invalid_arg (Printf.sprintf "Store.%s: not a content key" fname);
  if not (valid_ns ns) then invalid_arg (Printf.sprintf "Store.%s: invalid namespace" fname)

let find ?(ns = default_ns) t k =
  check_args "find" ns k;
  Mutex.protect t.lock (fun () ->
      let c = counters_for t ns in
      match Hashtbl.find_opt t.mem (mem_key ns k) with
      | Some payload ->
        t.hits <- t.hits + 1;
        c.c_hits <- c.c_hits + 1;
        refresh_clock t (object_path t ns k);
        Some payload
      | None -> (
        let path = object_path t ns k in
        match read_file path with
        | exception Sys_error _ ->
          t.misses <- t.misses + 1;
          c.c_misses <- c.c_misses + 1;
          None
        | data -> (
          match unwrap data with
          | Some payload ->
            t.hits <- t.hits + 1;
            c.c_hits <- c.c_hits + 1;
            refresh_clock t path;
            remember t (mem_key ns k) payload;
            Some payload
          | None ->
            (* Truncated, corrupted or written by a different format
               version: discard so it never costs another read. *)
            (try Sys.remove path with Sys_error _ -> ());
            t.misses <- t.misses + 1;
            c.c_misses <- c.c_misses + 1;
            None)))

(* Iterate every object as (path, ns, key). *)
let iter_objects t f =
  let odir = objects_dir t in
  match Sys.readdir odir with
  | exception Sys_error _ -> ()
  | nss ->
    Array.iter
      (fun ns ->
        let nsdir = Filename.concat odir ns in
        match Sys.readdir nsdir with
        | exception Sys_error _ -> ()
        | shards ->
          Array.iter
            (fun shard ->
              let sdir = Filename.concat nsdir shard in
              match Sys.readdir sdir with
              | exception Sys_error _ -> ()
              | names ->
                Array.iter (fun name -> f (Filename.concat sdir name) ns name) names)
            shards)
      nss

let disk_usage t =
  let entries = ref 0 and bytes = ref 0 in
  let per_ns : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  iter_objects t (fun path ns _ ->
      match Unix.stat path with
      | exception Unix.Unix_error _ -> ()
      | st ->
        incr entries;
        bytes := !bytes + st.Unix.st_size;
        let e, b = Option.value (Hashtbl.find_opt per_ns ns) ~default:(0, 0) in
        Hashtbl.replace per_ns ns (e + 1, b + st.Unix.st_size));
  (!entries, !bytes, per_ns)

(* Cost-aware eviction: rank objects by recompute cost per byte, ascending —
   the cheapest-to-recompute byte goes first, so an expensive sweep outlives
   a cheap synth of the same size — with the logical clock as tiebreak
   (least recently touched first; objects whose header cannot be read rank
   cheapest of all). *)
let evict_locked t cap =
  let objs = ref [] in
  iter_objects t (fun path ns name ->
      match Unix.stat path with
      | exception Unix.Unix_error _ -> ()
      | st ->
        let size = st.Unix.st_size in
        let clock, cost_ns =
          match read_header path with Some (c, n) -> (c, n) | None -> (0, 0)
        in
        let cost_per_byte = float_of_int cost_ns /. float_of_int (max 1 size) in
        objs := (cost_per_byte, clock, size, path, ns, mem_key ns name) :: !objs);
  let total = List.fold_left (fun acc (_, _, size, _, _, _) -> acc + size) 0 !objs in
  if total <= cap then (0, [])
  else begin
    let by_worth = List.sort compare !objs in
    let removed = ref 0 and remaining = ref total in
    let per_ns : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (_, _, size, path, ns, mk) ->
        if !remaining > cap then begin
          (try Sys.remove path with Sys_error _ -> ());
          Hashtbl.remove t.mem mk;
          remaining := !remaining - size;
          incr removed;
          let e, b = Option.value (Hashtbl.find_opt per_ns ns) ~default:(0, 0) in
          Hashtbl.replace per_ns ns (e + 1, b + size)
        end)
      by_worth;
    t.evicted <- t.evicted + !removed;
    let tiers =
      Hashtbl.fold
        (fun ns (e, b) acc -> { gt_ns = ns; gt_evicted = e; gt_bytes = b } :: acc)
        per_ns []
      |> List.sort (fun a b -> compare a.gt_ns b.gt_ns)
    in
    (!removed, tiers)
  end

let put ?(ns = default_ns) ?(cost_ns = 0) t k payload =
  check_args "put" ns k;
  Mutex.protect t.lock (fun () ->
      remember t (mem_key ns k) payload;
      let final = object_path t ns k in
      mkdir_p (Filename.dirname final);
      t.tmp_counter <- t.tmp_counter + 1;
      let tmp =
        Filename.concat (tmp_dir t)
          (Printf.sprintf "%s.%d.%d" k (Unix.getpid ()) t.tmp_counter)
      in
      let clock = bump_clock t in
      match
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (header ~clock ~cost_ns payload);
            output_string oc payload);
        Sys.rename tmp final
      with
      | () ->
        t.writes <- t.writes + 1;
        (counters_for t ns).c_writes <- (counters_for t ns).c_writes + 1;
        ignore (evict_locked t t.cap)
      | exception (Sys_error _ | Unix.Unix_error _) ->
        (* A cache write that fails only costs a future recompute. *)
        (try Sys.remove tmp with Sys_error _ -> ()))

let clear t =
  Mutex.protect t.lock (fun () ->
      let removed = ref 0 in
      iter_objects t (fun path _ _ ->
          try
            Sys.remove path;
            incr removed
          with Sys_error _ -> ());
      Hashtbl.reset t.mem;
      Queue.clear t.mem_order;
      !removed)

let gc_report ?max_bytes t =
  let cap = Option.value max_bytes ~default:t.cap in
  Mutex.protect t.lock (fun () -> evict_locked t cap)

let gc ?max_bytes t = fst (gc_report ?max_bytes t)

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries, bytes, per_ns = disk_usage t in
      (* Every namespace with disk objects or counter activity reports. *)
      Hashtbl.iter (fun ns _ -> ignore (counters_for t ns)) per_ns;
      let tiers =
        Hashtbl.fold
          (fun ns c acc ->
            let e, b = Option.value (Hashtbl.find_opt per_ns ns) ~default:(0, 0) in
            ( ns,
              {
                ts_entries = e;
                ts_bytes = b;
                ts_hits = c.c_hits;
                ts_misses = c.c_misses;
                ts_writes = c.c_writes;
              } )
            :: acc)
          t.tiers []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      {
        st_entries = entries;
        st_bytes = bytes;
        st_mem_entries = Hashtbl.length t.mem;
        st_hits = t.hits;
        st_misses = t.misses;
        st_writes = t.writes;
        st_evicted = t.evicted;
        st_tiers = tiers;
      })

let hits ?ns t =
  Mutex.protect t.lock (fun () ->
      match ns with
      | None -> t.hits
      | Some ns -> Option.fold ~none:0 ~some:(fun c -> c.c_hits) (Hashtbl.find_opt t.tiers ns))

(* "65.4 KiB", not "65389": the human-facing rendering used by [cache
   stats] and the bench's store report. *)
let human_bytes n =
  let units = [| "B"; "KiB"; "MiB"; "GiB"; "TiB" |] in
  let rec go v u =
    if v >= 1024. && u < Array.length units - 1 then go (v /. 1024.) (u + 1) else (v, u)
  in
  let v, u = go (float_of_int (max 0 n)) 0 in
  if u = 0 then Printf.sprintf "%d B" (max 0 n) else Printf.sprintf "%.1f %s" v units.(u)
