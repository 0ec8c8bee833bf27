let default_dir = "_cache"

type t = {
  root : string;
  build : string;
  m : Mutex.t;
  obs : Obs.t option;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable errors : int;
}

(* The build that reads and writes entries: a digest of the running
   executable, so any code change (rebuilt binary) invalidates every entry
   it could have changed.  An executable that cannot be read gets an id
   of its own process, whose entries no other run will ever hit. *)
let build_id () =
  try Digest.to_hex (Digest.file Sys.executable_name)
  with Sys_error _ ->
    Printf.sprintf "unhashed-%d-%.0f" (Unix.getpid ()) (1e6 *. Unix.gettimeofday ())

let create ?(dir = default_dir) ?obs () =
  { root = dir; build = build_id (); m = Mutex.create (); obs; hits = 0;
    misses = 0; stores = 0; errors = 0 }

let dir t = t.root

let digest parts =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let entry_path t ~kind ~key =
  Filename.concat t.root (Printf.sprintf "%s-%s.bin" kind key)

let header t ~kind = Printf.sprintf "pgcc-cache %s %s" t.build kind

let count t f =
  Mutex.lock t.m;
  f t;
  Mutex.unlock t.m

(* Lookup latency lands in a hit or miss histogram: a hit's cost is
   dominated by unmarshalling the payload, a miss's by the failed open —
   the p95 gap between the two is what says whether _cache/ still pays. *)
let observe_lookup t ~hit dt_s =
  match t.obs with
  | None -> ()
  | Some o ->
    Obs.observe o
      (if hit then "cache.hit_latency_us" else "cache.miss_latency_us")
      (int_of_float (1e6 *. dt_s))

let find t ~kind ~key =
  let t0 = Obs.Clock.now () in
  match open_in_bin (entry_path t ~kind ~key) with
  | exception Sys_error _ ->
    count t (fun t -> t.misses <- t.misses + 1);
    observe_lookup t ~hit:false (Obs.Clock.now () -. t0);
    None
  | ic ->
    let v =
      match input_line ic = header t ~kind with
      | true -> (try `Hit (Marshal.from_channel ic) with _ -> `Torn)
      | false -> `Other_build
      | exception _ -> `Torn
    in
    close_in_noerr ic;
    count t (fun t ->
        match v with
        | `Hit _ -> t.hits <- t.hits + 1
        | `Other_build -> t.misses <- t.misses + 1
        | `Torn ->
          t.misses <- t.misses + 1;
          t.errors <- t.errors + 1);
    let v = match v with `Hit v -> Some v | `Other_build | `Torn -> None in
    observe_lookup t ~hit:(v <> None) (Obs.Clock.now () -. t0);
    v

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let store t ~kind ~key v =
  let path = entry_path t ~kind ~key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  match
    mkdir_p t.root;
    let oc = open_out_bin tmp in
    output_string oc (header t ~kind);
    output_char oc '\n';
    Marshal.to_channel oc v [];
    close_out oc;
    Sys.rename tmp path
  with
  | () -> count t (fun t -> t.stores <- t.stores + 1)
  | exception _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    count t (fun t -> t.errors <- t.errors + 1)

let memo t ~kind ~key f =
  match t with
  | None -> f ()
  | Some t -> (
    match find t ~kind ~key with
    | Some v -> v
    | None ->
      let v = f () in
      store t ~kind ~key v;
      v)

type stats = { hits : int; misses : int; stores : int; errors : int }

let stats t =
  Mutex.lock t.m;
  let s = { hits = t.hits; misses = t.misses; stores = t.stores; errors = t.errors } in
  Mutex.unlock t.m;
  s

let stats_json t =
  let s = stats t in
  Report.Json.Obj
    [ ("dir", Report.Json.String t.root);
      ("build", Report.Json.String t.build);
      ("hits", Report.Json.Int s.hits);
      ("misses", Report.Json.Int s.misses);
      ("stores", Report.Json.Int s.stores);
      ("errors", Report.Json.Int s.errors) ]

let render_stats t =
  let s = stats t in
  Printf.sprintf "cache %s: %d hits, %d misses, %d stores%s" t.root s.hits
    s.misses s.stores
    (if s.errors > 0 then Printf.sprintf ", %d errors" s.errors else "")
