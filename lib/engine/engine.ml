type error_kind = [ `Trap | `Fuel | `Invariant | `Failed | `Exception ]

type job_error = { label : string; kind : error_kind; message : string }

let kind_to_string = function
  | `Trap -> "trap"
  | `Fuel -> "fuel-exhausted"
  | `Invariant -> "invariant"
  | `Failed -> "failed"
  | `Exception -> "exception"

let error_to_string e =
  Printf.sprintf "%s: [%s] %s" e.label (kind_to_string e.kind) e.message

let error_json e =
  Report.Json.Obj
    [ ("job", Report.Json.String e.label);
      ("kind", Report.Json.String (kind_to_string e.kind));
      ("message", Report.Json.String e.message) ]

type job_stat = {
  label : string;
  wall_s : float;
  worker : int;
  alloc_words : int;
}

type stats = {
  pool : int;
  submitted : int;
  succeeded : int;
  failed : int;
  wall_s : float;
  busy_s : float;
  job_stats : job_stat list;
}

let stats_json s =
  Report.Json.Obj
    [ ("pool", Report.Json.Int s.pool);
      ("submitted", Report.Json.Int s.submitted);
      ("succeeded", Report.Json.Int s.succeeded);
      ("failed", Report.Json.Int s.failed);
      ("wall_seconds", Report.Json.Float s.wall_s);
      ("busy_seconds", Report.Json.Float s.busy_s);
      ("jobs",
       Report.Json.List
         (List.map
            (fun j ->
              Report.Json.Obj
                [ ("label", Report.Json.String j.label);
                  ("wall_seconds", Report.Json.Float j.wall_s);
                  ("worker", Report.Json.Int j.worker);
                  ("alloc_words", Report.Json.Int j.alloc_words) ])
            s.job_stats)) ]

let render_stats s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "engine: %d jobs on %d workers in %.2fs (busy %.2fs, %.1fx, %d failed)\n"
       s.submitted s.pool s.wall_s s.busy_s
       (if s.wall_s > 0.0 then s.busy_s /. s.wall_s else 1.0)
       s.failed);
  let width =
    List.fold_left (fun acc j -> max acc (String.length j.label)) 3 s.job_stats
  in
  List.iter
    (fun j ->
      Buffer.add_string b
        (Printf.sprintf "  %-*s %8.1f ms  worker %d\n" width j.label
           (1000.0 *. j.wall_s) j.worker))
    s.job_stats;
  Buffer.contents b

let default_jobs () =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let run ?jobs ?obs ?(classify = fun e -> (`Exception, Printexc.to_string e))
    ?(label = fun i -> Printf.sprintf "job-%d" i) thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Engine.run: jobs must be >= 1"
    | Some j -> j
    | None -> default_jobs ()
  in
  let pool = max 1 (min jobs (max n 1)) in
  let results =
    Array.make n (Error { label = "unset"; kind = `Exception; message = "job never ran" })
  in
  let times = Array.make n 0.0 in
  let workers = Array.make n 0 in
  let allocs = Array.make n 0 in
  let submitted = Array.make n 0.0 in
  let t0 = Obs.Clock.now () in
  let run_one ~worker i =
    let start = Obs.Clock.now () in
    let g0 = Gc.quick_stat () in
    (match obs with
    | None -> ()
    | Some o ->
      Obs.event o
        { ts = Obs.Event.Mono start;
          payload = Obs.Event.Job_start { label = label i; worker } };
      (match submitted.(i) with
      | s when s > 0.0 ->
        Obs.observe o "engine.queue_wait_us"
          (int_of_float (1e6 *. Float.max 0.0 (start -. s)))
      | _ -> ()));
    (results.(i) <-
       (match thunks.(i) () with
       | v -> Ok v
       | exception e ->
         let kind, message = classify e in
         Error { label = label i; kind; message }));
    let stop = Obs.Clock.now () in
    let g1 = Gc.quick_stat () in
    (* Approximate words allocated by the job on this domain: minor plus
       promoted-free major allocation.  Other domains' major allocations
       can leak into the major counter, so this is attribution, not an
       exact account. *)
    let alloc_words =
      int_of_float
        (Float.max 0.0
           (g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
           -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)))
    in
    times.(i) <- stop -. start;
    workers.(i) <- worker;
    allocs.(i) <- alloc_words;
    match obs with
    | None -> ()
    | Some o ->
      let ok = match results.(i) with Ok _ -> true | Error _ -> false in
      Obs.event o
        { ts = Obs.Event.Mono stop;
          payload =
            Obs.Event.Job_finish { label = label i; worker; ok; wall_s = times.(i) } };
      Obs.incr o (if ok then "engine.jobs_succeeded" else "engine.jobs_failed");
      Obs.observe o "engine.job_wall_us" (int_of_float (1e6 *. times.(i)));
      Obs.observe o "engine.job_alloc_words" alloc_words;
      Obs.max_gauge o "gc.top_heap_words" g1.Gc.top_heap_words
  in
  let submit i =
    submitted.(i) <- Obs.Clock.now ();
    match obs with
    | None -> ()
    | Some o ->
      Obs.event o
        { ts = Obs.Event.Mono submitted.(i);
          payload = Obs.Event.Job_submit { label = label i } };
      Obs.incr o "engine.jobs_submitted"
  in
  for i = 0 to n - 1 do
    submit i
  done;
  (* Every job is submitted before any worker starts, so the queue is just
     the next unclaimed index.  With a pool of 1 nothing is spawned and
     worker 0 (the caller) runs every job in order. *)
  let next = Atomic.make 0 in
  let worker w =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one ~worker:w i;
        loop ()
      end
    in
    loop ()
  in
  let spawned =
    Array.init (pool - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  let wall_s = Obs.Clock.now () -. t0 in
  let busy_s = Array.fold_left ( +. ) 0.0 times in
  let failed =
    Array.fold_left
      (fun acc -> function Error _ -> acc + 1 | Ok _ -> acc)
      0 results
  in
  let job_stats =
    List.init n (fun i ->
        { label = label i; wall_s = times.(i); worker = workers.(i);
          alloc_words = allocs.(i) })
  in
  ( results,
    { pool; submitted = n; succeeded = n - failed; failed; wall_s; busy_s;
      job_stats } )
