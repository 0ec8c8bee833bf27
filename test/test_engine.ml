(* The parallel experiment engine: scheduler crash isolation, the
   compute-once memo, the persistent content-addressed cache, digest-keyed
   Exp_data, and the grid determinism regression (engine at --jobs 1 /
   --jobs 4, cold vs warm cache, all byte-identical to the sequential
   path). *)

let qcheck = QCheck_alcotest.to_alcotest

let rm_rf dir =
  let rec go path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  go dir

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf dir;
  dir

(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "results are in submission order" `Quick (fun () ->
        let thunks = List.init 20 (fun i () -> i * i) in
        let results, stats = Engine.run ~jobs:4 thunks in
        Alcotest.(check int) "submitted" 20 stats.Engine.submitted;
        Alcotest.(check int) "succeeded" 20 stats.Engine.succeeded;
        Array.iteri
          (fun i -> function
            | Ok v -> Alcotest.(check int) "value" (i * i) v
            | Error _ -> Alcotest.fail "unexpected failure")
          results);
    Alcotest.test_case "a crashing job fails alone" `Quick (fun () ->
        let thunks =
          List.init 8 (fun i () -> if i = 3 then failwith "boom" else i)
        in
        let results, stats =
          Engine.run ~jobs:4
            ~classify:(function
              | Failure m -> (`Failed, m)
              | e -> (`Exception, Printexc.to_string e))
            thunks
        in
        Alcotest.(check int) "one failure" 1 stats.Engine.failed;
        Alcotest.(check int) "seven successes" 7 stats.Engine.succeeded;
        (match results.(3) with
        | Error e ->
          Alcotest.(check string) "message" "boom" e.Engine.message;
          Alcotest.(check string) "kind" "failed"
            (Engine.kind_to_string e.Engine.kind)
        | Ok _ -> Alcotest.fail "job 3 should have failed");
        Array.iteri
          (fun i r -> if i <> 3 then Alcotest.(check bool) "ok" true (Result.is_ok r))
          results);
    Alcotest.test_case "jobs=1 runs inline and sequentially" `Quick (fun () ->
        let order = ref [] in
        let thunks = List.init 6 (fun i () -> order := i :: !order) in
        let _, stats = Engine.run ~jobs:1 thunks in
        Alcotest.(check int) "pool" 1 stats.Engine.pool;
        Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4; 5 ]
          (List.rev !order));
    Alcotest.test_case "JOBS env drives the default pool" `Quick (fun () ->
        let saved = Sys.getenv_opt "JOBS" in
        Unix.putenv "JOBS" "3";
        Alcotest.(check int) "JOBS=3" 3 (Engine.default_jobs ());
        Unix.putenv "JOBS" (Option.value ~default:"" saved));
    Alcotest.test_case "stats add up and render" `Quick (fun () ->
        let _, stats = Engine.run ~jobs:2 (List.init 5 (fun i () -> i)) in
        Alcotest.(check int) "jobs listed" 5
          (List.length stats.Engine.job_stats);
        Alcotest.(check bool) "busy >= 0" true (stats.Engine.busy_s >= 0.0);
        Alcotest.(check bool) "queue depth bounded" true
          (stats.Engine.max_queue_depth <= 5);
        let rendered = Engine.render_stats stats in
        Alcotest.(check bool) "render mentions pool" true
          (String.length rendered > 0);
        match Engine.stats_json stats with
        | Report.Json.Obj fields ->
          Alcotest.(check bool) "json has pool" true
            (List.mem_assoc "pool" fields)
        | _ -> Alcotest.fail "stats_json should be an object");
  ]

(* ------------------------------------------------------------------ *)

let memo_tests =
  [
    Alcotest.test_case "computes once under concurrency" `Quick (fun () ->
        let m : int Memo.t = Memo.create () in
        let count = Atomic.make 0 in
        let compute () =
          Memo.get m "key" (fun () ->
              Atomic.incr count;
              (* Dawdle so the other domains pile up on the same key. *)
              Unix.sleepf 0.02;
              42)
        in
        let domains = List.init 4 (fun _ -> Domain.spawn compute) in
        let results = List.map Domain.join domains in
        List.iter (fun v -> Alcotest.(check int) "value" 42 v) results;
        Alcotest.(check int) "computed once" 1 (Atomic.get count);
        Alcotest.(check int) "one settled entry" 1 (Memo.size m));
    Alcotest.test_case "a failed computation stays failed" `Quick (fun () ->
        let m : int Memo.t = Memo.create () in
        let count = ref 0 in
        let attempt () =
          match
            Memo.get m "bad" (fun () ->
                incr count;
                failwith "deterministic failure")
          with
          | _ -> Alcotest.fail "expected failure"
          | exception Failure msg ->
            Alcotest.(check string) "message" "deterministic failure" msg
        in
        attempt ();
        attempt ();
        Alcotest.(check int) "computed once" 1 !count);
    Alcotest.test_case "clear forgets" `Quick (fun () ->
        let m : int Memo.t = Memo.create () in
        let hits = ref 0 in
        let get () = Memo.get m "k" (fun () -> incr hits; 7) in
        ignore (get ());
        Memo.clear m;
        ignore (get ());
        Alcotest.(check int) "recomputed" 2 !hits);
  ]

(* ------------------------------------------------------------------ *)

(* Replace every entry file under [dir] with [f header payload]. *)
let rewrite_entries dir f =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let ic = open_in_bin path in
      let header = input_line ic in
      let payload = really_input_string ic (in_channel_length ic - pos_in ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (f header payload);
      close_out oc)
    (Sys.readdir dir)

let cache_tests =
  [
    Alcotest.test_case "store/find round-trips" `Quick (fun () ->
        let c = Cache.create ~dir:(fresh_dir "pgcc-cache-rt") () in
        let key = Cache.digest [ "some"; "content" ] in
        Alcotest.(check bool) "cold miss" true
          (Cache.find c ~kind:"t" ~key = (None : (int * string) option));
        Cache.store c ~kind:"t" ~key (17, "hello");
        Alcotest.(check (option (pair int string))) "hit" (Some (17, "hello"))
          (Cache.find c ~kind:"t" ~key);
        let s = Cache.stats c in
        Alcotest.(check int) "hits" 1 s.Cache.hits;
        Alcotest.(check int) "misses" 1 s.Cache.misses;
        Alcotest.(check int) "stores" 1 s.Cache.stores);
    Alcotest.test_case "digest separates content, not concatenation" `Quick
      (fun () ->
        Alcotest.(check bool) "ab|c <> a|bc" true
          (Cache.digest [ "ab"; "c" ] <> Cache.digest [ "a"; "bc" ]);
        Alcotest.(check string) "deterministic"
          (Cache.digest [ "x" ]) (Cache.digest [ "x" ]));
    Alcotest.test_case "stale or corrupt entries read as misses" `Quick
      (fun () ->
        let dir = fresh_dir "pgcc-cache-stale" in
        let c = Cache.create ~dir () in
        let key = Cache.digest [ "k" ] in
        Cache.store c ~kind:"t" ~key 99;
        (* Keep each entry's header line, tear the payload. *)
        rewrite_entries dir (fun header _ -> header ^ "\ngarbage");
        Alcotest.(check (option int)) "torn -> miss" None
          (Cache.find c ~kind:"t" ~key);
        Alcotest.(check bool) "error counted" true
          ((Cache.stats c).Cache.errors >= 1));
    Alcotest.test_case "an entry another build stored is a miss" `Quick
      (fun () ->
        let dir = fresh_dir "pgcc-cache-build" in
        let c = Cache.create ~dir () in
        let key = Cache.digest [ "k" ] in
        Cache.store c ~kind:"t" ~key 99;
        Alcotest.(check (option int)) "own build hits" (Some 99)
          (Cache.find c ~kind:"t" ~key);
        (* The same intact payload, stamped by another executable. *)
        rewrite_entries dir (fun header payload ->
            match String.split_on_char ' ' header with
            | [ magic; build; kind ] ->
              String.concat " " [ magic; String.make (String.length build) '0'; kind ]
              ^ "\n" ^ payload
            | _ -> Alcotest.failf "unexpected entry header %S" header);
        Alcotest.(check (option int)) "foreign build -> miss" None
          (Cache.find c ~kind:"t" ~key);
        let s = Cache.stats c in
        Alcotest.(check (pair int int)) "hits, misses" (1, 1)
          (s.Cache.hits, s.Cache.misses);
        Alcotest.(check int) "not an error" 0 s.Cache.errors;
        Cache.store c ~kind:"t" ~key 100;
        Alcotest.(check (option int)) "overwritten by this build" (Some 100)
          (Cache.find c ~kind:"t" ~key));
    Alcotest.test_case "memo computes on miss, reads on hit" `Quick (fun () ->
        let c = Cache.create ~dir:(fresh_dir "pgcc-cache-memo") () in
        let runs = ref 0 in
        let get () =
          Cache.memo (Some c) ~kind:"m" ~key:(Cache.digest [ "k" ]) (fun () ->
              incr runs;
              [ 1; 2; 3 ])
        in
        Alcotest.(check (list int)) "computed" [ 1; 2; 3 ] (get ());
        Alcotest.(check (list int)) "cached" [ 1; 2; 3 ] (get ());
        Alcotest.(check int) "one compute" 1 !runs;
        Alcotest.(check (list int)) "disabled cache still computes" [ 1; 2; 3 ]
          (Cache.memo None ~kind:"m" ~key:"k" (fun () -> incr runs; [ 1; 2; 3 ]));
        Alcotest.(check int) "two computes" 2 !runs);
  ]

(* ------------------------------------------------------------------ *)

let test_wl name source =
  {
    Workload.name;
    description = "engine test workload";
    source;
    profiling_input = lazy "";
    timing_input = lazy "";
    drift_input = lazy "";
  }

let exp_data_tests =
  [
    Alcotest.test_case "prepared is keyed by content, not name" `Quick
      (fun () ->
        (* Two different workloads sharing one name: the second must not be
           served the first one's prepared image (the pre-engine cache was
           keyed by name alone and did exactly that). *)
        let wl1 = test_wl "same-name" "int main() { return 3; }" in
        let wl2 =
          test_wl "same-name"
            {|
int pad(int x) { int i; for (i = 0; i < 3; i = i + 1) x = x + i; return x; }
int main() { return pad(4) & 255; }
|}
        in
        Alcotest.(check bool) "digests differ" true
          (Exp_data.workload_digest wl1 <> Exp_data.workload_digest wl2);
        let p1 = Exp_data.prepare wl1 in
        let p2 = Exp_data.prepare wl2 in
        Alcotest.(check bool) "fresh image for changed content" true
          (Prog.instr_count p1.Exp_data.squeezed
          <> Prog.instr_count p2.Exp_data.squeezed);
        Alcotest.(check int) "wl1 exits 3" 3
          p1.Exp_data.profile_outcome.Vm.exit_code);
    Alcotest.test_case "options_key covers every option field" `Quick
      (fun () ->
        let base = Squash.default_options in
        let variants =
          [ { base with Squash.theta = 0.5 };
            { base with Squash.k_bytes = 64 };
            { base with Squash.gamma = 0.5 };
            { base with Squash.pack = false };
            { base with Squash.use_buffer_safe = false };
            { base with Squash.sharp_buffer_safe = true };
            { base with Squash.unswitch = false };
            { base with Squash.decomp_words = 128 };
            { base with Squash.max_stubs = 4 };
            { base with Squash.coder = `Lzss };
            { base with Squash.regions_strategy = `Linear } ]
        in
        let keys = List.map Exp_data.options_key (base :: variants) in
        Alcotest.(check int) "all keys distinct"
          (List.length keys)
          (List.length (List.sort_uniq compare keys)));
  ]

(* ------------------------------------------------------------------ *)
(* The grid determinism regression (ISSUE 3): the full θ-grid through the
   engine at --jobs 1 and --jobs 4, cold cache and warm cache, must be
   byte-identical to the sequential Exp_data path.  Two workloads keep the
   wall clock tolerable; the θ axis is the full grid. *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let grid_wls () =
  List.filter
    (fun (wl : Workload.t) -> List.mem wl.Workload.name [ "pgp"; "rasta" ])
    Workloads.all

let grid_cells () =
  let wls = grid_wls () in
  let size_cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun wl ->
            Exp_grid.cell wl { Squash.default_options with Squash.theta })
          wls)
      Exp_data.theta_grid
  in
  let timing_cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun wl ->
            Exp_grid.cell ~timing:true wl
              { Squash.default_options with Squash.theta })
          wls)
      [ 0.0; 1e-3 ]
  in
  size_cells @ timing_cells

let render_run ~jobs cells =
  Exp_data.reset ();
  let results, stats = Exp_grid.run ~jobs cells in
  Alcotest.(check int) "no cell failed" 0 stats.Engine.failed;
  Exp_grid.render_table results ^ Exp_grid.to_csv results

let determinism_tests =
  [
    Alcotest.test_case "θ-grid: jobs 1/4, cold/warm cache byte-identical"
      `Slow (fun () ->
        let saved_cache = Exp_data.current_cache () in
        let dir = fresh_dir "pgcc-grid-determinism" in
        Fun.protect
          ~finally:(fun () ->
            Exp_data.set_cache saved_cache;
            Exp_data.reset ();
            rm_rf dir)
          (fun () ->
            let cells = grid_cells () in
            (* The sequential Exp_data path: no engine pool (jobs=1 runs
               inline on the calling domain), no persistent cache. *)
            Exp_data.set_cache None;
            let sequential = render_run ~jobs:1 cells in
            (* Parallel, cold persistent cache. *)
            let cache = Cache.create ~dir () in
            Exp_data.set_cache (Some cache);
            let parallel_cold = render_run ~jobs:4 cells in
            Alcotest.(check bool) "cold run stored entries" true
              ((Cache.stats cache).Cache.stores > 0);
            (* Parallel and sequential, warm persistent cache. *)
            let parallel_warm = render_run ~jobs:4 cells in
            let sequential_warm = render_run ~jobs:1 cells in
            (* Default pool size (honours $JOBS — CI runs 1 and 4). *)
            let default_jobs = render_run ~jobs:(Engine.default_jobs ()) cells in
            Alcotest.(check string) "parallel cold = sequential" sequential
              parallel_cold;
            Alcotest.(check string) "parallel warm = sequential" sequential
              parallel_warm;
            Alcotest.(check string) "sequential warm = sequential" sequential
              sequential_warm;
            Alcotest.(check string) "default jobs = sequential" sequential
              default_jobs;
            let s = Cache.stats cache in
            Alcotest.(check bool) "warm runs hit the cache" true
              (s.Cache.hits > 0)));
    Alcotest.test_case "an injected trap fails that cell only" `Quick
      (fun () ->
        let cells =
          List.concat_map
            (fun theta ->
              List.map
                (fun wl ->
                  Exp_grid.cell wl { Squash.default_options with Squash.theta })
                (grid_wls ()))
            [ 0.0; 1e-3 ]
        in
        Exp_grid.set_injected_failure (Some ("rasta", 1e-3));
        Fun.protect
          ~finally:(fun () -> Exp_grid.set_injected_failure None)
          (fun () ->
            let results, stats = Exp_grid.run ~jobs:2 cells in
            Alcotest.(check int) "one failure" 1 stats.Engine.failed;
            Alcotest.(check int) "rest completed" (List.length cells - 1)
              stats.Engine.succeeded;
            let failed = Exp_grid.failures results in
            Alcotest.(check int) "one structured error" 1 (List.length failed);
            let e = List.hd failed in
            Alcotest.(check string) "kind" "trap"
              (Engine.kind_to_string e.Engine.kind);
            (* The failure is surfaced in the machine-readable report. *)
            let json = Report.Json.to_string (Exp_grid.to_json results) in
            Alcotest.(check bool) "json carries the failure" true
              (contains ~needle:"\"status\":\"failed\"" json);
            Alcotest.(check bool) "json carries successes" true
              (contains ~needle:"\"status\":\"ok\"" json)));
    Alcotest.test_case "a failed cell fails its experiment by name" `Quick
      (fun () ->
        (* Table 1 is the cheapest driver that submits cells (θ=0, no
           timing run). *)
        Exp_grid.set_injected_failure (Some ("rasta", 0.0));
        Fun.protect
          ~finally:(fun () -> Exp_grid.set_injected_failure None)
          (fun () ->
            match Experiments.table1 () with
            | _ -> Alcotest.fail "expected the injected cell to fail T1"
            | exception Failure msg ->
              Alcotest.(check bool) "one cell" true
                (contains ~needle:"1 experiment cell failed" msg);
              Alcotest.(check bool) "names workload@θ" true
                (contains ~needle:"rasta θ=0.0 " msg);
              Alcotest.(check bool) "carries the error" true
                (contains ~needle:"[trap] injected fault" msg)));
  ]

let suite =
  [ ("engine", engine_tests); ("engine-memo", memo_tests);
    ("engine-cache", cache_tests); ("engine-exp-data", exp_data_tests);
    ("engine-grid", determinism_tests) ]
