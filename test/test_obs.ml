(* Observability: the trace ring buffer, the metrics registry, both
   exporters, the instrumented VM/runtime/pipeline/engine sites, the
   zero-cost-when-off guarantee across the stock workloads, and the
   differential views (attrib diff, tracediff). *)

let fuel = 500_000_000

(* ------------------------------------------------------------------ *)
(* Trace ring buffer. *)

let pass_ev i =
  { Obs.Event.ts = Obs.Event.Mono (float_of_int i);
    payload = Obs.Event.Pass_begin { name = Printf.sprintf "p%d" i } }

let pass_name (e : Obs.Event.t) =
  match e.Obs.Event.payload with
  | Obs.Event.Pass_begin { name } -> name
  | _ -> "?"

let ring_tests =
  [
    Alcotest.test_case "capacity must be positive" `Quick (fun () ->
        match Obs.Trace.create ~capacity:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "no drops below capacity" `Quick (fun () ->
        let tr = Obs.Trace.create ~capacity:8 () in
        for i = 0 to 4 do
          Obs.Trace.emit tr (pass_ev i)
        done;
        Alcotest.(check int) "emitted" 5 (Obs.Trace.emitted tr);
        Alcotest.(check int) "dropped" 0 (Obs.Trace.dropped tr);
        Alcotest.(check int) "length" 5 (Obs.Trace.length tr);
        Alcotest.(check (list string))
          "oldest first"
          [ "p0"; "p1"; "p2"; "p3"; "p4" ]
          (List.map pass_name (Obs.Trace.events tr)));
    Alcotest.test_case "a wrapped ring keeps the newest events" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~capacity:4 () in
        for i = 0 to 9 do
          Obs.Trace.emit tr (pass_ev i)
        done;
        Alcotest.(check int) "emitted" 10 (Obs.Trace.emitted tr);
        Alcotest.(check int) "dropped" 6 (Obs.Trace.dropped tr);
        Alcotest.(check int) "length" 4 (Obs.Trace.length tr);
        Alcotest.(check (list string))
          "tail retained"
          [ "p6"; "p7"; "p8"; "p9" ]
          (List.map pass_name (Obs.Trace.events tr)));
  ]

(* ------------------------------------------------------------------ *)
(* Sharded sinks: deterministic merge, per-shard accounting, tie-breaks. *)

let shard_tests =
  [
    Alcotest.test_case "merge is independent of emission interleaving" `Quick
      (fun () ->
        (* The same events land in the same shards under two different
           interleavings; the export must be byte-identical. *)
        let ev_for i =
          { Obs.Event.ts = Obs.Event.Mono (float_of_int (100 + i));
            payload = Obs.Event.Pass_begin { name = Printf.sprintf "p%d" i } }
        in
        let shard_of i = i mod 3 in
        let tr1 = Obs.Trace.create ~capacity:48 ~shards:3 () in
        for i = 0 to 11 do
          Obs.Trace.emit_into tr1 ~shard:(shard_of i) (ev_for i)
        done;
        let tr2 = Obs.Trace.create ~capacity:48 ~shards:3 () in
        (* Shard-major order: all of shard 0 first, then 1, then 2. *)
        List.iter
          (fun s ->
            for i = 0 to 11 do
              if shard_of i = s then
                Obs.Trace.emit_into tr2 ~shard:s (ev_for i)
            done)
          [ 2; 0; 1 ];
        Alcotest.(check string)
          "jsonl identical"
          (Obs.Trace.to_jsonl tr1)
          (Obs.Trace.to_jsonl tr2);
        Alcotest.(check string)
          "chrome identical"
          (Report.Json.to_string (Obs.Trace.to_chrome tr1))
          (Report.Json.to_string (Obs.Trace.to_chrome tr2));
        Alcotest.(check (list string))
          "merged order is clock order"
          (List.init 12 (Printf.sprintf "p%d"))
          (List.map pass_name (Obs.Trace.events tr1)));
    Alcotest.test_case "per-shard drop accounting" `Quick (fun () ->
        (* Total capacity 8 over 2 shards = 4 each.  Six events into shard
           0 drop two there; three into shard 1 drop none. *)
        let tr = Obs.Trace.create ~capacity:8 ~shards:2 () in
        for i = 0 to 5 do
          Obs.Trace.emit_into tr ~shard:0 (pass_ev i)
        done;
        for i = 10 to 12 do
          Obs.Trace.emit_into tr ~shard:1 (pass_ev i)
        done;
        Alcotest.(check (list (pair int int)))
          "per-shard (emitted, dropped)"
          [ (6, 2); (3, 0) ]
          (Array.to_list (Obs.Trace.shard_stats tr));
        Alcotest.(check int) "total emitted" 9 (Obs.Trace.emitted tr);
        Alcotest.(check int) "total dropped" 2 (Obs.Trace.dropped tr);
        Alcotest.(check int) "total length" 7 (Obs.Trace.length tr);
        (* The oldest two of shard 0 are gone; survivors still merge in
           clock order. *)
        Alcotest.(check (list string))
          "survivors in clock order"
          [ "p2"; "p3"; "p4"; "p5"; "p10"; "p11"; "p12" ]
          (List.map pass_name (Obs.Trace.events tr)));
    Alcotest.test_case "clock ties break by shard id then sequence" `Quick
      (fun () ->
        let at_five name =
          { Obs.Event.ts = Obs.Event.Mono 5.0;
            payload = Obs.Event.Pass_begin { name } }
        in
        let tr = Obs.Trace.create ~capacity:16 ~shards:2 () in
        (* Emit into shard 1 before shard 0: shard id must win over
           arrival order. *)
        Obs.Trace.emit_into tr ~shard:1 (at_five "s1a");
        Obs.Trace.emit_into tr ~shard:1 (at_five "s1b");
        Obs.Trace.emit_into tr ~shard:0 (at_five "s0a");
        Alcotest.(check (list string))
          "shard id, then per-shard sequence"
          [ "s0a"; "s1a"; "s1b" ]
          (List.map pass_name (Obs.Trace.events tr)));
    Alcotest.test_case "both clock tracks merge host-track first" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~capacity:16 ~shards:2 () in
        Obs.Trace.emit_into tr ~shard:1
          { Obs.Event.ts = Obs.Event.Cycles 1;
            payload = Obs.Event.Decomp_begin { region = 7 } };
        Obs.Trace.emit_into tr ~shard:0 (pass_ev 3);
        (* Mono events (track 0) sort before Cycles events (track 1)
           whatever their numeric clock values. *)
        match List.map (fun (e : Obs.Event.t) -> e.Obs.Event.ts)
                (Obs.Trace.events tr)
        with
        | [ Obs.Event.Mono _; Obs.Event.Cycles 1 ] -> ()
        | _ -> Alcotest.fail "expected Mono track before Cycles track");
  ]

(* ------------------------------------------------------------------ *)
(* Exporters, validated through the test suite's own JSON reader. *)

let mixed_trace () =
  let tr = Obs.Trace.create ~capacity:64 () in
  let emit ts p = Obs.Trace.emit tr { Obs.Event.ts; payload = p } in
  emit (Obs.Event.Cycles 100) (Obs.Event.Decomp_begin { region = 0 });
  emit (Obs.Event.Cycles 140)
    (Obs.Event.Decomp_end { region = 0; bits = 33; words = 7; cycles = 40 });
  emit (Obs.Event.Cycles 141)
    (Obs.Event.Buffer_enter { region = 0; offset = 0; pc = 4096 });
  emit (Obs.Event.Cycles 150)
    (Obs.Event.Stub_create { region = 1; ret = 8; live = 1 });
  emit (Obs.Event.Cycles 190)
    (Obs.Event.Stub_free { region = 1; ret = 8; live = 0 });
  emit (Obs.Event.Mono 10.0) (Obs.Event.Pass_begin { name = "huffman" });
  emit (Obs.Event.Mono 10.25)
    (Obs.Event.Pass_end { name = "huffman"; elapsed_s = 0.25 });
  emit (Obs.Event.Mono 10.3) (Obs.Event.Job_submit { label = "cell" });
  emit (Obs.Event.Mono 10.4) (Obs.Event.Job_start { label = "cell"; worker = 2 });
  emit (Obs.Event.Mono 10.9)
    (Obs.Event.Job_finish { label = "cell"; worker = 2; ok = true; wall_s = 0.5 });
  tr

let num_exn j =
  match j with
  | Json_check.Num f -> f
  | _ -> Alcotest.fail "expected a number"

let str_exn j =
  match j with
  | Json_check.Str s -> s
  | _ -> Alcotest.fail "expected a string"

let exporter_tests =
  [
    Alcotest.test_case "chrome export is valid and span-balanced" `Quick
      (fun () ->
        let tr = mixed_trace () in
        let doc =
          Json_check.parse (Report.Json.to_string (Obs.Trace.to_chrome tr))
        in
        Alcotest.(check string)
          "schema" "pgcc-trace-v2"
          (str_exn (Json_check.member_exn "schema" doc));
        let other = Json_check.member_exn "otherData" doc in
        Alcotest.(check (float 0.0))
          "emitted" 10.0
          (num_exn (Json_check.member_exn "emitted" other));
        let rows =
          match Json_check.member_exn "traceEvents" doc with
          | Json_check.Arr rows -> rows
          | _ -> Alcotest.fail "traceEvents not a list"
        in
        let ph r = str_exn (Json_check.member_exn "ph" r) in
        let count p = List.length (List.filter (fun r -> ph r = p) rows) in
        (* Decomp_end, Pass_end, Job_finish become spans; Buffer_enter,
           Stub_create, Stub_free, Job_submit become instants; the begin/
           start markers are folded into their spans. *)
        Alcotest.(check int) "metadata rows" 2 (count "M");
        Alcotest.(check int) "spans" 3 (count "X");
        Alcotest.(check int) "instants" 4 (count "i");
        Alcotest.(check int) "total rows" 9 (List.length rows);
        (* The decompression span starts where its cycle charge began. *)
        let decomp =
          List.find
            (fun r -> str_exn (Json_check.member_exn "name" r) = "decompress r0")
            rows
        in
        Alcotest.(check (float 0.0))
          "span start" 100.0
          (num_exn (Json_check.member_exn "ts" decomp));
        Alcotest.(check (float 0.0))
          "span duration" 40.0
          (num_exn (Json_check.member_exn "dur" decomp));
        (* Wall-clock rows are rebased to the earliest wall event. *)
        let pass =
          List.find
            (fun r -> str_exn (Json_check.member_exn "name" r) = "pass huffman")
            rows
        in
        Alcotest.(check (float 1e-3))
          "rebased pass start" 0.0
          (num_exn (Json_check.member_exn "ts" pass));
        Alcotest.(check (float 1e-3))
          "pass duration us" 250_000.0
          (num_exn (Json_check.member_exn "dur" pass)));
    Alcotest.test_case "chrome export survives a wrapped ring" `Quick (fun () ->
        (* Capacity 2: the first begin is overwritten, and a trailing begin
           has no end yet.  The export must still be balanced — one span,
           nothing orphaned. *)
        let tr = Obs.Trace.create ~capacity:2 () in
        let emit ts p = Obs.Trace.emit tr { Obs.Event.ts; payload = p } in
        emit (Obs.Event.Cycles 10) (Obs.Event.Decomp_begin { region = 0 });
        emit (Obs.Event.Cycles 50)
          (Obs.Event.Decomp_end { region = 0; bits = 8; words = 2; cycles = 40 });
        emit (Obs.Event.Cycles 60) (Obs.Event.Decomp_begin { region = 1 });
        let doc =
          Json_check.parse (Report.Json.to_string (Obs.Trace.to_chrome tr))
        in
        let rows =
          match Json_check.member_exn "traceEvents" doc with
          | Json_check.Arr rows -> rows
          | _ -> Alcotest.fail "traceEvents not a list"
        in
        let ph r = str_exn (Json_check.member_exn "ph" r) in
        Alcotest.(check int) "one span" 1
          (List.length (List.filter (fun r -> ph r = "X") rows));
        Alcotest.(check int) "no instants" 0
          (List.length (List.filter (fun r -> ph r = "i") rows)));
    Alcotest.test_case "jsonl export parses line by line" `Quick (fun () ->
        let tr = mixed_trace () in
        let lines =
          Obs.Trace.to_jsonl tr |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check int) "header + events" 11 (List.length lines);
        let parsed = List.map Json_check.parse lines in
        let header = List.hd parsed in
        Alcotest.(check string)
          "schema" "pgcc-trace-v2"
          (str_exn (Json_check.member_exn "schema" header));
        Alcotest.(check (float 0.0))
          "dropped" 0.0
          (num_exn (Json_check.member_exn "dropped" header));
        let decomp_end =
          List.find
            (fun j ->
              match Json_check.member "ev" j with
              | Some (Json_check.Str "decomp_end") -> true
              | _ -> false)
            (List.tl parsed)
        in
        Alcotest.(check (float 0.0))
          "cycles charged" 40.0
          (num_exn (Json_check.member_exn "cycles" decomp_end));
        Alcotest.(check string)
          "clock domain" "cycles"
          (str_exn (Json_check.member_exn "clock" decomp_end)));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let metrics_tests =
  [
    Alcotest.test_case "counters accumulate" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "a";
        Obs.Metrics.incr m ~by:41 "a";
        Alcotest.(check int) "a" 42 (Obs.Metrics.counter_value m "a");
        Alcotest.(check int) "unknown" 0 (Obs.Metrics.counter_value m "b"));
    Alcotest.test_case "max_gauge keeps the maximum" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.max_gauge m "g" 5;
        Obs.Metrics.max_gauge m "g" 3;
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        let gauges = Json_check.member_exn "gauges" doc in
        Alcotest.(check (float 0.0))
          "kept max" 5.0
          (num_exn (Json_check.member_exn "g" gauges));
        Obs.Metrics.max_gauge m "g" 9;
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        Alcotest.(check (float 0.0))
          "raised" 9.0
          (num_exn (Json_check.member_exn "g" (Json_check.member_exn "gauges" doc))));
    Alcotest.test_case "histograms bucket by powers of two" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        List.iter (Obs.Metrics.observe m "h") [ 0; 1; 2; 3; 4 ];
        Alcotest.(check int) "count" 5 (Obs.Metrics.histogram_count m "h");
        Alcotest.(check int) "sum" 10 (Obs.Metrics.histogram_sum m "h");
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        let h =
          Json_check.member_exn "h" (Json_check.member_exn "histograms" doc)
        in
        Alcotest.(check (float 0.0))
          "min" 0.0
          (num_exn (Json_check.member_exn "min" h));
        Alcotest.(check (float 0.0))
          "max" 4.0
          (num_exn (Json_check.member_exn "max" h));
        let buckets =
          match Json_check.member_exn "buckets" h with
          | Json_check.Arr bs ->
            List.map
              (fun b ->
                ( int_of_float (num_exn (Json_check.member_exn "lo" b)),
                  int_of_float (num_exn (Json_check.member_exn "hi" b)),
                  int_of_float (num_exn (Json_check.member_exn "count" b)) ))
              bs
          | _ -> Alcotest.fail "buckets not a list"
        in
        (* 0 and 1 share bucket 0; 2 and 3 fill [2,3]; 4 opens [4,7]. *)
        Alcotest.(check (list (triple int int int)))
          "buckets"
          [ (0, 1, 2); (2, 3, 2); (4, 7, 1) ]
          buckets);
    Alcotest.test_case "quantiles on a concentrated distribution" `Quick
      (fun () ->
        (* All mass on one value: every quantile is clamped to it. *)
        let m = Obs.Metrics.create () in
        for _ = 1 to 100 do
          Obs.Metrics.observe m "h" 5
        done;
        List.iter
          (fun q ->
            Alcotest.(check (option (float 0.0)))
              (Printf.sprintf "q=%.2f" q)
              (Some 5.0)
              (Obs.Metrics.histogram_quantile m "h" q))
          [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
        Alcotest.(check (option (float 0.0)))
          "empty histogram" None
          (Obs.Metrics.histogram_quantile m "missing" 0.5));
    Alcotest.test_case "quantiles on a skewed distribution" `Quick (fun () ->
        (* 90 fast observations at 1, 10 slow at 1000: the median sits in
           the fast bucket, the tail quantiles in the slow one. *)
        let m = Obs.Metrics.create () in
        for _ = 1 to 90 do
          Obs.Metrics.observe m "h" 1
        done;
        for _ = 1 to 10 do
          Obs.Metrics.observe m "h" 1000
        done;
        let q p = Option.get (Obs.Metrics.histogram_quantile m "h" p) in
        Alcotest.(check (float 0.0)) "p50 fast" 1.0 (q 0.5);
        Alcotest.(check bool) "p95 in the slow bucket" true (q 0.95 >= 512.0);
        Alcotest.(check bool) "p99 below the observed max" true
          (q 0.99 <= 1000.0);
        Alcotest.(check (float 0.0)) "p100 is the max" 1000.0 (q 1.0);
        (* The snapshot carries the estimates alongside the buckets. *)
        let doc =
          Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m))
        in
        let h =
          Json_check.member_exn "h" (Json_check.member_exn "histograms" doc)
        in
        Alcotest.(check (float 0.0))
          "p50 in snapshot" 1.0
          (num_exn (Json_check.member_exn "p50" h));
        Alcotest.(check bool) "p99 in snapshot" true
          (num_exn (Json_check.member_exn "p99" h) >= 512.0));
    Alcotest.test_case "quantile interpolates within a bucket" `Quick
      (fun () ->
        (* Four values spread across bucket [8,15]: interior quantiles stay
           inside the bucket and respect min/max clamps. *)
        let m = Obs.Metrics.create () in
        List.iter (Obs.Metrics.observe m "h") [ 8; 10; 12; 15 ];
        let q p = Option.get (Obs.Metrics.histogram_quantile m "h" p) in
        Alcotest.(check bool) "p50 inside bucket" true
          (q 0.5 >= 8.0 && q 0.5 <= 15.0);
        Alcotest.(check (float 0.0)) "p0 is the min" 8.0 (q 0.0);
        Alcotest.(check (float 0.0)) "p100 is the max" 15.0 (q 1.0));
    Alcotest.test_case "empty registry serialises cleanly" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        Alcotest.(check bool) "empty counters" true
          (Json_check.member_exn "counters" doc = Json_check.Obj []));
    Alcotest.test_case "an empty sink is inert" `Quick (fun () ->
        let o = Obs.create () in
        Obs.event o (pass_ev 0);
        Obs.incr o "x";
        Obs.observe o "y" 3;
        let doc = Json_check.parse (Report.Json.to_string (Obs.snapshot_json o)) in
        Alcotest.(check bool) "metrics null" true
          (Json_check.member_exn "metrics" doc = Json_check.Null);
        Alcotest.(check bool) "trace null" true
          (Json_check.member_exn "trace" doc = Json_check.Null));
  ]

(* ------------------------------------------------------------------ *)
(* Instrumented sites: pipeline pass spans and engine job spans. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let fib_src =
  {|
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { putint(fib(14)); return 0; }
|}

let squash_fib ?obs () =
  let p, _ = Squeeze.run (compile fib_src) in
  let profile, _ = Profile.collect p ~input:"" in
  let options = { Squash.default_options with Squash.theta = 1.0 } in
  (Squash.run ~options ?obs p profile, profile)

let span_tests =
  [
    Alcotest.test_case "the pipeline emits balanced pass spans" `Quick
      (fun () ->
        let obs = Obs.full () in
        let _ = squash_fib ~obs () in
        let evs = Obs.Trace.events (Option.get obs.Obs.trace) in
        let begins =
          List.filter_map
            (fun (e : Obs.Event.t) ->
              match e.Obs.Event.payload with
              | Obs.Event.Pass_begin { name } -> Some name
              | _ -> None)
            evs
        in
        let ends =
          List.filter_map
            (fun (e : Obs.Event.t) ->
              match e.Obs.Event.payload with
              | Obs.Event.Pass_end { name; elapsed_s } ->
                Alcotest.(check bool)
                  (name ^ " elapsed non-negative")
                  true (elapsed_s >= 0.0);
                Some name
              | _ -> None)
            evs
        in
        Alcotest.(check bool) "some passes ran" true (begins <> []);
        Alcotest.(check (list string)) "begin/end pair up" begins ends;
        Alcotest.(check int)
          "counter matches" (List.length ends)
          (Obs.Metrics.counter_value
             (Option.get obs.Obs.metrics)
             "pipeline.passes_run"));
    Alcotest.test_case "the engine emits job submit/start/finish" `Quick
      (fun () ->
        let obs = Obs.full () in
        let results, stats =
          Engine.run ~jobs:2 ~obs
            ~label:(Printf.sprintf "j%d")
            [ (fun () -> 1); (fun () -> 2); (fun () -> failwith "boom") ]
        in
        Alcotest.(check int) "submitted" 3 stats.Engine.submitted;
        Alcotest.(check bool) "third failed" true
          (match results.(2) with Error _ -> true | Ok _ -> false);
        let m = Option.get obs.Obs.metrics in
        Alcotest.(check int) "submit counter" 3
          (Obs.Metrics.counter_value m "engine.jobs_submitted");
        Alcotest.(check int) "succeeded counter" 2
          (Obs.Metrics.counter_value m "engine.jobs_succeeded");
        Alcotest.(check int) "failed counter" 1
          (Obs.Metrics.counter_value m "engine.jobs_failed");
        let evs = Obs.Trace.events (Option.get obs.Obs.trace) in
        let count f = List.length (List.filter f evs) in
        Alcotest.(check int) "submits" 3
          (count (fun e ->
               match e.Obs.Event.payload with
               | Obs.Event.Job_submit _ -> true
               | _ -> false));
        Alcotest.(check int) "starts" 3
          (count (fun e ->
               match e.Obs.Event.payload with
               | Obs.Event.Job_start _ -> true
               | _ -> false));
        let finishes =
          List.filter_map
            (fun (e : Obs.Event.t) ->
              match e.Obs.Event.payload with
              | Obs.Event.Job_finish { label; ok; _ } -> Some (label, ok)
              | _ -> None)
            evs
        in
        Alcotest.(check int) "finishes" 3 (List.length finishes);
        Alcotest.(check (option bool)) "failure recorded" (Some false)
          (List.assoc_opt "j2" finishes));
    Alcotest.test_case "stats_to_json and observe_stats agree with a run"
      `Quick (fun () ->
        let r, _ = squash_fib () in
        let outcome, stats =
          Runtime.run ~fuel r.Squash.squashed ~input:""
        in
        Alcotest.(check string) "fib output" "377\n" outcome.Vm.output;
        let doc =
          Json_check.parse (Report.Json.to_string (Runtime.stats_to_json stats))
        in
        Alcotest.(check (float 0.0))
          "decompressions"
          (float_of_int stats.Runtime.decompressions)
          (num_exn (Json_check.member_exn "decompressions" doc));
        Alcotest.(check (float 0.0))
          "per_region length"
          (float_of_int (Array.length stats.Runtime.per_region))
          (match Json_check.member_exn "per_region" doc with
          | Json_check.Arr l -> float_of_int (List.length l)
          | _ -> -1.0);
        (* Replaying the aggregates must reproduce the live counters. *)
        let m = Obs.Metrics.create () in
        Runtime.observe_stats (Obs.create ~metrics:m ()) stats;
        Alcotest.(check int) "replayed decompressions"
          stats.Runtime.decompressions
          (Obs.Metrics.counter_value m "runtime.decompressions");
        Alcotest.(check int) "replayed stub creates" stats.Runtime.stub_creates
          (Obs.Metrics.counter_value m "runtime.stub_creates"));
  ]

(* ------------------------------------------------------------------ *)
(* The workload-wide checks.  One squeeze/profile/squash per workload at
   θ = 0.01, then a timing run with and without a sink attached; the
   batch is computed once (in parallel, honouring $JOBS) and shared by
   the regression tests below. *)

type wl_check = {
  wl_name : string;
  plain : Vm.outcome;  (* no sink attached *)
  traced : Vm.outcome;
  plain_stats : Runtime.stats;
  traced_stats : Runtime.stats;
  emitted : int;
  metrics_decomp : int;
  vm_hook_counter : int;
  attrib : Attrib.t;
  region_count : int;
}

let check_workload (wl : Workload.t) =
  let p, _ = Squeeze.run (Workload.compile wl) in
  let profile, _ =
    Profile.collect ~fuel p ~input:(Workload.profiling_input wl)
  in
  let options = { Squash.default_options with Squash.theta = 0.01 } in
  let r = Squash.run ~options p profile in
  let timing = Workload.timing_input wl in
  let plain, plain_stats = Runtime.run ~fuel r.Squash.squashed ~input:timing in
  let obs = Obs.full () in
  let traced, traced_stats =
    Runtime.run ~fuel ~obs r.Squash.squashed ~input:timing
  in
  let m = Option.get obs.Obs.metrics in
  {
    wl_name = wl.Workload.name;
    plain;
    traced;
    plain_stats;
    traced_stats;
    emitted = Obs.Trace.emitted (Option.get obs.Obs.trace);
    metrics_decomp = Obs.Metrics.counter_value m "runtime.decompressions";
    vm_hook_counter = Obs.Metrics.counter_value m "vm.hook_invocations";
    attrib = Attrib.compute ~profile r traced_stats;
    region_count = Array.length r.Squash.regions.Regions.regions;
  }

let batch =
  lazy
    (let results, _ =
       Engine.run
         ~label:(fun i -> (List.nth Workloads.all i).Workload.name)
         (List.map (fun wl () -> check_workload wl) Workloads.all)
     in
     Array.to_list results
     |> List.map (function
          | Ok r -> r
          | Error e ->
            Alcotest.failf "workload job failed: %s" (Engine.error_to_string e)))

let workload_tests =
  [
    Alcotest.test_case "tracing off is byte-identical across workloads" `Slow
      (fun () ->
        List.iter
          (fun c ->
            let n = c.wl_name in
            Alcotest.(check string) (n ^ " output") c.plain.Vm.output
              c.traced.Vm.output;
            Alcotest.(check int) (n ^ " exit") c.plain.Vm.exit_code
              c.traced.Vm.exit_code;
            Alcotest.(check int) (n ^ " icount") c.plain.Vm.icount
              c.traced.Vm.icount;
            Alcotest.(check int) (n ^ " cycles") c.plain.Vm.cycles
              c.traced.Vm.cycles;
            Alcotest.(check int)
              (n ^ " hook invocations")
              c.plain.Vm.hook_invocations c.traced.Vm.hook_invocations;
            Alcotest.(check bool)
              (n ^ " stats identical")
              true
              (c.plain_stats = c.traced_stats))
          (Lazy.force batch));
    Alcotest.test_case "max live stubs stay within bounds at theta=0.01" `Slow
      (fun () ->
        List.iter
          (fun c ->
            let v = c.traced_stats.Runtime.max_live_stubs in
            if v > 9 then
              Alcotest.failf "%s: max_live_stubs = %d exceeds the bound of 9"
                c.wl_name v)
          (Lazy.force batch));
    Alcotest.test_case "hook invocations equal runtime-driven invocations"
      `Slow (fun () ->
        List.iter
          (fun c ->
            let s = c.traced_stats in
            let expected =
              s.Runtime.decompressions + s.Runtime.cache_hits
              + s.Runtime.stub_creates + s.Runtime.stub_reuses
            in
            Alcotest.(check int)
              (c.wl_name ^ " outcome counter")
              expected c.traced.Vm.hook_invocations;
            Alcotest.(check int)
              (c.wl_name ^ " metrics counter")
              c.traced.Vm.hook_invocations c.vm_hook_counter;
            Alcotest.(check int)
              (c.wl_name ^ " decompression counter")
              s.Runtime.decompressions c.metrics_decomp;
            Alcotest.(check bool)
              (c.wl_name ^ " events were emitted")
              true (c.emitted > 0))
          (Lazy.force batch));
    Alcotest.test_case "attribution reconciles with runtime stats" `Slow
      (fun () ->
        List.iter
          (fun c ->
            let a = c.attrib in
            let n = c.wl_name in
            Alcotest.(check int)
              (n ^ " total decompressions")
              c.traced_stats.Runtime.decompressions a.Attrib.total_decompressions;
            Alcotest.(check int)
              (n ^ " total cycles")
              (Array.fold_left ( + ) 0 c.traced_stats.Runtime.per_region_cycles)
              a.Attrib.total_cycles;
            Alcotest.(check int)
              (n ^ " one row per region")
              c.region_count
              (List.length a.Attrib.rows);
            Alcotest.(check int)
              (n ^ " rows sum to the total")
              a.Attrib.total_decompressions
              (List.fold_left
                 (fun acc (r : Attrib.row) -> acc + r.Attrib.decompressions)
                 0 a.Attrib.rows);
            if a.Attrib.total_cycles > 0 then
              Alcotest.(check (float 1e-9))
                (n ^ " shares sum to 1")
                1.0
                (List.fold_left
                   (fun acc (r : Attrib.row) -> acc +. r.Attrib.share)
                   0.0 a.Attrib.rows))
          (Lazy.force batch));
  ]

(* ------------------------------------------------------------------ *)
(* The acceptance property for sharded sinks: a traced JOBS=8 grid is
   byte-identical in outcomes to an untraced one.  Memos and the
   persistent cache are disabled/reset so both runs really execute. *)

let grid_determinism_tests =
  [
    Alcotest.test_case "a traced JOBS=8 grid matches an untraced one" `Slow
      (fun () ->
        let cells () =
          List.map
            (fun wl ->
              Exp_grid.cell ~timing:true ~slots:1 wl
                { Squash.default_options with Squash.theta = 0.01 })
            [ List.hd Workloads.all ]
        in
        Exp_data.set_cache None;
        let run_with obs =
          Exp_data.reset ();
          Exp_grid.set_obs obs;
          Fun.protect
            ~finally:(fun () -> Exp_grid.set_obs None)
            (fun () ->
              let results, _ = Exp_grid.run ~jobs:8 (cells ()) in
              results)
        in
        let plain = run_with None in
        let obs = Obs.full ~shards:9 () in
        let traced = run_with (Some obs) in
        Alcotest.(check string)
          "cell outcomes byte-identical"
          (Exp_grid.to_csv plain) (Exp_grid.to_csv traced);
        Alcotest.(check string)
          "cell json byte-identical"
          (Report.Json.to_string (Exp_grid.to_json plain))
          (Report.Json.to_string (Exp_grid.to_json traced));
        let tr = Option.get obs.Obs.trace in
        Alcotest.(check int) "nine shards" 9 (Obs.Trace.shard_count tr);
        Alcotest.(check bool) "events recorded" true
          (Obs.Trace.emitted tr > 0);
        (* Aggregated accounting equals the per-shard sums. *)
        let se, sd =
          Array.fold_left
            (fun (ae, ad) (e, d) -> (ae + e, ad + d))
            (0, 0) (Obs.Trace.shard_stats tr)
        in
        Alcotest.(check int) "emitted sums" (Obs.Trace.emitted tr) se;
        Alcotest.(check int) "dropped sums" (Obs.Trace.dropped tr) sd);
  ]

(* ------------------------------------------------------------------ *)
(* Differential views: the attrib save/diff round-trip and tracediff's
   span profiles over both export formats. *)

let attrib_saved_of_rows rows ~total_cycles ~run_cycles =
  {
    Attrib.Saved.rows =
      List.map
        (fun (rid, decompressions, cycles, share) ->
          { Attrib.Saved.rid; decompressions; cycles; share })
        rows;
    total_decompressions =
      List.fold_left (fun acc (_, d, _, _) -> acc + d) 0 rows;
    total_cycles;
    run_cycles;
    params = [ ("workload", "synthetic") ];
  }

let attrib_diff_tests =
  [
    Alcotest.test_case "saved attributions round-trip through JSON" `Quick
      (fun () ->
        let a =
          attrib_saved_of_rows
            [ (0, 10, 4000, 0.8); (3, 2, 1000, 0.2) ]
            ~total_cycles:5000 ~run_cycles:(Some 20000)
        in
        let json =
          Report.Json.Obj
            [ ("schema", Report.Json.String "pgcc-attrib-v1");
              ( "params",
                Report.Json.Obj
                  [ ("workload", Report.Json.String "synthetic") ] );
              ("run_cycles", Report.Json.Int 20000);
              ("total_decompressions", Report.Json.Int 12);
              ("total_cycles", Report.Json.Int 5000);
              ( "regions",
                Report.Json.List
                  (List.map
                     (fun (r : Attrib.Saved.row) ->
                       Report.Json.Obj
                         [ ("rid", Report.Json.Int r.Attrib.Saved.rid);
                           ( "decompressions",
                             Report.Json.Int r.Attrib.Saved.decompressions );
                           ("cycles", Report.Json.Int r.Attrib.Saved.cycles);
                           ("share", Report.Json.Float r.Attrib.Saved.share)
                         ])
                     a.Attrib.Saved.rows) ) ]
        in
        match Attrib.Saved.of_json json with
        | Error msg -> Alcotest.failf "of_json: %s" msg
        | Ok b ->
          Alcotest.(check bool) "identical" true (a = b);
          Alcotest.(check (option (float 1e-9)))
            "overhead share" (Some 0.25)
            (Attrib.Saved.overhead_share b));
    Alcotest.test_case "the diff is signed and sorted by |delta|" `Quick
      (fun () ->
        let a =
          attrib_saved_of_rows
            [ (0, 10, 4000, 0.8); (1, 2, 1000, 0.2) ]
            ~total_cycles:5000 ~run_cycles:(Some 10000)
        in
        let b =
          attrib_saved_of_rows
            [ (0, 2, 500, 0.5); (2, 1, 500, 0.5) ]
            ~total_cycles:1000 ~run_cycles:(Some 10000)
        in
        let ds = Attrib.diff a b in
        Alcotest.(check (list int))
          "regions by |cycle delta|" [ 0; 1; 2 ]
          (List.map (fun d -> d.Attrib.drid) ds);
        let d0 = List.hd ds in
        Alcotest.(check int) "region 0 before" 4000 d0.Attrib.cycles_a;
        Alcotest.(check int) "region 0 after" 500 d0.Attrib.cycles_b;
        (* Region 1 only in A, region 2 only in B: zero-filled sides. *)
        let d1 = List.find (fun d -> d.Attrib.drid = 1) ds in
        Alcotest.(check int) "absent side" 0 d1.Attrib.cycles_b;
        let rendered = Attrib.render_diff a b in
        Alcotest.(check bool) "share shift rendered" true
          (String.length rendered > 0);
        (* 50% -> 10% overhead share must appear as a -40pp shift. *)
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "overall share line" true
          (contains rendered "50.0% -> 10.0% (-40.0pp)"));
  ]

(* ------------------------------------------------------------------ *)

let tracediff_tests =
  [
    Alcotest.test_case "chrome and jsonl exports profile identically" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~capacity:64 () in
        let emit ts p = Obs.Trace.emit tr { Obs.Event.ts; payload = p } in
        emit (Obs.Event.Cycles 140)
          (Obs.Event.Decomp_end
             { region = 0; bits = 33; words = 7; cycles = 40 });
        emit (Obs.Event.Cycles 300)
          (Obs.Event.Decomp_end
             { region = 0; bits = 20; words = 7; cycles = 60 });
        emit (Obs.Event.Mono 10.25)
          (Obs.Event.Pass_end { name = "huffman"; elapsed_s = 0.25 });
        emit (Obs.Event.Cycles 400)
          (Obs.Event.Cache_evict { region = 0; slot = 0 });
        let of_ok = function
          | Ok p -> p
          | Error msg -> Alcotest.failf "parse failed: %s" msg
        in
        let from_chrome =
          of_ok
            (Tracediff.of_string
               (Report.Json.to_string (Obs.Trace.to_chrome tr)))
        in
        let from_jsonl =
          of_ok (Tracediff.of_string (Obs.Trace.to_jsonl tr))
        in
        Alcotest.(check bool) "same spans" true
          (from_chrome.Tracediff.spans = from_jsonl.Tracediff.spans);
        let decomp =
          List.assoc "decompress r0" from_chrome.Tracediff.spans
        in
        Alcotest.(check int) "decomp count" 2 decomp.Tracediff.count;
        Alcotest.(check (float 1e-6)) "decomp cycles-as-us" 100.0
          decomp.Tracediff.total_us;
        let pass = List.assoc "pass huffman" from_chrome.Tracediff.spans in
        Alcotest.(check (float 1e-3)) "pass us" 250_000.0
          pass.Tracediff.total_us;
        Alcotest.(check int) "headers agree" 4
          (Option.get from_jsonl.Tracediff.emitted);
        (* Self-diff is all zeros. *)
        List.iter
          (fun (d : Tracediff.delta) ->
            Alcotest.(check (float 0.0))
              (d.Tracediff.name ^ " zero delta")
              0.0
              (d.Tracediff.us_b -. d.Tracediff.us_a))
          (Tracediff.diff from_chrome from_jsonl));
    Alcotest.test_case "the diff surfaces the changed span" `Quick (fun () ->
        let mk cycles =
          let tr = Obs.Trace.create ~capacity:16 () in
          Obs.Trace.emit tr
            { Obs.Event.ts = Obs.Event.Cycles (100 + cycles);
              payload =
                Obs.Event.Decomp_end { region = 1; bits = 8; words = 2; cycles }
            };
          Obs.Trace.emit tr
            { Obs.Event.ts = Obs.Event.Mono 1.0;
              payload = Obs.Event.Pass_end { name = "cold"; elapsed_s = 0.1 }
            };
          match Tracediff.of_string (Obs.Trace.to_jsonl tr) with
          | Ok p -> p
          | Error msg -> Alcotest.failf "parse failed: %s" msg
        in
        let ds = Tracediff.diff (mk 40) (mk 90) in
        let top = List.hd ds in
        Alcotest.(check string) "biggest mover first" "decompress r1"
          top.Tracediff.name;
        Alcotest.(check (float 1e-6)) "signed delta" 50.0
          (top.Tracediff.us_b -. top.Tracediff.us_a);
        let rendered = Tracediff.render ~top:1 (mk 40) (mk 90) in
        Alcotest.(check bool) "truncation note" true
          (String.length rendered > 0));
  ]

let suite =
  [
    ("obs.trace", ring_tests);
    ("obs.shards", shard_tests);
    ("obs.export", exporter_tests);
    ("obs.metrics", metrics_tests);
    ("obs.spans", span_tests);
    ("obs.grid", grid_determinism_tests);
    ("obs.workloads", workload_tests);
    ("obs.attrib", attrib_diff_tests);
    ("obs.tracediff", tracediff_tests);
  ]
