(* Tests of the benchmark's own arithmetic: the tail-percentile rank, the
   Harrell-Davis quantile, the geometric mean, span self times, the
   runtime-overhead derivation and the host-speed calibration. *)

open Squashbench

let feq = Alcotest.float 1e-9

let test_rank () =
  (* squash-sweep: 176 cells, p90 at rank 159 leaves 17 beyond. *)
  Alcotest.(check int) "p90 of 176" 159 (Arith.rank ~p:0.9 176);
  Alcotest.(check int) "beyond p90 of 176" 17 (Arith.beyond ~p:0.9 176);
  Alcotest.(check bool) "p90 of 176 has a tail" true (Arith.tail_ok ~p:0.9 176);
  (* 0.55 *. 100. is 55.00000000000001 in floating point. *)
  Alcotest.(check int) "p55 of 100" 55 (Arith.rank ~p:0.55 100);
  Alcotest.(check int) "p90 of 100" 90 (Arith.rank ~p:0.9 100);
  Alcotest.(check bool) "p90 of 100 is the smallest n with 10 beyond" true
    (Arith.tail_ok ~p:0.9 100);
  Alcotest.(check bool) "p90 of 99 leaves 9" false (Arith.tail_ok ~p:0.9 99);
  Alcotest.(check bool) "p90 of 22 (paper-grid)" false (Arith.tail_ok ~p:0.9 22);
  Alcotest.(check int) "median of 22" 11 (Arith.rank ~p:0.5 22);
  Alcotest.(check int) "median of 1" 1 (Arith.rank ~p:0.5 1);
  Alcotest.(check int) "p0 clamps to 1" 1 (Arith.rank ~p:0.0 5);
  Alcotest.check_raises "no samples" (Invalid_argument "Arith.rank: no samples")
    (fun () -> ignore (Arith.rank ~p:0.5 0))

let test_percentile () =
  let xs = List.init 176 (fun i -> float_of_int (175 - i)) in
  Alcotest.check feq "p90 value" 158.0 (Arith.percentile ~p:0.9 xs);
  Alcotest.check feq "p50 by rank" 87.0 (Arith.percentile ~p:0.5 xs);
  (* The median of an even count is the mean of the two middle values, so
     two cells that swap places around it do not move it. *)
  Alcotest.check feq "median of 176" 87.5 (Arith.median xs);
  Alcotest.check feq "median of 3" 2.0 (Arith.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "single" 3.5 (Arith.median [ 3.5 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Arith.median: no samples") (fun () ->
      ignore (Arith.median []))

let test_harrell_davis () =
  (* Reference values by numerical integration of the Beta density. *)
  let close = Alcotest.float 1e-8 in
  Alcotest.check close "I_0.3(2.5, 3.5)" 0.296752989296
    (Arith.regularized_beta ~a:2.5 ~b:3.5 0.3);
  Alcotest.check close "I_0.9(99.9, 11.1)" 0.466288118679
    (Arith.regularized_beta ~a:99.9 ~b:11.1 0.9);
  Alcotest.check close "I_0.05(11.1, 99.9)" 0.020255269945
    (Arith.regularized_beta ~a:11.1 ~b:99.9 0.05);
  Alcotest.check close "symmetric" 0.5 (Arith.regularized_beta ~a:55.5 ~b:55.5 0.5);
  Alcotest.check close "uniform" 0.37 (Arith.regularized_beta ~a:1.0 ~b:1.0 0.37);
  (* n = 3, p = 0.5: Beta(2, 2) gives the order statistics weights
     7/27, 13/27, 7/27. *)
  Alcotest.check feq "median of 3" (103.0 /. 27.0)
    (Arith.harrell_davis ~p:0.5 [ 10.0; 1.0; 2.0 ]);
  Alcotest.check (Alcotest.float 1e-6) "p90 of 0..9" 8.4351151767
    (Arith.harrell_davis ~p:0.9 (List.init 10 float_of_int));
  Alcotest.check feq "constant" 4.2 (Arith.harrell_davis ~p:0.9 (List.init 100 (fun _ -> 4.2)));
  (* Two clusters of 55 samples: the top sample of the lower one moves the
     midpoint median by half its move, the estimate by far less. *)
  let clusters x = x :: List.init 54 (fun _ -> 3.5) @ List.init 55 (fun _ -> 7.5) in
  Alcotest.check feq "median in the gap moves" 1.0
    (Arith.median (clusters 6.0) -. Arith.median (clusters 4.0));
  Alcotest.(check bool) "estimate barely moves" true
    (Arith.harrell_davis ~p:0.5 (clusters 6.0) -. Arith.harrell_davis ~p:0.5 (clusters 4.0)
    < 0.25);
  Alcotest.check_raises "p" (Invalid_argument "Arith.harrell_davis: p outside (0, 1)") (fun () ->
      ignore (Arith.harrell_davis ~p:1.0 [ 1.0 ]))

let test_geomean () =
  Alcotest.check feq "2 and 8" 4.0 (Arith.geomean [ 2.0; 8.0 ]);
  Alcotest.check feq "constant" 0.725 (Arith.geomean [ 0.725; 0.725; 0.725 ]);
  Alcotest.check feq "1, 10, 100" 10.0 (Arith.geomean [ 1.0; 10.0; 100.0 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Arith.geomean: non-positive sample")
    (fun () -> ignore (Arith.geomean [ 1.0; 0.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Arith.geomean: no samples")
    (fun () -> ignore (Arith.geomean []))

let span id name parent start stop =
  { Spans.id; name; parent; cell = 0; start; stop }

let test_self_times () =
  (* cell [0,10] holds squash [1,4] and prove [3,6], which overlap by 1,
     so 5 s of the cell are covered; squash holds pass [2,3]; a
     grandchild is not subtracted from the cell, only from its parent. *)
  let spans =
    [ span 0 "cell" (-1) 0.0 10.0;
      span 1 "squash" 0 1.0 4.0;
      span 2 "prove.run" 0 3.0 6.0;
      span 3 "pass.regions" 1 2.0 3.0 ]
  in
  let self = List.map (fun ((s : Spans.span), t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  Alcotest.check feq "cell" 5.0 (List.assoc 0 self);
  Alcotest.check feq "squash" 2.0 (List.assoc 1 self);
  Alcotest.check feq "prove" 3.0 (List.assoc 2 self);
  Alcotest.check feq "leaf" 1.0 (List.assoc 3 self);
  (* A child running past its parent's end only covers the overlap. *)
  Alcotest.check feq "clipped" 2.0
    (Spans.covered ~lo:0.0 ~hi:3.0 [ (1.0, 5.0); (-2.0, 0.0) ]);
  Alcotest.check feq "disjoint" 3.0
    (Spans.covered ~lo:0.0 ~hi:10.0 [ (5.0, 6.0); (1.0, 2.0); (8.0, 9.0) ])

let test_overhead () =
  (* 10 M instructions at 10 M instr/s is 1 s of dispatch; the rest of a
     2 s run is hook time. *)
  Alcotest.check feq "hooks" 1.0
    (Arith.runtime_overhead ~run_s:2.0 ~icount:10_000_000 ~vm_mips:10.0);
  Alcotest.check feq "no hooks" 0.0
    (Arith.runtime_overhead ~run_s:0.5 ~icount:11_000_000 ~vm_mips:22.0);
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Arith.runtime_overhead: vm_mips <= 0") (fun () ->
      ignore (Arith.runtime_overhead ~run_s:1.0 ~icount:1 ~vm_mips:0.0))

let test_refclock () =
  (* A fake host: [t] is the host clock, the kernel takes [k] host seconds
     and 1 s at the reference speed. *)
  let t = ref 100.0 and k = ref 1.0 in
  let c =
    Refclock.create ~raw:(fun () -> !t) ~kernel:(fun () -> t := !t +. !k) ~reference_s:1.0
  in
  Alcotest.check feq "starts at 0" 0.0 (Refclock.now c);
  (* 4.5 periods of work, then the kernel runs 4 times at 2 s: the
     segment's rate is 1 / mean(1, 2), and the kernel time is not
     counted. *)
  t := !t +. (4.5 *. Refclock.every);
  k := 2.0;
  Alcotest.check feq "at rate 1/1.5" (3.0 *. Refclock.every) (Refclock.now c);
  Alcotest.(check (list feq)) "samples" [ 1.0; 2.0; 2.0; 2.0; 2.0 ] (Refclock.samples c);
  (* One period, then one kernel run at 2 s: rate 1 / mean(2, 2). *)
  t := !t +. Refclock.every;
  Alcotest.check feq "half speed" (3.5 *. Refclock.every) (Refclock.now c);
  (* A segment shorter than min_gap runs no kernel and counts at the
     last rate. *)
  t := !t +. (Refclock.min_gap /. 2.0);
  Alcotest.check feq "short segment"
    ((3.5 *. Refclock.every) +. (Refclock.min_gap /. 4.0))
    (Refclock.now c);
  Alcotest.(check int) "no kernel run" 6 (List.length (Refclock.samples c));
  Alcotest.check feq "host time without the kernel"
    ((5.5 *. Refclock.every) +. (Refclock.min_gap /. 2.0))
    (Refclock.host_seconds c);
  (* A long segment runs at most max_batch kernels. *)
  t := !t +. 1000.0;
  ignore (Refclock.now c);
  Alcotest.(check int) "capped" (6 + Refclock.max_batch) (List.length (Refclock.samples c));
  Alcotest.check_raises "reference" (Invalid_argument "Refclock.create: reference_s <= 0")
    (fun () -> ignore (Refclock.create ~raw:(fun () -> 0.0) ~kernel:ignore ~reference_s:0.0))

let () =
  Alcotest.run "squashbench"
    [ ( "arith",
        [ Alcotest.test_case "tail percentile rank" `Quick test_rank;
          Alcotest.test_case "percentile values" `Quick test_percentile;
          Alcotest.test_case "harrell-davis" `Quick test_harrell_davis;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "runtime overhead" `Quick test_overhead ] );
      ("spans", [ Alcotest.test_case "nested self time" `Quick test_self_times ]);
      ("refclock", [ Alcotest.test_case "host speed calibration" `Quick test_refclock ]) ]
