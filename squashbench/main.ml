(* The squash benchmark.

   Usage:
     main.exe --workload paper-grid|decomp-storm|squash-sweep
              [--seed N] [--seconds S] [--trace 0|1]

   One workload per process, on one domain, with no Engine, no Exp_grid,
   no Exp_data memo and no persistent cache: every repetition calls the
   layers' public functions directly, so each one does the real work.

   Phases of a run:
   - references (untimed): the expected output of every program that is
     run, from the independent MiniC interpreter, or from an unsquashed VM
     run of the unsqueezed program where the interpreter does not support
     it (rasta uses setjmp);
   - setup, repeated (see [setup_min_reps]): compile, squeeze and
     profile every program of the workload (setup_s is the median);
   - timed phase: rounds over the workload's cells (and one unsquashed
     baseline run per program where the workload runs programs), in an
     order the seed permutes; --seconds sets how many (see
     [round_count]).  wall_s is the median round.
   With --trace 1 the first round runs untraced and the following ones
   record spans around every layer call; the per-layer metrics come from
   the traced rounds and the tracing overhead is the difference of the two
   median round times.

   Every time is read from a reference clock (see Refclock): around each
   timed call the benchmark times its own calibration kernel, and the
   call's host time is divided by the kernel's slowdown against its
   reference duration, so that a slow or fast stretch of a shared host
   does not move the metrics.  The spans file holds these times too.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  A failed cell (wrong output,
   trap, fuel exhaustion, verifier error, unproved region, stream that
   does not decode back) is counted and the run goes on; an exact count
   that differs between repetitions, or a touched persistent cache, stops
   the run without a result. *)

open Squashbench

let fuel = 2_000_000_000

(* Setup repeats at least [setup_min_reps] times and until [setup_min_s]
   have passed, so that a workload with a short setup still reports the
   median of a few seconds of samples. *)
let setup_min_reps = 3
let setup_min_s = 2.0

(* ------------------------------------------------------------------ *)
(* Failing loudly *)

exception Bench_error of string

let bench_error fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* Exact values (sizes, counts, simulated cycles and the ratios derived
   from them) must repeat bit for bit in every repetition. *)
let exact_seen : (string, string) Hashtbl.t = Hashtbl.create 4096

let exact_string key v =
  match Hashtbl.find_opt exact_seen key with
  | None -> Hashtbl.add exact_seen key v
  | Some v0 when String.equal v0 v -> ()
  | Some v0 -> bench_error "exact value %s varied between repetitions: %s then %s" key v0 v

let exact key ints = exact_string key (String.concat "," (List.map string_of_int ints))
let exact_float key x = exact_string key (Printf.sprintf "%h" x)

(* ------------------------------------------------------------------ *)
(* Spans.  [timed] always returns the duration; with tracing on it also
   records a span, parented to the innermost open one. *)

(* Every time is read from the reference clock (see Refclock): host time
   divided by the calibration kernel's slowdown measured around it. *)
let clock =
  Refclock.create ~raw:Obs.Clock.now ~kernel:Refclock.kernel
    ~reference_s:Refclock.kernel_reference_s

let tracing = ref false
let spans : Spans.span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_cell = ref (-1)

let timed name f =
  let t0 = Refclock.now clock in
  if not !tracing then
    let r = f () in
    (r, Refclock.now clock -. t0)
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let finish () =
      let stop = Refclock.now clock in
      open_spans := List.tl !open_spans;
      spans := { Spans.id; name; parent; cell = !current_cell; start = t0; stop } :: !spans;
      stop -. t0
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

(* Take the spans recorded since the last call. *)
let drain_spans () =
  let s = List.rev !spans in
  spans := [];
  s

(* The layer a span's time belongs to; the benchmark's own containers
   (setup, round, cell, baseline) are "bench". *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> ( match String.sub name 0 i with "pass" -> "core" | l -> l)
  | None -> if name = "squash" then "core" else "bench"

let self_by_layer spans =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun ((s : Spans.span), self) ->
      let l = layer_of s.Spans.name in
      Hashtbl.replace acc l (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc l)))
    (Spans.self_times spans);
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt acc layer)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type kind = Paper_grid | Decomp_storm | Squash_sweep

let kind_of_string = function
  | "paper-grid" -> Some Paper_grid
  | "decomp-storm" -> Some Decomp_storm
  | "squash-sweep" -> Some Squash_sweep
  | _ -> None

let all_programs =
  [ "adpcm"; "epic"; "g721_dec"; "g721_enc"; "gsm"; "jpeg_dec"; "jpeg_enc";
    "mpeg2dec"; "mpeg2enc"; "pgp"; "rasta" ]

let programs_of = function
  | Paper_grid | Squash_sweep -> all_programs
  | Decomp_storm -> [ "adpcm"; "g721_enc"; "jpeg_dec"; "rasta" ]

let runs_programs = function Paper_grid | Decomp_storm -> true | Squash_sweep -> false

(* Squash configurations per program: (θ, slots, coder). *)
let configs = function
  | Paper_grid ->
    (* Fig. 7's operating points: paper θ=5e-5 is our 1e-3. *)
    [ (1e-3, 1, `Split_stream); (1e-2, 4, `Split_stream) ]
  | Decomp_storm -> [ (1.0, 1, `Split_stream); (1.0, 1, `Context) ]
  | Squash_sweep ->
    List.concat_map
      (fun theta -> [ (theta, 2, `Split_stream); (theta, 2, `Context) ])
      [ 0.0; 1e-5; 5e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 ]

(* Each cell runs Squash.run and Prove.run this many times, and every
   repetition is a sample of squash_ms and prove_ms: enough that a round
   has 100 samples, so that the p90 has at least ten beyond it. *)
let compile_reps = function Paper_grid -> 5 | Decomp_storm -> 13 | Squash_sweep -> 1

(* A round's length at the reference speed, about.  A run makes --seconds
   divided by it rounds, at least one: a fixed number, so that how many
   rounds a run makes (the first is slower, as the heap grows) does not
   depend on the host's speed at the time. *)
let nominal_round_s = function Paper_grid -> 15.0 | Decomp_storm -> 20.0 | Squash_sweep -> 7.5

let round_count kind ~seconds =
  max 1 (int_of_float (Float.round (seconds /. nominal_round_s kind)))

let coder_label = function
  | `Split_stream -> "huffman"
  | `Context -> "context"
  | `Split_stream_mtf -> "mtf"
  | `Lzss -> "lzss"

(* ------------------------------------------------------------------ *)
(* References (untimed) *)

type reference = { ref_output : string; ref_exit : int; ref_source : string }

let reference (wl : Workload.t) =
  let input = Workload.timing_input wl in
  match Mc_interp.run_source ~fuel:max_int wl.Workload.source ~input with
  | o -> { ref_output = o.Mc_interp.output; ref_exit = o.Mc_interp.exit_code;
           ref_source = "mc_interp" }
  | exception Mc_interp.Unsupported _ ->
    let o = Vm.run (Vm.of_image ~fuel (Layout.emit (Workload.compile wl)) ~input) in
    { ref_output = o.Vm.output; ref_exit = o.Vm.exit_code; ref_source = "vm-unsqueezed" }

(* ------------------------------------------------------------------ *)
(* Setup *)

type program = {
  wl : Workload.t;
  squeezed : Prog.t;
  profile : Profile.t;
  input : string;  (** The timing input. *)
  reference : reference option;
}

type setup_sample = {
  total_s : float;
  compile_s : float;
  squeeze_s : float;
  collect_s : float;
  profiled_icount : int;
}

let setup_once wls refs =
  let sum = List.fold_left ( +. ) 0.0 in
  let progs, total_s =
    timed "setup" (fun () ->
        List.map
          (fun (wl : Workload.t) ->
            let compiled, compile_s = timed "minic.compile" (fun () -> Workload.compile wl) in
            let (squeezed, _), squeeze_s = timed "squeeze.run" (fun () -> Squeeze.run compiled) in
            let (profile, outcome), collect_s =
              timed "profile.collect" (fun () ->
                  Profile.collect ~fuel squeezed ~input:(Workload.profiling_input wl))
            in
            exact
              (wl.Workload.name ^ "/setup")
              [ Prog.instr_count squeezed; Profile.total_weight profile;
                outcome.Vm.icount; outcome.Vm.cycles ];
            ( { wl; squeezed; profile; input = Workload.timing_input wl;
                reference = List.assoc wl.Workload.name refs },
              (compile_s, squeeze_s, collect_s, outcome.Vm.icount) ))
          wls)
  in
  let ts = List.map snd progs in
  ( List.map fst progs,
    { total_s;
      compile_s = sum (List.map (fun (c, _, _, _) -> c) ts);
      squeeze_s = sum (List.map (fun (_, s, _, _) -> s) ts);
      collect_s = sum (List.map (fun (_, _, p, _) -> p) ts);
      profiled_icount = List.fold_left (fun a (_, _, _, i) -> a + i) 0 ts } )

(* ------------------------------------------------------------------ *)
(* Cells *)

type cell = {
  id : int;
  prog : program;
  theta : float;
  slots : int;
  coder : Compress.backend;
}

let cell_label c =
  Printf.sprintf "%s θ=%g slots=%d %s" c.prog.wl.Workload.name c.theta c.slots
    (coder_label c.coder)

type run = {
  launch_s : float;
  run_s : float;
  icount : int;
  cycles : int;
  rstats : Runtime.stats;
}

type measures = {
  cell : cell;
  squash_s : float list;  (** Every repetition's time. *)
  pass_s : (string * float) list;  (** Traced rounds only. *)
  alloc_words : float;  (** Traced rounds only. *)
  original_words : int;
  squashed_words : int;
  regions : int;
  compressed_instrs : int;
  blob_bits : int;
  verify_s : float;
  prove_s : float list;  (** Every repetition's time. *)
  prove_blocks : int;
  decode_s : float;
  decode_bits : int;
  run : run option;
}

type baseline = { bprog : program; create_s : float; brun_s : float; bicount : int; bcycles : int }

type outcome = Cell of measures | Baseline of baseline | Failed of string

let alloc_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* Untraced: one Squash.run.  Traced: the same pass list, one transform
   at a time, each in its own span. *)
let squash options (p : program) =
  if not !tracing then begin
    let r, dt = timed "squash" (fun () -> Squash.run ~options p.squeezed p.profile) in
    ( ( r.Squash.squashed, r.Squash.original_words, r.Squash.squashed_words,
        Squash.compressed_instr_count r, [], 0.0 ),
      dt )
  end
  else begin
    let a0 = alloc_words () in
    let (st, passes), dt =
      timed "squash" (fun () ->
          List.fold_left
            (fun (st, acc) (pass : Pass.t) ->
              let st, t = timed ("pass." ^ pass.Pass.name) (fun () -> pass.Pass.transform st) in
              (st, (pass.Pass.name, t) :: acc))
            (Pass.init ~options p.squeezed p.profile, [])
            (Pipeline.of_options options))
    in
    let alloc = alloc_words () -. a0 in
    let sq = Pass.get_squashed ~who:"squashbench" st in
    ( ( sq, st.Pass.original_words, Rewrite.total_words sq,
        Regions.compressed_instr_count sq.Rewrite.prog (Pass.get_regions ~who:"squashbench" st),
        List.rev passes, alloc ),
      dt )
  end

(* Decode every region of the image and check it yields the region's
   stream. *)
let decode_all (sq : Rewrite.t) =
  let n = Array.length sq.Rewrite.images in
  let bits = ref 0 and bad = ref [] in
  for rid = 0 to n - 1 do
    let bit_end = if rid + 1 < n then Some sq.Rewrite.blob_offsets.(rid + 1) else None in
    let instrs, work =
      Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
        ~bit_offset:sq.Rewrite.blob_offsets.(rid) ?bit_end ()
    in
    bits := !bits + work.Compress.bits;
    if not (List.equal Instr.equal instrs sq.Rewrite.images.(rid).Rewrite.stream) then
      bad := rid :: !bad
  done;
  (!bits, List.rev !bad)

let check_output what (r : reference) (o : Vm.outcome) =
  if o.Vm.output <> r.ref_output || o.Vm.exit_code <> r.ref_exit then
    Some
      (Printf.sprintf "%s: output/exit %d differs from the %s reference (exit %d)" what
         o.Vm.exit_code r.ref_source r.ref_exit)
  else None

(* The result of the repetition of [reps] whose time is the median, and
   every repetition's time; every repetition must give the same [exact]
   values. *)
let median_rep ~key ~exact_of reps =
  List.iter (fun (r, _) -> exact key (exact_of r)) reps;
  let sorted = List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) reps in
  (fst (List.nth sorted (Arith.rank ~p:0.5 (List.length reps) - 1)), List.map snd reps)

let run_cell ~runs ~reps c =
  let options =
    { Squash.default_options with Squash.theta = c.theta; coder = c.coder }
  in
  let label = cell_label c in
  let (sq, original_words, squashed_words, compressed_instrs, pass_s, alloc), squash_s =
    median_rep
      ~key:(Printf.sprintf "cell %d squash" c.id)
      ~exact_of:(fun (_, o, s, ci, _, _) -> [ o; s; ci ])
      (List.init reps (fun _ -> squash options c.prog))
  in
  let diags, verify_s = timed "verify.run" (fun () -> Verify.run sq) in
  let report, prove_s =
    median_rep
      ~key:(Printf.sprintf "cell %d prove" c.id)
      ~exact_of:(fun r -> [ r.Prove.blocks; List.length r.Prove.failures ])
      (List.init reps (fun _ -> timed "prove.run" (fun () -> Prove.run ~slots:c.slots sq)))
  in
  let (decode_bits, bad_regions), decode_s = timed "compress.decode" (fun () -> decode_all sq) in
  let run =
    if not runs then None
    else begin
      let (vm, rstats), launch_s =
        timed "runtime.launch" (fun () -> Runtime.launch ~fuel ~slots:c.slots sq ~input:c.prog.input)
      in
      let o, run_s = timed "runtime.run" (fun () -> Vm.run vm) in
      Some (o, { launch_s; run_s; icount = o.Vm.icount; cycles = o.Vm.cycles; rstats })
    end
  in
  let problems =
    List.map (fun d -> "verify: " ^ Verify.message d) (Verify.errors diags)
    @ List.map (fun f -> "prove: " ^ Prove.failure_message f) report.Prove.failures
    @ List.map (Printf.sprintf "region %d does not decode to its stream") bad_regions
    @
    match run, c.prog.reference with
    | Some (o, _), Some r -> Option.to_list (check_output "squashed run" r o)
    | _ -> []
  in
  match problems with
  | p :: _ -> Failed (label ^ ": " ^ p)
  | [] ->
    let run = Option.map snd run in
    let m =
      { cell = c; squash_s; pass_s; alloc_words = alloc; original_words; squashed_words;
        regions = Array.length sq.Rewrite.images; compressed_instrs;
        blob_bits = 8 * String.length sq.Rewrite.blob; verify_s; prove_s;
        prove_blocks = report.Prove.blocks; decode_s; decode_bits; run }
    in
    exact
      (Printf.sprintf "cell %d" c.id)
      ([ original_words; squashed_words; m.regions; compressed_instrs; m.blob_bits;
         m.prove_blocks; decode_bits ]
      @
      match run with
      | None -> []
      | Some r ->
        let s = r.rstats in
        [ r.icount; r.cycles; s.Runtime.decompressions; s.Runtime.cache_hits;
          s.Runtime.bits_decoded; s.Runtime.words_materialised; s.Runtime.stub_creates ]);
    Cell m

let run_baseline (p : program) =
  let vm, create_s =
    timed "vm.create" (fun () -> Vm.of_image ~fuel (Layout.emit p.squeezed) ~input:p.input)
  in
  let o, brun_s = timed "vm.run" (fun () -> Vm.run vm) in
  match Option.bind p.reference (fun r -> check_output "baseline run" r o) with
  | Some msg -> Failed (p.wl.Workload.name ^ ": " ^ msg)
  | None ->
    exact (p.wl.Workload.name ^ "/baseline") [ o.Vm.icount; o.Vm.cycles ];
    Baseline { bprog = p; create_s; brun_s; bicount = o.Vm.icount; bcycles = o.Vm.cycles }

(* ------------------------------------------------------------------ *)
(* Rounds *)

type item = Run_cell of cell | Run_baseline of program

type round = {
  wall : float;
  cells : measures list;
  baselines : baseline list;
  attempted : int;
  failures : string list;
  round_spans : Spans.span list;
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let run_round ~kind ~seed ~index items =
  let items = Array.of_list items in
  shuffle (Random.State.make [| seed; index |]) items;
  let runs = runs_programs kind in
  let outcomes, wall =
    timed "round" (fun () ->
        Array.to_list items
        |> List.map (fun item ->
                  match item with
               | Run_cell c ->
                 current_cell := c.id;
                 let o =
                   fst
                     (timed "cell" (fun () ->
                          try run_cell ~runs ~reps:(compile_reps kind) c with
                          | Bench_error _ as e -> raise e
                          | e -> Failed (cell_label c ^ ": " ^ Printexc.to_string e)))
                 in
                 current_cell := -1;
                 o
               | Run_baseline p ->
                 fst
                   (timed "baseline" (fun () ->
                        try run_baseline p with
                        | Bench_error _ as e -> raise e
                        | e -> Failed (p.wl.Workload.name ^ " baseline: " ^ Printexc.to_string e)))))
  in
  let cells = List.filter_map (function Cell m -> Some m | _ -> None) outcomes in
  let baselines = List.filter_map (function Baseline b -> Some b | _ -> None) outcomes in
  let failures = List.filter_map (function Failed s -> Some s | _ -> None) outcomes in
  { wall; cells; baselines; attempted = List.length outcomes; failures;
    round_spans = drain_spans () }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (** Samples behind the value. *)
  is_exact : bool;
  note : string;
}

let timed_m ?(note = "") name unit_ n value = { name; value; unit_; n; is_exact = false; note }
let exact_m ?(note = "") name unit_ n value = { name; value; unit_; n; is_exact = true; note }

let sumf f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l
let div a b = if b = 0.0 then 0.0 else a /. b
let ms x = x *. 1e3
(* The squashed runs of a round that have their program's baseline run
   in the same round (all of them, unless a baseline failed). *)
let runs_of r =
  List.filter_map
    (fun m ->
      match
        ( m.run,
          List.find_opt
            (fun b -> b.bprog.wl.Workload.name = m.cell.prog.wl.Workload.name)
            r.baselines )
      with
      | Some run, Some b -> Some (m, run, b)
      | _ -> None)
    r.cells

(* A percentile metric, estimated by Harrell-Davis, noting when fewer
   than ten samples lie beyond its rank. *)
let pctl_m name ~p xs =
  let n = List.length xs in
  if n = 0 then timed_m name "ms" 0 0.0
  else
    let note =
      if p > 0.5 && not (Arith.tail_ok ~p n) then
        Printf.sprintf "%d beyond: fewer than %d, indicative only" (Arith.beyond ~p n)
          Arith.min_tail
      else Printf.sprintf "%d beyond" (Arith.beyond ~p n)
    in
    timed_m ~note name "ms" n (Arith.harrell_davis ~p xs)

(* The ratios that must not vary are computed per round and checked.
   Cells are taken in id order, not the round's permuted order, so that
   the floating-point sums do not depend on the seed. *)
let by_id cells = List.sort (fun a b -> compare a.cell.id b.cell.id) cells

let footprint_ratio r =
  Arith.geomean
    (List.map
       (fun m -> float_of_int m.squashed_words /. float_of_int m.original_words)
       (by_id r.cells))

let slowdown r =
  match runs_of { r with cells = by_id r.cells } with
  | [] -> 1.0
  | runs ->
    Arith.geomean
      (List.map (fun (_, run, b) -> float_of_int run.cycles /. float_of_int b.bcycles) runs)

let end_to_end ~kind setups rounds =
  let med f = Arith.median (List.map f rounds) in
  let nr = List.length rounds in
  let all_cells = List.concat_map (fun r -> r.cells) rounds in
  let all_runs = List.concat_map runs_of rounds in
  let sim_mips =
    if runs_programs kind then
      timed_m ~note:"pooled over squashed runs" "sim_mips" "Minstr/s" (List.length all_runs)
        (div
           (float_of_int (sumi (fun (_, r, _) -> r.icount) all_runs))
           (sumf (fun (_, r, _) -> r.launch_s +. r.run_s) all_runs *. 1e6))
    else
      timed_m ~note:"no squashed runs: setup profiling runs" "sim_mips" "Minstr/s"
        (List.length setups)
        (div
           (float_of_int (sumi (fun s -> s.profiled_icount) setups))
           (sumf (fun s -> s.collect_s) setups *. 1e6))
  in
  [ timed_m "setup_s" "s" (List.length setups)
      (Arith.median (List.map (fun s -> s.total_s) setups));
    timed_m "wall_s" "s" nr (med (fun r -> r.wall));
    sim_mips;
    pctl_m "squash_ms_p50" ~p:0.5 (List.concat_map (fun m -> List.map ms m.squash_s) all_cells);
    pctl_m "squash_ms_p90" ~p:0.9 (List.concat_map (fun m -> List.map ms m.squash_s) all_cells);
    pctl_m "prove_ms_p50" ~p:0.5 (List.concat_map (fun m -> List.map ms m.prove_s) all_cells);
    pctl_m "prove_ms_p90" ~p:0.9 (List.concat_map (fun m -> List.map ms m.prove_s) all_cells);
    exact_m "footprint_ratio" "ratio" (List.length all_cells) (footprint_ratio (List.hd rounds));
    exact_m
      ~note:(if runs_programs kind then "" else "no squashed runs")
      "slowdown" "ratio" (List.length all_runs) (slowdown (List.hd rounds));
    timed_m "peak_heap_mb" "MB" 1
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6) ]

let pass_names =
  [ "resolve"; "cold"; "unswitch"; "exclude"; "regions"; "buffer-safe"; "rewrite" ]

let timed_layers = [ "core"; "vm"; "runtime"; "compress"; "verify"; "prove"; "bench" ]
let setup_layers = [ "minic"; "squeeze"; "profile" ]

let per_layer ~setups ~setup_spans ~untraced ~traced =
  let med f = Arith.median (List.map f traced) in
  let nt = List.length traced in
  let ncells = List.length (List.hd traced).cells in
  let all_cells = List.concat_map (fun r -> r.cells) traced in
  let all_runs = List.concat_map runs_of traced in
  let all_base = List.concat_map (fun r -> r.baselines) traced in
  let ns = List.length setups in
  let smed f = Arith.median (List.map f setups) in
  (* Each squashed run's dispatch rate baseline: its program's unsquashed
     run in the same round. *)
  let overhead r =
    sumf
      (fun (_, run, b) ->
        Arith.runtime_overhead ~run_s:run.run_s ~icount:run.icount
          ~vm_mips:(float_of_int b.bicount /. b.brun_s /. 1e6))
      (runs_of r)
  in
  let rstat f r = sumi (fun (_, run, _) -> f run.rstats) (runs_of r) in
  (* Counts are the same in every round (checked); take the first. *)
  let first = List.hd traced in
  let count name f = exact_m name "count" nt (float_of_int (f first)) in
  let decomps = rstat (fun s -> s.Runtime.decompressions) first in
  let hits = rstat (fun s -> s.Runtime.cache_hits) first in
  let setup_self = List.map self_by_layer setup_spans in
  let round_self = List.map (fun r -> self_by_layer r.round_spans) traced in
  let traced_wall = med (fun r -> r.wall) in
  let untraced_wall = Arith.median (List.map (fun r -> r.wall) untraced) in
  [ timed_m "minic.compile_ms" "ms" ns (ms (smed (fun s -> s.compile_s)));
    timed_m "squeeze.run_ms" "ms" ns (ms (smed (fun s -> s.squeeze_s)));
    timed_m "profile.collect_s" "s" ns (smed (fun s -> s.collect_s));
    timed_m "profile.mips" "Minstr/s" ns
      (div
         (float_of_int (sumi (fun s -> s.profiled_icount) setups))
         (sumf (fun s -> s.collect_s) setups *. 1e6));
    timed_m "vm.create_ms" "ms" (List.length all_base)
      (if all_base = [] then 0.0 else Arith.median (List.map (fun b -> ms b.create_s) all_base));
    timed_m "vm.mips" "Minstr/s" (List.length all_base)
      (div (float_of_int (sumi (fun b -> b.bicount) all_base))
         (sumf (fun b -> b.brun_s) all_base *. 1e6));
    count "vm.icount" (fun r -> sumi (fun b -> b.bicount) r.baselines) ]
  @ List.map
      (fun p ->
        timed_m ("pass." ^ p ^ "_ms") "ms" nt
          (med (fun r ->
               ms (sumf (fun m -> Option.value ~default:0.0 (List.assoc_opt p m.pass_s)) r.cells))))
      pass_names
  @ [ timed_m "squash.alloc_mwords" "Mwords" nt
        (med (fun r -> sumf (fun m -> m.alloc_words) r.cells /. 1e6));
      count "squash.regions" (fun r -> sumi (fun m -> m.regions) r.cells);
      count "squash.compressed_instrs" (fun r -> sumi (fun m -> m.compressed_instrs) r.cells);
      exact_m "squash.bits_per_instr" "bits/instr" nt
        (div
           (float_of_int (sumi (fun m -> m.blob_bits) first.cells))
           (float_of_int (sumi (fun m -> m.compressed_instrs) first.cells)));
      timed_m "compress.decode_us_per_region" "us" (sumi (fun m -> m.regions) all_cells)
        (div (sumf (fun m -> m.decode_s) all_cells *. 1e6)
           (float_of_int (sumi (fun m -> m.regions) all_cells)));
      timed_m "compress.decode_ns_per_bit" "ns" (sumi (fun m -> m.decode_bits) all_cells)
        (div (sumf (fun m -> m.decode_s) all_cells *. 1e9)
           (float_of_int (sumi (fun m -> m.decode_bits) all_cells)));
      timed_m "runtime.launch_ms" "ms" (List.length all_runs)
        (if all_runs = [] then 0.0
         else Arith.median (List.map (fun (_, r, _) -> ms r.launch_s) all_runs));
      timed_m "runtime.run_s" "s" nt (med (fun r -> sumf (fun (_, run, _) -> run.run_s) (runs_of r)));
      timed_m "runtime.overhead_s" "s" nt (med overhead);
      timed_m "runtime.us_per_decompression" "us" nt
        (med (fun r ->
             div (overhead r *. 1e6)
               (float_of_int (rstat (fun s -> s.Runtime.decompressions) r))));
      count "runtime.decompressions" (rstat (fun s -> s.Runtime.decompressions));
      count "runtime.cache_hits" (rstat (fun s -> s.Runtime.cache_hits));
      exact_m "runtime.hit_ratio" "ratio" nt
        (div (float_of_int hits) (float_of_int (hits + decomps)));
      count "runtime.bits_decoded" (rstat (fun s -> s.Runtime.bits_decoded));
      count "runtime.words_materialised" (rstat (fun s -> s.Runtime.words_materialised));
      count "runtime.stub_creates" (rstat (fun s -> s.Runtime.stub_creates));
      timed_m "verify.run_ms" "ms" nt (med (fun r -> ms (sumf (fun m -> m.verify_s) r.cells)));
      timed_m "prove.run_ms" "ms" nt
        (med (fun r -> ms (sumf (fun m -> Arith.median m.prove_s) r.cells)));
      count "prove.blocks" (fun r -> sumi (fun m -> m.prove_blocks) r.cells);
      timed_m "prove.us_per_block" "us" (ncells * nt)
        (div (sumf (fun m -> Arith.median m.prove_s) all_cells *. 1e6)
           (float_of_int (sumi (fun m -> m.prove_blocks) all_cells))) ]
  @ List.map
      (fun l ->
        timed_m ~note:"setup" ("self." ^ l ^ "_s") "s" ns
          (Arith.median (List.map (fun f -> f l) setup_self)))
      setup_layers
  @ List.map
      (fun l ->
        timed_m ("self." ^ l ^ "_s") "s" nt (Arith.median (List.map (fun f -> f l) round_self)))
      timed_layers
  @ [ timed_m "trace.wall_s" "s" nt traced_wall;
      timed_m ~note:"layer self time / traced wall_s" "trace.accounted_ratio" "ratio" nt
        (Arith.median
           (List.map2 (fun r f -> div (r.wall -. f "bench") r.wall) traced round_self));
      timed_m ~note:"traced minus untraced wall_s" "trace.overhead_s" "s" nt
        (traced_wall -. untraced_wall) ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number x =
  if not (Float.is_finite x) then bench_error "metric value %g is not finite" x;
  Printf.sprintf "%.17g" x

let print_summary ~workload ~seed metrics =
  let section title l =
    if l <> [] then begin
      Printf.printf "%s\n" title;
      List.iter
        (fun m ->
          Printf.printf "  %-32s %16.6f %-10s n=%-5d %s\n" m.name m.value m.unit_ m.n m.note)
        l
    end
  in
  Printf.printf "squashbench %s seed=%d\n" workload seed;
  section "timed:" (List.filter (fun m -> not m.is_exact) metrics);
  section "exact (repeat bit for bit):" (List.filter (fun m -> m.is_exact) metrics)

let print_result ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
              m.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* Cache guard: nothing may be served from, or written to, the persistent
   experiment cache. *)

let cache_listing () =
  let rec walk dir acc =
    match Sys.readdir dir with
    | exception Sys_error _ -> acc
    | entries ->
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p acc
          else
            let st = Unix.stat p in
            (p, st.Unix.st_size, st.Unix.st_mtime) :: acc)
        acc entries
  in
  List.sort compare (walk Cache.default_dir [])

let check_no_cache () =
  if Exp_data.current_cache () <> None then bench_error "a persistent cache is installed"

(* ------------------------------------------------------------------ *)

let trace_dir = "_squashbench"

let ensure_trace_dir () =
  try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Exact values must also agree between runs of one build, whatever the
   seed: the first run of a build records them, later runs compare. *)
let check_exact_ledger ~workload =
  ensure_trace_dir ();
  let path =
    Filename.concat trace_dir
      (Printf.sprintf "exact-%s-%s.txt" workload
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  let lines =
    Hashtbl.fold (fun k v acc -> (k ^ " = " ^ v) :: acc) exact_seen [] |> List.sort compare
  in
  if Sys.file_exists path then begin
    let recorded =
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    match List.filter (fun l -> not (List.mem l recorded)) lines with
    | [] -> if List.length recorded <> List.length lines then
        bench_error "exact values differ in number from an earlier run (%s)" path
    | l :: _ -> bench_error "exact value differs from an earlier run of this build (%s): %s" path l
  end
  else begin
    let tmp = path ^ ".tmp" ^ string_of_int (Unix.getpid ()) in
    Out_channel.with_open_bin tmp (fun oc ->
        List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
    Sys.rename tmp path
  end

let write_spans ~workload ~seed spans =
  ensure_trace_dir ();
  let path = Filename.concat trace_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Spans.to_json s ^ "\n")) spans;
  close_out oc;
  path

let main ~workload ~seed ~seconds ~trace =
  let kind =
    match kind_of_string workload with
    | Some k -> k
    | None -> bench_error "unknown workload %S" workload
  in
  check_no_cache ();
  let cache_before = cache_listing () in
  let wls =
    List.map
      (fun n ->
        match Workloads.find n with Some wl -> wl | None -> bench_error "no program %s" n)
      (programs_of kind)
  in
  (* Inputs are generated once, before anything is timed. *)
  List.iter
    (fun wl -> ignore (Workload.profiling_input wl, Workload.timing_input wl))
    wls;
  let refs =
    List.map
      (fun (wl : Workload.t) ->
        (wl.Workload.name, if runs_programs kind then Some (reference wl) else None))
      wls
  in
  tracing := trace;
  let setups_and_progs =
    let t0 = Obs.Clock.now () in
    let rec go acc =
      if List.length acc >= setup_min_reps && Obs.Clock.now () -. t0 >= setup_min_s then
        List.rev acc
      else
        let r = setup_once wls refs in
        go ((r, drain_spans ()) :: acc)
    in
    go []
  in
  let setup_spans = List.map snd setups_and_progs in
  let setups_and_progs = List.map fst setups_and_progs in
  let setups = List.map snd setups_and_progs in
  let progs = fst (List.hd (List.rev setups_and_progs)) in
  let items =
    let id = ref 0 in
    List.concat_map
      (fun p ->
        (if runs_programs kind then [ Run_baseline p ] else [])
        @ List.map
            (fun (theta, slots, coder) ->
              incr id;
              Run_cell { id = !id; prog = p; theta; slots; coder })
            (configs kind))
      progs
  in
  let rounds ~first n =
    List.init n (fun i ->
        let r = run_round ~kind ~seed ~index:(first + i) items in
        if r.failures = [] then begin
          exact_float "footprint_ratio" (footprint_ratio r);
          exact_float "slowdown" (slowdown r)
        end;
        r)
  in
  let n = round_count kind ~seconds in
  (* A traced run times one untraced round first, for the overhead. *)
  let untraced, traced =
    if not trace then (rounds ~first:0 n, [])
    else begin
      tracing := false;
      let u = rounds ~first:0 1 in
      tracing := true;
      (u, rounds ~first:1 n)
    end
  in
  tracing := false;
  let all = untraced @ traced in
  let attempted = sumi (fun r -> r.attempted) all in
  let failures = List.concat_map (fun r -> r.failures) all in
  List.iter (fun f -> Printf.eprintf "squashbench: FAILED %s\n" f) failures;
  if failures = [] then check_exact_ledger ~workload;
  check_no_cache ();
  if cache_listing () <> cache_before then
    bench_error "the persistent cache %s/ changed during the run" Cache.default_dir;
  let metrics =
    (if trace then per_layer ~setups ~setup_spans ~untraced ~traced
     else end_to_end ~kind setups untraced)
    @
    if trace then
      [ timed_m ~note:"host speed: calibration kernel, median" "host.kernel_ms" "ms"
          (List.length (Refclock.samples clock))
          (ms (Arith.median (Refclock.samples clock))) ]
    else []
  in
  print_summary ~workload ~seed metrics;
  Printf.printf
    "host speed: calibration kernel %.3f ms median over %d runs (reference %.3f ms); \
     %.3f reference s per host s\n"
    (ms (Arith.median (Refclock.samples clock)))
    (List.length (Refclock.samples clock))
    (ms Refclock.kernel_reference_s)
    (Refclock.now clock /. Refclock.host_seconds clock);
  Printf.printf "references: %s\n"
    (String.concat " "
       (List.filter_map
          (fun (n, r) -> Option.map (fun r -> n ^ "=" ^ r.ref_source) r)
          refs));
  Printf.printf "cells+baselines attempted: %d, failed: %d, fail_ratio: %g\n" attempted
    (List.length failures)
    (div (float_of_int (List.length failures)) (float_of_int attempted));
  if trace then
    Printf.printf "spans: %s\n"
      (write_spans ~workload ~seed
         (List.concat setup_spans @ List.concat_map (fun r -> r.round_spans) traced));
  print_result ~attempted ~failed:(List.length failures) metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " paper-grid | decomp-storm | squash-sweep");
      ("--seed", Arg.Set_int seed, " permutes cell order (default 1)");
      ("--seconds", Arg.Set_float seconds, " about the length of the timed phase (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced run with per-layer metrics (default 0)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match
    main ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:
        (match !trace with
        | 0 -> false
        | 1 -> true
        | n -> bench_error "--trace must be 0 or 1, not %d" n)
  with
  | () -> ()
  | exception Bench_error msg ->
    Printf.eprintf "squashbench: %s\n" msg;
    exit 1
