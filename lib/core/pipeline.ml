exception Check_failed of { pass : string; errors : string list }

(* --- the passes ------------------------------------------------------ *)

(* Functions whose code contains a setjmp system call. *)
let detect_setjmp_callers (p : Prog.t) =
  let code = Syscall.to_code Syscall.Setjmp in
  List.filter_map
    (fun (f : Prog.Func.t) ->
      let calls =
        Array.exists
          (fun (b : Prog.Block.t) ->
            List.exists
              (function
                | Prog.Instr (Instr.Sys c) -> c = code
                | Prog.Instr _ | Prog.Load_addr _ -> false)
              b.items)
          f.blocks
      in
      if calls then Some f.name else None)
    p.funcs

(* Functions containing an indirect jump with unknown targets; their blocks
   cannot be moved (the jump could target any of them). *)
let unanalysable_funcs (p : Prog.t) =
  List.filter_map
    (fun (f : Prog.Func.t) ->
      let bad =
        Array.exists
          (fun (b : Prog.Block.t) ->
            match b.term with
            | Prog.Jump_indirect { table = None; _ } -> true
            | Prog.Jump_indirect { table = Some _; _ }
            | Prog.Fallthrough _ | Prog.Jump _ | Prog.Branch _ | Prog.Call _
            | Prog.Call_indirect _ | Prog.Return _ | Prog.No_return ->
              false)
          f.blocks
      in
      if bad then Some f.name else None)
    p.funcs

(* Blocks appended by unswitching have no profile entry: frequency 0, hence
   cold at any θ. *)
let is_cold_or_fresh st cold f b =
  Cold.is_cold cold f b || Profile.freq st.Pass.profile f b = 0

(* Whether any block of [fname] landed in a region. *)
let has_compressed regions (p : Prog.t) fname =
  match Prog.find_func p fname with
  | None -> false
  | Some f ->
    let any = ref false in
    Array.iteri
      (fun i _ -> if Regions.block_region regions fname i <> None then any := true)
      f.Prog.Func.blocks;
    !any

let resolve_pass =
  {
    Pass.name = "resolve";
    transform =
      (fun st ->
        let prog, sites = Consts.resolve_tables st.Pass.prog in
        { st with Pass.prog; resolved_jumps = sites });
    note =
      (fun st ->
        Printf.sprintf "%d indirect jumps resolved to tables"
          (List.length st.Pass.resolved_jumps));
  }

let cold_pass =
  {
    Pass.name = "cold";
    transform =
      (fun st ->
        {
          st with
          Pass.cold =
            Some (Cold.identify st.Pass.prog st.Pass.profile ~theta:st.Pass.options.Pass.theta);
        });
    note =
      (fun st ->
        let cold = Pass.get_cold ~who:"cold" st in
        let n = Cold.max_cold_freq cold in
        Printf.sprintf "cutoff N=%s, %d/%d blocks cold"
          (if n = max_int then "inf" else string_of_int n)
          (Cold.cold_block_count cold)
          (Cold.total_block_count cold));
  }

let unswitch_pass =
  {
    Pass.name = "unswitch";
    transform =
      (fun st ->
        let cold = Pass.get_cold ~who:"unswitch" st in
        let r = Unswitch.run st.Pass.prog ~is_cold:(Cold.is_cold cold) in
        {
          st with
          Pass.prog = r.Unswitch.prog;
          unswitched = r.Unswitch.rewritten;
          unmatched = r.Unswitch.unmatched;
        });
    note =
      (fun st ->
        Printf.sprintf "%d dispatches unswitched, %d unmatched"
          (List.length st.Pass.unswitched)
          (List.length st.Pass.unmatched));
  }

(* In fallback mode (no unswitching), dispatch blocks and their tables stay
   in place, which is safe — but when unswitch runs, a dispatch whose idiom
   did not match excludes its whole function, so this pass comes after
   unswitch in {!of_options}. *)
let exclude_pass =
  {
    Pass.name = "exclude";
    transform =
      (fun st ->
        let p = st.Pass.prog in
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace tbl p.Prog.entry ();
        List.iter (fun f -> Hashtbl.replace tbl f ()) (detect_setjmp_callers p);
        List.iter (fun f -> Hashtbl.replace tbl f ()) st.Pass.seed_excluded;
        List.iter (fun f -> Hashtbl.replace tbl f ()) (unanalysable_funcs p);
        List.iter (fun f -> Hashtbl.replace tbl f ()) st.Pass.unmatched;
        let sorted =
          Hashtbl.fold (fun k () acc -> k :: acc) tbl []
          |> List.sort String.compare
        in
        { st with Pass.excluded = Some sorted });
    note =
      (fun st ->
        Printf.sprintf "%d functions excluded"
          (List.length (Pass.get_excluded ~who:"exclude" st)));
  }

let regions_pass =
  {
    Pass.name = "regions";
    transform =
      (fun st ->
        let cold = Pass.get_cold ~who:"regions" st in
        let excluded = Pass.get_excluded ~who:"regions" st in
        let tbl = Hashtbl.create 16 in
        List.iter (fun f -> Hashtbl.replace tbl f ()) excluded;
        let compressible f b =
          (not (Hashtbl.mem tbl f)) && is_cold_or_fresh st cold f b
        in
        let o = st.Pass.options in
        let regions =
          Regions.build st.Pass.prog ~compressible
            ~params:
              {
                Regions.k_bytes = o.Pass.k_bytes;
                gamma = o.Pass.gamma;
                pack = o.Pass.pack;
                strategy = o.Pass.regions_strategy;
              }
        in
        { st with Pass.regions = Some regions });
    note =
      (fun st ->
        let r = Pass.get_regions ~who:"regions" st in
        Printf.sprintf "%d regions, %d entries, %d blocks rejected"
          (Array.length r.Regions.regions)
          (Hashtbl.length r.Regions.entries)
          r.Regions.rejected_blocks);
  }

let buffer_safe_pass =
  {
    Pass.name = "buffer-safe";
    transform =
      (fun st ->
        let regions = Pass.get_regions ~who:"buffer-safe" st in
        let p = st.Pass.prog in
        let has_compressed = has_compressed regions p in
        let o = st.Pass.options in
        let bsafe =
          if not o.Pass.use_buffer_safe then
            (* With the optimisation disabled, treat everything as unsafe so
               every outgoing call goes through CreateStub. *)
            Buffer_safe.analyze p ~has_compressed:(fun _ -> true)
          else if o.Pass.sharp_buffer_safe then
            Buffer_safe.analyze_sharp p ~has_compressed
          else Buffer_safe.analyze p ~has_compressed
        in
        { st with Pass.buffer_safe = Some bsafe });
    note =
      (fun st ->
        let o = st.Pass.options in
        if not o.Pass.use_buffer_safe then "disabled (all unsafe)"
        else
          let safe =
            List.length
              (Buffer_safe.safe_functions
                 (Pass.get_buffer_safe ~who:"buffer-safe" st))
          in
          if not o.Pass.sharp_buffer_safe then
            Printf.sprintf "%d buffer-safe functions" safe
          else
            (* Recompute the conservative answer so the trace shows what the
               sharpening bought. *)
            let p = st.Pass.prog in
            let has_compressed =
              has_compressed (Pass.get_regions ~who:"buffer-safe" st) p
            in
            let conservative =
              List.length
                (Buffer_safe.safe_functions
                   (Buffer_safe.analyze p ~has_compressed))
            in
            Printf.sprintf "%d buffer-safe functions (sharp; %+d vs conservative)"
              safe (safe - conservative));
  }

let rewrite_pass =
  {
    Pass.name = "rewrite";
    transform =
      (fun st ->
        let o = st.Pass.options in
        let sq =
          Rewrite.build st.Pass.prog
            ~regions:(Pass.get_regions ~who:"rewrite" st)
            ~buffer_safe:(Pass.get_buffer_safe ~who:"rewrite" st)
            ~decomp_words:o.Pass.decomp_words ~max_stubs:o.Pass.max_stubs
            ~coder:o.Pass.coder ()
        in
        { st with Pass.squashed = Some sq });
    note =
      (fun st ->
        let sq = Pass.get_squashed ~who:"rewrite" st in
        Printf.sprintf "%d regions compressed, %d stub words, %d-word buffer"
          (Array.length sq.Rewrite.images)
          sq.Rewrite.entry_stub_words sq.Rewrite.buffer_words);
  }

let of_options (o : Pass.options) =
  [ resolve_pass; cold_pass ]
  @ (if o.Pass.unswitch then [ unswitch_pass ] else [])
  @ [ exclude_pass; regions_pass; buffer_safe_pass; rewrite_pass ]

(* --- execution ------------------------------------------------------ *)

let check_state (st : Pass.state) =
  let errors = function Ok () -> [] | Error es -> es in
  match
    errors (Prog.validate st.Pass.prog)
    @ errors (Profile.check st.Pass.profile st.Pass.prog)
  with
  | [] -> Ok ()
  | es -> Error es

(* The current size in words: the squashed footprint once the rewrite
   ran, the working program's text before. *)
let footprint (st : Pass.state) =
  match st.Pass.squashed with
  | Some sq -> Rewrite.total_words sq
  | None -> Prog.text_words st.Pass.prog

let execute ?(check_each = false) ?trace ?obs ~passes st =
  let sizes st = (Prog.instr_count st.Pass.prog, footprint st) in
  List.fold_left
    (fun st (p : Pass.t) ->
      let before = Option.map (fun _ -> sizes st) trace in
      let t0 = Obs.Clock.now () in
      Option.iter
        (fun o ->
          Obs.event o
            { ts = Obs.Event.Mono t0;
              payload = Obs.Event.Pass_begin { name = p.Pass.name } })
        obs;
      let st' = p.Pass.transform st in
      let elapsed_s = Obs.Clock.now () -. t0 in
      Option.iter
        (fun o ->
          Obs.event o
            { ts = Obs.Event.Mono (t0 +. elapsed_s);
              payload = Obs.Event.Pass_end { name = p.Pass.name; elapsed_s } };
          Obs.incr o "pipeline.passes_run")
        obs;
      (if check_each then
         match check_state st' with
         | Ok () -> ()
         | Error errors -> raise (Check_failed { pass = p.Pass.name; errors }));
      (match (trace, before) with
      | Some emit, Some (instrs0, words0) ->
        let instrs, words = sizes st' in
        emit
          (Printf.sprintf "pass %-12s %7.2f ms  %6d instrs (%+d)  %6d words (%+d)  %s"
             p.Pass.name (1000.0 *. elapsed_s) instrs (instrs - instrs0) words
             (words - words0) (p.Pass.note st'))
      | _ -> ());
      st')
    st passes

let check_image sq =
  (match Verify.errors (Verify.run sq) with
  | [] -> ()
  | errs ->
    raise (Check_failed { pass = "lint"; errors = List.map Verify.message errs }));
  (* Two slots are enough to exercise the slot-relative rebias of every
     external displacement on top of the slot-0 layout. *)
  match (Prove.run ~slots:2 sq).Prove.failures with
  | [] -> ()
  | fs ->
    raise
      (Check_failed { pass = "prove"; errors = List.map Prove.failure_message fs })
