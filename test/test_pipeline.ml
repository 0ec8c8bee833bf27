(* The pass pipeline: pass order, per-pass validation, the image check
   after the list, tracing, and byte-identity of Squash.run with an
   explicit pipeline run. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let squeeze p = fst (Squeeze.run p)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let hot_cold_src =
  {|
int report(int code) {
  putint(1000 + code);
  return code;
}
int rare_fixup(int x) {
  int i; int acc;
  acc = x;
  for (i = 0; i < 3; i = i + 1) acc = acc * 5 + i;
  report(acc & 1023);
  return acc;
}
int rare_dispatch(int x) {
  switch (x) {
    case 0: return 10;
    case 1: return 21;
    case 2: return 32;
    case 3: return 43;
    case 4: return 54;
    default: return 99;
  }
}
int hot_step(int x) { return (x * 17 + 3) & 4095; }
int main() {
  int mode; int i; int acc;
  mode = getc();
  acc = 1;
  for (i = 0; i < 200; i = i + 1) acc = hot_step(acc + i);
  if (mode == 'x') acc = rare_fixup(acc);
  if (mode == 'd') acc = acc + rare_dispatch(mode & 7);
  putint(acc);
  return acc & 255;
}
|}

let prepared = lazy (
  let p = squeeze (compile hot_cold_src) in
  let prof, _ = Profile.collect p ~input:"n" in
  (p, prof))

let manual_squash options p prof =
  let st =
    Pipeline.execute ~passes:(Pipeline.of_options options)
      (Pass.init ~options p prof)
  in
  Pass.get_squashed ~who:"test" st

let check_identical name (a : Rewrite.t) (b : Rewrite.t) =
  Alcotest.(check string) (name ^ " blob") a.Rewrite.blob b.Rewrite.blob;
  Alcotest.(check (array int)) (name ^ " blob offsets") a.Rewrite.blob_offsets
    b.Rewrite.blob_offsets;
  Alcotest.(check (array int))
    (name ^ " text words")
    a.Rewrite.text.Easm.words b.Rewrite.text.Easm.words;
  Alcotest.(check int) (name ^ " total words") (Rewrite.total_words a)
    (Rewrite.total_words b);
  Alcotest.(check (list (pair (pair string int) int)))
    (name ^ " stub addrs") a.Rewrite.stub_addrs b.Rewrite.stub_addrs

(* A deliberately broken pass: leaks a compressed-stream marker into the
   IR, the kind of damage ~check_each exists to localise. *)
let corrupting_pass =
  {
    Pass.name = "corrupt";
    transform =
      (fun st ->
        let p = st.Pass.prog in
        let funcs =
          match p.Prog.funcs with
          | [] -> []
          | (f : Prog.Func.t) :: rest ->
            let blocks = Array.copy f.Prog.Func.blocks in
            let b = blocks.(0) in
            blocks.(0) <-
              { b with Prog.Block.items = Prog.Instr Instr.Sentinel :: b.Prog.Block.items };
            { f with Prog.Func.blocks = blocks } :: rest
        in
        { st with Pass.prog = { p with Prog.funcs } });
    note = (fun _ -> "corrupted");
  }

let pass_names o = List.map (fun (p : Pass.t) -> p.Pass.name) (Pipeline.of_options o)

let order_tests =
  [
    Alcotest.test_case "standard order is accepted" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        Alcotest.(check (list string))
          "pass order"
          [ "resolve"; "cold"; "unswitch"; "exclude"; "regions"; "buffer-safe";
            "rewrite" ]
          (pass_names Squash.default_options);
        Alcotest.(check bool) "produced an image" true
          (Rewrite.total_words (manual_squash Squash.default_options p prof) > 0));
    Alcotest.test_case "a missing prerequisite fails by name" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        Alcotest.check_raises "regions without cold"
          (Invalid_argument
             "regions: cold analysis missing (run the \"cold\" pass first)")
          (fun () ->
            ignore
              (Pipeline.execute ~passes:[ Pipeline.regions_pass ]
                 (Pass.init p prof))));
    Alcotest.test_case "of_options drops unswitch exactly when disabled" `Quick
      (fun () ->
        Alcotest.(check bool) "on" true
          (List.mem "unswitch" (pass_names Squash.default_options));
        Alcotest.(check bool) "off" false
          (List.mem "unswitch"
             (pass_names { Squash.default_options with Squash.unswitch = false })));
  ]

let check_each_tests =
  [
    Alcotest.test_case "healthy pipeline passes ~check_each" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let st =
          Pipeline.execute ~check_each:true
            ~passes:(Pipeline.of_options Squash.default_options)
            (Pass.init p prof)
        in
        Alcotest.(check bool) "image built" true (st.Pass.squashed <> None));
    Alcotest.test_case "a corrupting pass is caught at that pass" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let passes =
          [ Pipeline.cold_pass; corrupting_pass; Pipeline.unswitch_pass;
            Pipeline.exclude_pass; Pipeline.regions_pass;
            Pipeline.buffer_safe_pass; Pipeline.rewrite_pass ]
        in
        (match
           Pipeline.execute ~check_each:true ~passes (Pass.init p prof)
         with
        | _ -> Alcotest.fail "corruption not detected"
        | exception Pipeline.Check_failed { pass; errors } ->
          Alcotest.(check string) "blamed pass" "corrupt" pass;
          Alcotest.(check bool) "mentions the sentinel" true
            (List.exists (fun e -> contains e "sentinel") errors));
        (* Without check_each the same list runs to completion — the
           corruption is only caught later, at the final image check. *)
        let st = Pipeline.execute ~passes (Pass.init p prof) in
        Alcotest.(check bool) "image still built" true (st.Pass.squashed <> None));
    Alcotest.test_case "Squash.run ~check:true validates, lints and proves" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let r = Squash.run ~check:true p prof in
        Alcotest.(check bool) "image" true (Rewrite.total_words r.Squash.squashed > 0);
        check_identical "checked-vs-unchecked" (Squash.run p prof).Squash.squashed
          r.Squash.squashed);
    Alcotest.test_case "check_image blames prove for a skewed stub tag" `Quick
      (fun () ->
        (* Stub tags are Prove's to check; the whole-image lints pass it on. *)
        let sq = Test_equiv.make () in
        let _, addr =
          match Test_equiv.two_word_stubs sq with
          | s :: _ -> s
          | [] -> Alcotest.fail "fixture has no 2-word entry stub"
        in
        let tag_addr = addr + 4 in
        let tag =
          sq.Rewrite.text.Easm.words.((tag_addr - sq.Rewrite.text.Easm.base) / 4)
        in
        Pipeline.check_image sq;
        Test_equiv.patched sq tag_addr (tag + 1) (fun () ->
            match Pipeline.check_image sq with
            | () -> Alcotest.fail "patched image passed the check"
            | exception Pipeline.Check_failed { pass; errors } ->
              Alcotest.(check string) "blamed check" "prove" pass;
              Alcotest.(check bool) "names the failure" true (errors <> [])));
    Alcotest.test_case "trace emits one line per pass" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let lines = ref [] in
        let _ = Squash.run ~trace:(fun l -> lines := l :: !lines) p prof in
        Alcotest.(check int) "line count"
          (List.length (Pipeline.of_options Squash.default_options))
          (List.length !lines));
  ]

let identity_tests =
  [
    Alcotest.test_case "Squash.run == explicit pipeline (byte-identical)" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let r = Squash.run p prof in
        let sq = manual_squash Squash.default_options p prof in
        check_identical "small" r.Squash.squashed sq);
    Alcotest.test_case
      "workloads: byte-identical images at default options" `Slow (fun () ->
        List.iter
          (fun wl ->
            let pre = Exp_data.prepare wl in
            let p = pre.Exp_data.squeezed and prof = pre.Exp_data.profile in
            let r = Squash.run p prof in
            let sq = manual_squash Squash.default_options p prof in
            check_identical wl.Workload.name r.Squash.squashed sq;
            match (Prove.run r.Squash.squashed).Prove.failures with
            | [] -> ()
            | f :: _ ->
              Alcotest.failf "%s: image check: %s" wl.Workload.name
                (Prove.failure_message f))
          Workloads.all);
  ]

(* The per-pass check of [~check_each], run after one pass that leaves
   the program and profile as they were. *)
let check_state st =
  match Pipeline.execute ~check_each:true ~passes:[ Pipeline.resolve_pass ] st with
  | _ -> Ok ()
  | exception Pipeline.Check_failed { errors; _ } -> Error errors

let validation_tests =
  [
    Alcotest.test_case "a healthy program and profile check clean" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        match check_state (Pass.init p prof) with
        | Ok () -> ()
        | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es));
    Alcotest.test_case "stray markers in a block body are all reported" `Quick
      (fun () ->
        let p, _ = Lazy.force prepared in
        let funcs =
          match p.Prog.funcs with
          | (f : Prog.Func.t) :: rest ->
            let blocks = Array.copy f.Prog.Func.blocks in
            let b = blocks.(0) in
            blocks.(0) <-
              {
                b with
                Prog.Block.items =
                  Prog.Instr Instr.Sentinel
                  :: Prog.Instr (Instr.Bsrx { ra = 0; disp = 2 })
                  :: Prog.Instr (Instr.Jsr { ra = 26; rb = 9; hint = 1 })
                  :: b.Prog.Block.items;
              };
            { f with Prog.Func.blocks = blocks } :: rest
          | [] -> []
        in
        match Prog.validate { p with Prog.funcs } with
        | Ok () -> Alcotest.fail "markers not detected"
        | Error es ->
          (* One error per marker: the validator collects everything. *)
          Alcotest.(check bool)
            (Printf.sprintf "3 errors (got %d: %s)" (List.length es)
               (String.concat "; " es))
            true
            (List.length es = 3));
    Alcotest.test_case "stale profile indices are reported" `Quick (fun () ->
        let _, prof = Lazy.force prepared in
        let other =
          squeeze (compile "int main() { putint(1); return 0; }")
        in
        match Profile.check prof other with
        | Ok () -> Alcotest.fail "stale profile not detected"
        | Error es ->
          Alcotest.(check bool) "names each missing block" true
            (List.exists (fun e -> contains e "missing block main.") es
            && List.exists (fun e -> contains e "unknown function hot_step") es);
          (* The pipeline's per-pass check reports the same errors. *)
          Alcotest.(check (result unit (list string)))
            "per-pass check agrees" (Error es)
            (check_state (Pass.init other prof)));
    Alcotest.test_case "validate rejects an empty program" `Quick (fun () ->
        let bad =
          { Prog.funcs = []; entry = "main"; data_words = 0; data_init = [] }
        in
        match Prog.validate bad with
        | Ok () -> Alcotest.fail "empty program accepted"
        | Error es ->
          Alcotest.(check bool) "names the entry" true
            (List.exists (fun e -> contains e "entry function main") es));
  ]

let suite =
  [ ("pipeline",
     order_tests @ check_each_tests @ identity_tests @ validation_tests) ]
