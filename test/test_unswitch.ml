(* Jump-table unswitching (paper, Section 6.2), tested directly on the
   Prog-level transformation. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let dispatch_src =
  {|
int f(int x) {
  switch (x) {
    case 0: return 10;
    case 1: return 21;
    case 2: return 32;
    case 3: return 43;
    case 4: return 54;
    default: return 99;
  }
}
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 8; i = i + 1) acc = acc + f(i);
  putint(acc);
  return 0;
}
|}

let run p input = Vm.run (Vm.of_image ~fuel:10_000_000 (Layout.emit p) ~input)

let unit_tests =
  [
    Alcotest.test_case "unswitching removes the table and preserves behaviour"
      `Quick (fun () ->
        let p = compile dispatch_src in
        let before = run p "" in
        let result = Unswitch.run p ~is_cold:(fun _ _ -> true) in
        Alcotest.(check int) "one dispatch rewritten" 1
          (List.length result.Unswitch.rewritten);
        Alcotest.(check (list string)) "nothing unmatched" []
          result.Unswitch.unmatched;
        let f = Option.get (Prog.find_func result.Unswitch.prog "f") in
        Alcotest.(check int) "table gone" 0 (Array.length f.Prog.Func.tables);
        (match Prog.validate result.Unswitch.prog with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
        let after = run result.Unswitch.prog "" in
        Alcotest.(check string) "output" before.Vm.output after.Vm.output;
        Alcotest.(check int) "exit" before.Vm.exit_code after.Vm.exit_code);
    Alcotest.test_case "chain blocks are appended, not inserted" `Quick (fun () ->
        let p = compile dispatch_src in
        let f0 = Option.get (Prog.find_func p "f") in
        let result = Unswitch.run p ~is_cold:(fun _ _ -> true) in
        let f1 = Option.get (Prog.find_func result.Unswitch.prog "f") in
        Alcotest.(check bool) "more blocks" true
          (Array.length f1.Prog.Func.blocks > Array.length f0.Prog.Func.blocks);
        (* Existing block indices keep their instructions. *)
        let items_of (f : Prog.Func.t) i = f.Prog.Func.blocks.(i).Prog.Block.items in
        Alcotest.(check bool) "entry block unchanged" true
          (items_of f0 0 = items_of f1 0));
    Alcotest.test_case "hot dispatches keep their tables" `Quick (fun () ->
        let p = compile dispatch_src in
        let result = Unswitch.run p ~is_cold:(fun _ _ -> false) in
        Alcotest.(check (list (pair string int))) "nothing rewritten" []
          result.Unswitch.rewritten;
        let f = Option.get (Prog.find_func result.Unswitch.prog "f") in
        Alcotest.(check int) "table kept" 1 (Array.length f.Prog.Func.tables));
    Alcotest.test_case "non-idiomatic dispatch reports its function" `Quick
      (fun () ->
        (* A hand-written dispatch whose address arithmetic does not match
           the compiler idiom. *)
        let src =
          {|
.entry main
func main {
  .0:
    la t0, &table0
    ldw t0, 0(t0)
    ijump (t0) table 0
  .1:
    sys exit
    halt
  table 0: .1 .1
}
|}
        in
        match Asm.parse_program src with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let result = Unswitch.run p ~is_cold:(fun _ _ -> true) in
          Alcotest.(check (list string)) "unmatched" [ "main" ]
            result.Unswitch.unmatched);
    Alcotest.test_case "single-entry tables become a plain jump" `Quick (fun () ->
        let src =
          {|
.entry main
func main {
  .0:
    lda t1, 0(zero)
    la t0, &table0
    sll t1, #2, t1
    add t0, t1, t0
    ldw t0, 0(t0)
    ijump (t0) table 0
  .1:
    lda a0, 7(zero)
    sys exit
    halt
  table 0: .1
}
|}
        in
        match Asm.parse_program src with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let result = Unswitch.run p ~is_cold:(fun _ _ -> true) in
          Alcotest.(check int) "rewritten" 1 (List.length result.Unswitch.rewritten);
          let o = run result.Unswitch.prog "" in
          Alcotest.(check int) "exit" 7 o.Vm.exit_code);
  ]

let suite = [ ("unswitch", unit_tests) ]
