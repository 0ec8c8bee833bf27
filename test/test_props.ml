(* Cross-cutting property tests: VM arithmetic against the Word
   specification, squeeze idempotence, assembler round-trips, and parsers
   of external inputs under mutation. *)

let qcheck = QCheck_alcotest.to_alcotest

(* Execute one ALU operation on the VM and compare with Word's semantics. *)
let arb_alu_case =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl
           [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
             Instr.Or; Instr.Xor; Instr.Sll; Instr.Srl; Instr.Sra; Instr.Cmpeq;
             Instr.Cmpne; Instr.Cmplt; Instr.Cmple; Instr.Cmpult; Instr.Cmpule ])
        (map (fun v -> v land Word.mask) (int_bound max_int))
        (map (fun v -> v land Word.mask) (int_bound max_int)))
  in
  QCheck.make
    ~print:(fun (op, a, b) ->
      Printf.sprintf "%s %d %d"
        (Instr.to_string (Instr.Opr { op; ra = 1; rb = Instr.Reg 2; rc = 3 }))
        a b)
    gen

let spec_alu op a b =
  match op with
  | Instr.Add -> Some (Word.add a b)
  | Instr.Sub -> Some (Word.sub a b)
  | Instr.Mul -> Some (Word.mul a b)
  | Instr.Div -> ( try Some (Word.sdiv a b) with Word.Division_trap -> None)
  | Instr.Rem -> ( try Some (Word.srem a b) with Word.Division_trap -> None)
  | Instr.And -> Some (Word.logand a b)
  | Instr.Or -> Some (Word.logor a b)
  | Instr.Xor -> Some (Word.logxor a b)
  | Instr.Sll -> Some (Word.shift_left a (b land 31))
  | Instr.Srl -> Some (Word.shift_right_logical a (b land 31))
  | Instr.Sra -> Some (Word.shift_right_arith a (b land 31))
  | Instr.Cmpeq -> Some (if Word.eq a b then 1 else 0)
  | Instr.Cmpne -> Some (if Word.eq a b then 0 else 1)
  | Instr.Cmplt -> Some (if Word.slt a b then 1 else 0)
  | Instr.Cmple -> Some (if Word.sle a b then 1 else 0)
  | Instr.Cmpult -> Some (if Word.ult a b then 1 else 0)
  | Instr.Cmpule -> Some (if Word.ule a b then 1 else 0)

(* Run [op a b] on the VM: materialise the operands with constants, apply
   the operation, store the result to a known data word. *)
let vm_alu op a b =
  let asm = Easm.create ~base:Layout.text_base in
  let hi_a, lo_a = Easm.split_const a in
  let hi_b, lo_b = Easm.split_const b in
  Easm.instr asm (Instr.Ldah { ra = 1; rb = Reg.zero; disp = hi_a });
  Easm.instr asm (Instr.Lda { ra = 1; rb = 1; disp = lo_a });
  Easm.instr asm (Instr.Ldah { ra = 2; rb = Reg.zero; disp = hi_b });
  Easm.instr asm (Instr.Lda { ra = 2; rb = 2; disp = lo_b });
  Easm.instr asm (Instr.Opr { op; ra = 1; rb = Instr.Reg 2; rc = 3 });
  let hi_d, lo_d = Easm.split_const Layout.data_base in
  Easm.instr asm (Instr.Ldah { ra = 4; rb = Reg.zero; disp = hi_d });
  Easm.instr asm (Instr.Lda { ra = 4; rb = 4; disp = lo_d });
  Easm.instr asm (Instr.Mem { op = Instr.Stw; ra = 3; rb = 4; disp = 0 });
  Easm.instr asm (Instr.Opr { op = Instr.Or; ra = Reg.zero; rb = Instr.Reg Reg.zero; rc = 16 });
  Easm.instr asm (Instr.Sys (Syscall.to_code Syscall.Exit));
  let img = Easm.finish asm in
  let vm =
    Vm.create ~fuel:100 ~text_base:Layout.text_base ~text:img.Easm.words
      ~entry:Layout.text_base ~data_base:Layout.data_base ~data_words:1
      ~data_init:[] ~input:"" ()
  in
  match Vm.run vm with
  | _ -> Some (Vm.load_word vm Layout.data_base)
  | exception Vm.Trap _ -> None

(* One valid input per external format the tools read: a profile (with
   the program it must match), assembly, and a trace exported as Chrome
   JSON and as JSONL. *)
let external_inputs =
  lazy
    (let prog =
       Minic.compile_exn
         "int main() { int i; int s; s = 0; for (i = 0; i < 9; i = i + 1) \
          { if (i & 1) s = s + i; } return s; }"
     in
     let profile, _ = Profile.collect prog ~input:"" in
     let tr = Obs.Trace.create ~capacity:16 () in
     let emit ts payload = Obs.Trace.emit tr { Obs.Event.ts; payload } in
     emit (Obs.Event.Cycles 100) (Obs.Event.Decomp_begin { region = 0 });
     emit (Obs.Event.Cycles 140)
       (Obs.Event.Decomp_end { region = 0; bits = 33; words = 7; cycles = 40 });
     emit (Obs.Event.Mono 10.0) (Obs.Event.Pass_begin { name = "cold" });
     emit (Obs.Event.Mono 10.25)
       (Obs.Event.Pass_end { name = "cold"; elapsed_s = 0.25 });
     ( prog,
       Profile.to_string profile,
       Format.asprintf "%a" Asm.pp_program prog,
       Report.Json.to_string (Obs.Trace.to_chrome tr),
       Obs.Trace.to_jsonl tr ))

(* An edit is (op, position, byte): delete, insert or replace the byte at
   the position, truncate there, or duplicate the 16 bytes that follow. *)
let mutate text edits =
  List.fold_left
    (fun s (op, pos, c) ->
      let n = String.length s in
      let i = pos mod (n + 1) in
      let pre = String.sub s 0 i and post = String.sub s i (n - i) in
      let rest = String.sub post (min 1 (n - i)) (max 0 (n - i - 1)) in
      match op with
      | 0 -> pre ^ rest
      | 1 -> pre ^ String.make 1 c ^ post
      | 2 -> pre ^ String.make 1 c ^ rest
      | 3 -> pre
      | _ -> pre ^ String.sub post 0 (min 16 (n - i)) ^ post)
    text edits

let arb_edits =
  let byte =
    QCheck.Gen.(
      frequency
        [ (3, oneofl (List.of_seq (String.to_seq "{}[]\":,.-+eE019 \n#;()&_")));
          (1, char) ])
  in
  QCheck.make
    ~print:
      QCheck.Print.(list (triple int int (fun c -> Printf.sprintf "%C" c)))
    QCheck.Gen.(list_size (int_range 1 4)
                  (triple (int_bound 4) (int_bound 1_000_000) byte))

let props =
  [
    qcheck
      (QCheck.Test.make ~name:"VM ALU matches the Word specification" ~count:150
         arb_alu_case (fun (op, a, b) -> vm_alu op a b = spec_alu op a b));
    qcheck
      (QCheck.Test.make ~name:"squeeze is idempotent on random programs" ~count:8
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 300 320))
         (fun seed ->
           let p = Minic.compile_exn (Gen_minic.random_program ~seed) in
           let q1, _ = Squeeze.run p in
           let q2, _ = Squeeze.run q1 in
           Prog.instr_count q2 = Prog.instr_count q1));
    qcheck
      (QCheck.Test.make ~name:"assembler round-trips compiled programs" ~count:6
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 400 415))
         (fun seed ->
           let src = Gen_minic.random_program ~seed in
           let p = Minic.compile_exn src in
           let text = Format.asprintf "%a" Asm.pp_program p in
           match Asm.parse_program text with
           | Error e -> QCheck.Test.fail_report e
           | Ok p2 ->
             let run prog = Vm.run (Vm.of_image ~fuel:20_000_000 (Layout.emit prog) ~input:"") in
             let o1 = run p and o2 = run p2 in
             o1.Vm.output = o2.Vm.output && o1.Vm.exit_code = o2.Vm.exit_code));
    qcheck ~speed_level:`Quick
      (QCheck.Test.make
         ~name:"mutated external inputs give Error, never an exception"
         ~count:300 arb_edits (fun edits ->
           let prog, profile, asm, chrome, jsonl = Lazy.force external_inputs in
           let parsers =
             [ ( "profile", profile,
                 fun t ->
                   Result.iter
                     (fun p -> ignore (Profile.check p prog))
                     (Profile.of_string t) );
               ("asm", asm, fun t -> ignore (Asm.parse_program t));
               ("json", chrome, fun t -> ignore (Report.Json.of_string t));
               ("tracediff chrome", chrome,
                fun t -> ignore (Tracediff.of_string t));
               ("tracediff jsonl", jsonl,
                fun t -> ignore (Tracediff.of_string t)) ]
           in
           List.for_all
             (fun (what, valid, parse) ->
               let t = mutate valid edits in
               match parse t with
               | () -> true
               | exception e ->
                 QCheck.Test.fail_reportf "%s raised %s on %S" what
                   (Printexc.to_string e) t)
             parsers));
  ]

let suite = [ ("props", props) ]
