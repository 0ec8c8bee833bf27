(* VM execution semantics, exercised through assembled programs. *)

let run ?(input = "") ?fuel src =
  match Asm.parse_program src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p ->
    let img = Layout.emit p in
    Vm.run (Vm.of_image ?fuel img ~input)

let check_exit name expected outcome =
  Alcotest.(check int) name expected outcome.Vm.exit_code

let unit_tests =
  [
    Alcotest.test_case "exit code is a0" `Quick (fun () ->
        let o = run "func main {\n .0:\n lda a0, 42(zero)\n sys exit\n halt\n}" in
        check_exit "exit" 42 o);
    Alcotest.test_case "arithmetic and immediates" `Quick (fun () ->
        let o =
          run
            {|
func main {
  .0:
    lda t0, 10(zero)
    mul t0, #7, t1      ; 70
    sub t1, #5, t1      ; 65
    div t1, #2, t1      ; 32
    rem t1, #5, t2      ; 2
    sll t1, #2, t1      ; 128
    add t1, t2, a0      ; 130
    sys exit
    halt
}
|}
        in
        check_exit "exit" 130 o);
    Alcotest.test_case "loop computes a sum" `Quick (fun () ->
        (* sum 1..10 = 55 *)
        let o =
          run
            {|
func main {
  .0:
    lda t0, 10(zero)
    lda t1, 0(zero)
  .1:
    add t1, t0, t1
    sub t0, #1, t0
    if gt t0 goto .1 else .2
  .2:
    mov t1, a0
    sys exit
    halt
}
|}
        in
        check_exit "exit" 55 o);
    Alcotest.test_case "recursive calls (fib 10 = 55)" `Quick (fun () ->
        let o =
          run
            {|
.entry main
func main {
  .0:
    lda a0, 10(zero)
    call fib
  .1:
    mov v0, a0
    sys exit
    halt
}
func fib {
  .0:
    sub sp, #16, sp
    stw ra, 0(sp)
    stw s0, 4(sp)
    stw s1, 8(sp)
    mov a0, s0
    cmplt a0, #2, t0
    if ne t0 goto .4 else .1
  .1:
    sub s0, #1, a0
    call fib
  .2:
    mov v0, s1
    sub s0, #2, a0
    call fib
  .3:
    add v0, s1, v0
    goto .5
  .4:
    mov s0, v0
  .5:
    ldw ra, 0(sp)
    ldw s0, 4(sp)
    ldw s1, 8(sp)
    add sp, #16, sp
    ret
}
|}
        in
        check_exit "fib" 55 o);
    Alcotest.test_case "memory: word and byte access" `Quick (fun () ->
        let o =
          run
            {|
.data 4
func main {
  .0:
    li t0, 4194304       ; data base
    li t1, 305419896     ; 0x12345678
    stw t1, 0(t0)
    ldb t2, 1(t0)        ; 0x56 little-endian
    ldw t3, 0(t0)
    xor t3, t1, t3       ; 0
    add t2, t3, a0
    sys exit
    halt
}
|}
        in
        check_exit "byte" 0x56 o);
    Alcotest.test_case "getc/putc echo input" `Quick (fun () ->
        let o =
          run ~input:"hi!"
            {|
func main {
  .0:
    sys getc
    mov v0, t0
    if lt t0 goto .2 else .1
  .1:
    mov t0, a0
    sys putc
    goto .0
  .2:
    lda a0, 0(zero)
    sys exit
    halt
}
|}
        in
        Alcotest.(check string) "output" "hi!" o.Vm.output;
        check_exit "exit" 0 o);
    Alcotest.test_case "getw/putw move words" `Quick (fun () ->
        let o =
          run ~input:"\x01\x02\x03\x04"
            {|
func main {
  .0:
    sys getw
    mov v0, a0
    sys putw
    lda a0, 0(zero)
    sys exit
    halt
}
|}
        in
        Alcotest.(check string) "output" "\x01\x02\x03\x04" o.Vm.output);
    Alcotest.test_case "putint prints decimals" `Quick (fun () ->
        let o =
          run
            "func main {\n\
            \ .0:\n\
            \ lda a0, -7(zero)\n\
            \ sys putint\n\
            \ lda a0, 0(zero)\n\
            \ sys exit\n\
            \ halt\n\
             }"
        in
        Alcotest.(check string) "output" "-7\n" o.Vm.output);
    Alcotest.test_case "jump through a table" `Quick (fun () ->
        let o =
          run
            {|
func main {
  .0:
    lda t0, 1(zero)      ; select case 1
    la t1, &table0
    sll t0, #2, t0
    add t1, t0, t1
    ldw t1, 0(t1)
    ijump (t1) table 0
  .1:
    lda a0, 11(zero)
    sys exit
    halt
  .2:
    lda a0, 22(zero)
    sys exit
    halt
  .3:
    lda a0, 33(zero)
    sys exit
    halt
  table 0: .1 .2 .3
}
|}
        in
        check_exit "case" 22 o);
    Alcotest.test_case "indirect call through a function pointer" `Quick (fun () ->
        let o =
          run
            {|
.entry main
func main {
  .0:
    la t0, &leaf
    lda a0, 20(zero)
    icall (t0)
  .1:
    mov v0, a0
    sys exit
    halt
}
func leaf {
  .0:
    add a0, #1, v0
    ret
}
|}
        in
        check_exit "icall" 21 o);
    Alcotest.test_case "setjmp/longjmp unwinds" `Quick (fun () ->
        let o =
          run
            {|
.entry main
.data 16
func main {
  .0:
    li a0, 4194304
    sys setjmp
    mov v0, t0
    if ne t0 goto .2 else .1
  .1:
    call thrower
  .2:
    mov t0, a0           ; longjmp value becomes the exit code
    sys exit
    halt
}
func thrower {
  .0:
    li a0, 4194304
    lda a1, 9(zero)
    sys longjmp
    halt
}
|}
        in
        check_exit "longjmp value" 9 o);
    Alcotest.test_case "division by zero traps" `Quick (fun () ->
        match
          run "func main {\n .0:\n lda t0, 1(zero)\n div t0, zero, t0\n sys exit\n halt\n}"
        with
        | exception Vm.Trap { reason; _ } ->
          Alcotest.(check string) "reason" "division by zero" reason
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "fuel exhaustion traps" `Quick (fun () ->
        match run ~fuel:100 "func main {\n .0:\n goto .0\n}" with
        | exception Vm.Trap { reason; _ } ->
          Alcotest.(check string) "reason" "out of fuel" reason
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "self-modifying text re-decodes" `Quick (fun () ->
        (* main calls patchme once, so its first word ("lda a0, 5(zero)") is
           decoded and cached, then patches that word into "lda a0,
           77(zero)" and calls it again: 5 + 77.  The patch is either a
           whole-word stw or a single stb over the displacement's low
           byte; both must invalidate the cached decode. *)
        let lda77 = Instr.encode (Instr.Lda { ra = 16; rb = Reg.zero; disp = 77 }) in
        let src patch =
          Printf.sprintf
            {|
.entry main
func main {
  .0:
    call patchme
  .1:
    mov a0, s0
    la t2, &patchme
    %s
    call patchme
  .2:
    add a0, s0, a0
    sys exit
    halt
}
func patchme {
  .0:
    lda a0, 5(zero)
    ret
}
|}
            patch
        in
        List.iter
          (fun (name, patch) -> check_exit name 82 (run (src patch)))
          [ ("stw", Printf.sprintf "li t1, %d\n    stw t1, 0(t2)" lda77);
            ("stb", "lda t1, 77(zero)\n    stb t1, 0(t2)") ]);
    Alcotest.test_case "code in the data segment runs uncached" `Quick (fun () ->
        (* Words stored above the predecoded code range execute, are
           re-read after a store, and trap on an illegal word exactly as
           text does. *)
        let enc i = Instr.encode i in
        let lda n = enc (Instr.Lda { ra = 16; rb = Reg.zero; disp = n }) in
        let ret = enc (Instr.Ret { ra = Reg.zero; rb = Reg.ra; hint = 0 }) in
        let illegal w = Result.is_error (Instr.decode w) in
        let bad = List.find illegal (List.init 64 (fun op -> op lsl 26)) in
        let data_src first second =
          Printf.sprintf
            {|
.entry main
.data 4
func main {
  .0:
    li t0, %d
    li t1, %d
    stw t1, 0(t0)
    li t1, %d
    stw t1, 4(t0)
    icall (t0)
  .1:
    mov a0, s0
    li t0, %d
    li t1, %d
    stw t1, 0(t0)
    icall (t0)
  .2:
    add a0, s0, a0
    sys exit
    halt
}
|}
            Layout.data_base first ret Layout.data_base second
        in
        check_exit "data code" 49 (run (data_src (lda 42) (lda 7)));
        let trap_of src =
          match run src with
          | exception Vm.Trap { pc; reason } -> (pc, reason)
          | _ -> Alcotest.fail "expected trap"
        in
        let data_pc, data_reason = trap_of (data_src bad (lda 7)) in
        Alcotest.(check int) "trap pc" Layout.data_base data_pc;
        let _, text_reason =
          trap_of
            (Printf.sprintf
               {|
.entry main
func main {
  .0:
    la t2, &patchme
    li t1, %d
    stw t1, 0(t2)
    call patchme
  .1:
    sys exit
    halt
}
func patchme {
  .0:
    nop
    ret
}
|}
               bad)
        in
        Alcotest.(check string) "same trap as text" text_reason data_reason;
        Alcotest.(check bool)
          "illegal instruction" true
          (String.starts_with ~prefix:"illegal instruction: " data_reason));
    Alcotest.test_case "text out of range is a typed error" `Quick (fun () ->
        let create ~text_base ~text () =
          ignore
            (Vm.create ~text_base ~text ~entry:0 ~data_base:Layout.data_base ~data_words:0
               ~data_init:[] ~input:"" ())
        in
        let err = Invalid_argument "Vm.create: text out of range" in
        Alcotest.check_raises "overflows memory" err
          (create ~text_base:(Layout.mem_bytes - 4) ~text:[| 0; 0 |]);
        Alcotest.check_raises "negative base" err (create ~text_base:(-4) ~text:[| 0 |]));
    Alcotest.test_case "profiling counts block executions" `Quick (fun () ->
        let src =
          {|
func main {
  .0:
    lda t0, 5(zero)
  .1:
    sub t0, #1, t0
    if gt t0 goto .1 else .2
  .2:
    lda a0, 0(zero)
    sys exit
    halt
}
|}
        in
        match Asm.parse_program src with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let img = Layout.emit p in
          let vm = Vm.of_image ~profile:true img ~input:"" in
          let _ = Vm.run vm in
          let counts = Option.get (Vm.counts vm) in
          let addr = Hashtbl.find img.Layout.block_addr ("main", 1) in
          let idx = (addr - img.Layout.text_base) / 4 in
          Alcotest.(check int) "loop head runs 5x" 5 counts.(idx));
    Alcotest.test_case "each step charges Cost.instr_cost" `Quick (fun () ->
        (* The interpreter charges each instruction's cycles inline; the
           cost table's own function is the specification.  Distinct
           figures per class keep a wrong field from hiding behind equal
           defaults. *)
        let cost =
          { Cost.default with alu = 2; mul = 3; div = 5; mem = 7; branch = 11;
            branch_taken = 13; syscall = 17 }
        in
        let holds op v =
          let s = Word.to_signed v in
          match op with
          | Instr.Eq -> s = 0
          | Instr.Ne -> s <> 0
          | Instr.Lt -> s < 0
          | Instr.Le -> s <= 0
          | Instr.Gt -> s > 0
          | Instr.Ge -> s >= 0
        in
        let seen = Hashtbl.create 8 in
        let check_steps name vm =
          let steps = ref 0 in
          while !steps < 200_000 && Vm.exited vm = None do
            let pc = Vm.pc vm and c0 = Vm.cycles vm and i0 = Vm.icount vm in
            let ins = Instr.decode_exn (Vm.load_word vm pc) in
            let taken =
              match ins with Instr.Cbr { op; ra; _ } -> holds op (Vm.reg vm ra) | _ -> false
            in
            ignore (Vm.step vm);
            let want = Cost.instr_cost cost ins ~taken in
            if Vm.cycles vm - c0 <> want || Vm.icount vm <> i0 + 1 then
              Alcotest.failf "%s at 0x%x: %s charged %d, want %d" name pc
                (Instr.to_string ins) (Vm.cycles vm - c0) want;
            Hashtbl.replace seen want ();
            incr steps
          done
        in
        let all_classes =
          {|
.entry main
func main {
  .0:
    lda t0, 3(zero)
    ldah t1, 1(zero)
    mul t0, #5, t2
    div t1, t0, t3
    rem t1, t0, t3
    li t4, 4194304
    stw t2, 0(t4)
    ldw t5, 0(t4)
    stb t2, 4(t4)
    ldb t5, 4(t4)
    la t6, &leaf
    icall (t6)
  .1:
    sub t0, #1, t0
    if gt t0 goto .1 else .2
  .2:
    call leaf
  .3:
    nop
    lda a0, 0(zero)
    sys exit
    halt
}
func leaf {
  .0:
    ret
}
|}
        in
        (match Asm.parse_program all_classes with
        | Error e -> Alcotest.fail e
        | Ok p -> check_steps "all-classes" (Vm.of_image ~cost (Layout.emit p) ~input:""));
        List.iter
          (fun name ->
            let wl = Option.get (Workloads.find name) in
            check_steps name
              (Vm.of_image ~cost (Layout.emit (Workload.compile wl))
                 ~input:(Workload.profiling_input wl)))
          [ "adpcm"; "jpeg_dec" ];
        Alcotest.(check (list int))
          "every class charged" [ 2; 3; 5; 7; 11; 13; 17 ]
          (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])));
    Alcotest.test_case "cycles exceed instructions" `Quick (fun () ->
        let o =
          run "func main {\n .0:\n mul t0, #3, t0\n lda a0, 0(zero)\n sys exit\n halt\n}"
        in
        Alcotest.(check bool) "cycles > icount" true (o.Vm.cycles > o.Vm.icount));
    Alcotest.test_case "hooks intercept fetch" `Quick (fun () ->
        let src = "func main {\n .0:\n nop\n nop\n lda a0, 1(zero)\n sys exit\n halt\n}" in
        match Asm.parse_program src with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let img = Layout.emit p in
          let vm = Vm.of_image img ~input:"" in
          (* Hook the second nop: set a0 to 99 and skip to the syscall. *)
          let hook_addr = img.Layout.entry_addr + 4 in
          Vm.install_hook vm ~addr:hook_addr (fun vm ->
              Vm.set_reg vm 16 99;
              Vm.add_cycles vm 1000;
              Vm.set_pc vm (hook_addr + 8));
          let o = Vm.run vm in
          check_exit "hook result" 99 o;
          Alcotest.(check bool) "hook cycles charged" true (o.Vm.cycles >= 1000));
  ]

let suite = [ ("vm", unit_tests) ]
