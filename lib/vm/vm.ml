exception Trap of { pc : int; reason : string }

type sampler = { period : int; seed : int }

type t = {
  mem : Bytes.t;  (* byte-addressed, little-endian words *)
  decoded : Instr.t array;
      (* word-indexed over [0, code_bytes); [undecoded] marks a stale entry *)
  regs : int array;  (* [zero] is never written, so it always reads 0 *)
  mutable pc : int;
  mutable running : bool;
  mutable exit_code : int option;
  mutable icount : int;
  mutable cycles : int;
  mutable fuel : int;
  cost : Cost.model;
  input : string;
  mutable in_pos : int;
  output : Buffer.t;
  counts : int array option;
  text_base : int;
  text_words : int;
  mutable hook_lo : int;
  mutable hook_hi : int;
  hooks : (int, t -> unit) Hashtbl.t;
  mutable heap_break : int;
  mutable hook_invocations : int;
  mutable obs : Obs.t option;
  sampler : sampler option;
  mutable sample_countdown : int;
  mutable sample_rng : int;
  mutable sample_hits : int;
  mutable sample_skips : int;
}

let trap t reason = raise (Trap { pc = t.pc; reason })

(* Dune's default profile compiles with -opaque, which keeps [Word]'s
   helpers out of line; the hot path does its 32-bit arithmetic here. *)
let mask = 0xFFFF_FFFF

(* The hardwired zero register, as a literal so the hot path compares
   against an immediate. *)
let zero = 31
let () = assert (zero = Reg.zero)

(* Executable words live below the data segment: text, the compressed blob,
   the stub area and the runtime buffer slots.  Only they are predecoded;
   a fetch above decodes from memory every time. *)
let code_bytes = Layout.data_base

(* The "not decoded" marker: allocated at run time, so no decoded
   instruction is ever physically equal to it. *)
let undecoded = Instr.Lda { ra = Sys.opaque_identity 0; rb = 0; disp = 0 }

(* [v] is a 32-bit word; move bit 31 into the sign bit of the host int. *)
let[@inline] signed v = (v lsl 31) asr 31

(* Deterministic xorshift step, kept positive so [mod] below is safe. *)
let xorshift s =
  let s = s lxor (s lsl 13) land max_int in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17) land max_int

(* Number of instructions until the sampler fires again: the period plus a
   small seeded jitter so sampling does not phase-lock with loop bodies.
   A period of 1 always yields a stride of 1 (degenerates to exact). *)
let next_stride t (s : sampler) =
  t.sample_rng <- xorshift t.sample_rng;
  let span = max 1 (s.period / 4) in
  let jitter = (t.sample_rng mod span) - (s.period / 8) in
  max 1 (s.period + jitter)

let[@inline] write_word mem a v = Bytes.set_int32_le mem a (Int32.of_int v)

let create ?(cost = Cost.default) ?(fuel = 1_000_000_000) ?(profile = false) ?sampler
    ~text_base ~text ~entry ~data_base ~data_words ~data_init ~input () =
  if text_base land 3 <> 0 then invalid_arg "Vm.create: unaligned text base";
  if text_base < 0 || text_base + (4 * Array.length text) > Layout.mem_bytes then
    invalid_arg "Vm.create: text out of range";
  (match sampler with
  | Some s when s.period < 1 -> invalid_arg "Vm.create: sample period must be >= 1"
  | _ -> ());
  let mem = Bytes.make Layout.mem_bytes '\000' in
  Array.iteri (fun i w -> write_word mem (text_base + (4 * i)) w) text;
  List.iter
    (fun (off, v) ->
      let idx = (data_base / 4) + off in
      if idx < 0 || idx >= Layout.mem_bytes / 4 then
        invalid_arg "Vm.create: data init out of range";
      write_word mem (4 * idx) v)
    data_init;
  let regs = Array.make Reg.count 0 in
  regs.(Reg.sp) <- Layout.stack_top;
  let t =
    {
      mem;
      decoded = Array.make (code_bytes / 4) undecoded;
      regs;
      pc = entry;
      running = true;
      exit_code = None;
      icount = 0;
      cycles = 0;
      fuel;
      cost;
      input;
      in_pos = 0;
      output = Buffer.create 4096;
      counts = (if profile then Some (Array.make (Array.length text) 0) else None);
      text_base;
      text_words = Array.length text;
      hook_lo = max_int;
      hook_hi = min_int;
      hooks = Hashtbl.create 8;
      heap_break = data_base + (4 * data_words);
      hook_invocations = 0;
      obs = None;
      sampler;
      sample_countdown = 0;
      sample_rng = 0;
      sample_hits = 0;
      sample_skips = 0;
    }
  in
  (match sampler with
  | None -> ()
  | Some s ->
    (* Seed the stride generator; xorshift has a fixed point at 0, so mix
       in a non-zero constant.  The first fire offset is itself drawn from
       the generator, keeping two same-seed runs byte-identical. *)
    t.sample_rng <- (s.seed lxor 0x2545F4914F6CDD1) land max_int;
    if t.sample_rng = 0 then t.sample_rng <- 1;
    t.sample_countdown <- next_stride t s);
  t

let of_image ?cost ?fuel ?profile ?sampler (img : Layout.image) ~input =
  create ?cost ?fuel ?profile ?sampler ~text_base:img.Layout.text_base
    ~text:img.Layout.text ~entry:img.Layout.entry_addr ~data_base:img.Layout.data_base
    ~data_words:img.Layout.data_words ~data_init:img.Layout.data_init ~input ()

let pc t = t.pc
let set_pc t a = t.pc <- a

let reg t r = t.regs.(r)
let set_reg t r v = if r <> zero then t.regs.(r) <- v land mask

(* The interpreter's register access: decoded register fields are 5 bits
   wide, so every index is in bounds. *)
let[@inline] get t r = Array.unsafe_get t.regs r
let[@inline] put t r v = if r <> zero then Array.unsafe_set t.regs r (v land mask)

let[@inline] check_word_addr t a =
  if a land 3 <> 0 then trap t (Printf.sprintf "unaligned word access at 0x%x" a);
  if a < 0 || a >= Layout.mem_bytes then
    trap t (Printf.sprintf "word access out of range at 0x%x" a)

let[@inline] load_word t a =
  check_word_addr t a;
  Int32.to_int (Bytes.get_int32_le t.mem a) land mask

let[@inline] store_word t a v =
  check_word_addr t a;
  write_word t.mem a v;
  if a < code_bytes then Array.unsafe_set t.decoded (a lsr 2) undecoded

let[@inline] check_byte_addr t a =
  if a < 0 || a >= Layout.mem_bytes then
    trap t (Printf.sprintf "byte access out of range at 0x%x" a)

let[@inline] load_byte t a =
  check_byte_addr t a;
  Char.code (Bytes.unsafe_get t.mem a)

let[@inline] store_byte t a v =
  check_byte_addr t a;
  Bytes.unsafe_set t.mem a (Char.unsafe_chr (v land 0xFF));
  if a < code_bytes then Array.unsafe_set t.decoded (a lsr 2) undecoded

let add_cycles t n = t.cycles <- t.cycles + n
let icount t = t.icount
let cycles t = t.cycles
let hook_invocations t = t.hook_invocations
let set_obs t o = t.obs <- Some o
let exited t = t.exit_code
let counts t = t.counts
let sample_hits t = t.sample_hits
let sample_skips t = t.sample_skips
let output_so_far t = Buffer.contents t.output

let install_hook t ~addr f =
  if addr land 3 <> 0 then invalid_arg "Vm.install_hook: unaligned address";
  Hashtbl.replace t.hooks addr f;
  t.hook_lo <- min t.hook_lo addr;
  t.hook_hi <- max t.hook_hi addr

(* setjmp buffer layout: [pc; sp; ra; s0..s6] = 10 words. *)
let setjmp_words = 10

let do_setjmp t buf =
  (* The layout above must cover exactly the pc, sp, ra and saved-register
     slots; if Reg.saved ever changes, this is the place that must follow. *)
  assert (setjmp_words = 3 + List.length Reg.saved);
  (* Trap on an out-of-range buffer before any partial write. *)
  check_word_addr t buf;
  check_word_addr t (buf + (4 * (setjmp_words - 1)));
  let continue_pc = t.pc + 4 in
  store_word t buf continue_pc;
  store_word t (buf + 4) (reg t Reg.sp);
  store_word t (buf + 8) (reg t Reg.ra);
  List.iteri (fun i r -> store_word t (buf + 12 + (4 * i)) (reg t r)) Reg.saved;
  set_reg t Reg.rv 0

let do_longjmp t buf v =
  let target = load_word t buf in
  set_reg t Reg.sp (load_word t (buf + 4));
  set_reg t Reg.ra (load_word t (buf + 8));
  List.iteri (fun i r -> set_reg t r (load_word t (buf + 12 + (4 * i)))) Reg.saved;
  set_reg t Reg.rv (if v = 0 then 1 else v);
  t.pc <- target

let do_syscall t code =
  let a0 = reg t 16 and a1 = reg t 17 in
  match Syscall.of_code code with
  | None -> trap t (Printf.sprintf "unknown syscall %d" code)
  | Some Syscall.Exit ->
    t.running <- false;
    t.exit_code <- Some (Word.to_signed a0 land 0xFF);
    t.pc <- t.pc + 4
  | Some Syscall.Getc ->
    let v =
      if t.in_pos < String.length t.input then begin
        let c = Char.code t.input.[t.in_pos] in
        t.in_pos <- t.in_pos + 1;
        c
      end
      else Word.of_int (-1)
    in
    set_reg t Reg.rv v;
    t.pc <- t.pc + 4
  | Some Syscall.Putc ->
    Buffer.add_char t.output (Char.chr (a0 land 0xFF));
    t.pc <- t.pc + 4
  | Some Syscall.Putint ->
    Buffer.add_string t.output (string_of_int (Word.to_signed a0));
    Buffer.add_char t.output '\n';
    t.pc <- t.pc + 4
  | Some Syscall.Sbrk ->
    let old = t.heap_break in
    let nbreak = old + Word.to_signed a0 in
    if nbreak < 0 || nbreak >= Layout.stack_top then trap t "sbrk: out of memory";
    t.heap_break <- nbreak;
    set_reg t Reg.rv old;
    t.pc <- t.pc + 4
  | Some Syscall.Setjmp ->
    do_setjmp t a0;
    t.pc <- t.pc + 4
  | Some Syscall.Longjmp -> do_longjmp t a0 (Word.to_signed a1)
  | Some Syscall.Getw ->
    if t.in_pos + 4 <= String.length t.input then begin
      let b i = Char.code t.input.[t.in_pos + i] in
      set_reg t Reg.rv (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24));
      t.in_pos <- t.in_pos + 4
    end
    else set_reg t Reg.rv (Word.of_int (-1));
    t.pc <- t.pc + 4
  | Some Syscall.Putw ->
    for i = 0 to 3 do
      Buffer.add_char t.output (Char.chr ((a0 lsr (8 * i)) land 0xFF))
    done;
    t.pc <- t.pc + 4

(* The single-cycle ALU operations ([Mul], [Div] and [Rem] are charged, and
   so handled, separately).  Operands are 32-bit words. *)
let alu op a b =
  match op with
  | Instr.Add -> (a + b) land mask
  | Instr.Sub -> (a - b) land mask
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Sll -> (a lsl (b land 31)) land mask
  | Instr.Srl -> a lsr (b land 31)
  | Instr.Sra -> (signed a asr (b land 31)) land mask
  | Instr.Cmpeq -> if a = b then 1 else 0
  | Instr.Cmpne -> if a = b then 0 else 1
  | Instr.Cmplt -> if signed a < signed b then 1 else 0
  | Instr.Cmple -> if signed a <= signed b then 1 else 0
  | Instr.Cmpult -> if a < b then 1 else 0
  | Instr.Cmpule -> if a <= b then 1 else 0
  | Instr.Mul | Instr.Div | Instr.Rem -> assert false

let divisor t b =
  let d = signed b in
  if d = 0 then trap t "division by zero" else d

let cond_holds op v =
  let s = signed v in
  match op with
  | Instr.Eq -> s = 0
  | Instr.Ne -> s <> 0
  | Instr.Lt -> s < 0
  | Instr.Le -> s <= 0
  | Instr.Gt -> s > 0
  | Instr.Ge -> s >= 0

let decode_at t pc =
  match Instr.decode (Int32.to_int (Bytes.get_int32_le t.mem pc) land mask) with
  | Ok i -> i
  | Error msg -> trap t ("illegal instruction: " ^ msg)

let[@inline] fetch t =
  let pc = t.pc in
  if pc land 3 <> 0 then trap t "unaligned pc";
  if pc >= 0 && pc < code_bytes then begin
    let i = Array.unsafe_get t.decoded (pc lsr 2) in
    if i != undecoded then i
    else begin
      let i = decode_at t pc in
      Array.unsafe_set t.decoded (pc lsr 2) i;
      i
    end
  end
  else if pc < 0 || pc >= Layout.mem_bytes then trap t "pc out of range"
  else decode_at t pc

let bump t arr =
  let idx = (t.pc - t.text_base) lsr 2 in
  if idx >= 0 && idx < t.text_words then arr.(idx) <- arr.(idx) + 1

let record_count t arr =
  match t.sampler with
  | None -> bump t arr
  | Some s ->
    t.sample_countdown <- t.sample_countdown - 1;
    if t.sample_countdown <= 0 then begin
      t.sample_countdown <- next_stride t s;
      t.sample_hits <- t.sample_hits + 1;
      (match t.obs with None -> () | Some o -> Obs.incr o "vm.sample_hits");
      bump t arr
    end
    else begin
      t.sample_skips <- t.sample_skips + 1;
      match t.obs with None -> () | Some o -> Obs.incr o "vm.sample_skips"
    end

(* Effective address of a memory operand, as a signed host int. *)
let[@inline] ea t rb disp = signed ((get t rb + disp) land mask)

(* Execute the instruction at [pc]: each arm updates registers and memory,
   sets the pc and charges its own cycles.  A trap leaves the instruction
   counted but uncharged. *)
let exec_one t =
  if t.icount >= t.fuel then trap t "out of fuel";
  let ins = fetch t in
  (match t.counts with None -> () | Some arr -> record_count t arr);
  t.icount <- t.icount + 1;
  let c = t.cost in
  let pc = t.pc in
  match ins with
  | Instr.Opr { op; ra; rb; rc } ->
    let a = get t ra and b = match rb with Instr.Reg r -> get t r | Instr.Imm v -> v in
    (match op with
    | Instr.Mul ->
      put t rc (a * b);
      t.cycles <- t.cycles + c.mul
    | Instr.Div ->
      put t rc (signed a / divisor t b);
      t.cycles <- t.cycles + c.div
    | Instr.Rem ->
      put t rc (signed a mod divisor t b);
      t.cycles <- t.cycles + c.div
    | _ ->
      put t rc (alu op a b);
      t.cycles <- t.cycles + c.alu);
    t.pc <- pc + 4
  | Instr.Mem { op = Instr.Ldw; ra; rb; disp } ->
    put t ra (load_word t (ea t rb disp));
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.mem
  | Instr.Mem { op = Instr.Stw; ra; rb; disp } ->
    store_word t (ea t rb disp) (get t ra);
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.mem
  | Instr.Mem { op = Instr.Ldb; ra; rb; disp } ->
    put t ra (load_byte t (ea t rb disp));
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.mem
  | Instr.Mem { op = Instr.Stb; ra; rb; disp } ->
    store_byte t (ea t rb disp) (get t ra);
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.mem
  | Instr.Cbr { op; ra; disp } ->
    if cond_holds op (get t ra) then begin
      t.pc <- pc + 4 + (4 * disp);
      t.cycles <- t.cycles + c.branch_taken
    end
    else begin
      t.pc <- pc + 4;
      t.cycles <- t.cycles + c.branch
    end
  | Instr.Lda { ra; rb; disp } ->
    put t ra (get t rb + disp);
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.alu
  | Instr.Ldah { ra; rb; disp } ->
    put t ra (get t rb + (disp lsl 16));
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.alu
  | Instr.Br { ra; disp } | Instr.Bsr { ra; disp } ->
    put t ra (pc + 4);
    t.pc <- pc + 4 + (4 * disp);
    t.cycles <- t.cycles + c.branch_taken
  | Instr.Jmp { ra; rb; _ } | Instr.Jsr { ra; rb; _ } | Instr.Ret { ra; rb; _ } ->
    let target = get t rb in
    put t ra (pc + 4);
    t.pc <- target;
    t.cycles <- t.cycles + c.branch_taken
  | Instr.Nop ->
    t.pc <- pc + 4;
    t.cycles <- t.cycles + c.alu
  | Instr.Sys code ->
    do_syscall t code;
    t.cycles <- t.cycles + c.syscall
  | Instr.Bsrx _ -> trap t "bsrx marker executed (must never reach the pipeline)"
  | Instr.Sentinel -> trap t "sentinel executed"

(* A pc inside the hook range: run the intrinsic installed there, if any.
   The range spans only the runtime's entry points, so the table is
   consulted a few tens of thousands of times a run. *)
let enter_hook_range t =
  match Hashtbl.find_opt t.hooks t.pc with
  | Some f ->
    t.hook_invocations <- t.hook_invocations + 1;
    (match t.obs with None -> () | Some o -> Obs.incr o "vm.hook_invocations");
    f t
  | None -> exec_one t

let[@inline] dispatch t =
  if t.pc >= t.hook_lo && t.pc <= t.hook_hi then enter_hook_range t else exec_one t

let step t =
  if not t.running then false
  else begin
    dispatch t;
    t.running
  end

type outcome = {
  exit_code : int;
  output : string;
  icount : int;
  cycles : int;
  hook_invocations : int;
}

let run t =
  while t.running do
    dispatch t
  done;
  {
    exit_code = Option.value t.exit_code ~default:0;
    output = Buffer.contents t.output;
    icount = t.icount;
    cycles = t.cycles;
    hook_invocations = t.hook_invocations;
  }
