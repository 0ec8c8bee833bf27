type fault = Rebias_delta of int

type failure = { rid : int; slot : int; site : string; reason : string }

type report = {
  regions : int;
  slots : int;
  blocks : int;
  proved : int;
  stubs : int;
  conservative : int;
  failures : failure list;
}

(* The rewritten side of a proof: the typed exit of a materialised block,
   recovered by walking the buffer words.  Addresses are absolute (already
   resolved against the slot base the block was materialised at). *)
type rexit =
  | RFall  (** Ran off the end of the block's span: an absorbed edge. *)
  | RGoto of int
  | RBranch of Instr.cond * Equiv.value * int * int option
      (** Taken target; [None] fallthrough means absorbed-by-next. *)
  | RCall of { ra : Reg.t; target : int; resume : int }
      (** Plain [bsr]: raw return address at buffer offset [resume]. *)
  | RCall_stub of { ra : Reg.t; target : int; resume : int }
      (** [bsr ra, CreateStub ; br target]: resume through a restore
          stub tagged with buffer offset [resume]. *)
  | RCalli_stub of { ra : Reg.t; rb : Reg.t; target : Equiv.value; resume : int }
  | RJump of Equiv.value
  | RRet of Equiv.value

let pp_rexit ppf = function
  | RFall -> Format.fprintf ppf "fall off the block's span"
  | RGoto a -> Format.fprintf ppf "goto 0x%x" a
  | RBranch (c, v, t, f) ->
    Format.fprintf ppf "if %s %a goto 0x%x else %s"
      (match c with
      | Instr.Eq -> "eq"
      | Instr.Ne -> "ne"
      | Instr.Lt -> "lt"
      | Instr.Le -> "le"
      | Instr.Gt -> "gt"
      | Instr.Ge -> "ge")
      Equiv.pp_value v t
      (match f with None -> "next" | Some a -> Printf.sprintf "0x%x" a)
  | RCall { ra; target; resume } ->
    Format.fprintf ppf "bsr 0x%x (ra=%s, raw resume @%d)" target (Reg.name ra) resume
  | RCall_stub { ra; target; resume } ->
    Format.fprintf ppf "stub call 0x%x (ra=%s, resume @%d)" target (Reg.name ra)
      resume
  | RCalli_stub { ra; rb; target; resume } ->
    Format.fprintf ppf "stub calli %a (ra=%s, rb=%s, resume @%d)" Equiv.pp_value
      target (Reg.name ra) (Reg.name rb) resume
  | RJump v -> Format.fprintf ppf "jmp %a" Equiv.pp_value v
  | RRet v -> Format.fprintf ppf "ret %a" Equiv.pp_value v

let setjmp_code = Syscall.to_code Syscall.Setjmp

let run ?(slots = 1) ?fault (sq : Rewrite.t) =
  if slots < 1 then invalid_arg "Prove.run: slots must be >= 1";
  let p = sq.Rewrite.prog in
  let func_of = Hashtbl.create 64 in
  List.iter (fun (f : Prog.Func.t) -> Hashtbl.replace func_of f.name f) p.Prog.funcs;
  let block_tbl = Hashtbl.create 256 in
  List.iter (fun (k, a) -> Hashtbl.replace block_tbl k a) sq.Rewrite.block_addrs;
  let table_tbl = Hashtbl.create 16 in
  List.iter (fun (k, a) -> Hashtbl.replace table_tbl k a) sq.Rewrite.table_addrs;
  let oracle =
    {
      Equiv.func_addr = (fun g -> Hashtbl.find_opt block_tbl (g, 0));
      table_addr = (fun k -> Hashtbl.find_opt table_tbl k);
    }
  in
  let failures = ref [] in
  let fail ~rid ~slot ~site fmt =
    Format.kasprintf
      (fun reason -> failures := { rid; slot; site; reason } :: !failures)
      fmt
  in
  let blocks = ref 0 in
  let proved = ref 0 in
  let conservative = ref 0 in

  (* --- entry-stub obligations (slot-independent) -------------------- *)
  (* The dead-register fact is re-derived from the independent Dataflow
     liveness solver, not the Cfg.liveness the rewrite consulted.  The
     stub decodes to its 2- or 3-word form, the bsr
     lands on the decompressor entry matching the link register, and the
     tag names this block's (region, buffer offset) pair — which is what
     the decomp hook dereferences into [slot_base + 4*off]. *)
  let text = sq.Rewrite.text.Easm.words in
  let tbase = sq.Rewrite.text.Easm.base in
  let word_at addr =
    let idx = (addr - tbase) / 4 in
    if addr land 3 <> 0 || idx < 0 || idx >= Array.length text then None
    else Some text.(idx)
  in
  let live_cache = Hashtbl.create 16 in
  let live_in fname i =
    let lv =
      match Hashtbl.find_opt live_cache fname with
      | Some lv -> lv
      | None ->
        let lv = Dataflow.Liveness.solve (Hashtbl.find func_of fname) in
        Hashtbl.replace live_cache fname lv;
        lv
    in
    lv.Cfg.live_in.(i)
  in
  let stubs = ref 0 in
  let region_of key = Hashtbl.find_opt sq.Rewrite.regions.Regions.region_of key in
  List.iter
    (fun (((fname, i) as key), addr) ->
      let rid = match region_of key with Some r -> r | None -> -1 in
      let site = Printf.sprintf "%s.b%d" fname i in
      let sfail fmt = fail ~rid ~slot:0 ~site fmt in
      let check_tag tag_addr =
        match (word_at tag_addr, region_of key) with
        | None, _ -> sfail "stub tag word at 0x%x lies outside the text" tag_addr
        | _, None -> sfail "stub guards a block that is in no region"
        | Some tag, Some rid ->
          let off =
            Hashtbl.find_opt sq.Rewrite.images.(rid).Rewrite.block_offset key
          in
          if Some (tag land 0xFFFF) <> off || tag lsr 16 <> rid then
            sfail
              "stub tag 0x%x does not name (region %d, offset %s): resuming \
               through it would enter the buffer at the wrong word"
              tag rid
              (match off with None -> "?" | Some o -> string_of_int o)
          else incr stubs
      in
      match word_at addr with
      | None -> sfail "stub address 0x%x lies outside the text" addr
      | Some w -> (
        match Instr.decode w with
        | Ok (Instr.Bsr { ra; disp }) ->
          if addr + 4 + (4 * disp) <> Rewrite.decomp_entry sq ra then
            sfail "stub bsr misses the decompressor entry for %s" (Reg.name ra)
          else if ra = Reg.sp || ra = Reg.zero then
            sfail "stub links through reserved register %s" (Reg.name ra)
          else if Cfg.Regset.mem ra (live_in fname i) then
            sfail
              "stub clobbers %s, which the independent liveness analysis \
               proves live at the block entry"
              (Reg.name ra)
          else check_tag (addr + 4)
        | Ok (Instr.Mem { op = Instr.Stw; ra; rb; disp = -4 })
          when ra = Reg.ra && rb = Reg.sp -> (
          match Option.map Instr.decode (word_at (addr + 4)) with
          | Some (Ok (Instr.Bsr { ra = ra2; disp }))
            when ra2 = Reg.ra
                 && addr + 8 + (4 * disp) = Rewrite.decomp_entry_push sq ->
            check_tag (addr + 8)
          | _ -> sfail "push-form stub lacks its bsr to the push entry")
        | Ok _ | Error _ ->
          sfail "stub starts with neither a bsr nor a push of ra"))
    sq.Rewrite.stub_addrs;

  (* --- per-region, per-slot block proofs ----------------------------- *)
  let offsets = sq.Rewrite.blob_offsets in
  Array.iteri
    (fun rid (r : Regions.region) ->
      let img = sq.Rewrite.images.(rid) in
      let bw = img.Rewrite.buffer_words in
      (* The runtime buffer is sized as the largest region plus two words
         (Rewrite.build); a region that outgrows it would spill into the
         next slot when materialised. *)
      if bw + 2 > sq.Rewrite.buffer_words then
        fail ~rid ~slot:0
          ~site:(Printf.sprintf "region %d" rid)
          "region needs %d words, buffer holds %d" bw (sq.Rewrite.buffer_words - 2);
      let rkeys = Array.of_list r.Regions.blocks in
      let nblocks = Array.length rkeys in
      (* An empty block (a jump absorbed into the fall-through to its
         target) shares its offset with the next block, so one word can head
         several blocks; its own proof shows entering it continues there. *)
      let rev_off = Hashtbl.create 16 in
      Array.iter
        (fun key -> Hashtbl.add rev_off (Hashtbl.find img.Rewrite.block_offset key) key)
        rkeys;
      (* Decode this region's slice of the blob — the proof is about what
         the blob actually holds, not the stream the rewrite intended. *)
      let bit_end =
        if rid + 1 < Array.length offsets then Some offsets.(rid + 1) else None
      in
      match
        Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
          ~bit_offset:offsets.(rid) ?bit_end ()
      with
      | exception (Bitio.Corrupt_stream _ | Failure _ | Invalid_argument _) ->
        blocks := !blocks + (nblocks * slots);
        fail ~rid ~slot:0
          ~site:(Printf.sprintf "region %d" rid)
          "stream does not decode; nothing to prove"
      | stream, _work ->
        for slot = 0 to slots - 1 do
          let base =
            sq.Rewrite.buffer_base + (4 * sq.Rewrite.buffer_words * slot)
          in
          (* Materialise exactly as Runtime.decompress would for this
             slot, but into a symbolic buffer, and catch what would be a
             runtime crash: a rebiased displacement that no longer fits
             its 21-bit field. *)
          let buf = Array.make (max bw 1) Instr.Nop in
          let pos = ref 0 in
          let overflow = ref None in
          let put ins =
            (match Instr.encode ins with
            | (_ : Word.t) -> ()
            | exception Instr.Encode_error (msg, _) ->
              if !overflow = None then overflow := Some (msg, ins));
            if !pos < bw then buf.(!pos) <- ins;
            incr pos
          in
          let pc_rel_to target = (target - (base + (4 * (!pos + 1)))) asr 2 in
          let delta =
            (sq.Rewrite.buffer_words * slot)
            + (match fault with Some (Rebias_delta k) when slot > 0 -> k | _ -> 0)
          in
          let rebias disp =
            let target0 = sq.Rewrite.buffer_base + (4 * (!pos + 1)) + (4 * disp) in
            if target0 >= sq.Rewrite.buffer_base then disp else disp - delta
          in
          List.iter
            (fun ins ->
              match ins with
              | Instr.Bsrx { ra; disp } ->
                put
                  (Instr.Bsr
                     { ra; disp = pc_rel_to (Rewrite.create_stub_entry sq ra) });
                put (Instr.Br { ra = Reg.zero; disp = rebias disp })
              | Instr.Jsr { ra; rb; hint = 1 } ->
                put
                  (Instr.Bsr
                     { ra; disp = pc_rel_to (Rewrite.create_stub_entry sq ra) });
                put (Instr.Jmp { ra = Reg.zero; rb; hint = 0 })
              | Instr.Br { ra; disp } -> put (Instr.Br { ra; disp = rebias disp })
              | Instr.Cbr { op; ra; disp } ->
                put (Instr.Cbr { op; ra; disp = rebias disp })
              | Instr.Bsr { ra; disp } -> put (Instr.Bsr { ra; disp = rebias disp })
              | ins -> put ins)
            stream;
          blocks := !blocks + nblocks;
          if !pos <> bw then
            fail ~rid ~slot
              ~site:(Printf.sprintf "region %d" rid)
              "decoded stream materialises %d words, the image declares %d" !pos
              bw
          else if !overflow <> None then begin
            match !overflow with
            | Some (msg, ins) ->
              fail ~rid ~slot
                ~site:(Printf.sprintf "region %d" rid)
                "materialisation would crash re-encoding %a at slot %d: %s"
                Instr.pp ins slot msg
            | None -> assert false
          end
          else
            (* Per-block symbolic execution and matching. *)
            let addr_at p disp = base + (4 * (p + 1)) + (4 * disp) in
            let resolve a =
              if a >= base && a < base + (4 * bw) then
                let w = (a - base) / 4 in
                match Hashtbl.find_all rev_off w with
                | [] -> `Interior w
                | keys -> `Blocks keys
              else `Text a
            in
            let pp_target ppf = function
              | `Blocks keys ->
                List.iter (fun (f, i) -> Format.fprintf ppf "%s.b%d " f i) keys;
                Format.fprintf ppf "(in buffer)"
              | `Interior w -> Format.fprintf ppf "buffer interior word %d" w
              | `Text a -> Format.fprintf ppf "0x%x" a
            in
            let target_matches t key =
              match t with
              | `Blocks keys -> List.mem key keys
              | `Interior _ -> false
              | `Text a -> Hashtbl.find_opt block_tbl key = Some a
            in
            for idx = 0 to nblocks - 1 do
              let ((fname, bi) as key) = rkeys.(idx) in
              let site = Printf.sprintf "%s.b%d" fname bi in
              let bfail fmt = fail ~rid ~slot ~site fmt in
              let off = Hashtbl.find img.Rewrite.block_offset key in
              let off_next =
                if idx + 1 < nblocks then
                  Hashtbl.find img.Rewrite.block_offset rkeys.(idx + 1)
                else bw
              in
              let b = (Hashtbl.find func_of fname).Prog.Func.blocks.(bi) in
              match Equiv.run_block ~fname b with
              | Error msg -> bfail "original side: %s" msg
              | Ok (orig, oexit) -> (
                let st = Equiv.init_state () in
                (* Walk the materialised words of this block's span. *)
                let rec walk p =
                  if p >= off_next then Ok RFall
                  else
                    match buf.(p) with
                    | Instr.Br { ra; disp } when ra = Reg.zero ->
                      if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a br at word %d" p)
                      else Ok (RGoto (addr_at p disp))
                    | Instr.Cbr { op; ra; disp } ->
                      let taken = addr_at p disp in
                      let v = Equiv.reg st ra in
                      if p + 1 = off_next then Ok (RBranch (op, v, taken, None))
                      else (
                        match buf.(p + 1) with
                        | Instr.Br { ra = z; disp = d2 }
                          when z = Reg.zero && p + 2 = off_next ->
                          Ok (RBranch (op, v, taken, Some (addr_at (p + 1) d2)))
                        | _ ->
                          Error
                            (Printf.sprintf
                               "cbr at word %d is not last and not followed by \
                                a single br"
                               p))
                    | Instr.Bsr { ra; disp } ->
                      let t = addr_at p disp in
                      if t = Rewrite.create_stub_entry sq ra then
                        if p + 2 <> off_next then
                          Error
                            (Printf.sprintf
                               "CreateStub bsr at word %d does not end the \
                                block with its transfer word"
                               p)
                        else (
                          match buf.(p + 1) with
                          | Instr.Br { ra = z; disp = d2 } when z = Reg.zero ->
                            Ok
                              (RCall_stub
                                 { ra; target = addr_at (p + 1) d2; resume = p + 2 })
                          | Instr.Jmp { ra = z; rb; hint = _ } when z = Reg.zero ->
                            Ok
                              (RCalli_stub
                                 { ra; rb; target = Equiv.reg st rb; resume = p + 2 })
                          | ins ->
                            Error
                              (Format.asprintf
                                 "CreateStub bsr followed by %a, not a br/jmp"
                                 Instr.pp ins))
                      else if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a bsr at word %d" p)
                      else Ok (RCall { ra; target = t; resume = p + 1 })
                    | Instr.Jmp { ra; rb; hint = _ } when ra = Reg.zero ->
                      if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a jmp at word %d" p)
                      else Ok (RJump (Equiv.reg st rb))
                    | Instr.Ret { ra; rb; hint = _ } when ra = Reg.zero ->
                      if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a ret at word %d" p)
                      else Ok (RRet (Equiv.reg st rb))
                    | ( Instr.Br _ | Instr.Jmp _ | Instr.Ret _ | Instr.Jsr _
                      | Instr.Bsrx _ | Instr.Sentinel ) as ins ->
                      Error
                        (Format.asprintf "unexpected %a in the materialised buffer"
                           Instr.pp ins)
                    | ins -> (
                      match Equiv.step st ins with
                      | Ok () -> walk (p + 1)
                      | Error msg -> Error msg)
                in
                match walk off with
                | Error msg -> bfail "rewritten side: %s" msg
                | Ok rexit -> (
                  (* A setjmp inside a region would capture a buffer pc
                     that a later re-materialisation invalidates; the
                     exclude pass keeps it out, the prover enforces it. *)
                  let setjmp_inside =
                    List.exists
                      (function
                        | Equiv.Syscall (c, _) -> c = setjmp_code
                        | Equiv.Store _ -> false)
                      (Equiv.effects orig)
                  in
                  let next_is d =
                    idx + 1 < nblocks && rkeys.(idx + 1) = (fname, d)
                  in
                  let continuation_ok resume return_to =
                    resume = off_next && next_is return_to
                  in
                  let mismatch () =
                    bfail
                      "exit diverges at slot %d:@,  original:  %a@,  rewritten: %a"
                      slot Equiv.pp_exit oexit pp_rexit rexit
                  in
                  let exit_ok =
                    match (oexit, rexit) with
                    | Equiv.Goto d, RFall ->
                      if next_is d then true
                      else begin
                        bfail
                          "goto .%d was absorbed but the next buffer block is \
                           not .%d"
                          d d;
                        false
                      end
                    | Equiv.Goto d, RGoto a ->
                      if target_matches (resolve a) (fname, d) then true
                      else begin
                        bfail "goto .%d lands on %a at slot %d" d pp_target
                          (resolve a) slot;
                        false
                      end
                    | ( Equiv.Branch (c, v, taken, fl),
                        RBranch (c', v', taken_a, fall_a) ) ->
                      let fall_ok =
                        match fall_a with
                        | None -> next_is fl
                        | Some a -> target_matches (resolve a) (fname, fl)
                      in
                      if c <> c' || not (Equiv.equal_value oracle v v') then begin
                        mismatch ();
                        false
                      end
                      else if not (target_matches (resolve taken_a) (fname, taken))
                      then begin
                        bfail "taken edge .%d lands on %a at slot %d" taken
                          pp_target (resolve taken_a) slot;
                        false
                      end
                      else if not fall_ok then begin
                        bfail "fallthrough edge .%d diverges at slot %d" fl slot;
                        false
                      end
                      else true
                    | ( Equiv.Call { ra; callee; return_to },
                        (RCall { ra = ra'; target; resume } |
                         RCall_stub { ra = ra'; target; resume }) ) ->
                      let through_stub =
                        match rexit with RCall_stub _ -> true | _ -> false
                      in
                      if not (Reg.equal ra ra') then begin
                        mismatch ();
                        false
                      end
                      else if not (target_matches (resolve target) (callee, 0))
                      then begin
                        bfail "call to %s lands on %a at slot %d" callee pp_target
                          (resolve target) slot;
                        false
                      end
                      else if not (continuation_ok resume return_to) then begin
                        bfail
                          "call to %s resumes at buffer word %d, not at \
                           .%d's first word"
                          callee resume return_to;
                        false
                      end
                      else begin
                        (* A raw (stub-less) return address into the buffer
                           relies on the callee keeping this region
                           resident — the buffer-safety contract
                           Verify's unsafe-call lint enforces. *)
                        if not through_stub then incr conservative;
                        true
                      end
                    | ( Equiv.Call_ind { ra; target = v; return_to },
                        RCalli_stub { ra = ra'; rb; target = v'; resume } ) ->
                      if not (Reg.equal ra ra') then begin
                        mismatch ();
                        false
                      end
                      else if Reg.equal ra rb then begin
                        bfail
                          "indirect call target register %s is the link \
                           register CreateStub clobbers"
                          (Reg.name rb);
                        false
                      end
                      else if not (Equiv.equal_value oracle v v') then begin
                        mismatch ();
                        false
                      end
                      else if not (continuation_ok resume return_to) then begin
                        bfail "indirect call resumes at buffer word %d, not .%d"
                          resume return_to;
                        false
                      end
                      else begin
                        (* Target-set correspondence is assumed, not proved. *)
                        incr conservative;
                        true
                      end
                    | Equiv.Jump_tab { target = v; table = _ }, RJump v' ->
                      if Equiv.equal_value oracle v v' then begin
                        (* The dispatched table entries themselves are
                           Verify's dangling-transfer obligation. *)
                        incr conservative;
                        true
                      end
                      else begin
                        mismatch ();
                        false
                      end
                    | Equiv.Return v, RRet v' ->
                      if Equiv.equal_value oracle v v' then true
                      else begin
                        mismatch ();
                        false
                      end
                    | Equiv.Stop, RFall -> true
                    | _, _ ->
                      mismatch ();
                      false
                  in
                  if setjmp_inside then
                    bfail
                      "setjmp inside a compressed region captures a buffer pc \
                       that re-materialisation invalidates"
                  else if exit_ok then
                    match Equiv.compare_states oracle ~orig ~rew:st with
                    | Ok () -> incr proved
                    | Error msg -> bfail "state diverges at slot %d:@,%s" slot msg))
            done
        done)
    sq.Rewrite.regions.Regions.regions;
  {
    regions = Array.length sq.Rewrite.regions.Regions.regions;
    slots;
    blocks = !blocks;
    proved = !proved;
    stubs = !stubs;
    conservative = !conservative;
    failures = List.rev !failures;
  }

let failure_message f =
  let first =
    match String.index_opt f.reason '\n' with
    | None -> f.reason
    | Some i -> String.sub f.reason 0 i
  in
  Printf.sprintf "region %d slot %d @ %s: %s" f.rid f.slot f.site first

let render r =
  match r.failures with
  | [] ->
    Printf.sprintf
      "proved %d/%d block proofs across %d regions x %d slots (%d stub \
       obligations, %d conservative assumptions)"
      r.proved r.blocks r.regions r.slots r.stubs r.conservative
  | fs ->
    String.concat "\n"
      (List.map
         (fun f ->
           Printf.sprintf "UNPROVED region %d slot %d @ %s:\n%s" f.rid f.slot
             f.site f.reason)
         fs)

let report_json r =
  let open Report.Json in
  Obj
    [
      ("regions", Int r.regions);
      ("slots", Int r.slots);
      ("blocks", Int r.blocks);
      ("proved", Int r.proved);
      ("stubs", Int r.stubs);
      ("conservative", Int r.conservative);
      ( "failures",
        List
          (List.map
             (fun f ->
               Obj
                 [
                   ("region", Int f.rid);
                   ("slot", Int f.slot);
                   ("site", String f.site);
                   ("reason", String f.reason);
                 ])
             r.failures) );
    ]
