(* Golden simulated counters for all eleven workloads.

   Every figure the paper reports is a simulated count, so the interpreter
   must stay byte-identical however it is rewritten.  The table below was
   recorded before the fused-dispatch VM replaced the original one, and
   every later VM has to reproduce each row exactly:

   - the unsquashed program on its timing input, with exact per-word
     profiling on: output, exit code, icount, cycles and a digest of the
     [Vm.counts] array;
   - the profiling input under a period-64 sampler: sample hits and skips;
   - the program squashed at θ = 0.01 and run on its timing input with one
     and with four cache slots: output, exit code, icount, cycles, hook
     invocations, every scalar [Runtime.stats] field and a digest of the
     per-region arrays.

   On a mismatch the failure message prints the observed row in the same
   syntax as the table, so a deliberate change of the cost model can be
   re-recorded by pasting it in. *)

type run = {
  out : string;  (** Hex MD5 of the program output. *)
  exit_code : int;
  icount : int;
  cycles : int;
}

type squashed = {
  srun : run;
  hooks : int;
  stats : int list;
      (** decompressions, bits_decoded, model_steps, words_materialised,
          cache_hits, cache_evictions, stub_creates, stub_reuses,
          stub_frees, live_stubs, max_live_stubs. *)
  per_region : string;  (** Hex MD5 of per_region and per_region_cycles. *)
}

type row = {
  name : string;
  plain : run;
  counts : string;  (** Hex MD5 of the exact [Vm.counts] array. *)
  sample_hits : int;
  sample_skips : int;
  slots1 : squashed;
  slots4 : squashed;
}

let fuel = 400_000_000
let digest s = Digest.to_hex (Digest.string s)

let digest_ints arrs =
  let b = Buffer.create 4096 in
  List.iter
    (fun a ->
      Array.iter (fun n -> Buffer.add_string b (string_of_int n); Buffer.add_char b ',') a;
      Buffer.add_char b ';')
    arrs;
  digest (Buffer.contents b)

let of_outcome (o : Vm.outcome) =
  { out = digest o.Vm.output; exit_code = o.Vm.exit_code; icount = o.Vm.icount;
    cycles = o.Vm.cycles }

let observe (wl : Workload.t) =
  let p = fst (Squeeze.run (Workload.compile wl)) in
  let timing = Workload.timing_input wl and profiling = Workload.profiling_input wl in
  let img = Layout.emit p in
  let vm = Vm.of_image ~fuel ~profile:true img ~input:timing in
  let plain = of_outcome (Vm.run vm) in
  let counts = digest_ints [ Option.get (Vm.counts vm) ] in
  let svm =
    Vm.of_image ~fuel ~profile:true ~sampler:{ Vm.period = 64; seed = 9 } img
      ~input:profiling
  in
  ignore (Vm.run svm);
  let prof, _ = Profile.collect ~fuel p ~input:profiling in
  let r = Squash.run ~options:{ Squash.default_options with theta = 0.01 } p prof in
  let squashed slots =
    let o, s = Runtime.run ~fuel ~slots r.Squash.squashed ~input:timing in
    let open Runtime in
    { srun = of_outcome o;
      hooks = o.Vm.hook_invocations;
      stats =
        [ s.decompressions; s.bits_decoded; s.model_steps; s.words_materialised;
          s.cache_hits; s.cache_evictions; s.stub_creates; s.stub_reuses; s.stub_frees;
          s.live_stubs; s.max_live_stubs ];
      per_region = digest_ints [ s.per_region; s.per_region_cycles ] }
  in
  { name = wl.Workload.name; plain; counts; sample_hits = Vm.sample_hits svm;
    sample_skips = Vm.sample_skips svm; slots1 = squashed 1; slots4 = squashed 4 }

let pp_run ppf r =
  Format.fprintf ppf "{ out = %S; exit_code = %d; icount = %d; cycles = %d }" r.out
    r.exit_code r.icount r.cycles

let pp_squashed ppf s =
  Format.fprintf ppf "{ srun = %a;@ hooks = %d;@ stats = [ %s ];@ per_region = %S }"
    pp_run s.srun s.hooks
    (String.concat "; " (List.map string_of_int s.stats))
    s.per_region

let pp_row ppf r =
  Format.fprintf ppf
    "@[<hv 2>{ name = %S;@ plain = %a;@ counts = %S;@ sample_hits = %d;@ sample_skips = \
     %d;@ @[<hv 2>slots1 =@ %a@];@ @[<hv 2>slots4 =@ %a@] }@]"
    r.name pp_run r.plain r.counts r.sample_hits r.sample_skips pp_squashed r.slots1
    pp_squashed r.slots4

let expected =
  [
    { name = "adpcm";
      plain = { out = "184a03aabc573000e8f108f8a8eae4f1"; exit_code = 234; icount = 2630053; cycles = 4335658 };
      counts = "7b804c2422dc3e142a2e642032b900d0";
      sample_hits = 8974;
      sample_skips = 559724;
      slots1 =
        { srun = { out = "184a03aabc573000e8f108f8a8eae4f1"; exit_code = 234; icount = 2630812; cycles = 5327235 };
        hooks = 278;
        stats = [ 174; 139155; 57678; 11549; 20; 173; 84; 0; 84; 0; 3 ];
        per_region = "25819bd12bfd94652c94cd038d4cf584" };
      slots4 =
        { srun = { out = "184a03aabc573000e8f108f8a8eae4f1"; exit_code = 234; icount = 2630812; cycles = 4522919 };
        hooks = 278;
        stats = [ 38; 24766; 9806; 2123; 156; 34; 84; 0; 84; 0; 3 ];
        per_region = "3b2e62443fe979be00f7cb977434b110" } };
    { name = "epic";
      plain = { out = "becc4663a588dfdd4cedd244bcc941ce"; exit_code = 181; icount = 6895053; cycles = 15770911 };
      counts = "cfc2f73af37f1bdca60ba769e8bc4bb9";
      sample_hits = 29533;
      sample_skips = 1845230;
      slots1 =
        { srun = { out = "becc4663a588dfdd4cedd244bcc941ce"; exit_code = 181; icount = 6899572; cycles = 19546512 };
        hooks = 1919;
        stats = [ 506; 527336; 223212; 44276; 1159; 505; 254; 0; 254; 0; 4 ];
        per_region = "9843fa2755a7adafd0cc5e5b62fcdee2" };
      slots4 =
        { srun = { out = "becc4663a588dfdd4cedd244bcc941ce"; exit_code = 181; icount = 6899572; cycles = 16562128 };
        hooks = 1919;
        stats = [ 102; 101227; 41821; 8514; 1563; 98; 254; 0; 254; 0; 4 ];
        per_region = "662de9d403a6535fc11484cc5c350ab7" } };
    { name = "g721_dec";
      plain = { out = "239bee6920f8245960cc35dd7e0857d8"; exit_code = 28; icount = 3064135; cycles = 5214020 };
      counts = "919c19945011eb068f935c0b5fd4a9e9";
      sample_hits = 8132;
      sample_skips = 507238;
      slots1 =
        { srun = { out = "239bee6920f8245960cc35dd7e0857d8"; exit_code = 28; icount = 3068414; cycles = 7798487 };
        hooks = 2251;
        stats = [ 2101; 280160; 114365; 21110; 93; 2100; 57; 0; 57; 0; 3 ];
        per_region = "079ebbd48721f81ab89010612cdf44da" };
      slots4 =
        { srun = { out = "239bee6920f8245960cc35dd7e0857d8"; exit_code = 28; icount = 3068414; cycles = 5507859 };
        hooks = 2251;
        stats = [ 83; 25270; 10191; 2044; 2111; 79; 57; 0; 57; 0; 3 ];
        per_region = "14d59513b08276f1f5321837ab653b25" } };
    { name = "g721_enc";
      plain = { out = "7078475afaf18cd3b3d7dacba0e5f3cf"; exit_code = 163; icount = 3062662; cycles = 5458616 };
      counts = "0980eaf261f4322aaa82fa7837af88f3";
      sample_hits = 9229;
      sample_skips = 575436;
      slots1 =
        { srun = { out = "7078475afaf18cd3b3d7dacba0e5f3cf"; exit_code = 163; icount = 3063559; cycles = 7484229 };
        hooks = 648;
        stats = [ 413; 284991; 115143; 22628; 80; 412; 155; 0; 155; 0; 2 ];
        per_region = "e69607da532def6ef9567cb73bc3b8cd" };
      slots4 =
        { srun = { out = "7078475afaf18cd3b3d7dacba0e5f3cf"; exit_code = 163; icount = 3063559; cycles = 5599823 };
        hooks = 648;
        stats = [ 30; 16116; 6529; 1318; 463; 26; 155; 0; 155; 0; 2 ];
        per_region = "063d266c17c769802b1bd6736a20c602" } };
    { name = "gsm";
      plain = { out = "28cac7772487b3e110ba50b6d21c2fa2"; exit_code = 129; icount = 21125119; cycles = 34960350 };
      counts = "42f50780bb67a6f21f06eb0bd25211e0";
      sample_hits = 94729;
      sample_skips = 5920590;
      slots1 =
        { srun = { out = "28cac7772487b3e110ba50b6d21c2fa2"; exit_code = 129; icount = 21136273; cycles = 63611922 };
        hooks = 6208;
        stats = [ 4671; 4075412; 1707144; 317258; 760; 4670; 777; 0; 777; 0; 3 ];
        per_region = "aa073ec4804ca63916e5ccfb8f6dda9b" };
      slots4 =
        { srun = { out = "28cac7772487b3e110ba50b6d21c2fa2"; exit_code = 129; icount = 21136273; cycles = 38400916 };
        hooks = 6208;
        stats = [ 802; 448197; 173990; 36413; 4629; 798; 777; 0; 777; 0; 3 ];
        per_region = "0ed3a6d7a9a283b018a06c2ab45ee386" } };
    { name = "jpeg_dec";
      plain = { out = "7b6dc06dd9489baa8d26df8cce95f28a"; exit_code = 48; icount = 7393824; cycles = 14476309 };
      counts = "a56b72b96e39f8a58d575e10cd38cb18";
      sample_hits = 29180;
      sample_skips = 1822995;
      slots1 =
        { srun = { out = "7b6dc06dd9489baa8d26df8cce95f28a"; exit_code = 48; icount = 7398930; cycles = 22385329 };
        hooks = 4016;
        stats = [ 1341; 1113597; 440038; 92956; 2042; 1340; 633; 0; 633; 0; 4 ];
        per_region = "e9cfe517e044f4fbeac2dfc216a15e1f" };
      slots4 =
        { srun = { out = "7b6dc06dd9489baa8d26df8cce95f28a"; exit_code = 48; icount = 7398930; cycles = 16442645 };
        hooks = 4016;
        stats = [ 365; 250334; 108268; 21290; 3018; 361; 633; 0; 633; 0; 4 ];
        per_region = "5097a1ec512d8e13b5975f54ac631dda" } };
    { name = "jpeg_enc";
      plain = { out = "907f8d7064f30d4988789439c60909dd"; exit_code = 137; icount = 7206199; cycles = 14481219 };
      counts = "27707e4b46d7bd475559368db798c7d2";
      sample_hits = 28710;
      sample_skips = 1793630;
      slots1 =
        { srun = { out = "907f8d7064f30d4988789439c60909dd"; exit_code = 137; icount = 7209092; cycles = 18826416 };
        hooks = 1844;
        stats = [ 737; 613045; 246118; 50763; 531; 736; 576; 0; 576; 0; 4 ];
        per_region = "af0a502afe75081b0ab46d3d2b57aa18" };
      slots4 =
        { srun = { out = "907f8d7064f30d4988789439c60909dd"; exit_code = 137; icount = 7209092; cycles = 15058754 };
        hooks = 1844;
        stats = [ 96; 72176; 29038; 6000; 1172; 92; 576; 0; 576; 0; 4 ];
        per_region = "48e237a90579e04deaae90594af161c5" } };
    { name = "mpeg2dec";
      plain = { out = "06e56ae2649cc535acc10adcb8886708"; exit_code = 118; icount = 5594071; cycles = 11040487 };
      counts = "e86661637549f2fd876d536f67d8ca7e";
      sample_hits = 23713;
      sample_skips = 1481026;
      slots1 =
        { srun = { out = "06e56ae2649cc535acc10adcb8886708"; exit_code = 118; icount = 5597837; cycles = 19949685 };
        hooks = 2333;
        stats = [ 1382; 1260522; 523863; 104180; 374; 1381; 577; 0; 577; 0; 3 ];
        per_region = "8512703771231683d4f096d23f536d9b" };
      slots4 =
        { srun = { out = "06e56ae2649cc535acc10adcb8886708"; exit_code = 118; icount = 5597837; cycles = 11982713 };
        hooks = 2333;
        stats = [ 182; 119011; 49972; 9733; 1574; 178; 577; 0; 577; 0; 3 ];
        per_region = "226fa700f1e7e26038c3a52b72506b5e" } };
    { name = "mpeg2enc";
      plain = { out = "4b4f890e4e26cf6cfe2c334bd51e7941"; exit_code = 196; icount = 36407836; cycles = 71502514 };
      counts = "399496d68e2a9f772fefdf75d7d8e227";
      sample_hits = 125595;
      sample_skips = 7850157;
      slots1 =
        { srun = { out = "4b4f890e4e26cf6cfe2c334bd51e7941"; exit_code = 196; icount = 36455933; cycles = 116218867 };
        hooks = 27486;
        stats = [ 7049; 6274263; 2544065; 506840; 17039; 7048; 3398; 0; 3398; 0; 5 ];
        per_region = "792b08f3fcf27285fb80257855a3b438" };
      slots4 =
        { srun = { out = "4b4f890e4e26cf6cfe2c334bd51e7941"; exit_code = 196; icount = 36455933; cycles = 77505189 };
        hooks = 27486;
        stats = [ 946; 685159; 279802; 56150; 23142; 942; 3398; 0; 3398; 0; 5 ];
        per_region = "685cf07f101f26ac4bf0460437f4dedb" } };
    { name = "pgp";
      plain = { out = "e2327429d0556da409c3bdb143653a66"; exit_code = 156; icount = 4770391; cycles = 9725301 };
      counts = "2ddc79a3306e488dd5c96eb437755b58";
      sample_hits = 44910;
      sample_skips = 2806803;
      slots1 =
        { srun = { out = "e2327429d0556da409c3bdb143653a66"; exit_code = 156; icount = 4774178; cycles = 14439180 };
        hooks = 2480;
        stats = [ 763; 624691; 312214; 52984; 885; 762; 832; 0; 832; 0; 4 ];
        per_region = "6677dbe1053cbaefbf231696399c9b84" };
      slots4 =
        { srun = { out = "e2327429d0556da409c3bdb143653a66"; exit_code = 156; icount = 4774178; cycles = 10113342 };
        hooks = 2480;
        stats = [ 60; 40998; 17553; 3443; 1588; 56; 832; 0; 832; 0; 4 ];
        per_region = "dcf3dd8038be08ab5d5bd5588d11083b" } };
    { name = "rasta";
      plain = { out = "892c4a2e844c834908716f10080d150a"; exit_code = 169; icount = 3787405; cycles = 7097837 };
      counts = "383a4606a3ba8325a2d03df01b6ee006";
      sample_hits = 12404;
      sample_skips = 773873;
      slots1 =
        { srun = { out = "892c4a2e844c834908716f10080d150a"; exit_code = 169; icount = 3791737; cycles = 12989505 };
        hooks = 2935;
        stats = [ 1096; 821193; 335554; 67732; 926; 1095; 913; 0; 913; 0; 4 ];
        per_region = "ae41ceb3ccd68e318b57e0512048e524" };
      slots4 =
        { srun = { out = "892c4a2e844c834908716f10080d150a"; exit_code = 169; icount = 3791737; cycles = 7831583 };
        hooks = 2935;
        stats = [ 129; 86987; 36881; 7179; 1893; 125; 913; 0; 913; 0; 4 ];
        per_region = "daff6558b3613b65b8385970de665fad" } };
  ]

let case (e : row) =
  Alcotest.test_case e.name `Slow (fun () ->
      let wl =
        match Workloads.find e.name with
        | Some wl -> wl
        | None -> Alcotest.failf "no workload %s" e.name
      in
      let got = observe wl in
      if got <> e then Alcotest.failf "%s drifted; observed:@.%a" e.name pp_row got)

let suite =
  [ ( "vm-golden",
      Alcotest.test_case "covers every workload" `Quick (fun () ->
          Alcotest.(check (list string))
            "workloads" Workloads.names
            (List.map (fun (e : row) -> e.name) expected))
      :: List.map case expected ) ]
