type options = Pass.options = {
  theta : float;
  k_bytes : int;
  gamma : float;
  pack : bool;
  use_buffer_safe : bool;
  sharp_buffer_safe : bool;
  unswitch : bool;
  decomp_words : int;
  max_stubs : int;
  coder : Compress.backend;
  regions_strategy : Regions.strategy;
}

let default_options = Pass.default_options

type result = {
  squashed : Rewrite.t;
  cold : Cold.t;
  regions : Regions.t;
  buffer_safe : Buffer_safe.t;
  resolved_jumps : (string * int) list;
  unswitched : (string * int) list;
  excluded_funcs : string list;
  original_words : int;
  squashed_words : int;
  options : options;
}

let run ?(options = default_options) ?(setjmp_callers = []) ?(check = false) ?trace
    ?obs (p : Prog.t) prof =
  let state =
    Pipeline.execute ~check_each:check ?trace ?obs
      ~passes:(Pipeline.of_options options)
      (Pass.init ~options ~setjmp_callers p prof)
  in
  let squashed = Pass.get_squashed ~who:"Squash.run" state in
  if check then Pipeline.check_image squashed;
  {
    squashed;
    cold = Pass.get_cold ~who:"Squash.run" state;
    regions = Pass.get_regions ~who:"Squash.run" state;
    buffer_safe = Pass.get_buffer_safe ~who:"Squash.run" state;
    resolved_jumps = state.Pass.resolved_jumps;
    unswitched = state.Pass.unswitched;
    excluded_funcs = Pass.get_excluded ~who:"Squash.run" state;
    original_words = state.Pass.original_words;
    squashed_words = Rewrite.total_words squashed;
    options;
  }

let size_reduction r =
  if r.original_words = 0 then 0.0
  else float_of_int (r.original_words - r.squashed_words) /. float_of_int r.original_words

type size_breakdown = {
  never_compressed : int;
  entry_stubs : int;
  decompressor : int;
  offset_table : int;
  compressed_code : int;
  code_tables : int;
  stub_area : int;
  runtime_buffer : int;
}

let breakdown r =
  let sq = r.squashed in
  {
    never_compressed = Rewrite.never_compressed_words sq - sq.Rewrite.decomp_words;
    entry_stubs = sq.Rewrite.entry_stub_words;
    decompressor = sq.Rewrite.decomp_words;
    offset_table = Rewrite.offset_table_words sq;
    compressed_code = Rewrite.blob_words sq;
    code_tables = Rewrite.code_table_words sq;
    stub_area = sq.Rewrite.max_stubs * 4;
    runtime_buffer = sq.Rewrite.buffer_words;
  }

let compressed_instr_count r = Regions.compressed_instr_count r.squashed.Rewrite.prog r.regions

let gamma_achieved r =
  let sq = r.squashed in
  let compressed_words = Rewrite.blob_words sq + Rewrite.code_table_words sq in
  let original_region_words =
    Array.fold_left
      (fun acc (img : Rewrite.region_image) -> acc + List.length img.Rewrite.stream)
      0 sq.Rewrite.images
  in
  if original_region_words = 0 then 1.0
  else float_of_int compressed_words /. float_of_int original_region_words

let pp_summary ppf r =
  let b = breakdown r in
  Format.fprintf ppf
    "@[<v>squash θ=%g K=%d: %d -> %d words (%.1f%% smaller)@,\
    \  never-compressed %d (stubs %d)  decompressor %d  offset table %d@,\
    \  compressed code %d  code tables %d  stub area %d  buffer %d@,\
    \  regions %d  entries %d  γ(achieved) %.2f@]"
    r.options.theta r.options.k_bytes r.original_words r.squashed_words
    (100.0 *. size_reduction r)
    b.never_compressed b.entry_stubs b.decompressor b.offset_table b.compressed_code
    b.code_tables b.stub_area b.runtime_buffer
    (Array.length r.regions.Regions.regions)
    (Hashtbl.length r.regions.Regions.entries)
    (gamma_achieved r)
