type source = Exact | Sampled of { period : int; seed : int } | Derived of string

type entry = { mutable freq : int; mutable weight : int }

type t = {
  table : (string * int, entry) Hashtbl.t;
  mutable total : int;
  source : source;
}

let empty = { table = Hashtbl.create 1; total = 0; source = Exact }

let source t = t.source

let fresh ?(source = Exact) () = { table = Hashtbl.create 512; total = 0; source }

let entry_of t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e = { freq = 0; weight = 0 } in
    Hashtbl.replace t.table key e;
    e

let collect ?fuel (p : Prog.t) ~input =
  let img = Layout.emit p in
  let vm = Vm.of_image ?fuel ~profile:true img ~input in
  let outcome = Vm.run vm in
  let counts = Option.get (Vm.counts vm) in
  let t = fresh () in
  (* Weight: every executed word counts toward its owner block. *)
  Array.iteri
    (fun i owner ->
      match owner with
      | None -> ()
      | Some key ->
        if counts.(i) > 0 then begin
          let e = entry_of t key in
          e.weight <- e.weight + counts.(i);
          t.total <- t.total + counts.(i)
        end)
    img.Layout.owners;
  (* Frequency: executions of the block's first word. *)
  Hashtbl.iter
    (fun key addr ->
      let idx = (addr - img.Layout.text_base) / 4 in
      if idx >= 0 && idx < Array.length counts && counts.(idx) > 0 then
        (entry_of t key).freq <- counts.(idx))
    img.Layout.block_addr;
  (t, outcome)

let collect_sampled ?fuel ~period ~seed (p : Prog.t) ~input =
  let img = Layout.emit p in
  let vm = Vm.of_image ?fuel ~profile:true ~sampler:{ Vm.period; seed } img ~input in
  let outcome = Vm.run vm in
  let counts = Option.get (Vm.counts vm) in
  (* Words per block, so sampled weights can be turned back into an
     estimated entry frequency. *)
  let block_words = Hashtbl.create 512 in
  Array.iter
    (fun owner ->
      match owner with
      | None -> ()
      | Some key ->
        Hashtbl.replace block_words key
          (1 + Option.value ~default:0 (Hashtbl.find_opt block_words key)))
    img.Layout.owners;
  let t = fresh ~source:(Sampled { period; seed }) () in
  (* Estimated weight: each sampled hit stands for [period] dynamic
     instructions.  With period 1 the sampler fires on every instruction
     and this reproduces the exact profile. *)
  Array.iteri
    (fun i owner ->
      match owner with
      | None -> ()
      | Some key ->
        if counts.(i) > 0 then begin
          let w = counts.(i) * period in
          let e = entry_of t key in
          e.weight <- e.weight + w;
          t.total <- t.total + w
        end)
    img.Layout.owners;
  (* Estimated frequency: scaled-up samples of the block's first word — the
     same estimator [collect] uses, so period 1 reproduces it exactly.  When
     the first word was never sampled (sparse periods), fall back to the
     weight spread evenly over the block's words; a sampled block executed
     at least once. *)
  Hashtbl.iter
    (fun key addr ->
      let idx = (addr - img.Layout.text_base) / 4 in
      if idx >= 0 && idx < Array.length counts && counts.(idx) > 0 then
        (entry_of t key).freq <- counts.(idx) * period)
    img.Layout.block_addr;
  Hashtbl.iter
    (fun key (e : entry) ->
      if e.freq = 0 && e.weight > 0 then begin
        let size = max 1 (Option.value ~default:1 (Hashtbl.find_opt block_words key)) in
        e.freq <-
          max 1 (int_of_float (Float.round (float_of_int e.weight /. float_of_int size)))
      end)
    t.table;
  (t, outcome)

let freq t f b = match Hashtbl.find_opt t.table (f, b) with Some e -> e.freq | None -> 0

let weight t f b =
  match Hashtbl.find_opt t.table (f, b) with Some e -> e.weight | None -> 0

let total_weight t = t.total

let merge a b =
  let source =
    match (a.source, b.source) with Exact, Exact -> Exact | _ -> Derived "merge"
  in
  let t =
    {
      table = Hashtbl.create (Hashtbl.length a.table);
      total = a.total + b.total;
      source;
    }
  in
  let add src =
    Hashtbl.iter
      (fun key (e : entry) ->
        let dst = entry_of t key in
        dst.freq <- dst.freq + e.freq;
        dst.weight <- dst.weight + e.weight)
      src.table
  in
  add a;
  add b;
  t

let fold f t init =
  Hashtbl.fold (fun key (e : entry) acc -> f key ~freq:e.freq ~weight:e.weight acc)
    t.table init

let entries t =
  Hashtbl.fold (fun key (e : entry) acc -> (key, e.freq, e.weight) :: acc) t.table []
  |> List.sort compare

let check t (p : Prog.t) =
  let missing =
    List.filter_map
      (fun ((fname, b), _, _) ->
        match Prog.find_func p fname with
        | None ->
          Some (Printf.sprintf "profile names unknown function %s (block %d)" fname b)
        | Some f when b < 0 || b >= Array.length f.Prog.Func.blocks ->
          Some (Printf.sprintf "profile names missing block %s.%d" fname b)
        | Some _ -> None)
      (entries t)
  in
  if missing = [] then Ok () else Error missing

let of_entries ?(source = Exact) es =
  let t = fresh ~source () in
  List.iter
    (fun ((f, b), freq, weight) ->
      if freq < 0 || weight < 0 then
        invalid_arg
          (Printf.sprintf "Profile.of_entries: negative count for %s %d" f b);
      if Hashtbl.mem t.table (f, b) then
        invalid_arg (Printf.sprintf "Profile.of_entries: duplicate entry %s %d" f b);
      Hashtbl.replace t.table (f, b) { freq; weight };
      t.total <- t.total + weight)
    es;
  t

let source_line = function
  | Exact -> None
  | Sampled { period; seed } -> Some (Printf.sprintf "source sampled %d %d" period seed)
  | Derived what ->
    let what = String.map (fun c -> if c = '\n' then ' ' else c) what in
    Some (Printf.sprintf "source derived %s" what)

let to_string t =
  let buf = Buffer.create 4096 in
  (match source_line t.source with
  | None -> ()
  | Some l ->
    Buffer.add_string buf l;
    Buffer.add_char buf '\n');
  Buffer.add_string buf (Printf.sprintf "total %d\n" t.total);
  List.iter
    (fun ((f, b), freq, weight) ->
      Buffer.add_string buf (Printf.sprintf "%s %d %d %d\n" f b freq weight))
    (entries t);
  Buffer.contents buf

(* The parser is strict where the producer is deterministic: one optional
   [source] line, exactly one [total] line, no duplicate (func, block)
   entries, no negative counts, and the total must equal the entry-weight
   sum.  Errors carry 1-based line positions. *)
let of_string s =
  let t = { table = Hashtbl.create 512; total = 0; source = Exact } in
  let src = ref None in
  let saw_total = ref None in
  let weight_sum = ref 0 in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_source lineno rest =
    if !src <> None then err lineno "duplicate source line"
    else if !saw_total <> None || Hashtbl.length t.table > 0 then
      err lineno "source line must come first"
    else
      match rest with
      | [ "sampled"; p; sd ] -> (
        match (int_of_string_opt p, int_of_string_opt sd) with
        | Some p, Some sd when p >= 1 ->
          src := Some (Sampled { period = p; seed = sd });
          Ok ()
        | _ -> err lineno "bad sampled source parameters")
      | "derived" :: rest when rest <> [] ->
        src := Some (Derived (String.concat " " rest));
        Ok ()
      | _ -> err lineno "bad source line"
  in
  let parse_line lineno line =
    match String.split_on_char ' ' line with
    | "source" :: rest -> parse_source lineno rest
    | [ "total"; n ] -> (
      match (!saw_total, int_of_string_opt n) with
      | Some _, _ -> err lineno "duplicate total line"
      | None, Some n when n >= 0 ->
        saw_total := Some n;
        Ok ()
      | None, Some _ -> err lineno "negative total"
      | None, None -> err lineno (Printf.sprintf "bad total %S" n))
    | [ f; b; fr; w ] -> (
      match (int_of_string_opt b, int_of_string_opt fr, int_of_string_opt w) with
      | Some b, Some fr, Some w ->
        if fr < 0 || w < 0 then
          err lineno (Printf.sprintf "negative count for %s %d" f b)
        else if Hashtbl.mem t.table (f, b) then
          err lineno (Printf.sprintf "duplicate entry %s %d" f b)
        else begin
          Hashtbl.replace t.table (f, b) { freq = fr; weight = w };
          weight_sum := !weight_sum + w;
          Ok ()
        end
      | _ -> err lineno (Printf.sprintf "bad profile line %S" line))
    | _ -> err lineno (Printf.sprintf "bad profile line %S" line)
  in
  let lines = String.split_on_char '\n' s in
  let rec go lineno = function
    | [] -> (
      match !saw_total with
      | None -> Error "missing total line"
      | Some n when n <> !weight_sum ->
        Error
          (Printf.sprintf "total %d inconsistent with entry weight sum %d" n
             !weight_sum)
      | Some n ->
        Ok
          {
            t with
            total = n;
            source = Option.value ~default:Exact !src;
          })
    | "" :: rest -> go (lineno + 1) rest
    | line :: rest -> (
      match parse_line lineno line with
      | Ok () -> go (lineno + 1) rest
      | Error e -> Error e)
  in
  go 1 lines

let pp_summary ppf t =
  let blocks = Hashtbl.length t.table in
  let executed =
    Hashtbl.fold (fun _ e acc -> if e.freq > 0 then acc + 1 else acc) t.table 0
  in
  let provenance =
    match t.source with
    | Exact -> ""
    | Sampled { period; seed } ->
      Printf.sprintf " (sampled, period %d, seed %d)" period seed
    | Derived what -> Printf.sprintf " (derived: %s)" what
  in
  Format.fprintf ppf
    "profile: %d blocks recorded, %d executed, %d dynamic instructions%s" blocks
    executed t.total provenance
