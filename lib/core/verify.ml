type severity = Error | Warning

type kind = Dangling_transfer | Unsafe_call | Unresolved_indirect | Unreachable_code

type diag = {
  severity : severity;
  kind : kind;
  site : string;
  region : int option;
  addr : int option;
  message : string;
}

let kind_name = function
  | Dangling_transfer -> "dangling-transfer"
  | Unsafe_call -> "unsafe-call"
  | Unresolved_indirect -> "unresolved-indirect"
  | Unreachable_code -> "unreachable-code"

let severity_name = function Error -> "error" | Warning -> "warning"

let message d =
  Printf.sprintf "%s %s @ %s: %s" (severity_name d.severity) (kind_name d.kind)
    d.site d.message

let errors diags = List.filter (fun d -> d.severity = Error) diags

(* Block reachability as a forward {!Dataflow} client over a boolean
   lattice: the entry block starts [true] and reachability propagates
   along every CFG edge (indirect jumps through an unknown table reach
   every block, keeping the analysis conservative). *)
module Reach = Dataflow.Make (struct
  type t = bool

  let bottom = false
  let join = ( || )
  let equal = Bool.equal
end)

let reachable_blocks f =
  let r =
    Reach.solve ~direction:Dataflow.Forward ~init:true ~transfer:(fun _ fact -> fact) f
  in
  r.Reach.before

let run (sq : Rewrite.t) =
  let diags = ref [] in
  let diag ?region ?addr severity kind site fmt =
    Format.kasprintf
      (fun message -> diags := { severity; kind; site; region; addr; message } :: !diags)
      fmt
  in
  let p = sq.Rewrite.prog in
  let regions = sq.Rewrite.regions in
  let region_of key = Hashtbl.find_opt regions.Regions.region_of key in
  let is_entry fname i = Regions.is_entry regions fname i in
  let func_of = Hashtbl.create 64 in
  List.iter (fun (f : Prog.Func.t) -> Hashtbl.replace func_of f.name f) p.Prog.funcs;
  (* Which functions live entirely inside one region (mirrors the
     rewrite's plan: a call to such a callee stays a buffer-relative
     [bsr], so its target need not be an entry). *)
  let fully_in_tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      match region_of (f.name, 0) with
      | None -> ()
      | Some rid ->
        if
          Array.for_all Fun.id
            (Array.mapi (fun i _ -> region_of (f.name, i) = Some rid) f.blocks)
        then Hashtbl.replace fully_in_tbl f.name rid)
    p.Prog.funcs;
  let fully_in name = Hashtbl.find_opt fully_in_tbl name in

  (* --- no transfer into a removed region's interior ------------------ *)
  let check_target ~site ~same_rid (fname, d) =
    match region_of (fname, d) with
    | None -> ()
    | Some r ->
      if not (same_rid = Some r || is_entry fname d) then
        diag ~region:r Error Dangling_transfer site
          "targets the interior of removed region %d (%s block %d)" r fname d
  in
  List.iter
    (fun (f : Prog.Func.t) ->
      Array.iteri
        (fun i (b : Prog.Block.t) ->
          let site = Printf.sprintf "%s.b%d" f.name i in
          let rid = region_of (f.name, i) in
          List.iter
            (function
              | Prog.Load_addr (_, Prog.Func_addr g) ->
                (* A materialised code address is absolute: even within
                   the same region it must name a bound label. *)
                check_target ~site ~same_rid:None (g, 0)
              | Prog.Load_addr (_, Prog.Table_addr _) | Prog.Instr _ -> ())
            b.items;
          (match b.term with
          | Prog.Call { callee; _ } ->
            let same_rid =
              match (rid, fully_in callee) with
              | Some r, Some r' when r = r' -> Some r
              | _ -> None
            in
            check_target ~site ~same_rid (callee, 0)
          | Prog.Fallthrough _ | Prog.Jump _ | Prog.Branch _
          | Prog.Call_indirect _ | Prog.Jump_indirect _ | Prog.Return _
          | Prog.No_return ->
            ());
          List.iter
            (fun d -> check_target ~site ~same_rid:rid (f.name, d))
            (Prog.successors f i))
        f.blocks;
      Array.iteri
        (fun tid entries ->
          Array.iteri
            (fun k d ->
              check_target
                ~site:(Printf.sprintf "%s.table%d[%d]" f.name tid k)
                ~same_rid:None (f.name, d))
            entries)
        f.tables)
    p.Prog.funcs;

  (* --- unchanged calls in compressed code are buffer-safe ------------ *)
  let has_compressed fname =
    match Hashtbl.find_opt func_of fname with
    | None -> false
    | Some (f : Prog.Func.t) ->
      let any = ref false in
      Array.iteri
        (fun i _ -> if region_of (fname, i) <> None then any := true)
        f.blocks;
      !any
  in
  let bsafe = Buffer_safe.analyze_sharp p ~has_compressed in
  let addr_to_func = Hashtbl.create 64 in
  List.iter
    (fun (g, a) -> Hashtbl.replace addr_to_func a g)
    sq.Rewrite.func_entry_addrs;
  let buf_lo = sq.Rewrite.buffer_base in
  let buf_hi = sq.Rewrite.buffer_base + (4 * sq.Rewrite.buffer_words) in
  Array.iter
    (fun (img : Rewrite.region_image) ->
      let pos = ref 0 in
      List.iter
        (fun ins ->
          (match ins with
          | Instr.Bsr { disp; _ } ->
            let target = sq.Rewrite.buffer_base + (4 * (!pos + 1 + disp)) in
            if not (target >= buf_lo && target < buf_hi) then begin
              let site = Printf.sprintf "region %d @ %d" img.Rewrite.rid !pos in
              match Hashtbl.find_opt addr_to_func target with
              | None ->
                diag ~region:img.Rewrite.rid ~addr:target Error Unsafe_call site
                  "plain bsr targets 0x%x, which is not a function entry"
                  target
              | Some g ->
                if not (Buffer_safe.is_safe bsafe g) then
                  diag ~region:img.Rewrite.rid ~addr:target Error Unsafe_call
                    site
                    "unchanged call to %s, which is not buffer-safe under \
                     the sharpened analysis"
                    g
            end
          | _ -> ());
          (* The call markers each materialise as two buffer words. *)
          pos :=
            !pos
            + (match ins with Instr.Bsrx _ | Instr.Jsr { hint = 1; _ } -> 2 | _ -> 1))
        img.Rewrite.stream)
    sq.Rewrite.images;

  (* --- indirect calls with an empty candidate set -------------------- *)
  List.iter
    (fun (s : Consts.call_site) ->
      match s.Consts.resolution with
      | `Fallback [] ->
        diag Warning Unresolved_indirect
          (Printf.sprintf "%s.b%d" s.Consts.caller s.Consts.block)
          "indirect call with an empty candidate set: no function's address \
           is ever taken"
      | `Exact _ | `Fallback _ -> ())
    (Consts.indirect_call_sites p);

  (* --- dead surviving blocks ----------------------------------------- *)
  (* Function-level reachability over the callgraph with the resolved
     indirect edges, then block-level reachability inside each reachable
     function (the {!Dataflow} client above).  A surviving block — one
     the rewrite emitted into the text rather than a compressed stream —
     that no path reaches is dead weight the squash kept. *)
  let cg = Cfg.Callgraph.of_prog p in
  Consts.annotate_callgraph p cg;
  let reached_funcs = Hashtbl.create 64 in
  let rec visit g =
    if Hashtbl.mem func_of g && not (Hashtbl.mem reached_funcs g) then begin
      Hashtbl.add reached_funcs g ();
      List.iter visit (Cfg.Callgraph.callees cg g);
      List.iter visit (Cfg.Callgraph.indirect_callees cg g)
    end
  in
  visit p.Prog.entry;
  List.iter
    (fun (f : Prog.Func.t) ->
      let n = Array.length f.blocks in
      let emits i =
        let next = if i + 1 < n then Some (i + 1) else None in
        Prog.Block.size ~next f.blocks.(i) > 0
      in
      if not (Hashtbl.mem reached_funcs f.name) then begin
        if Array.exists Fun.id (Array.mapi (fun i _ -> emits i) f.blocks) then
          diag Warning Unreachable_code f.name
            "function is unreachable from %s over the resolved callgraph"
            p.Prog.entry
      end
      else
        let before = reachable_blocks f in
        Array.iteri
          (fun i _ ->
            if
              (not before.(i))
              && region_of (f.name, i) = None
              && emits i
            then
              diag Warning Unreachable_code
                (Printf.sprintf "%s.b%d" f.name i)
                "surviving block is unreachable within its function")
          f.blocks)
    p.Prog.funcs;

  List.rev !diags

let render diags =
  let t =
    Report.Table.create ~title:"lint diagnostics"
      [ ("severity", Report.Table.Left); ("kind", Report.Table.Left);
        ("site", Report.Table.Left); ("message", Report.Table.Left) ]
  in
  List.iter
    (fun d ->
      Report.Table.add_row t
        [ severity_name d.severity; kind_name d.kind; d.site; d.message ])
    diags;
  Report.Table.render t

let to_json diags =
  let open Report.Json in
  let opt_int = function None -> Null | Some v -> Int v in
  List
    (List.map
       (fun d ->
         Obj
           [ ("severity", String (severity_name d.severity));
             ("kind", String (kind_name d.kind)); ("site", String d.site);
             ("region", opt_int d.region); ("addr", opt_int d.addr);
             ("message", String d.message) ])
       diags)
