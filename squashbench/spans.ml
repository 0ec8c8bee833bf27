type span = {
  id : int;
  name : string;
  parent : int;
  cell : int;
  start : float;
  stop : float;
}

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let to_json s =
  Printf.sprintf
    {|{"id": %d, "name": %S, "parent": %d, "cell": %d, "start": %.9f, "end": %.9f}|}
    s.id s.name s.parent s.cell s.start s.stop
