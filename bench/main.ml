(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).  Host-time performance is
   measured layer by layer by squashbench (squashbench/run.py), not here.

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- T1 F6         # selected experiments
     dune exec bench/main.exe -- --jobs N      # engine pool size (default:
                                               # $JOBS, then domain count)
     dune exec bench/main.exe -- --no-cache    # skip the _cache/ store    *)

let hr title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '#')
    (Printf.sprintf "## %s" title)
    (String.make 78 '#')

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref None and no_cache = ref false in
  let rec split_flags acc = function
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := Some j;
        split_flags acc rest
      | Some _ | None ->
        prerr_endline "--jobs requires a positive integer";
        exit 1)
    | "--jobs" :: [] ->
      prerr_endline "--jobs requires a positive integer";
      exit 1
    | "--no-cache" :: rest ->
      no_cache := true;
      split_flags acc rest
    | a :: rest -> split_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let ids = split_flags [] args in
  Exp_grid.set_jobs !jobs;
  let cache = if !no_cache then None else Some (Cache.create ()) in
  Exp_data.set_cache cache;
  Printf.printf "engine: %d jobs; cache: %s\n%!" (Exp_grid.jobs ())
    (match cache with None -> "disabled" | Some c -> Cache.dir c);
  let requested = match ids with _ :: _ -> ids | [] -> List.map fst Experiments.all in
  let t0 = Unix.gettimeofday () in
  let unknown = ref [] in
  List.iter
    (fun id ->
      match List.assoc_opt id Experiments.all with
      | Some f ->
        hr id;
        print_string (f ());
        Printf.printf "[%s done at %.1fs]\n%!" id (Unix.gettimeofday () -. t0)
      | None -> unknown := id :: !unknown)
    requested;
  Printf.printf "\ntotal time: %.1fs\n" (Unix.gettimeofday () -. t0);
  (match cache with
  | None -> ()
  | Some c -> print_endline (Cache.render_stats c));
  match List.rev !unknown with
  | [] -> ()
  | ids ->
    Printf.eprintf "unknown experiment%s: %s\nvalid ids: %s\n"
      (if List.length ids > 1 then "s" else "")
      (String.concat ", " ids)
      (String.concat " " (List.map fst Experiments.all));
    exit 1
