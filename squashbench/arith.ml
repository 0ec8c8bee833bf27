let rank ~p n =
  if n < 1 then invalid_arg "Arith.rank: no samples";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Arith.rank: p outside [0, 1]";
  (* The epsilon keeps a product that should be whole, such as 0.55 *. 100.
     (which floating point computes as 55.00000000000001), on its own
     rank. *)
  let r = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let beyond ~p n = n - rank ~p n
let min_tail = 10
let tail_ok ~p n = beyond ~p n >= min_tail

let percentile ~p xs =
  let a = Array.of_list xs in
  if a = [||] then invalid_arg "Arith.percentile: no samples";
  Array.sort Float.compare a;
  a.(rank ~p (Array.length a) - 1)

let median xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Arith.median: no samples";
  Array.sort Float.compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ln Γ(x) for x > 0: Lanczos' approximation (g = 7, 9 terms), good to
   about 15 digits. *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
     -176.61502916214059; 12.507343278686905; -0.13857109526572012;
     9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x < 0.5 then log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. log_gamma (1.0 -. x)
  else
    let x = x -. 1.0 in
    let t = x +. 7.5 in
    let s = ref lanczos.(0) in
    for i = 1 to 8 do
      s := !s +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* The continued fraction of the incomplete beta function (modified
   Lentz), which converges fast for x < (a + 1) / (a + b + 2). *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let clamp d = if Float.abs d < tiny then tiny else d in
  let c = ref 1.0 and d = ref (1.0 /. clamp (1.0 -. ((a +. b) *. x /. (a +. 1.0)))) in
  let h = ref !d in
  let m = ref 1 and converged = ref false in
  while (not !converged) && !m <= 1000 do
    let fm = float_of_int !m in
    let step num =
      d := 1.0 /. clamp (1.0 +. (num *. !d));
      c := clamp (1.0 +. (num /. !c));
      !d *. !c
    in
    h := !h *. step (fm *. (b -. fm) *. x /. ((a +. (2.0 *. fm) -. 1.0) *. (a +. (2.0 *. fm))));
    let del =
      step
        (-.(a +. fm) *. (a +. b +. fm) *. x /. ((a +. (2.0 *. fm)) *. (a +. (2.0 *. fm) +. 1.0)))
    in
    h := !h *. del;
    if Float.abs (del -. 1.0) < 1e-15 then converged := true;
    incr m
  done;
  !h

let regularized_beta ~a ~b x =
  if not (a > 0.0 && b > 0.0) then invalid_arg "Arith.regularized_beta: a or b <= 0";
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1.0 -. x)))
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. beta_cf a b x /. a
    else 1.0 -. (front *. beta_cf b a (1.0 -. x) /. b)

let harrell_davis ~p xs =
  let s = Array.of_list xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Arith.harrell_davis: no samples";
  if not (p > 0.0 && p < 1.0) then invalid_arg "Arith.harrell_davis: p outside (0, 1)";
  Array.sort Float.compare s;
  let a = p *. float_of_int (n + 1) and b = (1.0 -. p) *. float_of_int (n + 1) in
  let cdf i = regularized_beta ~a ~b (float_of_int i /. float_of_int n) in
  let acc = ref 0.0 and prev = ref 0.0 in
  for i = 1 to n do
    let c = cdf i in
    acc := !acc +. ((c -. !prev) *. s.(i - 1));
    prev := c
  done;
  !acc

let geomean xs =
  if xs = [] then invalid_arg "Arith.geomean: no samples";
  let sum =
    List.fold_left
      (fun acc x ->
        if not (x > 0.0) then invalid_arg "Arith.geomean: non-positive sample";
        acc +. log x)
      0.0 xs
  in
  exp (sum /. float_of_int (List.length xs))

let runtime_overhead ~run_s ~icount ~vm_mips =
  if not (vm_mips > 0.0) then invalid_arg "Arith.runtime_overhead: vm_mips <= 0";
  run_s -. (float_of_int icount /. (vm_mips *. 1e6))
