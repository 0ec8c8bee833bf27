type t = {
  raw : unit -> float;
  kernel : unit -> unit;
  reference_s : float;
  mutable reading : float;  (** The clock at [last]. *)
  mutable last : float;  (** Raw time the current segment started. *)
  mutable batch : float;  (** Mean kernel time of the last batch. *)
  mutable rate : float;  (** Reference seconds per host second, last segment. *)
  mutable host : float;  (** Host seconds outside the kernel, up to [last]. *)
  mutable recent : float list;  (** Kernel durations, newest first. *)
}

let every = 0.1
let min_gap = 0.002
let max_batch = 20

(* Run the kernel [n] times; the mean duration. *)
let run_batch c n =
  let t0 = c.raw () in
  let prev = ref t0 in
  for _ = 1 to n do
    c.kernel ();
    let t = c.raw () in
    c.recent <- (t -. !prev) :: c.recent;
    prev := t
  done;
  (!prev -. t0) /. float_of_int n

let create ~raw ~kernel ~reference_s =
  if not (reference_s > 0.0) then invalid_arg "Refclock.create: reference_s <= 0";
  let c =
    { raw; kernel; reference_s; reading = 0.0; last = 0.0; batch = 0.0; rate = 1.0;
      host = 0.0; recent = [] }
  in
  kernel ();
  c.batch <- run_batch c 1;
  c.rate <- reference_s /. c.batch;
  c.last <- raw ();
  c

let now c =
  let t = c.raw () in
  let segment = t -. c.last in
  if segment >= min_gap then begin
    let n = max 1 (min max_batch (int_of_float (segment /. every))) in
    let before = c.batch in
    c.batch <- run_batch c n;
    c.rate <- c.reference_s /. ((before +. c.batch) /. 2.0);
    c.last <- c.raw ()
  end
  else c.last <- t;
  c.reading <- c.reading +. (segment *. c.rate);
  c.host <- c.host +. segment;
  c.reading

let samples c = List.rev c.recent
let host_seconds c = c.host

(* A cyclic permutation (Sattolo's algorithm, fixed LCG) of 4096 slots,
   32 KB: small enough to stay in the L1 and L2 caches, so the kernel's
   time depends on the core's speed and not on what the work before it
   left in the caches.  A sequential sweep, which the hardware prefetches,
   brings it back in first. *)
let chain_size = 4096

let chain =
  lazy
    (let a = Array.init chain_size Fun.id in
     let s = ref 12345 in
     for i = chain_size - 1 downto 1 do
       s := ((!s * 1103515245) + 12345) land 0x3fffffff;
       let j = !s mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let kernel_steps = 150_000

let kernel () =
  let a = Lazy.force chain in
  let h = ref 1 in
  for i = 0 to chain_size - 1 do
    h := !h + Array.unsafe_get a i
  done;
  let p = ref 0 in
  for _ = 1 to kernel_steps do
    p := Array.unsafe_get a !p;
    for k = 0 to 7 do
      if (!h + k) land 3 = 0 then h := (!h * 31) + !p else h := !h lxor (!h lsr 3) + k
    done;
    h := !h land 0xffffff
  done;
  ignore (Sys.opaque_identity !h)

let kernel_reference_s = 0.0022
