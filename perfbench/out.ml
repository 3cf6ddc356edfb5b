(* Run results, statistics, host timing and host-speed calibration. *)

type metric = { name : string; unit_ : string; value : float }

(* What one workload run hands back to [Perfbench.main]. *)
type result = {
  attempted : int;
  failed : int;
  setup_raw_s : float;  (* median over the run's set-ups *)
  setup_s : float;  (* the same at the reference host speed *)
  op_ms_p50 : float;  (* the workload's unit operation, reference speed *)
  work_per_s : float;  (* reference speed *)
  speed : float;  (* median factor to the reference speed *)
  peak_heap_mb : float;  (* read before the output checks *)
  named : metric list;  (* the workload's own end-to-end metrics *)
  layer : metric list;  (* per-layer metrics, traced run only *)
  exact : (string * float) list;  (* must repeat exactly for one seed *)
  inputs : string;  (* digest of the generated inputs *)
}

let m name unit_ value = { name; unit_; value }

(* Nearest-rank percentile, p in [0, 100]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (k - 1)))

let median xs = percentile 50.0 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

let time_ns f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Int64.sub (Span.now_ns ()) t0)

let time_ms f =
  let v, ns = time_ns f in
  (v, Span.ms_of_ns ns)

let minor_words () = Gc.minor_words ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Host speed. The container's vCPUs share their cores with other
   tenants, and the allocation-heavy code measured here runs up to 50%
   slower, in phases of seconds, while a neighbour is busy: the minor
   heap stops fitting the shared L2. A fixed loop that streams the
   minor heap the same way is timed right before and after each timed
   operation, and the times in BENCHMARK.json are scaled to the
   reference speed at which that loop takes [ref_ms]. *)
let calib_loop () =
  let acc = ref 0 in
  for i = 0 to 100_000 do
    let l = List.init 8 (fun j -> i + j) in
    acc := !acc + List.fold_left ( + ) 0 (List.rev l)
  done;
  ignore (Sys.opaque_identity !acc)

let ref_ms = 6.0

(* Run [f]; also return the factor that scales its host time to the
   reference speed. *)
let at_ref_speed f =
  let before = snd (time_ms calib_loop) in
  let v = f () in
  let after = snd (time_ms calib_loop) in
  (v, 2.0 *. ref_ms /. (before +. after))

(* Run [setup] [n] times, keeping the last result; report the median
   duration in seconds, raw and at the reference speed. *)
let repeat_setup n setup =
  let rec go i raw scaled last =
    if i = n then (Option.get last, median raw, median scaled)
    else
      let (v, ms), speed = at_ref_speed (fun () -> time_ms setup) in
      go (i + 1) ((ms /. 1e3) :: raw) ((ms *. speed /. 1e3) :: scaled) (Some v)
  in
  go 0 [] [] None

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))
