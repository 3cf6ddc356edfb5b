(* Host-clock benchmark entry point. One process, one thread, one workload
   per run:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --selftest

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1). See README.md. *)

let workloads = [ "compile-zoo"; "generate-small"; "serve-steady"; "serve-overload" ]

let run_workload name ~seed ~seconds ~traced ~reduced =
  match name with
  | "compile-zoo" -> Zoo.run ~seed ~seconds ~traced ~reduced
  | "generate-small" -> Generate.run ~seed ~seconds ~traced ~reduced
  | "serve-steady" -> Serving.run Serving.Steady ~seed ~seconds ~traced ~reduced
  | "serve-overload" -> Serving.run Serving.Overload ~seed ~seconds ~traced ~reduced
  | w -> invalid_arg ("unknown workload " ^ w)

(* Every per-layer metric, with its unit; a workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [ ("frontend.build_ms", "ms") ]
  @ List.map
      (fun s -> ("passes." ^ s ^ ".ms", "ms"))
      [ "normalize"; "dispatch-library"; "legalize"; "annotate"; "fuse"; "dce";
        "renormalize"; "lift-workspace"; "explicit-memory"; "memory-plan";
        "graph-capture"; "to-vm" ]
  @ [ ("passes.minor_mw", "Mwords"); ("passes.tir_funcs", "count");
      ("passes.vm_instrs", "count"); ("analysis.well_formed.ms", "ms");
      ("analysis.tir_safety.ms", "ms"); ("analysis.race.ms", "ms");
      ("analysis.fp.ms", "ms"); ("analysis.errors", "count");
      ("analysis.warnings", "count"); ("analysis.proof.ms", "ms");
      ("runtime.modeled.launches_per_step", "count");
      ("runtime.modeled.lib_calls_per_step", "count");
      ("runtime.modeled.replays_per_step", "count");
      ("runtime.prefill.dispatch_ms", "ms"); ("runtime.decode.dispatch_ms", "ms");
      ("runtime.decode.instrs_per_step", "count"); ("runtime.alloc_ms", "ms");
      ("runtime.allocs_per_step", "count"); ("runtime.alloc_reuse_ratio", "ratio");
      ("runtime.minor_words_per_token", "words"); ("runtime.major_gcs", "count");
      ("tir.prefill.kernel_ms", "ms"); ("tir.decode.kernel_ms", "ms");
      ("tir.kernel.matmul.ms", "ms"); ("tir.kernel.attention_prefill.ms", "ms");
      ("tir.kernel.attention_paged.ms", "ms"); ("tir.kernel.rope.ms", "ms");
      ("tir.kernel.norm.ms", "ms"); ("tir.kernel.other.ms", "ms");
      ("tir.prefill.gflop_s", "GFLOP/s"); ("tir.decode.gflop_s", "GFLOP/s");
      ("tir.decode.gb_s", "GB/s"); ("tir.cache.hits", "count");
      ("tir.cache.misses", "count"); ("tir.cache.hit_ratio", "ratio");
      ("tir.cache.compiled", "count"); ("tir.decode.misses_per_step", "count");
      ("tir.elided_share", "ratio"); ("serve.workload_gen_ms", "ms");
      ("serve.model_warm_ms", "ms"); ("serve.engine_ms", "ms");
      ("serve.host_us_per_step", "us"); ("serve.minor_words_per_step", "words");
      ("serve.decode_steps", "count"); ("serve.prefills", "count");
      ("serve.batch_mean", "count"); ("serve.waiting_peak", "count");
      ("serve.queue_wait_ms_p50", "ms"); ("serve.preemptions", "count");
      ("serve.prefix_hit_rate", "ratio"); ("serve.evictions", "count");
      ("serve.kv_bytes_per_token", "B"); ("dist.dispatch_ms", "ms");
      ("dist.replica_imbalance", "ratio"); ("bench.trace_overhead_frac", "ratio") ]

(* Layer self times must sum to the traced wall time within this share. *)
let self_time_tolerance = 0.01

let json_metric (m : Out.metric) =
  let v = if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null" in
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string m.name) v
    (Span.json_string m.unit_)

let print_table title (ms : Out.metric list) =
  Printf.printf "%s\n" title;
  List.iter (fun (m : Out.metric) -> Printf.printf "  %-36s %16.6g %s\n" m.name m.value m.unit_) ms

(* Traced runs write their Chrome trace here. *)
let out_dir = ".bench_out"

let main ~workload ~seed ~seconds ~traced =
  let r = run_workload workload ~seed ~seconds ~traced ~reduced:false in
  let heap = r.peak_heap_mb in
  let failed_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  let metrics, extra_failed =
    if not traced then begin
      print_table
        (Printf.sprintf "%s seed %d: end-to-end (untraced, host time)" workload seed)
        (Out.[ m "setup_s" "s" r.setup_raw_s; m "failed_frac" "ratio" failed_frac;
               m "peak_heap_mb" "MB" heap ]
        @ r.named);
      let json =
        Out.[ m "setup_s" "s" r.setup_s; m "peak_heap_mb" "MB" heap;
              m "op_ms_p50" "ms" r.op_ms_p50; m "work_per_s" "1/s" r.work_per_s ]
      in
      print_table
        "BENCHMARK.json metrics (times scaled to the reference host speed)"
        (json @ [ Out.m "host_speed" "ratio" r.speed ]);
      (json, 0)
    end
    else begin
      let layer =
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun (m : Out.metric) -> m.name = name) r.layer with
            | Some m -> m
            | None -> Out.m name unit_ 0.0)
          per_layer
      in
      print_table (Printf.sprintf "%s seed %d: per-layer (traced)" workload seed) r.layer;
      let self = Span.self_by_layer () in
      let wall = Span.sum_ms (fun s -> s.Span.parent = -1) in
      let total = Out.sum (List.map snd self) in
      Printf.printf "self time by layer (ms; traced wall %.3f ms)\n" wall;
      List.iter (fun (l, ms) -> Printf.printf "  %-12s %12.3f  %5.1f%%\n" l ms (100.0 *. ms /. wall)) self;
      let ok = Float.abs (total -. wall) <= self_time_tolerance *. wall in
      Printf.printf "  sum %.3f ms, %s the %.0f%% tolerance\n" total
        (if ok then "within" else "OUTSIDE") (100.0 *. self_time_tolerance);
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir ("trace-" ^ workload ^ ".json") in
      Span.write_chrome path;
      Printf.printf "chrome trace: %s (%d spans)\n" path (List.length (Span.spans ()));
      (layer, if ok then 0 else 1)
    end
  in
  (* A metric that could not be measured makes the run incorrect. *)
  let unmeasured =
    List.length (List.filter (fun (m : Out.metric) -> not (Float.is_finite m.value)) metrics)
  in
  let failed = r.failed + extra_failed + unmeasured in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) r.attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* Exact-repeat test: each workload twice at reduced size with one
   seed must give identical counts and modeled metrics; another seed
   must change the generated inputs. *)
let selftest () =
  let bad = ref 0 in
  List.iter
    (fun w ->
      let a = run_workload w ~seed:11 ~seconds:0.0 ~traced:false ~reduced:true in
      let b = run_workload w ~seed:11 ~seconds:0.0 ~traced:false ~reduced:true in
      let c = run_workload w ~seed:12 ~seconds:0.0 ~traced:false ~reduced:true in
      let check what ok =
        Printf.printf "%-16s %-34s %s\n%!" w what (if ok then "ok" else "FAIL");
        if not ok then incr bad
      in
      List.iter
        (fun (name, v) ->
          check (Printf.sprintf "%s = %g" name v) (List.assoc_opt name b.Out.exact = Some v))
        a.Out.exact;
      check "outputs correct" (a.failed = 0 && b.failed = 0 && c.failed = 0);
      check "another seed changes the inputs" (a.inputs <> c.inputs);
      check "same seed repeats the inputs" (a.inputs = b.inputs))
    workloads;
  if !bad > 0 then (Printf.printf "%d check(s) failed\n" !bad; exit 1)
  else print_endline "selftest ok"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20.0 and trace = ref 0
  and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--selftest", Arg.Set self, " run the exact-repeat test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else if !workload = "" then (prerr_endline "perfbench: --workload is required"; exit 2)
  else main ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
