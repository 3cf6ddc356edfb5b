(* compile-zoo: build, compile (rtx4090 preset, upper-bound hints),
   lint and run one modeled decode step for every zoo module. No
   numeric kernel runs; all the host work is in frontend, passes and
   analysis. *)

open Frontend

let device = Runtime.Device.rtx4090

type entry = { label : string; build : unit -> Llm.built; decode : bool }

let modules =
  List.concat_map
    (fun (cfg : Configs.t) ->
      [ { label = cfg.name ^ " decode F16"; build = (fun () -> Llm.decode cfg ~batch:1 Llm.F16); decode = true };
        { label = cfg.name ^ " decode Q4"; build = (fun () -> Llm.decode cfg ~batch:1 Llm.Q4); decode = true };
        { label = cfg.name ^ " prefill F16"; build = (fun () -> Llm.prefill cfg Llm.F16); decode = false } ])
    Configs.[ llama3_8b; gemma_7b; qwen2_7b; phi3_mini; redpajama_3b ]
  @ [ { label = "Llama3-8B decode_symbolic_batch F16";
        build = (fun () -> Llm.decode_symbolic_batch Configs.llama3_8b Llm.F16);
        decode = true } ]

let options (b : Llm.built) =
  { Relax_passes.Pipeline.default_options with upper_bounds = Llm.upper_bound_hints b }

(* The seeded part of the workload: the module order of each pass. *)
let order st =
  let a = Array.of_list modules in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in a.(i) <- a.(j); a.(j) <- t
  done;
  Array.to_list a

let build e = Span.with_ ~layer:"frontend" "Llm.build" e.build

(* Compile by folding the pipeline one stage at a time, then
   [To_vm.compile], with a span and minor-word count per stage: the
   traced compile, and the reference of the first untraced pass. *)
let stage_acc : (string, float ref * float ref) Hashtbl.t = Hashtbl.create 16

let stage name f x =
  let w0 = Out.minor_words () in
  let t0 = Span.now_ns () in
  let y = Span.with_ ~layer:"passes" name (fun () -> f x) in
  let ms = Span.ms_of_ns (Int64.sub (Span.now_ns ()) t0) in
  (match Hashtbl.find_opt stage_acc name with
  | Some (t, w) -> t := !t +. ms; w := !w +. (Out.minor_words () -. w0)
  | None -> Hashtbl.add stage_acc name (ref ms, ref (Out.minor_words () -. w0)));
  y

let compile_by_stage b =
  let options = options b in
  let lowered =
    List.fold_left
      (fun m (s : Relax_passes.Pipeline.stage) -> stage s.stage_name s.run m)
      b.Llm.mod_
      (Relax_passes.Pipeline.stages ~options ~device)
  in
  stage "to-vm" Relax_passes.To_vm.compile lowered

let compile b =
  Relax_passes.Pipeline.compile ~options:(options b) ~device b.Llm.mod_

let analysis_acc : (string, float ref) Hashtbl.t = Hashtbl.create 8

let timed_analysis name f =
  let v, ms = Out.time_ms (fun () -> Span.with_ ~layer:"analysis" name f) in
  (match Hashtbl.find_opt analysis_acc name with
  | Some r -> r := !r +. ms
  | None -> Hashtbl.add analysis_acc name (ref ms));
  v

(* Traced lint: the analyses [Verify.check_module] runs, one at a time. *)
let lint_by_analysis bounds (m : Relax_core.Ir_module.t) =
  let wf = timed_analysis "well_formed" (fun () -> Relax_core.Well_formed.check_module m) in
  let per name check =
    timed_analysis name (fun () ->
        List.concat_map (fun (func, f) -> check ~func f) (Relax_core.Ir_module.tir_funcs m))
  in
  wf
  @ per "tir_safety" (fun ~func f -> Analysis.Tir_safety.check ~bounds ~func f)
  @ per "race" (fun ~func f -> Analysis.Race.check ~bounds ~func f)
  @ per "fp" (fun ~func f -> Analysis.Fp.check ~bounds ~opts:Analysis.Fp.default_opts ~func f)

let lint bounds m = Relax_passes.Verify.check_module ~bounds m

(* Two modeled steps at batch 1, ctx 1024; the second (steady state,
   graph captured) is the one reported. *)
let modeled_step (b : Llm.built) prog =
  Span.with_ ~layer:"runtime" "Vm.run timed" (fun () ->
      let vm = Runtime.Vm.create (`Timed device) prog in
      let batch = Option.map (fun _ -> 1) b.batch_var in
      let args = Llm.args_for b ~ctx:1024 ?batch ~mode:`Shadow () in
      ignore (Runtime.Vm.run vm b.entry args);
      let s = Runtime.Vm.stats vm in
      let us = s.elapsed_us and l = s.kernel_launches and lc = s.lib_calls
      and r = s.graph_replays in
      ignore (Runtime.Vm.run vm b.entry args);
      ( (s.elapsed_us -. us) /. 1e3,
        float_of_int (s.kernel_launches - l),
        float_of_int (s.lib_calls - lc),
        float_of_int (s.graph_replays - r) ))

type sample = {
  label : string;
  build_ms : float;
  compile_ms : float;
  lint_ms : float;
  errors : int;
  warnings : int;
  tir_funcs : int;
  vm_instrs : int;
  step : (float * float * float * float) option;  (* modeled ms, launches, lib calls, replays *)
  step_ms : float;  (* host time of the two modeled steps *)
  speed : float;  (* factor to the reference host speed *)
  ok : bool;
}

let vm_instrs (p : Runtime.Vm.program) =
  List.fold_left (fun n (_, (f : Runtime.Vm.vm_func)) -> n + Array.length f.instrs) 0 p.funcs

(* One module. [check]: also compile stage by stage and require the
   same program (outside the timed compile). *)
let one ~traced ~check (e : entry) =
  let b, build_ms = Out.time_ms (fun () -> build e) in
  let prog, compile_ms =
    Out.time_ms (fun () ->
        if traced then compile_by_stage b
        else Span.with_ ~layer:"passes" "Pipeline.compile" (fun () -> compile b))
  in
  let same =
    (not check)
    || Zoo_check.same_program prog
         (if traced then compile b else compile_by_stage b)
  in
  let bounds = (options b).upper_bounds in
  let diags, lint_ms =
    Out.time_ms (fun () ->
        if traced then lint_by_analysis bounds prog.mod_ else lint bounds prog.mod_)
  in
  let errors = List.length (Analysis.Diag.errors diags) in
  let step, step_ms =
    Out.time_ms (fun () -> if e.decode then Some (modeled_step b prog) else None)
  in
  { label = e.label; build_ms; compile_ms; lint_ms; errors;
    warnings = List.length diags - errors;
    tir_funcs = List.length (Relax_core.Ir_module.tir_funcs prog.mod_);
    vm_instrs = vm_instrs prog;
    step;
    step_ms;
    speed = 1.0;
    ok = same && errors = 0 }

let pass ~traced ~check st =
  List.map
    (fun e ->
      let s, speed = Out.at_ref_speed (fun () -> one ~traced ~check e) in
      { s with speed })
    (order st)

(* Set-up: build every module once, then compile and lint one as a
   warm-up. *)
let setup () =
  let built = List.map build modules in
  let b = List.nth built 0 in
  let prog = Span.with_ ~layer:"passes" "Pipeline.compile" (fun () -> compile b) in
  Span.with_ ~layer:"analysis" "Verify.check_module" (fun () ->
      ignore (lint (options b).upper_bounds prog.mod_))

let run ~seed ~seconds ~traced ~reduced : Out.result =
  let st = Random.State.make [| seed; 5 |] in
  let first_order = List.map (fun (e : entry) -> e.label) (order (Random.State.copy st)) in
  let base =
    if traced then List.map (fun s -> s.compile_ms) (pass ~traced:false ~check:false (Random.State.copy st))
    else []
  in
  let min_samples = if reduced then 1 else 100 in
  let elapsed_s t0 = Span.ms_of_ns (Int64.sub (Span.now_ns ()) t0) /. 1e3 in
  (* Whole passes: traced runs make two; measured runs go on until
     [seconds] have passed and the p90 has ten samples beyond it. The
     first measured pass also checks stage-by-stage compilation. *)
  let rec go t0 acc npass =
    let enough =
      if traced then npass = 2
      else List.length acc >= min_samples && (reduced || elapsed_s t0 >= seconds)
    in
    if enough then (List.rev acc, npass)
    else
      go t0
        (List.rev_append (pass ~traced ~check:((not traced) && npass = 0) st) acc)
        (npass + 1)
  in
  let (setup_raw_s, setup_s), (samples, npass) =
    Span.root ~enabled:traced "compile-zoo" (fun () ->
        let (), raw, scaled =
          Span.with_ ~layer:"bench" "setup" (fun () ->
              Out.repeat_setup (if reduced then 1 else 5) setup)
        in
        ((raw, scaled), go (Span.now_ns ()) [] 0))
  in
  let peak_heap_mb = Out.peak_heap_mb () in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  let compile = List.map (fun s -> s.compile_ms) samples in
  let steps = List.filter_map (fun s -> s.step) samples in
  let modeled = Out.geomean (List.map (fun (ms, _, _, _) -> ms) steps) in
  let first = List.filteri (fun i _ -> i < List.length modules) samples in
  let total f = float_of_int (List.fold_left (fun n s -> n + f s) 0 first) in
  let per_pass x = x /. float_of_int npass in
  let named =
    Out.
      [ m "compile_ms_p50" "ms" (percentile 50.0 compile);
        m "compile_ms_p90" "ms" (percentile 90.0 compile);
        m "lint_ms_p50" "ms" (percentile 50.0 (List.map (fun s -> s.lint_ms) samples));
        m "modeled_step_ms" "ms" modeled ]
  in
  let stage_ms name = match Hashtbl.find_opt stage_acc name with Some (t, _) -> per_pass !t | None -> 0.0 in
  let an name = match Hashtbl.find_opt analysis_acc name with Some r -> per_pass !r | None -> 0.0 in
  let mean_step f = Out.mean (List.map f steps) in
  let layer =
    if not traced then []
    else
      Out.m "frontend.build_ms" "ms" (per_pass (Out.sum (List.map (fun s -> s.build_ms) samples)))
      :: List.map
           (fun n -> Out.m ("passes." ^ n ^ ".ms") "ms" (stage_ms n))
           [ "normalize"; "dispatch-library"; "legalize"; "annotate"; "fuse"; "dce";
             "renormalize"; "lift-workspace"; "explicit-memory"; "memory-plan";
             "graph-capture"; "to-vm" ]
      @ Out.
          [ m "passes.minor_mw" "Mwords"
              (per_pass (Hashtbl.fold (fun _ (_, w) acc -> acc +. !w) stage_acc 0.0) /. 1e6);
            m "passes.tir_funcs" "count" (total (fun s -> s.tir_funcs));
            m "passes.vm_instrs" "count" (total (fun s -> s.vm_instrs));
            m "analysis.well_formed.ms" "ms" (an "well_formed");
            m "analysis.tir_safety.ms" "ms" (an "tir_safety");
            m "analysis.race.ms" "ms" (an "race");
            m "analysis.fp.ms" "ms" (an "fp");
            m "analysis.errors" "count" (total (fun s -> s.errors));
            m "analysis.warnings" "count" (total (fun s -> s.warnings));
            m "runtime.modeled.launches_per_step" "count" (mean_step (fun (_, l, _, _) -> l));
            m "runtime.modeled.lib_calls_per_step" "count" (mean_step (fun (_, _, l, _) -> l));
            m "runtime.modeled.replays_per_step" "count" (mean_step (fun (_, _, _, r) -> r));
            m "bench.trace_overhead_frac" "ratio" (median compile /. median base -. 1.0) ]
  in
  let work_ms s = s.build_ms +. s.compile_ms +. s.lint_ms +. s.step_ms in
  { attempted = List.length samples; failed; setup_raw_s; setup_s; peak_heap_mb;
    op_ms_p50 = Out.median (List.map (fun s -> s.compile_ms *. s.speed) samples);
    work_per_s =
      float_of_int (List.length samples)
      /. (Out.sum (List.map (fun s -> work_ms s *. s.speed) samples) /. 1e3);
    speed = Out.median (List.map (fun s -> s.speed) samples);
    named; layer;
    exact =
      [ ("passes.tir_funcs", total (fun s -> s.tir_funcs));
        ("passes.vm_instrs", total (fun s -> s.vm_instrs));
        ("analysis.warnings", total (fun s -> s.warnings));
        ("modeled_step_ms", modeled) ];
    inputs = Out.digest_of first_order }
