(* relax_compile: command-line driver.

   Compile a model from the zoo for a target device, optionally dump
   the IR before/after lowering, and report the simulated decode
   latency and the compiled program's shape.

     dune exec bin/relax_compile.exe -- --model tiny --dump-ir
     dune exec bin/relax_compile.exe -- --model llama3-8b \
         --device "NVIDIA RTX 4090" --batch 1 --ctx 1024
     dune exec bin/relax_compile.exe -- --model llama3-8b --quant q4 \
         --device "Jetson Orin" --no-fusion
     dune exec bin/relax_compile.exe -- --serve --model llama3-8b \
         --batch 16 --rate 10 --requests 40
     dune exec bin/relax_compile.exe -- --model tiny --lint --verify-passes *)

let models =
  [ ("tiny", Frontend.Configs.tiny);
    ("tiny-q", Frontend.Configs.tiny_q);
    ("tiny-tp", Frontend.Configs.tiny_tp);
    ("llama3-8b", Frontend.Configs.llama3_8b);
    ("llama2-7b", Frontend.Configs.llama2_7b);
    ("gemma-7b", Frontend.Configs.gemma_7b);
    ("qwen2-7b", Frontend.Configs.qwen2_7b);
    ("phi3-mini", Frontend.Configs.phi3_mini);
    ("redpajama-3b", Frontend.Configs.redpajama_3b) ]

(* Invalid or contradictory command lines: short message + usage on
   stderr, exit 2 (runtime failures exit 1, success 0). *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "relax_compile: %s\n" msg;
      Printf.eprintf
        "usage: relax_compile [--model NAME] [--device NAME] [--batch N] \
         [--ctx N] [--quant f16|q4|q3]\n\
        \       [--dump-ir] [--no-fusion] [--no-library] [--no-planning] \
         [--no-capture] [--paged]\n\
        \       [--backend interp|imp] [--trace] [--profile] \
         [--lint] [--verify-passes] [--json] [--fp-budget ULPS]\n\
        \       [--tp N]\n\
        \       [--serve [--rate R] [--requests N] [--policy \
         continuous|static] [--seed N]\n\
        \                [--admission fcfs|deadline] [--deadline-ms MS] \
         [--retries N]\n\
        \                [--faults P] [--fault-seed N] [--kv-share]\n\
        \                [--replicas M] [--route \
         round-robin|least-loaded|power-of-two|prefix-affinity]\n\
        \                [--replica-faults P] [--hedge] [--heartbeat-ms MS] \
         [--no-failover]]\n";
      exit 2)
    fmt

(* --tp: time one tensor-parallel decode step instead of the single-
   device path. The model is sharded over N simulated GPUs (lib/dist);
   the report splits time per device and charges the ccl.* collectives
   from the device's interconnect link. *)
let run_tp cfg (device : Runtime.Device.t) ~batch ~ctx ~tp ~profile =
  let ctx = min ctx cfg.Frontend.Configs.max_context in
  let rep = Dist.Tp.step_report cfg ~batch ~tp ~ctx ~device () in
  if profile then begin
    let { Dist.Tp.sh; prog } = Dist.Tp.compile_decode cfg ~batch ~tp ~device in
    let built = sh.Frontend.Llm.sbuilt in
    let p = Runtime.Profiler.create () in
    let vm =
      Runtime.Vm.create ~trace:(Runtime.Profiler.sink p) (`Timed device) prog
    in
    let args = Frontend.Llm.args_for built ~ctx ~mode:`Shadow () in
    let steps = 3 in
    for _ = 1 to steps do
      ignore (Runtime.Vm.run vm built.Frontend.Llm.entry args)
    done;
    Printf.printf "=== tensor-parallel profile (%d steps) ===\n" steps;
    print_string (Runtime.Profiler.report p)
  end;
  let link = device.Runtime.Device.link in
  Printf.printf "model            %s (f16, batch %d, context %d)\n"
    cfg.Frontend.Configs.name batch ctx;
  Printf.printf "device           %d x %s\n" tp device.Runtime.Device.name;
  Printf.printf "interconnect     %s: %.0f GB/s, %.1f us latency (%s)\n"
    link.Runtime.Device.link_name link.Runtime.Device.link_bw_gbps
    link.Runtime.Device.link_latency_us
    (match link.Runtime.Device.topology with
    | Runtime.Device.Ring -> "ring"
    | Runtime.Device.Fully_connected -> "fully connected");
  print_endline (Dist.Tp.report_to_string rep);
  Printf.printf "speedup          %.2fx over one device serializing all \
                 shards\n"
    (rep.Dist.Tp.serial_us /. rep.Dist.Tp.parallel_us)

(* --serve: drive the continuous-batching serving engine (lib/serve)
   instead of timing a lone decode step. [batch] becomes the scheduler's
   max batch; the workload is a seeded Poisson stream sized to the
   model's max context. With --replicas M > 1 the stream is routed
   across M independent engine replicas (lib/dist). *)
let run_serve cfg (device : Runtime.Device.t) precision ~max_batch ~rate
    ~requests ~policy_name ~seed ~admission_name ~deadline_ms ~retries
    ~faults_p ~fault_seed ~kv_share ~replicas ~route ~replica_faults_p
    ~hedge ~heartbeat_ms ~no_failover ~trace ~profile =
  let policy =
    match policy_name with
    | "continuous" -> Serve.Scheduler.Continuous
    | "static" -> Serve.Scheduler.Static
    | other -> usage_error "unknown policy %s (continuous|static)" other
  in
  let admission =
    match admission_name with
    | "fcfs" -> Serve.Scheduler.Fcfs
    | "deadline" | "deadline-aware" -> Serve.Scheduler.Deadline_aware
    | other -> usage_error "unknown admission %s (fcfs|deadline)" other
  in
  let mmax = cfg.Frontend.Configs.max_context in
  let workload =
    if kv_share then
      (* Prefix sharing needs requests with explicit token ids and
         overlapping prompts, so --kv-share swaps the plain Poisson
         stream for multi-turn chat sessions over one shared system
         prompt ([rate] becomes the session arrival rate; [requests]
         is split into ~4-turn sessions). *)
      Serve.Workload.multi_turn_chat ~seed ~rate_per_s:rate
        ~sessions:(max 1 ((requests + 3) / 4))
        ~turns:(min 4 requests) ~vocab:cfg.Frontend.Configs.vocab
        ~system_len:(max 4 (mmax / 8))
        ~max_total:mmax
        ~turn_user:(Serve.Workload.Uniform (max 1 (mmax / 32), max 2 (mmax / 16)))
        ~output:(Serve.Workload.Uniform (1, max 1 (mmax / 16)))
        ()
    else
      Serve.Workload.generate ~seed ~rate_per_s:rate ~num_requests:requests
        ~max_total:mmax
        ~prompt:(Serve.Workload.Uniform (max 1 (mmax / 8), max 2 (mmax / 4)))
        ~output:(Serve.Workload.Uniform (1, max 1 (mmax / 8)))
        ()
  in
  let workload =
    match deadline_ms with
    | Some ms -> Serve.Workload.with_deadline ~slack_us:(ms *. 1000.0) workload
    | None -> workload
  in
  let model = Serve.Scheduler.model ~cfg ~precision ~device in
  (* Same fault mix as the chaos benchmark: transient launch failures
     and stalls at the headline rate, allocation spikes at half of
     it, silent output corruption an order of magnitude rarer. *)
  let faults =
    if faults_p > 0.0 then
      Some
        { Runtime.Fault.disabled with
          Runtime.Fault.seed = fault_seed;
          kernel_fail_p = faults_p;
          stall_p = faults_p;
          oom_p = 0.5 *. faults_p;
          nan_p = 0.1 *. faults_p;
        }
    else None
  in
  let opts =
    { Serve.Scheduler.default_opts with
      Serve.Scheduler.policy;
      max_batch;
      admission;
      retry = { Serve.Scheduler.default_retry with max_attempts = retries };
      faults;
      kv_share;
    }
  in
  (* Replicated cluster: route the stream across M independent engine
     replicas and fold their metrics. --trace/--profile are
     single-engine affairs and were rejected up front. *)
  if replicas > 1 then begin
    (* Replica-scoped fault plan: crash and stall windows at the
       headline probability, router partitions at half of it, drawn
       from per-(replica, kind) streams off --fault-seed. *)
    let replica_faults =
      if replica_faults_p > 0.0 then begin
        let last_arrival =
          List.fold_left
            (fun acc (r : Serve.Workload.request) ->
              Float.max acc r.Serve.Workload.arrival_us)
            0.0 workload
        in
        Runtime.Fault.plan_replica_faults ~seed:fault_seed ~replicas
          ~horizon_us:(Float.max 1e6 (last_arrival *. 1.5))
          ~crash_p:replica_faults_p ~stall_p:replica_faults_p
          ~partition_p:(0.5 *. replica_faults_p) ()
      end
      else []
    in
    let copts =
      { Dist.Cluster.default_opts with
        Dist.Cluster.replicas;
        route;
        affinity_window = max 64 (mmax / 4);
        sched = opts;
        replica_faults;
        health =
          { Dist.Health.default_opts with
            Dist.Health.heartbeat_us = heartbeat_ms *. 1000.0;
          };
        health_aware = not no_failover;
        hedge;
      }
    in
    let r =
      try Dist.Cluster.run ~model copts workload with
      | Runtime.Fault.Error (cls, msg) ->
          Printf.eprintf "serving failed [%s]: %s\n"
            (Runtime.Fault.error_class_name cls)
            msg;
          exit 1
    in
    Printf.printf "model            %s (%s)\n" cfg.Frontend.Configs.name
      (match precision with
      | Frontend.Llm.F16 -> "f16"
      | Frontend.Llm.Q4 -> "q4"
      | Frontend.Llm.Q3 -> "q3");
    Printf.printf "device           %d x %s\n" replicas
      device.Runtime.Device.name;
    Printf.printf "policy           %s, max batch %d per replica\n"
      policy_name max_batch;
    Printf.printf "workload         %d requests at %.1f req/s (seed %d)\n"
      (List.length workload) rate seed;
    if copts.Dist.Cluster.replica_faults <> [] then
      Printf.printf
        "replica faults   %d windows (seed %d), %s routing%s, heartbeat \
         %.0f ms\n"
        (List.length copts.Dist.Cluster.replica_faults)
        fault_seed
        (if copts.Dist.Cluster.health_aware then "health-aware"
         else "health-blind")
        (if copts.Dist.Cluster.hedge then " + hedged decode" else "")
        heartbeat_ms;
    print_string (Dist.Cluster.to_string copts r);
    exit 0
  end;
  let recorder = if trace then Some (Runtime.Trace.recorder ()) else None in
  let profiler = if profile then Some (Runtime.Profiler.create ()) else None in
  let sink =
    match
      ( Option.map Runtime.Trace.sink recorder,
        Option.map Runtime.Profiler.sink profiler )
    with
    | Some r, Some p -> Some (Runtime.Trace.tee r p)
    | Some s, None | None, Some s -> Some s
    | None, None -> None
  in
  let r =
    try Serve.Scheduler.run ?trace:sink model opts workload with
    | Runtime.Fault.Error (cls, msg) ->
        Printf.eprintf "serving failed [%s]: %s\n"
          (Runtime.Fault.error_class_name cls)
          msg;
        exit 1
  in
  (match recorder with
  | Some rec_ ->
      print_endline "=== serving trace ===";
      List.iter
        (fun ev ->
          match ev with
          | Runtime.Trace.Serve _ ->
              print_endline (Runtime.Trace.to_string ev)
          | _ -> ())
        (Runtime.Trace.events rec_)
  | None -> ());
  (match profiler with
  | Some p ->
      print_endline "=== serving profile ===";
      print_string (Runtime.Profiler.report p)
  | None -> ());
  Printf.printf "model            %s (%s)\n" cfg.Frontend.Configs.name
    (match precision with
    | Frontend.Llm.F16 -> "f16"
    | Frontend.Llm.Q4 -> "q4"
    | Frontend.Llm.Q3 -> "q3");
  Printf.printf "device           %s\n" device.Runtime.Device.name;
  Printf.printf "policy           %s, max batch %d, block size %d tokens\n"
    policy_name max_batch opts.Serve.Scheduler.block_size;
  (match admission with
  | Serve.Scheduler.Deadline_aware ->
      Printf.printf "admission        deadline-aware%s, %d attempts/request\n"
        (match deadline_ms with
        | Some ms -> Printf.sprintf " (slack %.0f ms)" ms
        | None -> "")
        retries
  | Serve.Scheduler.Fcfs -> ());
  (match faults with
  | Some c ->
      Printf.printf
        "faults           seed %d: kernel %.3f, stall %.3f (x%.1f), oom \
         %.3f, nan %.3f\n"
        c.Runtime.Fault.seed c.Runtime.Fault.kernel_fail_p
        c.Runtime.Fault.stall_p c.Runtime.Fault.stall_factor
        c.Runtime.Fault.oom_p c.Runtime.Fault.nan_p
  | None -> ());
  if kv_share then
    Printf.printf
      "workload         %d chat requests, sessions at %.1f/s (seed %d), \
       shared system prompt\n"
      (List.length workload) rate seed
  else
    Printf.printf "workload         %d requests at %.1f req/s (seed %d)\n"
      requests rate seed;
  Printf.printf "KV blocks        %d x %d bytes\n"
    (Serve.Block_manager.total_blocks r.Serve.Scheduler.blocks)
    (Serve.Block_manager.block_bytes r.Serve.Scheduler.blocks);
  print_string (Serve.Metrics.to_string r.Serve.Scheduler.summary)

let run model_name device_name batch ctx quant backend_name dump_ir no_fusion
    no_library no_planning no_capture paged trace profile lint verify_passes
    json fp_budget serve rate requests policy seed admission deadline_ms
    retries faults
    fault_seed kv_share tp replicas route_name replica_faults hedge
    heartbeat_ms no_failover =
  let cfg =
    match List.assoc_opt model_name models with
    | Some cfg -> cfg
    | None ->
        usage_error "unknown model %s; available: %s" model_name
          (String.concat ", " (List.map fst models))
  in
  let device =
    match Runtime.Device.find device_name with
    | Some d -> d
    | None ->
        usage_error "unknown device %s; available: %s" device_name
          (String.concat ", "
             (List.map
                (fun (d : Runtime.Device.t) -> d.Runtime.Device.name)
                Runtime.Device.all_presets))
  in
  let precision =
    match quant with
    | "f16" -> Frontend.Llm.F16
    | "q4" -> Frontend.Llm.Q4
    | "q3" -> Frontend.Llm.Q3
    | other -> usage_error "unknown precision %s (f16|q4|q3)" other
  in
  let backend =
    match backend_name with
    | None -> Tir.Exec.default
    | Some name -> (
        match Tir.Exec.backend_of_string name with
        | Some b -> b
        | None ->
            usage_error "unknown backend %s (interp|imp)" name)
  in
  if batch < 1 then usage_error "--batch must be >= 1 (got %d)" batch;
  if ctx < 1 then usage_error "--ctx must be >= 1 (got %d)" ctx;
  (* Serving knobs are meaningless on the compile-and-time path:
     reject them instead of silently ignoring them. *)
  if not serve then begin
    let requires name present =
      if present then usage_error "--%s requires --serve" name
    in
    requires "rate" (rate <> None);
    requires "requests" (requests <> None);
    requires "policy" (policy <> None);
    requires "seed" (seed <> None);
    requires "admission" (admission <> None);
    requires "deadline-ms" (deadline_ms <> None);
    requires "retries" (retries <> None);
    requires "faults" (faults <> None);
    requires "fault-seed" (fault_seed <> None);
    requires "kv-share" kv_share;
    requires "replicas" (replicas <> None);
    requires "route" (route_name <> None);
    requires "replica-faults" (replica_faults <> None);
    requires "hedge" hedge;
    requires "heartbeat-ms" (heartbeat_ms <> None);
    requires "no-failover" no_failover
  end
  else if backend_name <> None then
    (* Serving builds its VMs internally on the default backend; a
       selector that silently did nothing would be misleading. *)
    usage_error "--backend cannot be combined with --serve";
  if json && not (lint || verify_passes) then
    usage_error "--json requires --lint or --verify-passes";
  (* nan fails no range check below (every comparison with it is
     false), and a nan or infinite arrival rate never advances the
     serving clock: every float flag must be finite. *)
  List.iter
    (fun (flag, v) ->
      match v with
      | Some x when not (Float.is_finite x) ->
          usage_error "--%s must be a finite number (got %g)" flag x
      | _ -> ())
    [ ("fp-budget", fp_budget); ("rate", rate); ("deadline-ms", deadline_ms);
      ("faults", faults); ("replica-faults", replica_faults);
      ("heartbeat-ms", heartbeat_ms) ];
  (match fp_budget with
  | None -> ()
  | Some b ->
      if not (lint || verify_passes) then
        usage_error "--fp-budget requires --lint or --verify-passes";
      if b <= 0.0 then
        usage_error "--fp-budget must be a positive ulp count (got %g)" b);
  (* --tp: tensor-parallel step timing, its own path. *)
  (match tp with
  | Some tp ->
      if tp < 1 then usage_error "--tp must be >= 1 (got %d)" tp;
      if serve then
        usage_error
          "--tp cannot be combined with --serve (replication across engines \
           is --replicas)";
      if precision <> Frontend.Llm.F16 then
        usage_error "--tp requires f16 (sharded builders are f16-only)";
      if not (Frontend.Llm.tp_supported cfg ~tp) then
        usage_error
          "%s does not shard at tp=%d (heads, kv_heads, inter, vocab and \
           hidden must all be divisible by tp; qkv biases unsupported)"
          cfg.Frontend.Configs.name tp;
      List.iter
        (fun (flag, on) ->
          if on then usage_error "--%s cannot be combined with --tp" flag)
        [ ("dump-ir", dump_ir); ("lint", lint); ("verify-passes", verify_passes);
          ("paged", paged); ("trace", trace);
          ("backend", backend_name <> None) ];
      run_tp cfg device ~batch ~ctx ~tp ~profile;
      exit 0
  | None -> ());
  let replicas_n = Option.value replicas ~default:1 in
  if replicas_n < 1 then
    usage_error "--replicas must be >= 1 (got %d)" replicas_n;
  let route =
    match route_name with
    | None -> Dist.Cluster.Round_robin
    | Some name -> (
        if replicas = None then usage_error "--route requires --replicas";
        match Dist.Cluster.route_of_string name with
        | Some r -> r
        | None ->
            usage_error
              "unknown route %s \
               (round-robin|least-loaded|power-of-two|prefix-affinity)"
              name)
  in
  if replicas_n > 1 && (trace || profile) then
    usage_error "--trace/--profile cannot be combined with --replicas";
  (* Cluster fault-tolerance knobs only mean something with more than
     one replica to fail over between. *)
  List.iter
    (fun (flag, present) ->
      if present && replicas_n < 2 then
        usage_error "--%s requires --replicas >= 2" flag)
    [ ("replica-faults", replica_faults <> None); ("hedge", hedge);
      ("heartbeat-ms", heartbeat_ms <> None); ("no-failover", no_failover) ];
  let replica_faults_p = Option.value replica_faults ~default:0.0 in
  if replica_faults_p < 0.0 || replica_faults_p > 1.0 then
    usage_error "--replica-faults must be a probability in [0, 1] (got %g)"
      replica_faults_p;
  let heartbeat_ms = Option.value heartbeat_ms ~default:10.0 in
  if heartbeat_ms <= 0.0 then
    usage_error "--heartbeat-ms must be > 0 (got %g)" heartbeat_ms;
  if serve then begin
    if dump_ir then usage_error "--dump-ir cannot be combined with --serve";
    if lint || verify_passes then
      usage_error "--lint/--verify-passes cannot be combined with --serve";
    if paged then
      usage_error "--paged is implied by --serve (serving is always paged)";
    let rate = Option.value rate ~default:5.0 in
    let requests = Option.value requests ~default:20 in
    let policy_name = Option.value policy ~default:"continuous" in
    let seed = Option.value seed ~default:42 in
    let admission_name = Option.value admission ~default:"fcfs" in
    let retries = Option.value retries ~default:3 in
    let faults_p = Option.value faults ~default:0.0 in
    let fault_seed = Option.value fault_seed ~default:0 in
    if rate <= 0.0 then usage_error "--rate must be > 0 (got %g)" rate;
    if requests < 1 then
      usage_error "--requests must be >= 1 (got %d)" requests;
    if retries < 1 then usage_error "--retries must be >= 1 (got %d)" retries;
    if faults_p < 0.0 || faults_p > 1.0 then
      usage_error "--faults must be a probability in [0, 1] (got %g)" faults_p;
    (match deadline_ms with
    | Some ms when ms <= 0.0 ->
        usage_error "--deadline-ms must be > 0 (got %g)" ms
    | _ -> ());
    run_serve cfg device precision ~max_batch:batch ~rate ~requests
      ~policy_name ~seed ~admission_name ~deadline_ms ~retries ~faults_p
      ~fault_seed ~kv_share ~replicas:replicas_n ~route ~replica_faults_p
      ~hedge ~heartbeat_ms ~no_failover ~trace ~profile;
    exit 0
  end;
  (* Memory planning sizes storages for the model's declared maximum
     context; running past it would (correctly) fail the storage-fit
     check, so clamp the requested context instead. *)
  let ctx =
    if ctx > cfg.Frontend.Configs.max_context then begin
      Printf.eprintf "note: ctx %d exceeds %s's max context, clamping to %d\n"
        ctx cfg.Frontend.Configs.name cfg.Frontend.Configs.max_context;
      cfg.Frontend.Configs.max_context
    end
    else ctx
  in
  let built =
    if paged then Frontend.Llm.decode_paged cfg ~batch precision
    else Frontend.Llm.decode cfg ~batch precision
  in
  let options =
    {
      Relax_passes.Pipeline.default_options with
      Relax_passes.Pipeline.fusion = not no_fusion;
      dispatch_library = not no_library;
      memory_plan = not no_planning;
      graph_capture = not no_capture;
      upper_bounds = Frontend.Llm.upper_bound_hints built;
    }
  in
  if dump_ir then begin
    print_endline "=== IR before lowering ===";
    print_string (Relax_core.Printer.module_to_string built.Frontend.Llm.mod_)
  end;
  let lowered =
    Relax_passes.Pipeline.lower ~options ~device built.Frontend.Llm.mod_
  in
  if dump_ir then begin
    print_endline "=== IR after lowering ===";
    print_string (Relax_core.Printer.module_to_string lowered)
  end;
  (* Static verification modes: print diagnostics and exit instead of
     timing a decode step. Exit 1 iff any diagnostic is an Error;
     warnings (unprovable bounds, data-dependent indices) pass. *)
  if lint || verify_passes then begin
    let bounds = options.Relax_passes.Pipeline.upper_bounds in
    let fp =
      match fp_budget with
      | None -> Some Analysis.Fp.default_opts
      | Some budget_ulps ->
          Some { Analysis.Fp.default_opts with Analysis.Fp.budget_ulps }
    in
    (* --json prints every check's diagnostics as one document. *)
    let failed = ref false and collected = ref [] in
    let emit title diags =
      if json then collected := !collected @ diags
      else if diags = [] then Printf.printf "%s: clean\n" title
      else begin
        Printf.printf "%s:\n" title;
        print_endline (Analysis.Diag.render diags)
      end;
      if Analysis.Diag.errors diags <> [] then failed := true
    in
    if lint then
      emit
        (Printf.sprintf "lint (%s lowered for %s)" cfg.Frontend.Configs.name
           device.Runtime.Device.name)
        (Relax_passes.Verify.check_module ~bounds ~fp lowered);
    if verify_passes then begin
      let input_diags =
        Relax_passes.Verify.check_module ~bounds ~fp built.Frontend.Llm.mod_
      in
      (if Analysis.Diag.errors input_diags <> [] then
         emit "verify-passes (errors pre-existing in the input module)"
           (Analysis.Diag.errors input_diags));
      let _, stage_diags =
        Relax_passes.Pipeline.lower_with_diags ~options ~fp ~device
          built.Frontend.Llm.mod_
      in
      emit "verify-passes (diagnostics introduced by pipeline stages)"
        stage_diags
    end;
    if json then print_endline (Analysis.Diag.render_json !collected);
    exit (if !failed then 1 else 0)
  end;
  let program = Relax_passes.To_vm.compile lowered in
  let recorder = if trace then Some (Runtime.Trace.recorder ()) else None in
  let profiler = if profile then Some (Runtime.Profiler.create ()) else None in
  let sink =
    match
      ( Option.map Runtime.Trace.sink recorder,
        Option.map Runtime.Profiler.sink profiler )
    with
    | Some r, Some p -> Some (Runtime.Trace.tee r p)
    | Some s, None | None, Some s -> Some s
    | None, None -> None
  in
  let vm = Runtime.Vm.create ?trace:sink ~backend (`Timed device) program in
  let args = Frontend.Llm.args_for built ~ctx ~mode:`Shadow () in
  let steps = 3 in
  for _ = 1 to steps do
    ignore (Runtime.Vm.run vm "decode" args)
  done;
  (match recorder with
  | Some r ->
      Printf.printf "=== trace (%d steps) ===\n" steps;
      List.iter
        (fun ev -> print_endline (Runtime.Trace.to_string ev))
        (Runtime.Trace.events r)
  | None -> ());
  (match profiler with
  | Some p ->
      Printf.printf "=== profile (%d steps) ===\n" steps;
      print_string (Runtime.Profiler.report p);
      Printf.printf "per step: %.4f ms over %d steps\n"
        (Runtime.Profiler.total_time_us p /. float_of_int steps /. 1e3)
        (Runtime.Profiler.steps p)
  | None -> ());
  let st = Runtime.Vm.stats vm in
  let per_step_ms = st.Runtime.Vm.elapsed_us /. 3.0 /. 1000.0 in
  Printf.printf "model            %s (%s, batch %d, context %d)\n"
    cfg.Frontend.Configs.name quant batch ctx;
  Printf.printf "device           %s\n" device.Runtime.Device.name;
  Printf.printf "kernels          %d tensor programs in module\n"
    (List.length (Relax_core.Ir_module.tir_funcs lowered));
  Printf.printf "launches/step    %d (+%d library calls)\n"
    (st.Runtime.Vm.kernel_launches / 3)
    (st.Runtime.Vm.lib_calls / 3);
  Printf.printf "decode latency   %.2f ms/token (%.1f tokens/s)\n" per_step_ms
    (1000.0 /. per_step_ms)

open Cmdliner

let model =
  Arg.(value & opt string "tiny" & info [ "model"; "m" ] ~doc:"Model name.")

let device =
  Arg.(
    value
    & opt string "NVIDIA RTX 4090"
    & info [ "device"; "d" ] ~doc:"Device preset name.")

let batch = Arg.(value & opt int 1 & info [ "batch"; "b" ] ~doc:"Batch size.")
let ctx = Arg.(value & opt int 1024 & info [ "ctx" ] ~doc:"Context length.")

let quant =
  Arg.(value & opt string "f16" & info [ "quant"; "q" ] ~doc:"f16, q4 or q3.")

let backend =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ]
        ~doc:
          "Kernel execution backend: $(b,interp) (reference tree \
           walker) or $(b,imp) (flat imperative register machine with \
           proof-elided bounds checks; the default). Both are \
           bit-identical on valid kernels; the choice shows up in \
           $(b,--profile)'s backend column and per-backend time split.")

let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the IR.")
let no_fusion = Arg.(value & flag & info [ "no-fusion" ] ~doc:"Disable FuseOps.")
let no_library = Arg.(value & flag & info [ "no-library" ] ~doc:"Disable library dispatch.")
let no_planning = Arg.(value & flag & info [ "no-planning" ] ~doc:"Disable memory planning.")
let no_capture = Arg.(value & flag & info [ "no-capture" ] ~doc:"Disable graph capture.")
let paged = Arg.(value & flag & info [ "paged" ] ~doc:"Use the in-place paged KV cache.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Dump the full VM execution trace (one line per event).")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Aggregate the execution trace into a per-kernel profile \
           (calls, launches, simulated time, flops, bytes, peak memory).")

let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static verifier on the lowered module (graph-level \
           well-formedness, TIR memory safety, parallel-race detection, \
           floating-point round-off certification) instead of timing it. \
           Prints diagnostics and exits 1 if any has severity error, 0 \
           otherwise. The model's declared shape bounds (e.g. max \
           context) feed the prover.")

let verify_passes =
  Arg.(
    value & flag
    & info [ "verify-passes" ]
        ~doc:
          "Re-run the static verifier after every pipeline stage and \
           report the diagnostics each stage introduced, attributed to \
           that stage. Exits 1 if any stage introduces an error (or the \
           input module already has one).")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "With $(b,--lint)/$(b,--verify-passes): print the diagnostics \
           of every check that ran as one versioned JSON object instead \
           of pretty text (see Analysis.Diag.render_json for the schema \
           and the exit-code contract).")

let fp_budget =
  Arg.(
    value
    & opt (some float) None
    & info [ "fp-budget" ] ~docv:"ULPS"
        ~doc:
          "With $(b,--lint)/$(b,--verify-passes): per-kernel round-off \
           error budget in ulps of each kernel's coarsest representation \
           (default $(b,2^24)). A kernel whose proved first-order error \
           bound exceeds the budget is an error; unprovable bounds only \
           warn.")

let serve =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run the continuous-batching serving engine on a seeded Poisson \
           request stream instead of timing a single decode step. \
           $(b,--batch) sets the scheduler's max batch; combine with \
           $(b,--rate), $(b,--requests), $(b,--policy) and $(b,--seed).")

let rate =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate" ] ~doc:"Serving: request arrival rate, req/s (default 5).")

let requests =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ]
        ~doc:"Serving: number of requests to serve (default 20).")

let policy =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ]
        ~doc:"Serving: continuous or static batching (default continuous).")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~doc:"Serving: workload seed (default 42).")

let admission =
  Arg.(
    value
    & opt (some string) None
    & info [ "admission" ]
        ~doc:
          "Serving: admission policy, $(b,fcfs) (default) or $(b,deadline) \
           (shed requests whose deadline has passed or is infeasible under \
           the cost model).")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ]
        ~doc:
          "Serving: give every request a deadline this many milliseconds \
           after its arrival. Without it requests have no SLO and \
           $(b,--admission) deadline never sheds.")

let retries =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ]
        ~doc:
          "Serving: per-request attempt budget across transient faults and \
           corrupt tokens (default 3).")

let faults =
  Arg.(
    value
    & opt (some float) None
    & info [ "faults" ]
        ~doc:
          "Serving: arm seeded fault injection. P is the per-event \
           probability of transient kernel failures and device stalls; \
           allocation spikes fire at P/2 and output corruption at P/10.")

let fault_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ]
        ~doc:
          "Serving: fault injector seed (default 0); same seed, same fault \
           schedule.")

let kv_share =
  Arg.(
    value & flag
    & info [ "kv-share" ]
        ~doc:
          "Serving: enable cross-request KV prefix sharing (refcounted \
           blocks, prefix cache, copy-on-write forking) and switch the \
           workload to multi-turn chat sessions over a shared system \
           prompt so prefixes actually overlap. $(b,--rate) becomes the \
           session arrival rate and $(b,--requests) is split into \
           four-turn sessions. The metrics report gains prefix hit rate, \
           shared/COW block counts and KV bytes per token.")

let tp =
  Arg.(
    value
    & opt (some int) None
    & info [ "tp" ]
        ~doc:
          "Shard the model tensor-parallel over N simulated devices \
           (column/row-split matmuls, head-parallel attention, explicit \
           all-gather/all-reduce charged from the device interconnect) and \
           time one decode step, reporting per-device and communication \
           time. Requires f16 and a model whose heads/kv_heads/inter/vocab/\
           hidden all divide by N. Cannot be combined with $(b,--serve).")

let replicas =
  Arg.(
    value
    & opt (some int) None
    & info [ "replicas" ]
        ~doc:
          "Serving: spread the request stream across M independent engine \
           replicas (each with its own scheduler and KV blocks) and fold \
           their metrics. Requires $(b,--serve).")

let route =
  Arg.(
    value
    & opt (some string) None
    & info [ "route" ]
        ~doc:
          "Serving: cluster routing policy, one of $(b,round-robin) \
           (default), $(b,least-loaded), $(b,power-of-two), \
           $(b,prefix-affinity) (hash the prompt prefix so sessions stick \
           to a replica's KV cache; pair with $(b,--kv-share)). Requires \
           $(b,--replicas).")

let replica_faults =
  Arg.(
    value
    & opt (some float) None
    & info [ "replica-faults" ]
        ~doc:
          "Serving: arm seeded replica-scoped fault windows across the \
           cluster. P is the per-replica probability of a crash window and \
           of a stall window; router partitions fire at P/2. Windows are \
           drawn from independent per-(replica, kind) streams off \
           $(b,--fault-seed). Requires $(b,--replicas) >= 2.")

let hedge =
  Arg.(
    value & flag
    & info [ "hedge" ]
        ~doc:
          "Serving: hedged decode — duplicate requests routed to a \
           degraded replica onto the least-backlogged healthy one; the \
           earliest finish wins. Requires $(b,--replicas) >= 2.")

let heartbeat_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "heartbeat-ms" ]
        ~doc:
          "Serving: health-probe cadence in milliseconds (default 10). \
           Crash detection lands two missed probes after the crash. \
           Requires $(b,--replicas) >= 2.")

let no_failover =
  Arg.(
    value & flag
    & info [ "no-failover" ]
        ~doc:
          "Serving: disable health-aware routing and failover — the \
           health-blind baseline where a crashed replica's queue strands \
           until its engine restarts. Requires $(b,--replicas) >= 2.")

let cmd =
  Cmd.v
    (Cmd.info "relax_compile" ~doc:"Compile and time a model from the zoo")
    Term.(
      const run $ model $ device $ batch $ ctx $ quant $ backend $ dump_ir
      $ no_fusion $ no_library $ no_planning $ no_capture $ paged $ trace
      $ profile $ lint $ verify_passes $ json $ fp_budget $ serve $ rate
      $ requests
      $ policy $ seed $ admission $ deadline_ms $ retries $ faults
      $ fault_seed $ kv_share $ tp $ replicas $ route $ replica_faults
      $ hedge $ heartbeat_ms $ no_failover)

let () = exit (Cmd.eval cmd)
