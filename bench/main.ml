(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (§5) on the simulated device models, and
   micro-benchmarks the compiler itself with Bechamel.

   Run everything:        dune exec bench/main.exe
   One experiment:        dune exec bench/main.exe -- --only fig14
   List experiments:      dune exec bench/main.exe -- --list
   JSON output dir:       dune exec bench/main.exe -- --only kernels --out results/
   (kernels, serving, chaos, kvshare, cluster and failover each write
   BENCH_<id>.json, built as one Base.Json value, via [write_json])

   Absolute numbers come from the roofline device models (DESIGN.md
   §1); the claims under reproduction are the *shapes*: who wins,
   by what factor, and where the crossovers fall. EXPERIMENTS.md
   records the paper-reported values next to these measurements. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let tok_per_s us = 1_000_000.0 /. us
let ms us = us /. 1000.0

(* The BENCH_*.json files go here. --out DIR redirects them, creating
   DIR and its parents when the flag is parsed, before any run. *)
let out_dir = ref "."

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755)

let write_json name value =
  let path = Filename.concat !out_dir name in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Base.Json.to_string value ^ "\n"));
  Printf.printf "\n  wrote %s\n" path

(* JSON builders: [num d x] prints [x] with [d] decimals; [xs |>
   objects f] is the array of objects with members [f x]. The writers
   lay values out as the files print them, siblings side by side. *)
let num d x = Base.Json.Float (d, x)

let objects f xs =
  Base.Json.List (List.map (fun x -> Base.Json.Object (f x)) xs)

let serve_header benchmark (cfg : Frontend.Configs.t)
    (device : Runtime.Device.t) =
  Base.Json.
    [ ("benchmark", String benchmark); ("model", String cfg.name);
      ("device", String device.name); ("precision", String "F16") ]

(* The Serve.Metrics.summary fields the serve-side files report, each
   at its one precision; [summary_members s names] picks [names] in
   order. *)
let summary_members (s : Serve.Metrics.summary) names =
  let open Serve.Metrics in
  let all =
    Base.Json.
      [ ("tokens_per_s", num 1 s.tokens_per_s);
        ("goodput_tokens_per_s", num 1 s.goodput_tokens_per_s);
        ("slo_attainment", num 3 s.slo_attainment);
        ("ttft_p50_ms", num 2 (ms s.ttft_us.p50));
        ("ttft_p95_ms", num 2 (ms s.ttft_us.p95));
        ("per_token_p50_ms", num 3 (ms s.per_token_us.p50));
        ("e2e_p95_ms", num 2 (ms s.e2e_us.p95));
        ("occupancy", num 3 s.occupancy);
        ("prefix_hit_rate", num 3 s.prefix_hit_rate);
        ("kv_bytes_per_token", num 2 s.kv_bytes_per_token);
        ("replica_downtime_ms", num 1 (s.replica_downtime_us /. 1e3));
        ("makespan_ms", num 1 (ms s.makespan_us));
        ("cow_copies", Int s.cow_copies); ("preemptions", Int s.preemptions);
        ("completed", Int s.completed); ("submitted", Int s.submitted);
        ("shed", Int s.shed); ("timeouts", Int s.timeouts);
        ("aborted", Int s.aborted); ("retries", Int s.retries);
        ("faults", Int s.faults); ("failovers", Int s.failovers);
        ("migrations", Int s.migrations) ]
  in
  List.map (fun name -> (name, List.assoc name all)) names

(* ---------- shared measurement helpers ---------- *)

let decode_builds : (string * int * Frontend.Llm.precision, Frontend.Llm.built) Hashtbl.t =
  Hashtbl.create 16

let decode_built cfg ~batch precision =
  let key = (cfg.Frontend.Configs.name, batch, precision) in
  match Hashtbl.find_opt decode_builds key with
  | Some b -> b
  | None ->
      let b = Frontend.Llm.decode cfg ~batch precision in
      Hashtbl.replace decode_builds key b;
      b

(* Profiled timed run: attach a {!Runtime.Profiler} to a fresh VM, run
   each argument list once, and return the profiler. Benches read
   simulated time and peak memory from the same counters the test
   suite asserts on (total_time_us = stats.elapsed_us,
   peak_live_bytes = Allocator.peak_bytes). *)
let profiled_runs ?allocator ~device ~program ~entry runs =
  let p = Runtime.Profiler.create () in
  let vm =
    Runtime.Vm.create ?allocator ~trace:(Runtime.Profiler.sink p)
      (`Timed device) program
  in
  List.iter (fun args -> ignore (Runtime.Vm.run vm entry args)) runs;
  p

let profiled_steps ~device ~program ~entry ~steps args =
  profiled_runs ~device ~program ~entry (List.init steps (fun _ -> args))

let profile_grid ?(exclude = []) ~device ~cfg ~batches ~ctx () =
  let profiles =
    List.filter
      (fun (p : Baselines.Profiles.t) ->
        not (List.mem p.Baselines.Profiles.name exclude))
      Baselines.Profiles.all_llm
  in
  Printf.printf "%-6s" "batch";
  List.iter (fun p -> Printf.printf "  %14s" p.Baselines.Profiles.name) profiles;
  Printf.printf "    (decode ms/step at context %d)\n" ctx;
  List.iter
    (fun batch ->
      let built = decode_built cfg ~batch Frontend.Llm.F16 in
      let w = Baselines.Runner.of_llm built in
      Printf.printf "%-6d" batch;
      List.iter
        (fun p ->
          match Baselines.Runner.step_us p ~device w ~ctx with
          | Some us -> Printf.printf "  %14.2f" (ms us)
          | None -> Printf.printf "  %14s" "n/a")
        profiles;
      print_newline ())
    batches

(* ---------- Figures 14-16: LLM decode vs baselines ---------- *)

let llm_models =
  [ Frontend.Configs.llama3_8b; Frontend.Configs.gemma_7b; Frontend.Configs.qwen2_7b ]

let fig_llm ~figure ~device () =
  section
    (Printf.sprintf "%s: decode per-token latency on %s"
       figure device.Runtime.Device.name);
  List.iter
    (fun cfg ->
      Printf.printf "\n--- %s ---\n" cfg.Frontend.Configs.name;
      (* The paper omits HF-compile for Qwen2 (no static-cache support). *)
      let exclude =
        if cfg.Frontend.Configs.name = "Qwen2-7B" then [ "HF (compile)" ]
        else []
      in
      profile_grid ~exclude ~device ~cfg ~batches:[ 1; 16; 32; 64 ] ~ctx:1024 ())
    llm_models

(* ---------- Figure 17: ablation of composable optimizations ---------- *)

let fig17 () =
  section "fig17: optimization ablation, Llama3-8B on RTX 4090 (paper Fig. 17)";
  let device = Runtime.Device.rtx4090 in
  let base = Relax_passes.Pipeline.default_options in
  let variants =
    [ ("all optimizations", base);
      ("w/o operator fusion", { base with Relax_passes.Pipeline.fusion = false });
      ( "w/o partial library lowering",
        { base with Relax_passes.Pipeline.dispatch_library = false } );
      ( "w/o CUDA graph offloading",
        { base with Relax_passes.Pipeline.graph_capture = false } );
      ( "none",
        { Relax_passes.Pipeline.all_off with
          Relax_passes.Pipeline.memory_plan = true } ) ]
  in
  Printf.printf "%-30s" "configuration";
  List.iter (fun b -> Printf.printf "  b=%-8d" b) [ 1; 16; 32; 64 ];
  Printf.printf "  (ms/step)\n";
  List.iter
    (fun (name, options) ->
      Printf.printf "%-30s" name;
      List.iter
        (fun batch ->
          let built = decode_built Frontend.Configs.llama3_8b ~batch Frontend.Llm.F16 in
          let options =
            { options with
              Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
          in
          let program =
            Relax_passes.Pipeline.compile ~options ~device built.Frontend.Llm.mod_
          in
          let args = Frontend.Llm.args_for built ~ctx:1024 ~mode:`Shadow () in
          let p = profiled_steps ~device ~program ~entry:"decode" ~steps:3 args in
          Printf.printf "  %-10.2f" (ms (Runtime.Profiler.total_time_us p /. 3.0)))
        [ 1; 16; 32; 64 ];
      print_newline ())
    variants

(* ---------- Table 2: memory usage with/without planning ---------- *)

let table2 () =
  section "table2: Llama3-8B activation memory (paper Table 2)";
  (* Activation memory only: the serving loop keeps the KV cache in a
     separate pre-allocated pool, so the measured functions consume the
     grown caches without returning them (their storage recycles).
     Planning uses the upper bounds of the measured workload (sequence
     length 1024, batch 64), matching the paper's setup. *)
  let device = Runtime.Device.rtx4090 in
  let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0) in
  let measure ~plan ~bounds ~mod_ ~entry runs =
    let options =
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = bounds;
        memory_plan = plan;
        graph_capture = plan }
    in
    let program = Relax_passes.Pipeline.compile ~options ~device mod_ in
    let alloc = Runtime.Allocator.create (if plan then `Planned else `Pooling) in
    let p = profiled_runs ~allocator:alloc ~device ~program ~entry runs in
    (* The profiler's fold of the trace must agree exactly with the
       allocator's own accounting. *)
    assert (Runtime.Profiler.peak_live_bytes p = Runtime.Allocator.peak_bytes alloc);
    Runtime.Profiler.peak_live_bytes p
  in
  (* Prefill of successive lengths 128..1024 (batch 1). *)
  let pre =
    Frontend.Llm.prefill ~return_caches:false Frontend.Configs.llama3_8b
      Frontend.Llm.F16
  in
  let pre_runs =
    List.map
      (fun ctx -> Frontend.Llm.args_for pre ~ctx ~mode:`Shadow ())
      [ 128; 256; 512; 1024 ]
  in
  let pre_bounds = [ (pre.Frontend.Llm.ctx_var, 1024) ] in
  let ppool =
    measure ~plan:false ~bounds:pre_bounds ~mod_:pre.Frontend.Llm.mod_
      ~entry:"prefill" pre_runs
  in
  let pplan =
    measure ~plan:true ~bounds:pre_bounds ~mod_:pre.Frontend.Llm.mod_
      ~entry:"prefill" pre_runs
  in
  Printf.printf "%-44s %10s (paper MiB)\n" "Llama3-8B prefill (128,256,512,1024)" "MiB";
  Printf.printf "  %-42s %10.1f  (192.7)\n" "Relax w/o planning (runtime pool)" (mib ppool);
  Printf.printf "  %-42s %10.1f  (149.7)\n" "Relax w/. planning (static, upper bound)" (mib pplan);
  (* Decode of successive batch sizes, compiled once with a symbolic
     batch dimension. *)
  let dec =
    Frontend.Llm.decode_symbolic_batch ~return_caches:false ~max_batch:64
      Frontend.Configs.llama3_8b Frontend.Llm.F16
  in
  let dec_bounds =
    [ (dec.Frontend.Llm.ctx_var, 1024) ]
    @ match dec.Frontend.Llm.batch_var with
      | Some bv -> [ (bv, 64) ]
      | None -> []
  in
  let dec_runs =
    List.map
      (fun batch -> Frontend.Llm.args_for dec ~ctx:1024 ~batch ~mode:`Shadow ())
      [ 1; 16; 32; 64 ]
  in
  let dpool =
    measure ~plan:false ~bounds:dec_bounds ~mod_:dec.Frontend.Llm.mod_
      ~entry:"decode" dec_runs
  in
  let dplan =
    measure ~plan:true ~bounds:dec_bounds ~mod_:dec.Frontend.Llm.mod_
      ~entry:"decode" dec_runs
  in
  Printf.printf "%-44s %10s (paper MiB)\n" "Llama3-8B decode (batch 1,16,32,64)" "MiB";
  Printf.printf "  %-42s %10.1f  (150.0)\n" "Relax w/o planning (runtime pool)" (mib dpool);
  Printf.printf "  %-42s %10.1f  ( 88.2)\n" "Relax w/. planning (static, upper bound)" (mib dplan);
  (* Extension: pre-allocated in-place KV cache (call_tir_inplace)
     removes the functional cache copies from the activation pool —
     the accounting real serving runtimes (and the paper) use. *)
  let paged =
    Frontend.Llm.decode_paged Frontend.Configs.llama3_8b ~batch:64
      Frontend.Llm.F16
  in
  let ppeak =
    let options =
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = [ (paged.Frontend.Llm.ctx_var, 1024) ] }
    in
    let program =
      Relax_passes.Pipeline.compile ~options ~device paged.Frontend.Llm.mod_
    in
    let alloc = Runtime.Allocator.create `Planned in
    let p =
      profiled_runs ~allocator:alloc ~device ~program ~entry:"decode"
        [ Frontend.Llm.args_for paged ~ctx:1024 ~mode:`Shadow () ]
    in
    Runtime.Profiler.peak_live_bytes p
  in
  Printf.printf "  %-42s %10.1f  (extension; paper-style accounting)\n"
    "Relax w/. planning + in-place KV cache" (mib ppeak)

(* ---------- Table 3: quantized models on emerging platforms ---------- *)

let table3 () =
  section "table3: 4-bit models on emerging platforms, tokens/s (paper Table 3)";
  let rows =
    (* device, Llama variant/precision, paper-reported (llama, phi3, rp) *)
    [ (Runtime.Device.iphone14pro, Frontend.Configs.llama2_7b, Frontend.Llm.Q3, (5.1, 13.8, 19.5));
      (Runtime.Device.samsung_s23, Frontend.Configs.llama2_7b, Frontend.Llm.Q4, (7.9, 13.1, 20.5));
      (Runtime.Device.orange_pi5, Frontend.Configs.llama3_8b, Frontend.Llm.Q4, (2.3, 5.0, 6.1));
      (Runtime.Device.steam_deck, Frontend.Configs.llama3_8b, Frontend.Llm.Q4, (14.0, 20.2, 22.9));
      (Runtime.Device.jetson_orin, Frontend.Configs.llama3_8b, Frontend.Llm.Q4, (32.0, 59.1, 65.2));
      (Runtime.Device.webgpu_m3_max, Frontend.Configs.llama3_8b, Frontend.Llm.Q4, (37.8, 68.0, 68.6)) ]
  in
  let measure (device : Runtime.Device.t) cfg precision =
    let built = decode_built cfg ~batch:1 precision in
    let w = Baselines.Runner.of_llm built in
    (* Models close to the VRAM limit suffer memory pressure (the
       paper's footnote: 3-bit Llama2 barely fits the iPhone). *)
    let model_gb =
      Frontend.Configs.param_bytes cfg
        ~quant_bits:(Frontend.Llm.bits_of_precision precision)
      /. 1e9
    in
    let pressure =
      if model_gb > 0.65 *. device.Runtime.Device.vram_gb then 0.75 else 1.0
    in
    match Baselines.Runner.step_us Baselines.Profiles.relax ~device w ~ctx:256 with
    | Some us -> tok_per_s (us /. pressure)
    | None -> nan
  in
  Printf.printf "%-18s %18s %18s %18s\n" "device" "Llama (paper)" "Phi3 (paper)" "RedPajama (paper)";
  List.iter
    (fun (device, llama_cfg, llama_prec, (pl, pp, pr)) ->
      let l = measure device llama_cfg llama_prec in
      let p = measure device Frontend.Configs.phi3_mini Frontend.Llm.Q4 in
      let r = measure device Frontend.Configs.redpajama_3b Frontend.Llm.Q4 in
      Printf.printf "%-18s %9.1f (%5.1f) %9.1f (%5.1f) %9.1f (%5.1f)\n"
        device.Runtime.Device.name l pl p pp r pr)
    rows

(* ---------- Figure 18: Samsung S24, Relax GPU vs llama.cpp CPU ---------- *)

let fig18 () =
  section "fig18: single-sequence 4-bit generation on Samsung S24 (paper Fig. 18)";
  let device = Runtime.Device.samsung_s24 in
  Printf.printf "%-14s %14s %16s %10s\n" "model" "Relax (GPU)" "llama.cpp (CPU)" "speedup";
  List.iter
    (fun cfg ->
      let built = decode_built cfg ~batch:1 Frontend.Llm.Q4 in
      let w = Baselines.Runner.of_llm built in
      let r =
        Option.get (Baselines.Runner.step_us Baselines.Profiles.relax ~device w ~ctx:256)
      in
      let l =
        Option.get
          (Baselines.Runner.step_us Baselines.Profiles.llama_cpp ~device w ~ctx:256)
      in
      Printf.printf "%-14s %10.1f t/s %12.1f t/s %9.2fx\n" cfg.Frontend.Configs.name
        (tok_per_s r) (tok_per_s l) (l /. r))
    [ Frontend.Configs.llama3_8b; Frontend.Configs.phi3_mini; Frontend.Configs.redpajama_3b ]

(* ---------- Figure 19: Whisper transcription ---------- *)

let whisper_profiles =
  (* WhisperX and Faster-Whisper are CTranslate2-based library-heavy
     systems; whisper.cpp mirrors llama.cpp. *)
  [ { Baselines.Profiles.hf_eager with Baselines.Profiles.name = "HF Transformers" };
    { Baselines.Profiles.vllm with Baselines.Profiles.name = "WhisperX"; per_step_overhead_us = 40.0 };
    { Baselines.Profiles.vllm with Baselines.Profiles.name = "Faster Whisper"; per_step_overhead_us = 20.0 };
    { Baselines.Profiles.llama_cpp with Baselines.Profiles.name = "whisper.cpp" };
    Baselines.Profiles.relax ]

let fig19 () =
  section "fig19: Whisper-large-v3, 30 s transcription time (paper Fig. 19)";
  let sizes = Frontend.Whisper.large_v3 in
  let tokens = 200 in
  let enc = Frontend.Whisper.encoder sizes in
  let wenc = Baselines.Runner.of_encoder enc in
  let dec = Frontend.Whisper.decoder_step sizes in
  let wdec = Baselines.Runner.of_whisper dec in
  List.iter
    (fun device ->
      Printf.printf "\n--- %s ---\n" device.Runtime.Device.name;
      List.iter
        (fun p ->
          match
            ( Baselines.Runner.step_us p ~device wenc ~ctx:1,
              Baselines.Runner.step_us p ~device wdec ~ctx:(tokens / 2) )
          with
          | Some enc_us, Some dec_us ->
              let total_s =
                (enc_us +. (float_of_int tokens *. dec_us)) /. 1e6
              in
              Printf.printf "  %-16s %7.2f s  (encode %.0f ms + %d x %.2f ms)\n"
                p.Baselines.Profiles.name total_s (ms enc_us) tokens (ms dec_us)
          | _, _ -> Printf.printf "  %-16s %7s\n" p.Baselines.Profiles.name "n/a")
        whisper_profiles)
    [ Runtime.Device.rtx4090; Runtime.Device.m2_ultra ]

(* ---------- Figure 20: LLaVA generation ---------- *)

let llava_profiles =
  [ { Baselines.Profiles.hf_eager with Baselines.Profiles.name = "HF Transformers" };
    Baselines.Profiles.vllm;
    Baselines.Profiles.llama_cpp;
    Baselines.Profiles.relax ]

let fig20 () =
  section "fig20: LLaVA 32-token generation for one image (paper Fig. 20)";
  let prompt = Frontend.Llava.prompt_length 32 in
  let tokens = 32 in
  let vis = Frontend.Llava.vision_encoder () in
  let wvis = Baselines.Runner.of_encoder vis in
  let pre = Frontend.Llm.prefill Frontend.Llava.language_model Frontend.Llm.F16 in
  let wpre = Baselines.Runner.of_llm pre in
  let dec = decode_built Frontend.Llava.language_model ~batch:1 Frontend.Llm.F16 in
  let wdec = Baselines.Runner.of_llm dec in
  List.iter
    (fun device ->
      Printf.printf "\n--- %s ---\n" device.Runtime.Device.name;
      List.iter
        (fun p ->
          match
            ( Baselines.Runner.step_us p ~device wvis ~ctx:1,
              Baselines.Runner.step_us p ~device wpre ~ctx:prompt,
              Baselines.Runner.step_us p ~device wdec ~ctx:prompt )
          with
          | Some vis_us, Some pre_us, Some dec_us ->
              let total_s =
                (vis_us +. pre_us +. (float_of_int tokens *. dec_us)) /. 1e6
              in
              Printf.printf
                "  %-16s %7.2f s  (vision %.0f ms + prefill %.0f ms + %d x %.1f ms)\n"
                p.Baselines.Profiles.name total_s (ms vis_us) (ms pre_us) tokens
                (ms dec_us)
          | _, _, _ -> Printf.printf "  %-16s %7s\n" p.Baselines.Profiles.name "n/a")
        llava_profiles)
    [ Runtime.Device.rtx4090; Runtime.Device.m2_ultra ]

(* ---------- Figure 9 ablation: fused quantized decode ---------- *)

let fig9 () =
  section "fig9: fused vs unfused 4-bit decode+matmul, Llama3-8B shapes (Fig. 9)";
  let device = Runtime.Device.rtx4090 in
  let built = decode_built Frontend.Configs.llama3_8b ~batch:1 Frontend.Llm.Q4 in
  List.iter
    (fun (name, fusion) ->
      let options =
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.fusion;
          dispatch_library = false;
          upper_bounds = Frontend.Llm.upper_bound_hints built }
      in
      let program =
        Relax_passes.Pipeline.compile ~options ~device built.Frontend.Llm.mod_
      in
      let args = Frontend.Llm.args_for built ~ctx:1024 ~mode:`Shadow () in
      let p = profiled_steps ~device ~program ~entry:"decode" ~steps:3 args in
      let kernel_calls =
        List.fold_left
          (fun acc (r : Runtime.Profiler.row) ->
            if r.Runtime.Profiler.kind = `Kernel then acc + r.Runtime.Profiler.calls
            else acc)
          0 (Runtime.Profiler.rows p)
      in
      Printf.printf "  %-28s %8.2f ms/step  (%d launches/step)\n" name
        (ms (Runtime.Profiler.total_time_us p /. 3.0))
        (kernel_calls / 3))
    [ ("FuseOps + FuseTensorIR", true); ("unfused (decode materialized)", false) ]

(* ---------- Figure 11 ablation: workspace lifting ---------- *)

let fig11 () =
  section "fig11: split-K workspace lifting and memory planning (Fig. 11)";
  let device = Runtime.Device.rtx4090 in
  let e = Arith.Expr.const in
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let open Relax_core in
  let build () =
    let b = Builder.create () in
    let mmsk =
      Tir.Kernels.split_k_matmul ~name:"mm_split_k" ~m:en ~k:(e 2048)
        ~n:(e 4096) ~splits:8 Base.Dtype.F32
    in
    Builder.function_ b ~name:"main"
      ~params:
        [ ("x", Struct_info.tensor [ en; e 2048 ] Base.Dtype.F32);
          ("w", Struct_info.tensor [ e 2048; e 4096 ] Base.Dtype.F32) ]
      (fun params ->
        match params with
        | [ x; w ] ->
            Builder.dataflow b (fun () ->
                let o1 =
                  Builder.emit_call_tir b mmsk
                    [ Expr.Var x; Expr.Var w ]
                    ~out:(Struct_info.tensor [ en; e 4096 ] Base.Dtype.F32)
                    ()
                in
                let o2 = Builder.emit b (Expr.call_op "relu" [ Expr.Var o1 ]) in
                Expr.Var o2)
        | _ -> assert false);
    Builder.module_ b
  in
  List.iter
    (fun (name, lift) ->
      let options =
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.lift_workspace = lift;
          dispatch_library = false;
          upper_bounds = [ (nv, 64) ] }
      in
      let program = Relax_passes.Pipeline.compile ~options ~device (build ()) in
      let alloc = Runtime.Allocator.create `Planned in
      let vm = Runtime.Vm.create ~allocator:alloc (`Timed device) program in
      ignore
        (Runtime.Vm.run vm "main"
           [ Runtime.Vm.shadow_of_shape Base.Dtype.F32 [ 64; 2048 ];
             Runtime.Vm.shadow_of_shape Base.Dtype.F32 [ 2048; 4096 ] ]);
      (* Kernel-local global workspaces are invisible to the planner
         but still consume device memory: count them for the total. *)
      let hidden =
        List.fold_left
          (fun acc (_, kf) ->
            List.fold_left
              (fun acc (ws : Tir.Buffer.t) ->
                acc
                + Arith.Expr.eval
                    (fun _ -> 64)
                    (Tir.Buffer.size_in_bytes ws))
              acc
              (Tir.Workspace.detect kf))
          0
          (Relax_core.Ir_module.tir_funcs
             (Relax_passes.Pipeline.lower ~options ~device (build ())))
      in
      let planned = Runtime.Allocator.peak_bytes alloc in
      Printf.printf
        "  %-42s planned = %5.1f MiB, kernel-local = %4.1f MiB, total = %5.1f MiB\n"
        name
        (float_of_int planned /. 1048576.0)
        (float_of_int hidden /. 1048576.0)
        (float_of_int (planned + hidden) /. 1048576.0))
    [ ("with cross-level workspace lifting", true);
      ("without lifting (kernel-local allocation)", false) ]

(* ---------- bucketing ablation (related work: Nimble) ---------- *)

let bucketing () =
  section
    "bucketing: first-class symbolic shapes vs Nimble-style runtime bucketing";
  (* A bucketing runtime specializes kernels to power-of-two context
     buckets and pads: attention and cache traffic are charged at the
     bucket size. Relax's symbolic kernels run at the true length. *)
  let device = Runtime.Device.rtx4090 in
  let built = decode_built Frontend.Configs.llama3_8b ~batch:8 Frontend.Llm.F16 in
  let options =
    { Relax_passes.Pipeline.default_options with
      Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
  in
  let program =
    Relax_passes.Pipeline.compile ~options ~device built.Frontend.Llm.mod_
  in
  let measure ctx =
    let vm = Runtime.Vm.create (`Timed device) program in
    let args = Frontend.Llm.args_for built ~ctx ~mode:`Shadow () in
    for _ = 1 to 3 do
      ignore (Runtime.Vm.run vm "decode" args)
    done;
    (Runtime.Vm.stats vm).Runtime.Vm.elapsed_us /. 3.0
  in
  let next_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 1
  in
  Printf.printf "%-10s %14s %22s %10s   (Llama3-8B, batch 8, ms/step)
" "context"
    "Relax (exact)" "bucketed (pow-2 pad)" "overhead";
  List.iter
    (fun ctx ->
      let exact = measure ctx in
      let padded = measure (next_pow2 ctx) in
      Printf.printf "%-10d %14.2f %22.2f %9.1f%%
" ctx (ms exact) (ms padded)
        ((padded -. exact) /. exact *. 100.0))
    [ 130; 300; 700; 1100; 2050 ]

(* ---------- Bechamel micro-benchmarks of the compiler ---------- *)

let bechamel_section () =
  section "compiler micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let prove_test =
    Test.make ~name:"arith.prove_equal (flatten relation)"
      (Staged.stage (fun () ->
           ignore
             (Arith.Simplify.prove_equal
                (Arith.Expr.mul (Arith.Expr.add en en) (Arith.Expr.const 2))
                (Arith.Expr.mul en (Arith.Expr.const 4)))))
  in
  let tiny = Frontend.Configs.tiny in
  let built = Frontend.Llm.decode tiny ~batch:1 Frontend.Llm.F16 in
  let deduce_test =
    Test.make ~name:"deduce.tiny-llm module re-check"
      (Staged.stage (fun () ->
           ignore
             (Relax_core.Well_formed.check_module built.Frontend.Llm.mod_)))
  in
  let pipeline_test =
    Test.make ~name:"pipeline.compile tiny-llm (full)"
      (Staged.stage (fun () ->
           let options =
             { Relax_passes.Pipeline.default_options with
               Relax_passes.Pipeline.upper_bounds =
                 Frontend.Llm.upper_bound_hints built }
           in
           ignore
             (Relax_passes.Pipeline.compile ~options
                ~device:Runtime.Device.rtx4090 built.Frontend.Llm.mod_)))
  in
  let numeric_test =
    let options =
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
    in
    let program =
      Relax_passes.Pipeline.compile ~options ~device:Runtime.Device.rtx4090
        built.Frontend.Llm.mod_
    in
    let vm = Runtime.Vm.create `Numeric program in
    let args = Frontend.Llm.args_for built ~ctx:4 ~seed:1 ~mode:`Numeric () in
    Test.make ~name:"vm.numeric tiny-llm decode step"
      (Staged.stage (fun () -> ignore (Runtime.Vm.run vm "decode" args)))
  in
  let tests = [ prove_test; deduce_test; pipeline_test; numeric_test ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:Measure.[| run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-44s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-44s (no estimate)\n" name)
        ols)
    tests

(* ---------- kernel execution: interpreted vs compiled ---------- *)

let kernels_bench () =
  section "kernel execution: interpreter vs imp register machine";
  let open Bechamel in
  let open Toolkit in
  let e = Arith.Expr.const in
  let f32 = Base.Dtype.F32 in
  (* ns/run by OLS over monotonic clock, same idiom as `micro`. *)
  let estimate_ns test =
    let cfg = Benchmark.cfg ~limit:150 ~quota:(Time.second 0.4) () in
    let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |])
        Instance.monotonic_clock results
    in
    let est = ref nan in
    Hashtbl.iter
      (fun _ r ->
        match Analyze.OLS.estimates r with Some [ x ] -> est := x | _ -> ())
      ols;
    !est
  in
  let cases =
    let matmul s =
      ( "matmul", Printf.sprintf "%dx%dx%d" s s s,
        Tir.Kernels.matmul_weights ~name:"mm" ~m:(e s) ~k:(e s) ~n:(e s) f32,
        [ [| s; s |]; [| s; s |]; [| s; s |] ] )
    in
    let softmax r c =
      ( "softmax", Printf.sprintf "%dx%d" r c,
        Tir.Kernels.softmax_last ~name:"sm" [ e r; e c ] f32,
        [ [| r; c |]; [| r; c |] ] )
    in
    let layernorm r c =
      ( "layer_norm", Printf.sprintf "%dx%d" r c,
        Tir.Kernels.layer_norm ~name:"ln" [ e r; e c ] ~eps:1e-5 f32,
        [ [| r; c |]; [| c |]; [| c |]; [| r; c |] ] )
    in
    [ matmul 16; matmul 48; matmul 128;
      softmax 64 256; softmax 256 1024;
      layernorm 64 256; layernorm 256 1024 ]
  in
  Printf.printf "  %-10s %-12s %12s %12s %12s %8s %6s\n" "kernel" "size"
    "interp ns" "imp ns" "imp-chk ns" "speedup" "elide";
  let rows =
    List.map
      (fun (kernel, size, (f : Tir.Prim_func.t), shapes) ->
        let n = List.length f.Tir.Prim_func.params in
        let n_out = f.Tir.Prim_func.num_outputs in
        let args =
          List.mapi
            (fun i ((b : Tir.Buffer.t), shape) ->
              if i >= n - n_out then Base.Ndarray.create b.Tir.Buffer.dtype shape
              else
                Base.Ndarray.random_uniform ~seed:(i + 1) b.Tir.Buffer.dtype
                  shape)
            (List.combine f.Tir.Prim_func.params shapes)
        in
        let interp_ns =
          estimate_ns
            (Test.make
               ~name:(Printf.sprintf "interp %s %s" kernel size)
               (Staged.stage (fun () -> Tir.Interp.run f args)))
        in
        (* The imp backend elides bounds checks exactly when the static
           verifier proves the kernel in-bounds — the same contract the
           VM's kernel cache applies. The checked column runs the same
           imp program with bounds checks forced on, isolating what the
           proof buys. *)
        let elide = Analysis.Proof.memory_safe f in
        let imp = Tir.Imp_compile.compile ~elide_bounds:elide f shapes in
        let imp_ns =
          estimate_ns
            (Test.make
               ~name:(Printf.sprintf "imp %s %s" kernel size)
               (Staged.stage (fun () -> imp [] args)))
        in
        let imp_checked =
          Tir.Imp_compile.compile ~elide_bounds:false f shapes
        in
        let imp_checked_ns =
          estimate_ns
            (Test.make
               ~name:(Printf.sprintf "imp-checked %s %s" kernel size)
               (Staged.stage (fun () -> imp_checked [] args)))
        in
        let speedup = interp_ns /. imp_ns in
        Printf.printf "  %-10s %-12s %12.0f %12.0f %12.0f %7.1fx %6s\n"
          kernel size interp_ns imp_ns imp_checked_ns speedup
          (if elide then "on" else "off");
        Base.Json.(
          Object
            [ ("kernel", String kernel); ("size", String size);
              ("interp_ns", num 1 interp_ns); ("imp_ns", num 1 imp_ns);
              ("imp_checked_ns", num 1 imp_checked_ns);
              ("speedup", num 2 speedup); ("elide_bounds", Bool elide) ]))
      cases
  in
  write_json "BENCH_kernels.json"
    Base.Json.(
      Object
        [ ("benchmark", String "tir_kernel_execution");
          ("units", String "ns_per_run"); ("results", List rows) ])

(* ---------- serving: continuous vs static batching ---------- *)

let serving () =
  section "serving: continuous vs static batching, Llama3-8B on RTX 4090";
  (* Throughput-vs-request-rate curves for the serving engine
     (lib/serve): iteration-level continuous batching against a
     static-cohort baseline, at two batch limits each. One model
     (compiled programs + memoized step costs) is shared across the
     whole sweep, so each grid point is pure discrete-event
     simulation after the per-bucket warm-ups. The claim under
     reproduction: at low rates the policies tie (arrival-bound),
     while at high rates continuous batching keeps the batch full and
     dominates static on throughput and time-to-first-token. *)
  let device = Runtime.Device.rtx4090 in
  let cfg = Frontend.Configs.llama3_8b in
  let model =
    Serve.Scheduler.model ~cfg ~precision:Frontend.Llm.F16 ~device
  in
  let rates = [ 1.0; 2.0; 5.0; 10.0; 20.0 ] in
  let variants =
    [ (Serve.Scheduler.Continuous, 8); (Serve.Scheduler.Continuous, 32);
      (Serve.Scheduler.Static, 8); (Serve.Scheduler.Static, 32) ]
  in
  let policy_name = function
    | Serve.Scheduler.Continuous -> "continuous"
    | Serve.Scheduler.Static -> "static"
  in
  let workload rate =
    Serve.Workload.generate ~seed:42 ~rate_per_s:rate ~num_requests:60
      ~max_total:cfg.Frontend.Configs.max_context
      ~prompt:(Serve.Workload.Uniform (64, 192))
      ~output:(Serve.Workload.Uniform (32, 96)) ()
  in
  let curves =
    List.map
      (fun (policy, max_batch) ->
        Printf.printf "\n--- %s, max batch %d ---\n" (policy_name policy)
          max_batch;
        Printf.printf "%-12s %12s %14s %14s %12s\n" "req/s" "tokens/s"
          "TTFT p50 (ms)" "e2e p95 (ms)" "occupancy";
        let points =
          List.map
            (fun rate ->
              let opts =
                { Serve.Scheduler.default_opts with
                  Serve.Scheduler.policy;
                  max_batch;
                  block_size = 16 }
              in
              let r = Serve.Scheduler.run model opts (workload rate) in
              let s = r.Serve.Scheduler.summary in
              Printf.printf "%-12.1f %12.1f %14.1f %14.1f %12.2f\n" rate
                s.Serve.Metrics.tokens_per_s
                (ms s.Serve.Metrics.ttft_us.Serve.Metrics.p50)
                (ms s.Serve.Metrics.e2e_us.Serve.Metrics.p95)
                s.Serve.Metrics.occupancy;
              (rate, s))
            rates
        in
        (policy, max_batch, points))
      variants
  in
  (* The headline crossover: at the highest request rate, continuous
     batching must beat the static cohort baseline at the same batch
     limit. *)
  let at policy mb =
    let _, _, points =
      List.find (fun (p, b, _) -> p = policy && b = mb) curves
    in
    snd (List.nth points (List.length points - 1))
  in
  let top_rate = List.nth rates (List.length rates - 1) in
  List.iter
    (fun mb ->
      let c = at Serve.Scheduler.Continuous mb in
      let s = at Serve.Scheduler.Static mb in
      Printf.printf
        "\nat %.0f req/s, max batch %d: continuous %.1f tok/s vs static %.1f \
         tok/s (%.2fx)%s\n"
        top_rate mb c.Serve.Metrics.tokens_per_s s.Serve.Metrics.tokens_per_s
        (c.Serve.Metrics.tokens_per_s /. s.Serve.Metrics.tokens_per_s)
        (if c.Serve.Metrics.tokens_per_s > s.Serve.Metrics.tokens_per_s then ""
         else "  ** EXPECTED CONTINUOUS TO WIN **"))
    [ 8; 32 ];
  write_json "BENCH_serving.json"
    Base.Json.(
      Object
        (serve_header "serving_continuous_batching" cfg device
        @ [ ("workload", Object [ ("seed", Int 42); ("num_requests", Int 60);
              ("prompt", List [ Int 64; Int 192 ]);
              ("output", List [ Int 32; Int 96 ]) ]);
            ("curves", curves |> objects (fun (policy, max_batch, points) ->
              [ ("policy", String (policy_name policy));
                ("max_batch", Int max_batch);
                ("points", points |> objects (fun (rate, s) ->
                  ("rate_per_s", num 1 rate) :: summary_members s
                    [ "tokens_per_s"; "ttft_p50_ms"; "ttft_p95_ms";
                      "per_token_p50_ms"; "e2e_p95_ms"; "occupancy";
                      "preemptions"; "completed" ])) ])) ]))

(* ---------- chaos: fault injection x scheduling policy ---------- *)

let chaos () =
  section "chaos: fault rate x admission policy, Llama3-8B on RTX 4090";
  (* The resilience headline (DESIGN.md §9): as the injected fault
     rate climbs from 0 to 10%, goodput (deadline-met output tokens/s)
     must degrade smoothly — no availability cliff — and under
     sustained overload the deadline-aware admission policy must hold
     strictly higher SLO attainment than naive FCFS, because FCFS
     spends decode slots on requests that are already doomed to miss
     their deadlines. All runs share one compiled model and are
     seeded end to end (workload seed, fault seed), so every grid
     point is exactly reproducible. *)
  let device = Runtime.Device.rtx4090 in
  let cfg = Frontend.Configs.llama3_8b in
  let model = Serve.Scheduler.model ~cfg ~precision:Frontend.Llm.F16 ~device in
  let workload rate =
    Serve.Workload.generate ~seed:7 ~rate_per_s:rate ~num_requests:50
      ~max_total:cfg.Frontend.Configs.max_context
      ~prompt:(Serve.Workload.Uniform (64, 192))
      ~output:(Serve.Workload.Uniform (32, 96)) ()
  in
  let base_opts =
    { Serve.Scheduler.default_opts with
      Serve.Scheduler.max_batch = 8;
      block_size = 16 }
  in
  (* Capacity probe: back-to-back arrivals, fault-free FCFS. The
     sustainable service rate is completed / makespan. *)
  let probe = Serve.Scheduler.run model base_opts (workload 10_000.0) in
  let capacity_rps =
    float_of_int probe.Serve.Scheduler.summary.Serve.Metrics.completed
    /. (probe.Serve.Scheduler.clock_us /. 1e6)
  in
  (* Deadline slack: 2x the e2e p95 under light load (half
     capacity), so deadlines are comfortably met when the machine is
     healthy and uncontended. *)
  let light = Serve.Scheduler.run model base_opts (workload (0.5 *. capacity_rps)) in
  let slack_us =
    2.0 *. light.Serve.Scheduler.summary.Serve.Metrics.e2e_us.Serve.Metrics.p95
  in
  let overload_rate = 3.0 *. capacity_rps in
  Printf.printf
    "capacity %.1f req/s; overload %.1f req/s; deadline slack %.0f ms\n"
    capacity_rps overload_rate (ms slack_us);
  let wl = Serve.Workload.with_deadline ~slack_us (workload overload_rate) in
  let fault_rates = [ 0.0; 0.01; 0.02; 0.05; 0.1 ] in
  let admissions =
    [ (Serve.Scheduler.Fcfs, "fcfs");
      (Serve.Scheduler.Deadline_aware, "deadline_aware") ]
  in
  let grid =
    List.map
      (fun (admission, aname) ->
        Printf.printf "\n--- admission: %s ---\n" aname;
        Printf.printf "%-12s %10s %8s %10s %6s %6s %6s %8s %8s\n" "fault rate"
          "goodput/s" "SLO" "tokens/s" "shed" "abort" "retry" "faults"
          "makespan";
        let points =
          List.map
            (fun rate ->
              (* The sweep variable is the rate of transient launch
                 failures and device stalls; allocation spikes are
                 half as frequent and silent output corruption an
                 order of magnitude rarer — corruption at the same
                 per-token rate as launch blips would exhaust every
                 request's retry budget and measure only the abort
                 path, not graceful degradation. *)
              let faults =
                if rate > 0.0 then
                  Some
                    { Runtime.Fault.disabled with
                      Runtime.Fault.seed = 1234;
                      kernel_fail_p = rate;
                      stall_p = rate;
                      oom_p = 0.5 *. rate;
                      nan_p = 0.1 *. rate }
                else None
              in
              let opts =
                { base_opts with Serve.Scheduler.admission; faults }
              in
              let r = Serve.Scheduler.run model opts wl in
              let s = r.Serve.Scheduler.summary in
              Printf.printf
                "%-12.2f %10.1f %7.0f%% %10.1f %6d %6d %6d %8d %7.0fms\n" rate
                s.Serve.Metrics.goodput_tokens_per_s
                (s.Serve.Metrics.slo_attainment *. 100.0)
                s.Serve.Metrics.tokens_per_s s.Serve.Metrics.shed
                s.Serve.Metrics.aborted s.Serve.Metrics.retries
                s.Serve.Metrics.faults
                (ms s.Serve.Metrics.makespan_us);
              (rate, s))
            fault_rates
        in
        (aname, points))
      admissions
  in
  (* Headline 1: under the deadline-aware policy goodput degrades
     smoothly — monotonically non-increasing (up to discrete-event
     noise) with no availability cliff (> 60% drop between adjacent
     fault rates). The FCFS baseline is *expected* to cliff: that
     contrast is the point of the experiment. *)
  List.iter
    (fun (aname, points) ->
      let rec check = function
        | (r1, (s1 : Serve.Metrics.summary)) :: ((r2, s2) :: _ as rest) ->
            let g1 = s1.Serve.Metrics.goodput_tokens_per_s
            and g2 = s2.Serve.Metrics.goodput_tokens_per_s in
            if aname = "deadline_aware" && g2 > g1 *. 1.02 then
              Printf.printf
                "  ** %s: goodput rose %.1f -> %.1f between fault rates %.2f \
                 and %.2f **\n"
                aname g1 g2 r1 r2;
            if g2 < g1 *. 0.4 then
              Printf.printf
                (if aname = "deadline_aware" then
                   "  ** %s: goodput CLIFF %.1f -> %.1f between fault rates \
                    %.2f and %.2f **\n"
                 else
                   "  %s: goodput cliff %.1f -> %.1f between fault rates \
                    %.2f and %.2f (expected for the naive baseline)\n")
                aname g1 g2 r1 r2;
            check rest
        | _ -> ()
      in
      check points)
    grid;
  (* Headline 2: deadline-aware admission beats FCFS on SLO
     attainment at 2x overload, at every fault rate. *)
  let slo aname rate =
    let _, points = List.find (fun (n, _) -> n = aname) grid in
    let _, s = List.find (fun (r, _) -> r = rate) points in
    s.Serve.Metrics.slo_attainment
  in
  Printf.printf "\nSLO attainment at %.0fx overload (deadline-aware vs FCFS):\n"
    (overload_rate /. capacity_rps);
  List.iter
    (fun rate ->
      let d = slo "deadline_aware" rate and f = slo "fcfs" rate in
      Printf.printf "  fault rate %.2f: %.0f%% vs %.0f%%%s\n" rate (d *. 100.0)
        (f *. 100.0)
        (if d > f then "" else "  ** EXPECTED DEADLINE-AWARE TO WIN **"))
    fault_rates;
  write_json "BENCH_chaos.json"
    Base.Json.(
      Object
        (serve_header "chaos_fault_injection" cfg device
        @ [ ("capacity_rps", num 2 capacity_rps);
            ("overload_rate_per_s", num 2 overload_rate);
            ("deadline_slack_ms", num 2 (ms slack_us));
            ("workload", Object [ ("seed", Int 7); ("num_requests", Int 50);
              ("prompt", List [ Int 64; Int 192 ]);
              ("output", List [ Int 32; Int 96 ]) ]);
            ("fault_seed", Int 1234);
            ("curves", grid |> objects (fun (aname, points) ->
              [ ("admission", String aname);
                ("points", points |> objects (fun (rate, s) ->
                  ("fault_rate", num 2 rate) :: summary_members s
                    [ "goodput_tokens_per_s"; "slo_attainment"; "tokens_per_s";
                      "completed"; "submitted"; "shed"; "timeouts"; "aborted";
                      "retries"; "faults"; "makespan_ms" ])) ])) ]))

(* ---------- kvshare: cross-request KV prefix sharing ---------- *)

let kvshare () =
  section "kvshare: cross-request KV prefix sharing, Llama3-8B on RTX 4090";
  (* Multi-turn chat sessions over one shared 256-token system prompt:
     every turn's prompt extends the previous conversation, so
     successive turns re-match their session's cached blocks and all
     concurrent sessions share the system-prompt blocks. Sharing is
     block accounting only — full prefill cost is still charged — so
     the win is memory (KV bytes held per logical cached token) and
     the admission headroom the freed blocks buy back under a tight
     budget (fewer preemptions at high request rates). The sweep runs
     the identical seeded workload with sharing off (one physical
     block per logical block, exactly block_bytes/block_size per
     token) and on. *)
  let device = Runtime.Device.rtx4090 in
  let cfg = Frontend.Configs.llama3_8b in
  let model = Serve.Scheduler.model ~cfg ~precision:Frontend.Llm.F16 ~device in
  let block_size = 16 in
  let block_bytes =
    2 * cfg.Frontend.Configs.layers * cfg.Frontend.Configs.kv_heads
    * cfg.Frontend.Configs.head_dim * block_size * 2
  in
  let budget_blocks = 320 in
  let workload rate =
    Serve.Workload.multi_turn_chat ~seed:42 ~rate_per_s:rate ~sessions:12
      ~turns:4 ~vocab:cfg.Frontend.Configs.vocab ~system_len:256
      ~think_time_us:100_000.0 ~max_total:cfg.Frontend.Configs.max_context
      ~turn_user:(Serve.Workload.Uniform (16, 48))
      ~output:(Serve.Workload.Uniform (32, 96))
      ()
  in
  let offered_rps w =
    match (w, List.rev w) with
    | first :: _, last :: _ when List.length w > 1 ->
        float_of_int (List.length w - 1)
        /. ((last.Serve.Workload.arrival_us -. first.Serve.Workload.arrival_us)
           /. 1e6)
    | _ -> 0.0
  in
  let session_rates = [ 1.0; 2.0; 5.0 ] in
  let results =
    List.map
      (fun srate ->
        let w = workload srate in
        let rps = offered_rps w in
        Printf.printf "\n--- %.0f sessions/s (%.1f req/s offered) ---\n" srate
          rps;
        Printf.printf "%-8s %10s %14s %10s %6s %8s %10s\n" "sharing" "tokens/s"
          "KV B/token" "hit rate" "cow" "preempt" "TTFT p50";
        let runs =
          List.map
            (fun share ->
              let opts =
                { Serve.Scheduler.default_opts with
                  Serve.Scheduler.max_batch = 16;
                  block_size;
                  kv_budget_bytes = Some (budget_blocks * block_bytes);
                  kv_share = share }
              in
              let r = Serve.Scheduler.run model opts w in
              let s = r.Serve.Scheduler.summary in
              Printf.printf "%-8s %10.1f %14.1f %9.0f%% %6d %8d %8.1fms\n"
                (if share then "on" else "off")
                s.Serve.Metrics.tokens_per_s s.Serve.Metrics.kv_bytes_per_token
                (s.Serve.Metrics.prefix_hit_rate *. 100.0)
                s.Serve.Metrics.cow_copies s.Serve.Metrics.preemptions
                (ms s.Serve.Metrics.ttft_us.Serve.Metrics.p50);
              (share, s))
            [ false; true ]
        in
        (srate, rps, runs))
      session_rates
  in
  (* Headline: at every rate — including the >= 10 req/s points — the
     shared-prefix workload holds strictly fewer KV bytes per logical
     token than the one-block-per-holder baseline. *)
  List.iter
    (fun (srate, rps, runs) ->
      let s_of share = snd (List.find (fun (sh, _) -> sh = share) runs) in
      let on = s_of true and off = s_of false in
      Printf.printf
        "\nat %.0f sessions/s (%.1f req/s): %.1f KV B/token shared vs %.1f \
         baseline (%.0f%% saved)%s\n"
        srate rps on.Serve.Metrics.kv_bytes_per_token
        off.Serve.Metrics.kv_bytes_per_token
        (100.0
        *. (1.0
           -. (on.Serve.Metrics.kv_bytes_per_token
              /. off.Serve.Metrics.kv_bytes_per_token)))
        (if
           on.Serve.Metrics.kv_bytes_per_token
           < off.Serve.Metrics.kv_bytes_per_token
         then ""
         else "  ** EXPECTED SHARING TO SAVE MEMORY **"))
    results;
  write_json "BENCH_kvshare.json"
    Base.Json.(
      Object
        (serve_header "kv_prefix_sharing" cfg device
        @ [ ("block_size", Int block_size); ("block_bytes", Int block_bytes);
            ("kv_budget_blocks", Int budget_blocks);
            ("workload", Object [ ("kind", String "multi_turn_chat");
              ("seed", Int 42); ("sessions", Int 12); ("turns", Int 4);
              ("system_len", Int 256); ("turn_user", List [ Int 16; Int 48 ]);
              ("output", List [ Int 32; Int 96 ]) ]);
            ("curves", results |> objects (fun (srate, rps, runs) ->
              [ ("sessions_per_s", num 1 srate);
                ("offered_req_per_s", num 2 rps);
                ("points", runs |> objects (fun (share, s) ->
                  ("sharing", Bool share) :: summary_members s
                    [ "kv_bytes_per_token"; "prefix_hit_rate"; "cow_copies";
                      "tokens_per_s"; "ttft_p50_ms"; "e2e_p95_ms";
                      "preemptions"; "completed"; "makespan_ms" ])) ])) ]))

(* ---------- cluster: replicated serving + tensor parallelism ---------- *)

let cluster () =
  section "cluster: replicated serving and tensor parallelism, Llama3-8B";
  let device = Runtime.Device.rtx4090 in
  let cfg = Frontend.Configs.llama3_8b in
  let model = Serve.Scheduler.model ~cfg ~precision:Frontend.Llm.F16 ~device in
  let sched =
    { Serve.Scheduler.default_opts with Serve.Scheduler.max_batch = 16 }
  in
  (* Replica scaling: a 20 req/s Poisson stream of long generations
     saturates a single engine (its makespan runs far past the last
     arrival), so adding replicas converts queueing delay directly
     into throughput until the offered load is absorbed. *)
  let rate = 20.0 in
  let w =
    Serve.Workload.generate ~seed:42 ~rate_per_s:rate ~num_requests:96
      ~max_total:cfg.Frontend.Configs.max_context
      ~prompt:(Serve.Workload.Uniform (32, 128))
      ~output:(Serve.Workload.Uniform (192, 320))
      ()
  in
  Printf.printf "\n--- replica scaling, %.0f req/s, round-robin ---\n" rate;
  Printf.printf "%-9s %10s %10s %12s %12s %8s\n" "replicas" "tokens/s"
    "goodput" "TTFT p50" "makespan" "speedup";
  let scaling =
    List.map
      (fun m ->
        let opts =
          { Dist.Cluster.default_opts with
            Dist.Cluster.replicas = m;
            route = Dist.Cluster.Round_robin;
            sched }
        in
        let r = Dist.Cluster.run ~model opts w in
        (m, r.Dist.Cluster.summary))
      [ 1; 2; 4; 8 ]
  in
  let base_tps = (snd (List.hd scaling)).Serve.Metrics.tokens_per_s in
  List.iter
    (fun (m, (s : Serve.Metrics.summary)) ->
      Printf.printf "%-9d %10.1f %10.1f %10.1fms %10.1fms %7.2fx\n" m
        s.Serve.Metrics.tokens_per_s s.Serve.Metrics.goodput_tokens_per_s
        (ms s.Serve.Metrics.ttft_us.Serve.Metrics.p50)
        (ms s.Serve.Metrics.makespan_us)
        (s.Serve.Metrics.tokens_per_s /. base_tps))
    scaling;
  let tps_of m = (List.assoc m scaling).Serve.Metrics.tokens_per_s in
  Printf.printf "\n1 -> 4 replicas: %.2fx throughput%s\n"
    (tps_of 4 /. tps_of 1)
    (if tps_of 4 /. tps_of 1 >= 2.5 then ""
     else "  ** EXPECTED >= 2.5x SCALING **");
  (* Routing policies on a prefix-heavy chat workload: with KV prefix
     sharing and the prefill discount on, landing a session's turns on
     the replica that already caches their shared prefix (affinity)
     should beat spreading them blindly (round-robin) on TTFT. The
     affinity window must reach past the shared system prompt, or
     every session hashes to the same replica. *)
  let replicas = 4 in
  let chat =
    Serve.Workload.multi_turn_chat ~seed:7 ~rate_per_s:40.0 ~sessions:16
      ~turns:4 ~vocab:cfg.Frontend.Configs.vocab ~system_len:48
      ~think_time_us:120_000.0 ~max_total:cfg.Frontend.Configs.max_context
      ~turn_user:(Serve.Workload.Uniform (16, 48))
      ~output:(Serve.Workload.Uniform (32, 96))
      ()
  in
  let chat_sched =
    { sched with
      Serve.Scheduler.kv_share = true;
      Serve.Scheduler.prefix_prefill_discount = true }
  in
  Printf.printf
    "\n--- routing, %d replicas, multi-turn chat, kv_share + prefill discount \
     ---\n"
    replicas;
  Printf.printf "%-16s %12s %12s %10s %10s\n" "route" "TTFT p50" "TTFT p95"
    "hit rate" "tokens/s";
  let routing =
    List.map
      (fun route ->
        let opts =
          { Dist.Cluster.default_opts with
            Dist.Cluster.replicas;
            route;
            affinity_window = 128;
            sched = chat_sched }
        in
        let r = Dist.Cluster.run ~model opts chat in
        let s = r.Dist.Cluster.summary in
        Printf.printf "%-16s %10.1fms %10.1fms %9.0f%% %10.1f\n"
          (Dist.Cluster.route_name route)
          (ms s.Serve.Metrics.ttft_us.Serve.Metrics.p50)
          (ms s.Serve.Metrics.ttft_us.Serve.Metrics.p95)
          (s.Serve.Metrics.prefix_hit_rate *. 100.0)
          s.Serve.Metrics.tokens_per_s;
        (route, s))
      [ Dist.Cluster.Round_robin; Least_loaded; Power_of_two; Prefix_affinity ]
  in
  let ttft_of route =
    (List.assoc route routing).Serve.Metrics.ttft_us.Serve.Metrics.p50
  in
  Printf.printf "\naffinity vs round-robin TTFT p50: %.1fms vs %.1fms%s\n"
    (ms (ttft_of Dist.Cluster.Prefix_affinity))
    (ms (ttft_of Dist.Cluster.Round_robin))
    (if ttft_of Dist.Cluster.Prefix_affinity < ttft_of Dist.Cluster.Round_robin
     then ""
     else "  ** EXPECTED AFFINITY TO WIN TTFT **");
  (* TP sweep: one timed decode step per degree. Per-shard compute
     shrinks ~1/tp while every extra shard adds all-gathers charged
     from the PCIe link, so the modeled speedup peaks and then decays
     — the crossover where collective cost overtakes the compute
     saving. *)
  let ctx = 1024 in
  Printf.printf "\n--- tensor-parallel decode step, ctx %d, %s over %s ---\n"
    ctx device.Runtime.Device.name
    device.Runtime.Device.link.Runtime.Device.link_name;
  Printf.printf "%-4s %12s %12s %10s %6s %9s %9s\n" "tp" "parallel" "serial"
    "comm" "coll" "comm frac" "speedup";
  let sweep =
    List.map
      (fun tp ->
        let r = Dist.Tp.step_report cfg ~batch:1 ~tp ~ctx ~device () in
        r)
      [ 1; 2; 4; 8 ]
  in
  let base_us = (List.hd sweep).Dist.Tp.parallel_us in
  List.iter
    (fun (r : Dist.Tp.step_report) ->
      Printf.printf "%-4d %10.1fus %10.1fus %8.1fus %6d %8.0f%% %8.2fx\n"
        r.Dist.Tp.tp r.Dist.Tp.parallel_us r.Dist.Tp.serial_us
        r.Dist.Tp.comm_us r.Dist.Tp.collectives
        (100.0 *. r.Dist.Tp.comm_us /. r.Dist.Tp.parallel_us)
        (base_us /. r.Dist.Tp.parallel_us))
    sweep;
  write_json "BENCH_cluster.json"
    Base.Json.(
      Object
        (serve_header "cluster" cfg device
        @ [ ("interconnect",
             String device.Runtime.Device.link.Runtime.Device.link_name);
            ("replica_scaling", Object [ ("rate_req_per_s", num 1 rate);
              ("route", String "round-robin");
              ("points", scaling |> objects (fun (m, s) ->
                (("replicas", Int m) :: summary_members s
                  [ "tokens_per_s"; "goodput_tokens_per_s"; "ttft_p50_ms";
                    "makespan_ms"; "completed" ])
                @ [ ("speedup_vs_1",
                     num 3 (s.Serve.Metrics.tokens_per_s /. base_tps)) ])) ]);
            ("routing", Object [ ("replicas", Int replicas);
              ("workload", String "multi_turn_chat"); ("kv_share", Bool true);
              ("prefix_prefill_discount", Bool true);
              ("affinity_window", Int 128);
              ("points", routing |> objects (fun (route, s) ->
                ("route", String (Dist.Cluster.route_name route))
                :: summary_members s
                  [ "ttft_p50_ms"; "ttft_p95_ms"; "prefix_hit_rate";
                    "tokens_per_s"; "completed" ])) ]);
            ("tp_sweep", Object [ ("ctx", Int ctx); ("strategy", String "gather");
              ("points", sweep |> objects (fun (r : Dist.Tp.step_report) ->
                [ ("tp", Int r.Dist.Tp.tp);
                  ("parallel_us", num 1 r.Dist.Tp.parallel_us);
                  ("serial_us", num 1 r.Dist.Tp.serial_us);
                  ("comm_us", num 1 r.Dist.Tp.comm_us);
                  ("collectives", Int r.Dist.Tp.collectives);
                  ("speedup_vs_tp1", num 3 (base_us /. r.Dist.Tp.parallel_us))
                ])) ]) ]))

(* ---------- failover: cluster fault tolerance ---------- *)

(* Kill the cluster's hottest replica for the middle third of a
   prefix-affinity chat run and compare three routings of the same
   workload: fault-free, health-blind (the naive baseline: the dead
   replica's queue strands until its engine restarts) and health-aware
   failover (drained requests re-admit on surviving replicas with KV
   recomputed).

   Prefix affinity is the interesting victim: it deliberately
   concentrates sessions onto replicas for KV locality (the cluster
   bench shows it winning TTFT), and that concentration is exactly
   what makes a health-blind crash catastrophic — the hot replica
   carries far more than its 1/M fair share, so when it dies the
   naive router keeps feeding the black hole and the goodput cliff is
   much deeper than 1/M. Health-aware routing turns the cliff into a
   dip: the fallback walk re-spreads the hot replica's sessions over
   the survivors deterministically. *)

let failover () =
  section "failover: crash the hot replica mid-run, Llama3-8B, 4 replicas";
  let device = Runtime.Device.rtx4090 in
  let cfg = Frontend.Configs.llama3_8b in
  let model = Serve.Scheduler.model ~cfg ~precision:Frontend.Llm.F16 ~device in
  let replicas = 4 in
  let sched =
    { Serve.Scheduler.default_opts with Serve.Scheduler.max_batch = 16 }
  in
  (* ~120 requests at ~20 req/s: 8 chat sessions of 15 turns whose
     prompts share a growing prefix, so affinity pins each session to
     one replica; every request carries a deadline. *)
  let slack_us = 500_000.0 in
  let chat seed =
    Serve.Workload.multi_turn_chat ~seed ~rate_per_s:2.0 ~sessions:5
      ~turns:24 ~vocab:cfg.Frontend.Configs.vocab ~system_len:16
      ~think_time_us:120_000.0 ~max_total:cfg.Frontend.Configs.max_context
      ~turn_user:(Serve.Workload.Uniform (3, 8))
      ~output:(Serve.Workload.Uniform (4, 10))
      ()
  in
  let w = chat 36 |> Serve.Workload.with_deadline ~slack_us in
  let n = List.length w in
  let last_arrival =
    List.fold_left
      (fun acc (r : Serve.Workload.request) ->
        Float.max acc r.Serve.Workload.arrival_us)
      0.0 w
  in
  let base_opts route_aware =
    { Dist.Cluster.default_opts with
      Dist.Cluster.replicas;
      route = Dist.Cluster.Prefix_affinity;
      affinity_window = 128;
      sched;
      health_aware = route_aware;
    }
  in
  (* The victim: whichever replica affinity loads most (worst-case
     crash for this routing policy). *)
  let fault_free_dispatch = Dist.Cluster.dispatch ~model (base_opts true) w in
  let share = Array.make replicas 0 in
  List.iter (fun (_, k) -> share.(k) <- share.(k) + 1) fault_free_dispatch;
  let victim = ref 0 in
  Array.iteri (fun k c -> if c > share.(!victim) then victim := k) share;
  let victim = !victim in
  let crash_from = last_arrival /. 3.0 in
  let crash_until = 2.0 *. last_arrival /. 3.0 in
  let plan =
    [ { Runtime.Fault.replica = victim;
        rkind = Runtime.Fault.Replica_crash;
        from_us = crash_from;
        until_us = crash_until;
        factor = 1.0;
      } ]
  in
  Printf.printf
    "\n%d chat requests over %.1fs, prefix-affinity; replica %d carries \
     %d/%d (%.0f%%)\n"
    n (last_arrival /. 1e6) victim share.(victim) n
    (100.0 *. float_of_int share.(victim) /. float_of_int n);
  Printf.printf "crash window: replica %d dead %.2fs - %.2fs (middle third)\n"
    victim (crash_from /. 1e6) (crash_until /. 1e6);
  let run label opts =
    let r = Dist.Cluster.run ~model opts w in
    (label, r)
  in
  let runs =
    [ run "fault-free" (base_opts true);
      run "naive"
        { (base_opts false) with Dist.Cluster.replica_faults = plan };
      run "health-aware"
        { (base_opts true) with Dist.Cluster.replica_faults = plan } ]
  in
  (* Per-request metrics merged across every era of every replica
     (hedging is off, so ids are unique). *)
  let merged (r : Dist.Cluster.result) =
    Array.to_list r.Dist.Cluster.replica_reports
    |> List.concat_map (fun (rep : Dist.Cluster.replica_report) ->
           List.concat_map
             (fun (_, (er : Serve.Scheduler.result)) ->
               er.Serve.Scheduler.completed)
             rep.Dist.Cluster.eras)
  in
  let met (rm : Serve.Metrics.request_metrics) =
    match rm.Serve.Metrics.deadline_us with
    | Some d -> rm.Serve.Metrics.finish_us <= d
    | None -> true
  in
  (* Windowed goodput: deadline-met output tokens finishing inside
     [a, b), per second of window. *)
  let goodput_in rs a b =
    List.fold_left
      (fun acc (rm : Serve.Metrics.request_metrics) ->
        if rm.Serve.Metrics.finish_us >= a && rm.Serve.Metrics.finish_us < b
           && met rm
        then acc + rm.Serve.Metrics.tokens
        else acc)
      0 rs
    |> fun t -> float_of_int t /. ((b -. a) /. 1e6)
  in
  (* Post window starts once recovery has settled (rejoin probe +
     half-open promotion land within ~200ms of the window end). *)
  let post_from = crash_until +. 200_000.0 in
  let post_until = last_arrival +. 1_000_000.0 in
  Printf.printf "\n%-14s %9s %9s %9s %9s %7s %7s %6s %9s\n" "run" "goodput"
    "pre" "fault" "post" "SLO" "lost" "failov" "downtime";
  let stats =
    List.map
      (fun (label, (r : Dist.Cluster.result)) ->
        let rs = merged r in
        let s = r.Dist.Cluster.summary in
        let lost = n - s.Serve.Metrics.completed in
        let pre = goodput_in rs 0.0 crash_from in
        let fault = goodput_in rs crash_from crash_until in
        let post = goodput_in rs post_from post_until in
        Printf.printf
          "%-14s %9.1f %9.1f %9.1f %9.1f %6.0f%% %7d %6d %7.0fms\n" label
          s.Serve.Metrics.goodput_tokens_per_s pre fault post
          (100.0 *. s.Serve.Metrics.slo_attainment)
          lost s.Serve.Metrics.failovers
          (s.Serve.Metrics.replica_downtime_us /. 1e3);
        (label, (s, lost, pre, fault, post)))
      runs
  in
  let stat label = List.assoc label stats in
  let _, _, _, fault_aware, post_aware = stat "health-aware" in
  let _, _, _, fault_naive, _ = stat "naive" in
  let _, _, _, _, post_free = stat "fault-free" in
  Printf.printf
    "\nfault-window goodput: health-aware %.1f vs naive %.1f tok/s \
     (%.2fx)%s\n"
    fault_aware fault_naive
    (fault_aware /. Float.max 1.0 fault_naive)
    (if fault_aware >= 2.0 *. fault_naive then ""
     else "  ** EXPECTED >= 2x NAIVE **");
  Printf.printf "post-recovery goodput: %.1f vs fault-free %.1f tok/s \
                 (%.0f%%)%s\n"
    post_aware post_free
    (100.0 *. post_aware /. Float.max 1.0 post_free)
    (if post_aware >= 0.9 *. post_free then ""
     else "  ** EXPECTED WITHIN 10% OF FAULT-FREE **");
  let _, lost_aware, _, _, _ = stat "health-aware" in
  let aware_ids =
    List.map
      (fun (rm : Serve.Metrics.request_metrics) -> rm.Serve.Metrics.id)
      (merged (snd (List.nth runs 2)))
  in
  let dups = List.length aware_ids - List.length (List.sort_uniq compare aware_ids) in
  Printf.printf "health-aware completions: %d lost, %d duplicated%s\n"
    lost_aware dups
    (if lost_aware = 0 && dups = 0 then ""
     else "  ** EXPECTED ZERO LOST / DUPLICATED **");
  write_json "BENCH_failover.json"
    Base.Json.(
      Object
        [ ("benchmark", String "failover");
          ("model", String cfg.Frontend.Configs.name);
          ("device", String device.Runtime.Device.name);
          ("replicas", Int replicas); ("route", String "prefix-affinity");
          ("requests", Int n); ("deadline_slack_ms", num 0 (slack_us /. 1e3));
          ("victim_replica", Int victim);
          ("victim_share",
           num 3 (float_of_int share.(victim) /. float_of_int n));
          ("crash_window_s",
           List [ num 3 (crash_from /. 1e6); num 3 (crash_until /. 1e6) ]);
          ("runs", stats |> objects (fun (label, (s, lost, pre, fault, post)) ->
            (("run", String label)
             :: summary_members s [ "goodput_tokens_per_s" ])
            @ [ ("window_goodput_tokens_per_s", Object [ ("pre", num 1 pre);
                  ("fault", num 1 fault); ("post", num 1 post) ]) ]
            @ summary_members s [ "slo_attainment"; "completed" ]
            @ (("lost", Int lost) :: summary_members s
                 [ "failovers"; "migrations"; "replica_downtime_ms";
                   "makespan_ms" ])));
          ("fault_window_ratio_vs_naive",
           num 3 (fault_aware /. Float.max 1.0 fault_naive));
          ("post_recovery_ratio_vs_fault_free",
           num 3 (post_aware /. Float.max 1.0 post_free)) ])

(* ---------- registry ---------- *)

let experiments =
  [ ("fig14", "LLM decode vs baselines on NVIDIA RTX 4090",
     fig_llm ~figure:"fig14" ~device:Runtime.Device.rtx4090);
    ("fig15", "LLM decode vs baselines on AMD Radeon 7900 XTX",
     fig_llm ~figure:"fig15" ~device:Runtime.Device.rx7900xtx);
    ("fig16", "LLM decode vs baselines on Apple M2 Ultra",
     fig_llm ~figure:"fig16" ~device:Runtime.Device.m2_ultra);
    ("fig17", "optimization ablation", fig17);
    ("table2", "memory usage with/without static planning", table2);
    ("table3", "quantized models on emerging platforms", table3);
    ("fig18", "Samsung S24: Relax GPU vs llama.cpp CPU", fig18);
    ("fig19", "Whisper-large-v3 transcription", fig19);
    ("fig20", "LLaVA generation", fig20);
    ("fig9", "fused quantized decode ablation", fig9);
    ("bucketing", "symbolic shapes vs Nimble-style bucketing", bucketing);
    ("fig11", "workspace lifting ablation", fig11);
    ("micro", "compiler micro-benchmarks (bechamel)", bechamel_section);
    ("kernels",
     "TIR kernels: interp vs imp backends; writes BENCH_kernels.json",
     kernels_bench);
    ("serving",
     "continuous vs static batching serving sweep; writes BENCH_serving.json",
     serving);
    ("chaos",
     "fault injection x scheduling policy sweep; writes BENCH_chaos.json",
     chaos);
    ("kvshare",
     "cross-request KV prefix sharing on vs off; writes BENCH_kvshare.json",
     kvshare);
    ("cluster",
     "replica scaling, routing policies and TP sweep; writes \
      BENCH_cluster.json",
     cluster);
    ("failover",
     "crash 1-of-4 replicas mid-run, health-aware vs naive; writes \
      BENCH_failover.json",
     failover) ]

let usage () =
  prerr_endline
    "usage: bench [--list] [--only EXPERIMENT] [--out DIR]\n\
    \  --list        list experiments and exit\n\
    \  --only ID     run one experiment instead of all\n\
    \  --out DIR     write JSON outputs under DIR (created with its parents)";
  exit 1

let () =
  let only = ref None in
  let list = ref false in
  let rec parse = function
    | [] -> ()
    | "--list" :: rest -> list := true; parse rest
    | "--only" :: id :: rest -> only := Some id; parse rest
    | "--out" :: dir :: rest -> mkdir_p dir; out_dir := dir; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list then
    List.iter (fun (id, title, _) -> Printf.printf "%-8s %s\n" id title) experiments
  else
    match !only with
    | Some id -> (
        match List.find_opt (fun (i, _, _) -> i = id) experiments with
        | Some (_, _, run) -> run ()
        | None ->
            Printf.eprintf "unknown experiment %s (try --list)\n" id;
            exit 1)
    | None -> List.iter (fun (_, _, run) -> run ()) experiments
