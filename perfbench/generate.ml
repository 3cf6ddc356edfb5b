(* generate-small: closed-loop greedy generation, one client, batch 1,
   over the seeded [Gen.small] model compiled for the library-less
   S24-CPU preset, so every operator runs as generated TIR on the imp
   backend. Each request is a prefill with returned caches, copied into
   paged caches, then [decode_paged] steps — the serving engine's
   numeric path. *)

open Frontend

let device = Runtime.Device.samsung_s24_cpu
let cfg = Gen.small

type phase = Prefill | Decode

(* Counters a traced run folds from the VM's event stream; indexed by
   phase (0 prefill, 1 decode). Warm-up requests are not counted. *)
type vm_counts = {
  instrs : int array;
  allocs : int array;
  reused : int array;
  flops : float array;
  bytes : float array;
  kernel_ns : int64 array;
  alloc_ns : int64 array;
  by_class : (string, int64 ref) Hashtbl.t;
}

let cnt =
  { instrs = [| 0; 0 |]; allocs = [| 0; 0 |]; reused = [| 0; 0 |];
    flops = [| 0.; 0. |]; bytes = [| 0.; 0. |]; kernel_ns = [| 0L; 0L |];
    alloc_ns = [| 0L; 0L |]; by_class = Hashtbl.create 8 }

let reset () =
  Array.fill cnt.instrs 0 2 0; Array.fill cnt.allocs 0 2 0; Array.fill cnt.reused 0 2 0;
  Array.fill cnt.flops 0 2 0.; Array.fill cnt.bytes 0 2 0.;
  Array.fill cnt.kernel_ns 0 2 0L; Array.fill cnt.alloc_ns 0 2 0L;
  Hashtbl.reset cnt.by_class

let counting = ref true
let phase = ref Prefill
let pi () = match !phase with Prefill -> 0 | Decode -> 1

(* Kernel name with numeric suffixes stripped ("fused_matmul_13_add_3"
   -> "fused_matmul_add"). *)
let strip_digits name =
  String.split_on_char '_' name
  |> List.filter_map (fun part ->
         match String.of_seq (Seq.filter (fun c -> c < '0' || c > '9') (String.to_seq part)) with
         | "" -> None
         | p -> Some p)
  |> String.concat "_"

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let kernel_class name =
  if contains name "attention" then
    if !phase = Decode then "attention_paged" else "attention_prefill"
  else if contains name "matmul" then "matmul"
  else if contains name "rope" then "rope"
  else if contains name "norm" then "norm"
  else "other"

(* The VM trace sink: one span per instruction, retagged as a [tir]
   kernel span when it encloses a launch; allocator instructions stay in
   [runtime] under the name "alloc". Instruction begin/end are stamped
   with the monotonic clock. *)
let sink : Runtime.Trace.sink =
 fun ev ->
  let c = cnt in
  let i = pi () in
  match ev with
  | Runtime.Trace.Instr_begin { op; _ } ->
      if !counting then c.instrs.(i) <- c.instrs.(i) + 1;
      let name =
        match op with
        | "alloc_storage" | "alloc_tensor" | "kill" -> "alloc"
        | op -> "vm." ^ op
      in
      ignore (Span.open_ ~layer:"runtime" name)
  | Kernel_launch { kernel; flops; bytes_moved; _ } -> (
      if !counting then begin
        c.flops.(i) <- c.flops.(i) +. float_of_int flops;
        c.bytes.(i) <- c.bytes.(i) +. float_of_int bytes_moved
      end;
      match Span.top () with
      | Some s ->
          s.layer <- "tir";
          s.name <- strip_digits kernel
      | None -> ())
  | Alloc { reused; _ } ->
      if !counting then begin
        c.allocs.(i) <- c.allocs.(i) + 1;
        if reused then c.reused.(i) <- c.reused.(i) + 1
      end
  | Instr_end _ -> (
      match Span.top () with
      | Some s ->
          Span.close s;
          let d = Span.dur_ns s in
          if not !counting then ()
          else if s.layer = "tir" then begin
            c.kernel_ns.(i) <- Int64.add c.kernel_ns.(i) d;
            let k = kernel_class s.name in
            match Hashtbl.find_opt c.by_class k with
            | Some r -> r := Int64.add !r d
            | None -> Hashtbl.add c.by_class k (ref d)
          end
          else if s.name = "alloc" then
            c.alloc_ns.(i) <- Int64.add c.alloc_ns.(i) (Span.self_ns s)
      | None -> ())
  | Exit _ -> (
      (* [Ret] emits a begin and no end: close it as the frame exits. *)
      match Span.top () with
      | Some s when s.name = "vm.ret" -> Span.close s
      | _ -> ())
  | _ -> ()

(* The compiled model: programs, weights and the proof pass. *)
type model = {
  pre_built : Llm.built;
  dec_built : Llm.built;
  pre_prog : Runtime.Vm.program;
  dec_prog : Runtime.Vm.program;
  weights : Runtime.Vm.value list;  (* embedding :: layer weights *)
  kernels : (string * Tir.Prim_func.t) list;  (* distinct, both programs *)
  build_ms : float;
  proof_ms : float;
}

(* One closed-loop session: fresh VMs, so kernel caches start cold. *)
type session = { m : model; pre_vm : Runtime.Vm.t; dec_vm : Runtime.Vm.t }

let compile (built : Llm.built) =
  Span.with_ ~layer:"passes" "Pipeline.compile" (fun () ->
      Relax_passes.Pipeline.compile
        ~options:
          { Relax_passes.Pipeline.default_options with
            upper_bounds = Llm.upper_bound_hints built }
        ~device built.mod_)

let fresh_caches () =
  List.init (2 * cfg.layers) (fun _ ->
      Runtime.Vm.tensor
        (Base.Ndarray.create Base.Dtype.F16
           [| 1; cfg.kv_heads; cfg.max_context; cfg.head_dim |]))

let argmax t =
  let best = ref 0 and best_v = ref neg_infinity in
  for i = 0 to Base.Ndarray.numel t - 1 do
    let v = Base.Ndarray.get_flat_float t i in
    if v > !best_v then begin best_v := v; best := i end
  done;
  !best

let ids_tensor toks =
  Runtime.Vm.tensor
    (Base.Ndarray.of_int_list Base.Dtype.I32 [| List.length toks |] toks)

let first_logits = function
  | Runtime.Vm.Tuple_val (l :: _) -> Runtime.Vm.value_tensor l
  | v -> Runtime.Vm.value_tensor v

(* Copy prefill's (1, kv, n, d) caches into the (1, kv, max_ctx, d)
   paged tensors. *)
let copy_caches fresh persistent n =
  List.iter2
    (fun f p ->
      let src = Runtime.Vm.value_tensor f and dst = Runtime.Vm.value_tensor p in
      for h = 0 to cfg.kv_heads - 1 do
        for pos = 0 to n - 1 do
          for x = 0 to cfg.head_dim - 1 do
            Base.Ndarray.set_float dst [| 0; h; pos; x |]
              (Base.Ndarray.get_float src [| 0; h; pos; x |])
          done
        done
      done)
    fresh persistent

(* Host measurements of one session: raw, and scaled to the reference
   host speed (per request). *)
type meas = {
  mutable prefill_ms : float;
  mutable prefill_ref_ms : float;
  mutable prefill_tokens : int;
  mutable decode_ms : float;
  mutable decode_ref_ms : float;
  mutable decode_tokens : int;
  mutable itl_ms : float list;
  mutable itl_ref_ms : float list;
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable outputs : (Gen.gen_request * int list) list;  (* newest first *)
}

let meas () =
  { prefill_ms = 0.0; prefill_ref_ms = 0.0; prefill_tokens = 0; decode_ms = 0.0;
    decode_ref_ms = 0.0; decode_tokens = 0; itl_ms = []; itl_ref_ms = [];
    minor_words = 0.0; major_gcs = 0; outputs = [] }

let vm_run ms vm entry args =
  let w0 = Out.minor_words () in
  let v, t = Out.time_ms (fun () -> Runtime.Vm.run vm entry args) in
  ms.minor_words <- ms.minor_words +. (Out.minor_words () -. w0);
  (v, t)

(* One request: prefill, then [max_new - 1] decode steps. *)
let serve_request c ms (r : Gen.gen_request) =
  let prefill = ref 0.0 and decode = ref 0.0 and itl = ref [] in
  let gc0 = (Gc.quick_stat ()).major_collections in
  let toks, speed =
    Out.at_ref_speed (fun () ->
        Span.with_ ~req:r.gid ~layer:"bench" "request" (fun () ->
            let caches = fresh_caches () in
            let n = List.length r.prompt in
            phase := Prefill;
            let out, t =
              Span.with_ ~req:r.gid ~layer:"runtime" "Vm.run prefill" (fun () ->
                  vm_run ms c.pre_vm c.m.pre_built.entry (ids_tensor r.prompt :: c.m.weights))
            in
            prefill := t;
            (match out with
            | Runtime.Vm.Tuple_val (_ :: fresh) -> copy_caches fresh caches n
            | _ -> failwith "prefill did not return (logits, caches...)");
            let tok = ref (argmax (first_logits out)) in
            let gen = ref [ !tok ] in
            phase := Decode;
            for step = 0 to r.max_new - 2 do
              let t0 = Span.now_ns () in
              let args =
                (ids_tensor [ !tok ] :: Runtime.Vm.Shape_val [| n + step |] :: caches)
                @ c.m.weights
              in
              let out, t =
                Span.with_ ~req:r.gid ~layer:"runtime" "Vm.run decode" (fun () ->
                    vm_run ms c.dec_vm c.m.dec_built.entry args)
              in
              tok := argmax (first_logits out);
              gen := !tok :: !gen;
              decode := !decode +. t;
              itl := Span.ms_of_ns (Int64.sub (Span.now_ns ()) t0) :: !itl
            done;
            List.rev !gen))
  in
  ms.major_gcs <- ms.major_gcs + (Gc.quick_stat ()).major_collections - gc0;
  ms.prefill_ms <- ms.prefill_ms +. !prefill;
  ms.prefill_ref_ms <- ms.prefill_ref_ms +. (!prefill *. speed);
  ms.prefill_tokens <- ms.prefill_tokens + List.length r.prompt;
  ms.decode_ms <- ms.decode_ms +. !decode;
  ms.decode_ref_ms <- ms.decode_ref_ms +. (!decode *. speed);
  ms.decode_tokens <- ms.decode_tokens + List.length !itl;
  ms.itl_ms <- !itl @ ms.itl_ms;
  ms.itl_ref_ms <- List.map (fun t -> t *. speed) !itl @ ms.itl_ref_ms;
  ms.outputs <- (r, toks) :: ms.outputs

(* Fresh VMs over [m]'s programs, warmed with one short request whose
   cache lengths no measured request uses. *)
let session ~seed ~traced m =
  let trace = if traced then Some sink else None in
  let c =
    { m; pre_vm = Runtime.Vm.create ?trace `Numeric m.pre_prog;
      dec_vm = Runtime.Vm.create ?trace `Numeric m.dec_prog }
  in
  counting := false;
  serve_request c (meas ()) (Gen.warmup_request ~seed ~vocab:cfg.vocab);
  counting := true;
  c

let setup ~seed ~traced () =
  let (pre_built, dec_built), build_ms =
    Out.time_ms (fun () ->
        ( Span.with_ ~layer:"frontend" "Llm.prefill" (fun () ->
              Llm.prefill ~return_caches:true cfg Llm.F16),
          Span.with_ ~layer:"frontend" "Llm.decode_paged" (fun () ->
              Llm.decode_paged cfg ~batch:1 Llm.F16) ))
  in
  let pre_prog = compile pre_built and dec_prog = compile dec_built in
  (* decode_paged's parameters are ids, cur_len, caches..., then the
     weights prefill also takes, in the same order. *)
  let weights =
    Span.with_ ~layer:"frontend" "Llm.args_for" (fun () ->
        Llm.args_for dec_built ~ctx:0 ~seed ~mode:`Numeric ()
        |> List.filteri (fun i _ -> i >= 2 + (2 * cfg.layers)))
  in
  let find k =
    match Relax_core.Ir_module.find_tir dec_prog.mod_ k with
    | Some f -> (k, f)
    | None -> (k, Option.get (Relax_core.Ir_module.find_tir pre_prog.mod_ k))
  in
  let kernels =
    List.sort_uniq compare
      (List.map fst (Relax_core.Ir_module.tir_funcs pre_prog.mod_)
      @ List.map fst (Relax_core.Ir_module.tir_funcs dec_prog.mod_))
    |> List.map find
  in
  let (), proof_ms =
    Out.time_ms (fun () ->
        Span.with_ ~layer:"analysis" "Proof.memory_safe" (fun () ->
            List.iter (fun (_, f) -> ignore (Analysis.Proof.memory_safe f)) kernels))
  in
  let m =
    { pre_built; dec_built; pre_prog; dec_prog; weights; kernels; build_ms; proof_ms }
  in
  session ~seed ~traced m

let cache_stats c =
  let a = Runtime.Vm.kernel_cache c.pre_vm and b = Runtime.Vm.kernel_cache c.dec_vm in
  let open Tir.Exec.Cache in
  [| hits a + hits b; misses a + misses b; compiled_count a + compiled_count b; misses b |]

(* The reference: Baselines.Eager applies no Relax pass and keeps no
   paged cache; it re-prefills the growing sequence for each token. *)
let eager_tokens m (r : Gen.gen_request) k =
  let rec go seq acc i =
    if i = k then List.rev acc
    else
      let out, _ =
        Baselines.Eager.run ~entry:m.pre_built.entry `Numeric m.pre_built.mod_
          (ids_tensor seq :: m.weights)
      in
      let t = argmax (first_logits out) in
      go (seq @ [ t ]) (t :: acc) (i + 1)
  in
  go r.prompt [] 0

(* Requests per session: one from each length stratum. *)
let per_session = Array.length Gen.prompt_strata

type session_result = {
  ms : meas;
  cache : int array;  (* hits, misses, compiled, decode misses *)
}

(* Sessions over successive slices of [reqs] until [seconds] have
   passed, at least [min_sessions]; the first reuses [first]. Returns
   the results and the last session. *)
let sessions ~seed ~traced ~first m reqs ~seconds ~min_sessions =
  let t0 = Span.now_ns () in
  let rec go k acc prev =
    if k >= min_sessions && Span.ms_of_ns (Int64.sub (Span.now_ns ()) t0) >= seconds *. 1e3
    then (List.rev acc, prev)
    else begin
      (* Each session starts like a fresh process: from a collected
         heap, outside the timed region. *)
      Gc.full_major ();
      let c = if k = 0 then first else session ~seed ~traced m in
      let ms = meas () in
      List.iter (serve_request c ms)
        (List.filteri (fun i _ -> i / per_session = k) reqs);
      go (k + 1) ({ ms; cache = cache_stats c } :: acc) c
    end
  in
  go 0 [] first

let tokens ms = ms.prefill_tokens + ms.decode_tokens

let ns_per_token runs =
  Out.sum (List.map (fun r -> (r.ms.prefill_ms +. r.ms.decode_ms) *. 1e6) runs)
  /. float_of_int (List.fold_left (fun a r -> a + tokens r.ms) 0 runs)

(* Tokens of each request's generation the Eager reference checks. *)
let checked_prefix = 4

let run ~seed ~seconds ~traced ~reduced : Out.result =
  let reqs = Gen.gen_requests ~seed ~vocab:cfg.vocab 400 in
  let reqs =
    if reduced then List.map (fun r -> { r with Gen.max_new = min r.Gen.max_new 4 }) reqs
    else reqs
  in
  let min_sessions = if reduced then 1 else 3 in
  let seconds = if reduced then 0.0 else seconds in
  (* Traced: first the same sessions untraced, the base of the tracing
     overhead. *)
  let base =
    if not traced then []
    else
      let first = setup ~seed ~traced:false () in
      fst (sessions ~seed ~traced:false ~first first.m reqs ~seconds:(seconds /. 2.0) ~min_sessions)
  in
  let model, (setup_raw_s, setup_s), (runs, vms) =
    Span.root ~enabled:traced "generate-small" (fun () ->
        let c, raw, scaled =
          Span.with_ ~layer:"bench" "setup" (fun () ->
              Out.repeat_setup (if reduced then 1 else 5) (setup ~seed ~traced))
        in
        reset ();
        let runs =
          if traced then
            sessions ~seed ~traced ~first:c c.m reqs ~seconds:0.0
              ~min_sessions:(List.length base)
          else sessions ~seed ~traced ~first:c c.m reqs ~seconds ~min_sessions
        in
        (c.m, (raw, scaled), runs))
  in
  let peak_heap_mb = Out.peak_heap_mb () in
  let all = List.map (fun r -> r.ms) runs in
  let total f = List.fold_left (fun a ms -> a + f ms) 0 all in
  let cache i = List.fold_left (fun a r -> a + r.cache.(i)) 0 runs in
  (* Output check, outside the timed region: the first session's
     requests, one per length stratum. *)
  let served = List.concat_map (fun ms -> List.rev ms.outputs) all in
  let failed =
    List.length
      (List.filter
         (fun ((r : Gen.gen_request), toks) ->
           let k = min checked_prefix (List.length toks) in
           eager_tokens model r k <> List.filteri (fun i _ -> i < k) toks)
         (List.rev (List.hd all).outputs))
  in
  let itl = List.concat_map (fun ms -> ms.itl_ms) all in
  let session_median f = Out.median (List.map f all) in
  let named =
    Out.
      [ m "prefill_tok_s" "tok/s"
          (session_median (fun ms -> float_of_int ms.prefill_tokens /. ms.prefill_ms *. 1e3));
        m "decode_tok_s" "tok/s"
          (session_median (fun ms -> float_of_int ms.decode_tokens /. ms.decode_ms *. 1e3));
        m "itl_ms_p50" "ms" (percentile 50.0 itl);
        m "itl_ms_p90" "ms" (percentile 90.0 itl) ]
  in
  let k = cnt in
  let steps = float_of_int (max 1 (total (fun ms -> ms.decode_tokens))) in
  let ms_ ns = Span.ms_of_ns ns in
  let hits = cache 0 and misses = cache 1 in
  let layer =
    if not traced then []
    else
      let cls name =
        match Hashtbl.find_opt k.by_class name with Some r -> ms_ !r | None -> 0.0
      in
      (* Elision is decided per kernel; read it off the last session. *)
      let elision name =
        match Tir.Exec.Cache.elision_of (Runtime.Vm.kernel_cache vms.dec_vm) name with
        | Some e -> Some e
        | None -> Tir.Exec.Cache.elision_of (Runtime.Vm.kernel_cache vms.pre_vm) name
      in
      let seen = List.filter_map (fun (name, _) -> elision name) model.kernels in
      let vm_ms name = Span.sum_ms (fun s -> s.Span.name = name) in
      let pre_kernel = ms_ k.kernel_ns.(0) and dec_kernel = ms_ k.kernel_ns.(1) in
      Out.
        [ m "frontend.build_ms" "ms" model.build_ms;
          m "analysis.proof.ms" "ms" model.proof_ms;
          m "runtime.prefill.dispatch_ms" "ms"
            (vm_ms "Vm.run prefill" -. pre_kernel -. ms_ k.alloc_ns.(0));
          m "runtime.decode.dispatch_ms" "ms"
            (vm_ms "Vm.run decode" -. dec_kernel -. ms_ k.alloc_ns.(1));
          m "runtime.decode.instrs_per_step" "count" (float_of_int k.instrs.(1) /. steps);
          m "runtime.alloc_ms" "ms" (ms_ (Int64.add k.alloc_ns.(0) k.alloc_ns.(1)));
          m "runtime.allocs_per_step" "count" (float_of_int k.allocs.(1) /. steps);
          m "runtime.alloc_reuse_ratio" "ratio"
            (float_of_int (k.reused.(0) + k.reused.(1))
            /. float_of_int (max 1 (k.allocs.(0) + k.allocs.(1))));
          m "runtime.minor_words_per_token" "words"
            (sum (List.map (fun ms -> ms.minor_words) all) /. float_of_int (total tokens));
          m "runtime.major_gcs" "count" (float_of_int (total (fun ms -> ms.major_gcs)));
          m "tir.prefill.kernel_ms" "ms" pre_kernel;
          m "tir.decode.kernel_ms" "ms" dec_kernel;
          m "tir.kernel.matmul.ms" "ms" (cls "matmul");
          m "tir.kernel.attention_prefill.ms" "ms" (cls "attention_prefill");
          m "tir.kernel.attention_paged.ms" "ms" (cls "attention_paged");
          m "tir.kernel.rope.ms" "ms" (cls "rope");
          m "tir.kernel.norm.ms" "ms" (cls "norm");
          m "tir.kernel.other.ms" "ms" (cls "other");
          m "tir.prefill.gflop_s" "GFLOP/s" (k.flops.(0) /. (pre_kernel *. 1e6));
          m "tir.decode.gflop_s" "GFLOP/s" (k.flops.(1) /. (dec_kernel *. 1e6));
          m "tir.decode.gb_s" "GB/s" (k.bytes.(1) /. (dec_kernel *. 1e6));
          m "tir.cache.hits" "count" (float_of_int hits);
          m "tir.cache.misses" "count" (float_of_int misses);
          m "tir.cache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
          m "tir.cache.compiled" "count" (float_of_int (cache 2));
          m "tir.decode.misses_per_step" "count" (float_of_int (cache 3) /. steps);
          m "tir.elided_share" "ratio"
            (float_of_int (List.length (List.filter Fun.id seen))
            /. float_of_int (max 1 (List.length seen)));
          m "bench.trace_overhead_frac" "ratio" (ns_per_token runs /. ns_per_token base -. 1.0) ]
  in
  { attempted = List.length served; failed; setup_raw_s; setup_s; peak_heap_mb;
    op_ms_p50 = Out.median (List.concat_map (fun ms -> ms.itl_ref_ms) all);
    work_per_s =
      session_median (fun ms ->
          float_of_int (tokens ms) /. (ms.prefill_ref_ms +. ms.decode_ref_ms) *. 1e3);
    speed = session_median (fun ms -> (ms.prefill_ref_ms +. ms.decode_ref_ms) /. (ms.prefill_ms +. ms.decode_ms));
    named; layer;
    exact = [ ("tir.cache.misses", float_of_int misses) ];
    inputs = Out.digest_of (List.filteri (fun i _ -> i < per_session) reqs) }
