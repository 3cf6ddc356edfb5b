(* serve-steady and serve-overload: Dist.Cluster.run in [`Sim] mode,
   Llama3-8B F16 on rtx4090, 4 replicas. The arrival schedule is fixed
   by the seed (open loop in simulated time); on the host each run is a
   batch job, so host cost is reported as throughput. *)

type kind = Steady | Overload

let cfg = Frontend.Configs.llama3_8b
let device = Runtime.Device.rtx4090

(* Offered rates, from the modeled capacity of 4 replicas (measured as
   the completion rate of a saturated run): about 9.8 req/s for the
   steady mix, about 14.8 req/s for the chat mix with sharing on. *)
let steady_rate = 6.9  (* ~70% *)
let chat_session_rate = 4.8  (* 4 turns per session: ~19 req/s, ~130% *)

let opts kind =
  let route, kv_share =
    match kind with
    | Steady -> (Dist.Cluster.Least_loaded, false)
    | Overload -> (Dist.Cluster.Prefix_affinity, true)
  in
  { Dist.Cluster.default_opts with
    replicas = 4; route;
    sched = { Serve.Scheduler.default_opts with kv_share } }

(* [size] scales the stream: requests (steady) or sessions (overload). *)
let generate kind ~seed ~size =
  Span.with_ ~layer:"serve" "workload gen" (fun () ->
      match kind with
      | Steady -> Gen.poisson ~seed ~rate_per_s:steady_rate ~num_requests:size
      | Overload ->
          Gen.chat ~seed ~rate_per_s:chat_session_rate ~sessions:size ~turns:4
            ~max_total:cfg.max_context)

let full_size = function Steady -> 8000 | Overload -> 750
let reduced_size = function Steady -> 200 | Overload -> 50

(* Counts folded from a replay's [Trace.Serve] events. *)
type counts = {
  mutable decode_steps : int;
  mutable prefills : int;
  mutable batch_sum : int;
  mutable preemptions : int;
  mutable evictions : int;
  mutable waiting_peak : int;
  mutable queue_wait_ms : float list;
}

let counts () =
  { decode_steps = 0; prefills = 0; batch_sum = 0; preemptions = 0; evictions = 0;
    waiting_peak = 0; queue_wait_ms = [] }

let serve_sink (c : counts) : Runtime.Trace.sink =
  let waiting = Hashtbl.create 64 and arrived = Hashtbl.create 64 in
  fun ev ->
    match ev with
    | Runtime.Trace.Serve { tag; id; t_us; batch; tokens } -> (
        match tag with
        | `Request_arrive ->
            Hashtbl.replace waiting id ();
            Hashtbl.replace arrived id t_us;
            c.waiting_peak <- max c.waiting_peak (Hashtbl.length waiting)
        | `Prefill ->
            c.prefills <- c.prefills + 1;
            if Hashtbl.mem waiting id then begin
              Hashtbl.remove waiting id;
              match Hashtbl.find_opt arrived id with
              | Some a ->
                  Hashtbl.remove arrived id;
                  c.queue_wait_ms <- ((t_us -. a) /. 1e3) :: c.queue_wait_ms
              | None -> ()
            end
        | `Decode_step ->
            c.decode_steps <- c.decode_steps + 1;
            c.batch_sum <- c.batch_sum + batch
        | `Preempt ->
            c.preemptions <- c.preemptions + 1;
            Hashtbl.replace waiting id ();
            c.waiting_peak <- max c.waiting_peak (Hashtbl.length waiting)
        | `Shed | `Timeout | `Abort -> Hashtbl.remove waiting id
        | `Evict -> c.evictions <- c.evictions + tokens
        | _ -> ())
    | _ -> ()

let ids_of_reports (r : Dist.Cluster.result) =
  Array.to_list r.replica_reports
  |> List.concat_map (fun (rep : Dist.Cluster.replica_report) ->
         List.concat_map
           (fun (_, (e : Serve.Scheduler.result)) ->
             List.map (fun (m : Serve.Metrics.request_metrics) -> m.id) e.completed
             @ e.shed @ e.aborted)
           rep.eras)

(* Every submitted id lands exactly once in completed, shed or aborted.
   Returns the number of ids that do not. *)
let conservation_failures (w : Serve.Workload.t) r =
  let seen = Hashtbl.create 1024 in
  List.iter (fun id -> Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id))) (ids_of_reports r);
  List.length
    (List.filter (fun (q : Serve.Workload.request) -> Hashtbl.find_opt seen q.id <> Some 1) w)
  + Hashtbl.fold (fun _ n acc -> if n > 1 then acc + n - 1 else acc) seen 0

let log_of (res : Serve.Scheduler.result) =
  List.map (fun (m : Serve.Metrics.request_metrics) -> (m.id, m.finish_us, m.tokens)) res.completed

(* Replay each replica's share of [dispatch] through
   [Scheduler.run ~trace]. Returns the counts, the engine host time and
   minor words, and each replica's completion log. *)
let replay kind model (w : Serve.Workload.t) (dispatch : (int * int) list) =
  let o = opts kind in
  let c = counts () in
  let engine_ms = ref 0.0 and words = ref 0.0 in
  let replica_of = Hashtbl.create 1024 in
  List.iter (fun (id, r) -> Hashtbl.replace replica_of id r) dispatch;
  let logs =
    Array.init o.replicas (fun r ->
        let share =
          List.filter (fun (q : Serve.Workload.request) -> Hashtbl.find_opt replica_of q.id = Some r) w
        in
        let w0 = Out.minor_words () in
        let res, ms =
          Out.time_ms (fun () ->
              Span.with_ ~req:r ~layer:"serve" "Scheduler.run" (fun () ->
                  Serve.Scheduler.run ~trace:(serve_sink c) model o.sched share))
        in
        engine_ms := !engine_ms +. ms;
        words := !words +. (Out.minor_words () -. w0);
        log_of res)
  in
  (c, !engine_ms, !words, logs)

(* Replicas whose replayed completion log differs from the cluster's. *)
let log_mismatches (cluster : Dist.Cluster.result) logs =
  let n = ref 0 in
  Array.iteri
    (fun r log ->
      match cluster.replica_reports.(r).eras with
      | [ (_, e) ] when log_of e = log -> ()
      | _ -> incr n)
    logs;
  !n

type setup = {
  model : Serve.Scheduler.model;
  w : Serve.Workload.t;
  gen_ms : float;
  warm_ms : float;
}

let dispatch kind model w =
  Span.with_ ~layer:"dist" "Cluster.dispatch" (fun () ->
      Dist.Cluster.dispatch ~model (opts kind) w)

(* Generate the stream, build the cost model and warm its cost tables
   with a run over a different seed: routing, then every replica's
   engine, the same work [Cluster.run] does. *)
let setup kind ~seed ~size () =
  let w, gen_ms = Out.time_ms (fun () -> generate kind ~seed ~size) in
  let model, warm_ms =
    Out.time_ms (fun () ->
        Span.with_ ~layer:"serve" "model + warm-up" (fun () ->
            let model = Serve.Scheduler.model ~cfg ~precision:Frontend.Llm.F16 ~device in
            let warm = generate kind ~seed:(seed + 7919) ~size:(max 1 (size / 4)) in
            ignore (replay kind model warm (dispatch kind model warm));
            model))
  in
  { model; w; gen_ms; warm_ms }

let run kind ~seed ~seconds ~traced ~reduced : Out.result =
  let size = if reduced then reduced_size kind else full_size kind in
  let o = opts kind in
  let base_ms =
    if not traced then nan
    else
      let s = setup kind ~seed ~size () in
      snd (Out.time_ms (fun () -> Dist.Cluster.run ~model:s.model o s.w))
  in
  let name = match kind with Steady -> "serve-steady" | Overload -> "serve-overload" in
  let (s, setup_raw_s, setup_s), reps, traced_op =
    Span.root ~enabled:traced name (fun () ->
        let s =
          Span.with_ ~layer:"bench" "setup" (fun () ->
              Out.repeat_setup (if reduced then 1 else 3) (setup kind ~seed ~size))
        in
        let st, _, _ = s in
        let model = st.model and w = st.w in
        if traced then begin
          (* The traced operation: routing, then every replica's engine. *)
          let (routed, dispatch_ms, rp), op_ms =
            Out.time_ms (fun () ->
                let d, ms = Out.time_ms (fun () -> dispatch kind model w) in
                (d, ms, replay kind model w d))
          in
          (s, [], Some (routed, dispatch_ms, rp, op_ms))
        end
        else begin
          (* Repeat the run until [seconds] have passed, at least three
             times, each from a collected heap. Each result is checked
             and dropped, except the first. *)
          let t0 = Span.now_ns () in
          let min_reps = if reduced then 1 else 3 in
          let rec go acc n =
            if n >= min_reps && (reduced || Span.ms_of_ns (Int64.sub (Span.now_ns ()) t0) >= seconds *. 1e3)
            then List.rev acc
            else begin
              Gc.full_major ();
              let (r, ms), speed =
                Out.at_ref_speed (fun () -> Out.time_ms (fun () -> Dist.Cluster.run ~model o w))
              in
              let first = match acc with [] -> Some r | _ -> None in
              go ((first, conservation_failures w r, ms, speed) :: acc) (n + 1)
            end
          in
          (s, go [] 0, None)
        end)
  in
  let peak_heap_mb = Out.peak_heap_mb () in
  let w = s.w in
  let n = List.length w in
  (* Checks and the untraced replay, outside the timed region. *)
  let cluster =
    match reps with
    | (Some r, _, _, _) :: _ -> r
    | _ -> Dist.Cluster.run ~model:s.model o w
  in
  let conservation =
    match reps with
    | [] -> conservation_failures w cluster
    | _ -> List.fold_left (fun acc (_, failures, _, _) -> acc + failures) 0 reps
  in
  let (c, engine_ms, words, logs), dispatch_ms, op_ms, routed =
    match traced_op with
    | Some (d, dms, rp, op) -> (rp, dms, op, d)
    | None -> (replay kind s.model w cluster.dispatch, nan, nan, cluster.dispatch)
  in
  let mismatched =
    log_mismatches cluster logs + if routed = cluster.dispatch then 0 else 1
  in
  let summary = cluster.summary in
  let rep_ms = List.map (fun (_, _, ms, _) -> ms) reps in
  let rep_ref_ms = List.map (fun (_, _, ms, speed) -> ms *. speed) reps in
  let med_s = Out.median rep_ms /. 1e3 in
  let steps = float_of_int (max 1 (c.decode_steps + c.prefills)) in
  let completed_per_replica =
    Array.to_list cluster.replica_reports
    |> List.map (fun (rep : Dist.Cluster.replica_report) ->
           float_of_int (List.fold_left (fun a (_, (e : Serve.Scheduler.result)) -> a + List.length e.completed) 0 rep.eras))
  in
  let named =
    if traced then []
    else
    Out.
      [ m "sim_req_per_s" "req/s" (float_of_int n /. med_s);
        m "modeled_ttft_ms_p99" "ms" (summary.ttft_us.p99 /. 1e3);
        m "modeled_tok_s" "tok/s" summary.tokens_per_s ]
  in
  let layer =
    if not traced then []
    else
      Out.
        [ m "frontend.build_ms" "ms" 0.0;
          m "serve.workload_gen_ms" "ms" s.gen_ms;
          m "serve.model_warm_ms" "ms" s.warm_ms;
          m "serve.engine_ms" "ms" engine_ms;
          m "serve.host_us_per_step" "us" (engine_ms *. 1e3 /. steps);
          m "serve.minor_words_per_step" "words" (words /. steps);
          m "serve.decode_steps" "count" (float_of_int c.decode_steps);
          m "serve.prefills" "count" (float_of_int c.prefills);
          m "serve.batch_mean" "count" (float_of_int c.batch_sum /. float_of_int (max 1 c.decode_steps));
          m "serve.waiting_peak" "count" (float_of_int c.waiting_peak);
          m "serve.queue_wait_ms_p50" "ms" (percentile 50.0 c.queue_wait_ms);
          m "serve.preemptions" "count" (float_of_int c.preemptions);
          m "serve.prefix_hit_rate" "ratio" summary.prefix_hit_rate;
          m "serve.evictions" "count" (float_of_int c.evictions);
          m "serve.kv_bytes_per_token" "B" summary.kv_bytes_per_token;
          m "dist.dispatch_ms" "ms" dispatch_ms;
          m "dist.replica_imbalance" "ratio"
            (List.fold_left max 0.0 completed_per_replica /. mean completed_per_replica);
          m "bench.trace_overhead_frac" "ratio" (op_ms /. base_ms -. 1.0) ]
  in
  { attempted = n * max 1 (List.length reps);
    failed = conservation + mismatched;
    setup_raw_s; setup_s; peak_heap_mb;
    op_ms_p50 = Out.median rep_ref_ms /. float_of_int n;
    work_per_s = float_of_int n /. (Out.median rep_ref_ms /. 1e3);
    speed = Out.median (List.map (fun (_, _, _, speed) -> speed) reps);
    named; layer;
    exact =
      [ ("serve.decode_steps", float_of_int c.decode_steps);
        ("modeled_ttft_ms_p99", summary.ttft_us.p99 /. 1e3);
        ("modeled_tok_s", summary.tokens_per_s) ];
    inputs = Out.digest_of w }
