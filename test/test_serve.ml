(* The serving engine: a golden deterministic run on the tiny config
   (fixed seed -> exact completion order, token counts and preemption
   tally), qcheck scheduling invariants (every request finishes under
   FCFS, block accounting drains to zero, preempted requests complete,
   numeric and timed execution make identical scheduling decisions),
   and a numeric smoke run producing finite logits. *)

let tiny = Frontend.Configs.tiny
let device = Runtime.Device.rtx4090

(* One model shared by every test: compilations and memoized step
   costs are reused, and memoized costs are deterministic (each entry
   is warmed once at creation), so sharing cannot change results. *)
let model =
  lazy (Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device)

let opts ?(max_batch = 2) ?(block_size = 4) ?(policy = Serve.Scheduler.Continuous)
    ?budget_blocks ?(kv_share = false) ?faults () =
  (* tiny block @ size 4: 2 (K,V) x 2 layers x 2 kv_heads x 4 head_dim
     x 4 positions x 2 B = 256 B *)
  let block_bytes =
    2 * tiny.Frontend.Configs.layers * tiny.Frontend.Configs.kv_heads
    * tiny.Frontend.Configs.head_dim * block_size * 2
  in
  {
    Serve.Scheduler.default_opts with
    Serve.Scheduler.max_batch;
    block_size;
    policy;
    kv_budget_bytes = Option.map (fun b -> b * block_bytes) budget_blocks;
    kv_share;
    faults;
  }

let workload ?(seed = 7) ?(rate = 50_000.0) ?(n = 6) () =
  Serve.Workload.generate ~seed ~rate_per_s:rate ~num_requests:n
    ~max_total:tiny.Frontend.Configs.max_context
    ~prompt:(Serve.Workload.Uniform (2, 6))
    ~output:(Serve.Workload.Uniform (1, 4))
    ()

(* ---------- golden deterministic run ---------- *)

let test_golden () =
  let res =
    Serve.Scheduler.run (Lazy.force model)
      (opts ~max_batch:2 ~budget_blocks:4 ())
      (workload ())
  in
  let actual =
    List.map
      (fun (m : Serve.Metrics.request_metrics) ->
        Printf.sprintf "#%d tokens=%d preempted=%d" m.Serve.Metrics.id
          m.Serve.Metrics.tokens m.Serve.Metrics.preemptions)
      res.Serve.Scheduler.completed
  in
  let expected =
    [
      "#0 tokens=1 preempted=0";
      "#1 tokens=1 preempted=0";
      "#2 tokens=4 preempted=0";
      "#3 tokens=4 preempted=0";
      "#4 tokens=2 preempted=0";
      "#5 tokens=1 preempted=0";
    ]
  in
  if expected <> actual then begin
    print_endline "--- actual serving completion log ---";
    List.iter print_endline actual;
    Printf.printf "--- end (clock %.3f us) ---\n" res.Serve.Scheduler.clock_us
  end;
  Alcotest.(check (list string)) "completion log" expected actual;
  (* The workload's output lengths are honoured exactly. *)
  List.iter
    (fun (r : Serve.Workload.request) ->
      let m =
        List.find
          (fun (m : Serve.Metrics.request_metrics) ->
            m.Serve.Metrics.id = r.Serve.Workload.id)
          res.Serve.Scheduler.completed
      in
      Alcotest.(check int)
        (Printf.sprintf "request %d token count" r.Serve.Workload.id)
        r.Serve.Workload.output_len m.Serve.Metrics.tokens)
    (workload ())

(* Rerunning on the shared (already warm) model is bit-identical:
   memoized costs don't drift across runs. *)
let test_deterministic_rerun () =
  let go () =
    let res =
      Serve.Scheduler.run (Lazy.force model)
        (opts ~max_batch:2 ~budget_blocks:4 ())
        (workload ())
    in
    ( List.map
        (fun (m : Serve.Metrics.request_metrics) -> m.Serve.Metrics.id)
        res.Serve.Scheduler.completed,
      res.Serve.Scheduler.clock_us )
  in
  let o1, c1 = go () and o2, c2 = go () in
  Alcotest.(check (list int)) "same order" o1 o2;
  Alcotest.(check (float 0.0)) "same clock" c1 c2

(* ---------- qcheck invariants ---------- *)

type scenario = {
  wseed : int;
  n : int;
  rate : float;
  max_batch : int;
  budget_blocks : int;
  policy : Serve.Scheduler.policy;
}

let print_scenario s =
  Printf.sprintf "{seed=%d n=%d rate=%.0f mb=%d blocks=%d %s}" s.wseed s.n
    s.rate s.max_batch s.budget_blocks
    (match s.policy with
    | Serve.Scheduler.Continuous -> "continuous"
    | Serve.Scheduler.Static -> "static")

let gen_scenario =
  QCheck.Gen.(
    let* wseed = int_range 0 1000 in
    let* n = int_range 1 10 in
    let* rate = oneofl [ 10_000.0; 50_000.0; 200_000.0 ] in
    let* max_batch = int_range 1 4 in
    (* >= 4 blocks: the largest request (prompt 6 + output 4 + one
       write slot) must fit alone, or the run legitimately fails. *)
    let* budget_blocks = int_range 4 8 in
    let* policy =
      oneofl [ Serve.Scheduler.Continuous; Serve.Scheduler.Static ]
    in
    return { wseed; n; rate; max_batch; budget_blocks; policy })

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

let run_scenario ?exec s =
  Serve.Scheduler.run ?exec (Lazy.force model)
    (opts ~max_batch:s.max_batch ~policy:s.policy ~budget_blocks:s.budget_blocks
       ())
    (workload ~seed:s.wseed ~rate:s.rate ~n:s.n ())

let test_no_starvation =
  QCheck.Test.make ~count:30 ~name:"every request finishes, FCFS first tokens"
    arb_scenario (fun s ->
      let res = run_scenario s in
      let ids =
        List.sort compare
          (List.map
             (fun (m : Serve.Metrics.request_metrics) -> m.Serve.Metrics.id)
             res.Serve.Scheduler.completed)
      in
      if ids <> List.init s.n (fun i -> i) then
        QCheck.Test.fail_reportf "completed ids %s"
          (String.concat "," (List.map string_of_int ids));
      (* FCFS: first tokens are produced in arrival (= id) order. *)
      (match s.policy with
      | Serve.Scheduler.Continuous ->
          let by_id =
            List.sort
              (fun (a : Serve.Metrics.request_metrics) b ->
                compare a.Serve.Metrics.id b.Serve.Metrics.id)
              res.Serve.Scheduler.completed
          in
          let rec mono = function
            | (a : Serve.Metrics.request_metrics)
              :: (b : Serve.Metrics.request_metrics) :: rest ->
                if a.Serve.Metrics.first_token_us > b.Serve.Metrics.first_token_us
                then
                  QCheck.Test.fail_reportf
                    "request %d got its first token before request %d"
                    b.Serve.Metrics.id a.Serve.Metrics.id;
                mono (b :: rest)
            | _ -> ()
          in
          mono by_id
      | Serve.Scheduler.Static -> ());
      true)

let test_blocks_drain =
  QCheck.Test.make ~count:30 ~name:"block accounting drains to zero"
    arb_scenario (fun s ->
      let res = run_scenario s in
      let bm = res.Serve.Scheduler.blocks in
      if Serve.Block_manager.used_blocks bm <> 0 then
        QCheck.Test.fail_reportf "%d blocks still held after drain"
          (Serve.Block_manager.used_blocks bm);
      (* Everything ever allocated sits in the pooling free pool. *)
      let alloc = Serve.Block_manager.allocator bm in
      Runtime.Allocator.pool_free_bytes alloc
      = Runtime.Allocator.live_bytes alloc
      && (Runtime.Allocator.live_bytes alloc = 0
         || Runtime.Allocator.fragmentation alloc = 1.0))

let test_preempted_finish () =
  (* Two simultaneous requests each growing to 12 tokens (3 blocks)
     cannot share a 4-block budget: the later-admitted one must be
     preempted, re-prefilled, and still complete in full. *)
  let w =
    [
      {
        Serve.Workload.id = 0;
        arrival_us = 0.0;
        prompt_len = 6;
        output_len = 6;
        deadline_us = None;
        prompt_tokens = None;
        fork_of = None;
      };
      {
        Serve.Workload.id = 1;
        arrival_us = 1.0;
        prompt_len = 6;
        output_len = 6;
        deadline_us = None;
        prompt_tokens = None;
        fork_of = None;
      };
    ]
  in
  let res =
    Serve.Scheduler.run (Lazy.force model) (opts ~max_batch:2 ~budget_blocks:4 ()) w
  in
  Alcotest.(check bool) "preemption exercised" true
    (res.Serve.Scheduler.summary.Serve.Metrics.preemptions > 0);
  Alcotest.(check int) "all complete" 2
    (List.length res.Serve.Scheduler.completed);
  List.iter
    (fun (r : Serve.Workload.request) ->
      let m =
        List.find
          (fun (m : Serve.Metrics.request_metrics) ->
            m.Serve.Metrics.id = r.Serve.Workload.id)
          res.Serve.Scheduler.completed
      in
      Alcotest.(check int) "full output" r.Serve.Workload.output_len
        m.Serve.Metrics.tokens)
    w

let test_numeric_matches_timed =
  QCheck.Test.make ~count:5 ~name:"numeric and timed agree on scheduling"
    arb_scenario (fun s ->
      let s = { s with n = min s.n 5 } in
      let sim = run_scenario s in
      let num = run_scenario ~exec:(`Numeric 3) s in
      let order r =
        List.map
          (fun (m : Serve.Metrics.request_metrics) ->
            (m.Serve.Metrics.id, m.Serve.Metrics.tokens))
          r.Serve.Scheduler.completed
      in
      if order sim <> order num then
        QCheck.Test.fail_reportf "completion orders differ";
      if sim.Serve.Scheduler.clock_us <> num.Serve.Scheduler.clock_us then
        QCheck.Test.fail_reportf "clocks differ: %.3f vs %.3f"
          sim.Serve.Scheduler.clock_us num.Serve.Scheduler.clock_us;
      true)

(* An arrival time that is nan or infinite never advances the clock:
   the run must refuse it up front, as a typed caller error. *)
let test_nonfinite_arrival () =
  List.iter
    (fun t ->
      let w =
        List.mapi
          (fun i (r : Serve.Workload.request) ->
            if i = 1 then { r with Serve.Workload.arrival_us = t } else r)
          (workload ~n:3 ())
      in
      match Serve.Scheduler.run (Lazy.force model) (opts ()) w with
      | _ -> Alcotest.failf "arrival %g accepted" t
      | exception Runtime.Fault.Error (Runtime.Fault.Fatal, _) -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---------- numeric smoke ---------- *)

let test_numeric_smoke () =
  let w = workload ~seed:5 ~rate:100_000.0 ~n:4 () in
  let res =
    Serve.Scheduler.run ~exec:(`Numeric 21) (Lazy.force model)
      (opts ~max_batch:2 ~budget_blocks:4 ())
      w
  in
  Alcotest.(check int) "one logits tensor per request" 4
    (List.length res.Serve.Scheduler.logits);
  List.iter
    (fun (id, logits) ->
      Alcotest.(check (list int))
        (Printf.sprintf "request %d logits shape" id)
        [ 1; tiny.Frontend.Configs.vocab ]
        (Array.to_list logits.Base.Ndarray.shape);
      for i = 0 to Base.Ndarray.numel logits - 1 do
        let v = Base.Ndarray.get_flat_float logits i in
        if not (Float.is_finite v) then
          Alcotest.failf "request %d logit %d not finite: %f" id i v
      done)
    res.Serve.Scheduler.logits

(* ---------- serving events fold into the profiler ---------- *)

let test_trace_profiler_fold () =
  let p = Runtime.Profiler.create () in
  let res =
    Serve.Scheduler.run ~trace:(Runtime.Profiler.sink p) (Lazy.force model)
      (opts ~max_batch:2 ~budget_blocks:4 ())
      (workload ())
  in
  let c = Runtime.Profiler.serve_counts p in
  Alcotest.(check int) "arrivals" 6 c.Runtime.Profiler.arrivals;
  Alcotest.(check int) "finishes" 6 c.Runtime.Profiler.finishes;
  Alcotest.(check int) "preempts" res.Serve.Scheduler.summary.Serve.Metrics.preemptions
    c.Runtime.Profiler.preempts;
  Alcotest.(check bool) "prefills >= arrivals (re-prefill on resume)" true
    (c.Runtime.Profiler.prefills >= c.Runtime.Profiler.arrivals);
  Alcotest.(check bool) "decode steps happened" true
    (c.Runtime.Profiler.decode_steps > 0);
  Alcotest.(check bool) "report mentions serving" true
    (let report = Runtime.Profiler.report p in
     let rec contains i =
       i + 8 <= String.length report
       && (String.sub report i 8 = "serving:" || contains (i + 1))
     in
     contains 0)

(* ---------- workload generator ---------- *)

let test_workload_reproducible () =
  let w1 = workload () and w2 = workload () in
  Alcotest.(check bool) "same seed, same stream" true (w1 = w2);
  let w3 = workload ~seed:8 () in
  Alcotest.(check bool) "different seed, different stream" true (w1 <> w3);
  (* arrivals sorted, lengths within bounds *)
  let rec sorted = function
    | (a : Serve.Workload.request) :: (b : Serve.Workload.request) :: rest ->
        a.Serve.Workload.arrival_us <= b.Serve.Workload.arrival_us
        && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "arrivals sorted" true (sorted w1);
  List.iter
    (fun (r : Serve.Workload.request) ->
      Alcotest.(check bool) "within max_total" true
        (r.Serve.Workload.prompt_len + r.Serve.Workload.output_len
        <= tiny.Frontend.Configs.max_context))
    w1

(* ---------- KV prefix sharing: the differential suite ----------

   Sharing is block accounting only (full prefill cost is still
   charged, numeric tensors stay per-request), so with a budget
   generous enough that neither run hits [`No_space], kv_share on and
   off must make bit-identical scheduling decisions — and in every
   case, a request's generated tokens are determined by its prompt
   alone (greedy decoding over deterministic weights), so token
   streams must agree wherever both runs complete a request, across
   seeds, fault injection and preemption pressure. *)

type share_scenario = {
  sseed : int;
  skind : int;  (* 0 = multi-turn chat, 1 = best-of-n, 2 = bursty *)
  stight : bool;  (* 4-block budget (preemption pressure) vs 64 *)
  schaos : bool;  (* seeded fault injection *)
}

let print_share s =
  Printf.sprintf "{seed=%d %s %s%s}" s.sseed
    (match s.skind with 0 -> "chat" | 1 -> "best-of-n" | _ -> "bursty")
    (if s.stight then "tight" else "generous")
    (if s.schaos then " chaos" else "")

let gen_share =
  QCheck.Gen.(
    let* sseed = int_range 0 500 in
    let* skind = int_range 0 2 in
    let* stight = bool in
    let* schaos = bool in
    return { sseed; skind; stight; schaos })

let arb_share = QCheck.make ~print:print_share gen_share

(* tiny max_context is 16, so prompts are kept small; block size 4
   means the 4-token chat system prompt is exactly one shareable
   block. *)
let share_workload s =
  match s.skind with
  | 0 ->
      Serve.Workload.multi_turn_chat ~seed:s.sseed ~rate_per_s:50_000.0
        ~sessions:3 ~turns:3 ~vocab:32 ~system_len:4 ~think_time_us:100.0
        ~max_total:tiny.Frontend.Configs.max_context
        ~turn_user:(Serve.Workload.Uniform (1, 2))
        ~output:(Serve.Workload.Uniform (1, 2))
        ()
  | 1 ->
      Serve.Workload.best_of_n ~seed:s.sseed ~rate_per_s:20_000.0 ~groups:2
        ~n:3 ~vocab:32 ~fork_delay_us:40.0
        ~max_total:tiny.Frontend.Configs.max_context
        ~prompt:(Serve.Workload.Uniform (4, 8))
        ~output:(Serve.Workload.Uniform (2, 5))
        ()
  | _ ->
      Serve.Workload.bursty ~seed:s.sseed ~base_rate_per_s:10_000.0
        ~burst_rate_per_s:100_000.0 ~period_s:0.001 ~duty:0.3 ~num_requests:8
        ~vocab:32 ~shared_prefix_len:6
        ~max_total:tiny.Frontend.Configs.max_context
        ~prompt:(Serve.Workload.Uniform (4, 10))
        ~output:(Serve.Workload.Uniform (1, 3))
        ()

let chaos_cfg seed =
  {
    Runtime.Fault.seed;
    kernel_fail_p = 0.05;
    stall_p = 0.05;
    stall_factor = 3.0;
    oom_p = 0.03;
    nan_p = 0.05;
  }

let run_share ?exec s ~share =
  Serve.Scheduler.run ?exec (Lazy.force model)
    (opts ~max_batch:2
       ~budget_blocks:(if s.stight then 4 else 64)
       ~kv_share:share
       ?faults:(if s.schaos then Some (chaos_cfg (s.sseed + 17)) else None)
       ())
    (share_workload s)

let completion_sig r =
  List.map
    (fun (m : Serve.Metrics.request_metrics) ->
      (m.Serve.Metrics.id, m.Serve.Metrics.tokens, m.Serve.Metrics.preemptions))
    r.Serve.Scheduler.completed

(* With a generous budget the block manager never says [`No_space] in
   either run, so sharing cannot change any decision: completion order,
   token counts, preemptions, sheds, aborts and the final clock are
   bit-identical — fault injection included, because every fault draw
   happens at the same event boundary in both runs. *)
let test_share_transparent =
  QCheck.Test.make ~count:60
    ~name:"sharing on/off schedule identically (generous budget)" arb_share
    (fun s0 ->
      let s = { s0 with stight = false } in
      let on = run_share s ~share:true and off = run_share s ~share:false in
      if completion_sig on <> completion_sig off then
        QCheck.Test.fail_reportf "completion logs differ";
      if on.Serve.Scheduler.clock_us <> off.Serve.Scheduler.clock_us then
        QCheck.Test.fail_reportf "clocks differ: %.3f vs %.3f"
          on.Serve.Scheduler.clock_us off.Serve.Scheduler.clock_us;
      on.Serve.Scheduler.shed = off.Serve.Scheduler.shed
      && on.Serve.Scheduler.aborted = off.Serve.Scheduler.aborted)

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> x = y && is_prefix a' b'

let stream_compatible a b = is_prefix a b || is_prefix b a

(* Token-stream identity under any budget: for every request completed
   by both runs, the streams are bit-identical — except best-of-n
   children, where one run may fork mid-stream and the other prefill
   from scratch, so the streams are prefixes of the same greedy
   continuation rather than equal in length. *)
let test_share_streams =
  QCheck.Test.make ~count:48
    ~name:"token streams agree with sharing on vs off" arb_share (fun s ->
      let on = run_share ~exec:(`Numeric 11) s ~share:true in
      let off = run_share ~exec:(`Numeric 11) s ~share:false in
      let w = share_workload s in
      List.iter
        (fun (id, h_on) ->
          match List.assoc_opt id off.Serve.Scheduler.token_streams with
          | None -> ()
          | Some h_off ->
              let forked =
                (List.find
                   (fun (r : Serve.Workload.request) -> r.Serve.Workload.id = id)
                   w)
                  .Serve.Workload.fork_of
                <> None
              in
              if forked then begin
                if not (stream_compatible h_on h_off) then
                  QCheck.Test.fail_reportf
                    "fork child %d: streams diverge (not prefix-compatible)" id
              end
              else if h_on <> h_off then
                QCheck.Test.fail_reportf "request %d: streams differ" id)
        on.Serve.Scheduler.token_streams;
      (* Generous budget: the full stream lists (finish order included)
         coincide. *)
      if
        (not s.stight)
        && on.Serve.Scheduler.token_streams
           <> off.Serve.Scheduler.token_streams
      then QCheck.Test.fail_reportf "generous budget: stream lists differ";
      true)

(* Sharing decisions (tree matches, forks, evictions) depend only on
   workload data and block state, never on tensor values — so timed
   and numeric execution still agree with kv_share on, tight budgets
   and chaos included. *)
let test_share_modes_agree =
  QCheck.Test.make ~count:6 ~name:"numeric and timed agree under sharing"
    arb_share (fun s ->
      let sim = run_share s ~share:true in
      let num = run_share ~exec:(`Numeric 3) s ~share:true in
      if completion_sig sim <> completion_sig num then
        QCheck.Test.fail_reportf "completion logs differ";
      sim.Serve.Scheduler.clock_us = num.Serve.Scheduler.clock_us)

let test_share_saves_memory () =
  let s = { sseed = 3; skind = 0; stight = false; schaos = false } in
  let on = run_share s ~share:true and off = run_share s ~share:false in
  let son = on.Serve.Scheduler.summary and soff = off.Serve.Scheduler.summary in
  Alcotest.(check bool) "prefix cache hit" true
    (son.Serve.Metrics.prefix_hit_rate > 0.0);
  (* Without sharing every logical block is its own physical block. *)
  Alcotest.(check (float 1e-9)) "baseline bytes/token = one block per holder"
    (256.0 /. 4.0) soff.Serve.Metrics.kv_bytes_per_token;
  Alcotest.(check bool)
    (Printf.sprintf "sharing cuts KV bytes/token (%.2f < %.2f)"
       son.Serve.Metrics.kv_bytes_per_token soff.Serve.Metrics.kv_bytes_per_token)
    true
    (son.Serve.Metrics.kv_bytes_per_token
    < soff.Serve.Metrics.kv_bytes_per_token);
  Alcotest.(check int) "baseline has no hits" 0
    (int_of_float (soff.Serve.Metrics.prefix_hit_rate *. 1000.0));
  (* Post-run block state: every reference dropped, cache resident but
     reclaimable, audit clean, full drain via drop_cache. *)
  let bm = on.Serve.Scheduler.blocks in
  (match Serve.Block_manager.check_invariants bm with
  | None -> ()
  | Some m -> Alcotest.failf "invariant violated after run: %s" m);
  Alcotest.(check int) "only cache resident after drain"
    (Serve.Block_manager.cached_blocks bm)
    (Serve.Block_manager.used_blocks bm);
  Serve.Block_manager.drop_cache bm;
  Alcotest.(check int) "drop_cache drains to zero" 0
    (Serve.Block_manager.used_blocks bm)

let test_fork_inherits_and_cows () =
  (* A best-of-n child admitted while its parent decodes: it inherits
     the parent's stream without a prefill, and the first write into
     the shared partial tail block copy-on-writes. *)
  let toks = [ 1; 2; 3; 4; 5; 6 ] in
  let w =
    [
      {
        Serve.Workload.id = 0;
        arrival_us = 0.0;
        prompt_len = 6;
        output_len = 6;
        deadline_us = None;
        prompt_tokens = Some toks;
        fork_of = None;
      };
      {
        Serve.Workload.id = 1;
        arrival_us = 1.0;
        prompt_len = 6;
        output_len = 4;
        deadline_us = None;
        prompt_tokens = Some toks;
        fork_of = Some 0;
      };
    ]
  in
  let run share =
    Serve.Scheduler.run ~exec:(`Numeric 9) (Lazy.force model)
      (opts ~max_batch:2 ~budget_blocks:16 ~kv_share:share ())
      w
  in
  let on = run true and off = run false in
  Alcotest.(check int) "both complete (sharing on)" 2
    (List.length on.Serve.Scheduler.completed);
  Alcotest.(check bool) "fork write copy-on-writes" true
    (on.Serve.Scheduler.summary.Serve.Metrics.cow_copies >= 1);
  Alcotest.(check int) "no COW without sharing" 0
    off.Serve.Scheduler.summary.Serve.Metrics.cow_copies;
  let stream r id = List.assoc id r.Serve.Scheduler.token_streams in
  (* Child and parent decode the same greedy continuation; the child
     forked mid-stream so its history is a prefix of the parent's. *)
  Alcotest.(check bool) "child stream is a prefix of parent's" true
    (is_prefix (stream on 1) (stream on 0));
  (* The generous budget forks in both runs: identical streams. *)
  Alcotest.(check bool) "on/off streams identical" true
    (on.Serve.Scheduler.token_streams = off.Serve.Scheduler.token_streams)

(* ---------- behaviour digest ----------

   One MD5 per scenario over everything a run makes observable: the
   full serve and fault-injection trace, the completion log, the shed,
   aborted and drained sets and the final clock, with every time
   printed exactly ([%h]). The expected digests pin the scheduler's
   behaviour bit for bit, so a refactor of the queue handling must
   leave every one of them unchanged. *)

let digest_run ?exec ?stop_at o w =
  let b = Buffer.create 4096 in
  let sink = function
    | Runtime.Trace.Serve { tag; id; t_us; batch; tokens } ->
        Printf.bprintf b "%s %d %h %d %d\n"
          (Runtime.Trace.serve_tag_name tag)
          id t_us batch tokens
    | Runtime.Trace.Fault_injected { Runtime.Fault.seq; site; kind } ->
        Printf.bprintf b "fault %d %s %s\n" seq site
          (Runtime.Fault.kind_name kind)
    | _ -> ()
  in
  let res =
    Serve.Scheduler.run ~trace:sink ?exec ?stop_at (Lazy.force model) o w
  in
  List.iter
    (fun (m : Serve.Metrics.request_metrics) ->
      Printf.bprintf b "done %d %h %h %h %d %d %d %d %s\n" m.Serve.Metrics.id
        m.Serve.Metrics.arrival_us m.Serve.Metrics.first_token_us
        m.Serve.Metrics.finish_us m.Serve.Metrics.prompt_len
        m.Serve.Metrics.tokens m.Serve.Metrics.preemptions
        m.Serve.Metrics.retries
        (match m.Serve.Metrics.deadline_us with
        | Some d -> Printf.sprintf "%h" d
        | None -> "-"))
    res.Serve.Scheduler.completed;
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.bprintf b "shed %s\naborted %s\n" (ints res.Serve.Scheduler.shed)
    (ints res.Serve.Scheduler.aborted);
  List.iter
    (fun (r : Serve.Workload.request) ->
      Printf.bprintf b "drained %d %h\n" r.Serve.Workload.id
        r.Serve.Workload.arrival_us)
    res.Serve.Scheduler.drained;
  List.iter
    (fun (id, toks) -> Printf.bprintf b "stream %d %s\n" id (ints toks))
    res.Serve.Scheduler.token_streams;
  Printf.bprintf b "clock %h\n" res.Serve.Scheduler.clock_us;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A shared-prefix burst with per-request deadlines: queues build up,
   the 6-block budget preempts, and the tightest deadlines are
   unreachable, so both admission policies have work to do. *)
let digest_workload () =
  Serve.Workload.bursty ~seed:13 ~base_rate_per_s:20_000.0
    ~burst_rate_per_s:200_000.0 ~period_s:0.001 ~duty:0.4 ~num_requests:14
    ~vocab:32 ~shared_prefix_len:4
    ~max_total:tiny.Frontend.Configs.max_context
    ~deadline_slack:(Serve.Workload.Uniform (150, 900))
    ~prompt:(Serve.Workload.Uniform (4, 10))
    ~output:(Serve.Workload.Uniform (1, 5))
    ()

(* Enough transient faults that requests back off behind each other
   and some spend their whole retry budget. *)
let heavy =
  {
    Runtime.Fault.seed = 41;
    kernel_fail_p = 0.3;
    stall_p = 0.2;
    stall_factor = 3.0;
    oom_p = 0.1;
    nan_p = 0.15;
  }

let digest_scenarios () =
  let w = digest_workload () in
  let grid =
    List.concat_map
      (fun (pn, policy) ->
        List.concat_map
          (fun (an, admission) ->
            List.concat_map
              (fun (fname, faults) ->
                List.map
                  (fun kv_share ->
                    ( Printf.sprintf "%s/%s/%s/share-%b" pn an fname kv_share,
                      fun () ->
                        digest_run
                          {
                            (opts ~max_batch:3 ~policy ~budget_blocks:6
                               ~kv_share ?faults ())
                            with
                            Serve.Scheduler.admission;
                          }
                          w ))
                  [ false; true ])
              [ ("clean", None); ("faults5", Some (chaos_cfg 29)) ])
          [ ("fcfs", Serve.Scheduler.Fcfs); ("deadline", Serve.Scheduler.Deadline_aware) ])
      [ ("continuous", Serve.Scheduler.Continuous); ("static", Serve.Scheduler.Static) ]
  in
  grid
  @ [
      ( "best-of-n fork",
        fun () ->
          digest_run
            (opts ~max_batch:3 ~budget_blocks:16 ~kv_share:true ())
            (share_workload { sseed = 4; skind = 1; stight = false; schaos = false }) );
      ( "kv-infeasible aborts/fcfs",
        fun () -> digest_run (opts ~max_batch:3 ~budget_blocks:3 ()) w );
      ( "kv-infeasible aborts/deadline",
        fun () ->
          digest_run
            {
              (opts ~max_batch:3 ~budget_blocks:3 ()) with
              Serve.Scheduler.admission = Serve.Scheduler.Deadline_aware;
            }
            w );
      ( "heavy faults/continuous",
        fun () -> digest_run (opts ~max_batch:3 ~budget_blocks:8 ~faults:heavy ()) w
      );
      ( "heavy faults/static",
        fun () ->
          digest_run
            (opts ~max_batch:3 ~budget_blocks:8 ~policy:Serve.Scheduler.Static
               ~faults:heavy ())
            w );
      ( "tight budget preempts",
        fun () ->
          digest_run (opts ~max_batch:4 ~budget_blocks:4 ()) (workload ~n:10 ()) );
      ( "slowdown window",
        fun () ->
          digest_run
            {
              (opts ~max_batch:3 ~budget_blocks:8 ()) with
              Serve.Scheduler.slowdowns = [ (100.0, 500.0, 4.0) ];
            }
            w );
      ( "outage window",
        fun () ->
          digest_run
            {
              (opts ~max_batch:3 ~budget_blocks:8 ()) with
              Serve.Scheduler.outages = [ (150.0, 400.0) ];
            }
            w );
      ( "stop_at drain",
        fun () ->
          digest_run ~stop_at:300.0 (opts ~max_batch:3 ~budget_blocks:8 ()) w
      );
      ( "numeric",
        fun () ->
          digest_run ~exec:(`Numeric 5)
            (opts ~max_batch:3 ~budget_blocks:6 ~kv_share:true ())
            w );
    ]

(* Recorded on the scheduler before its queue handling was reworked;
   re-recorded when memoized step costs stopped depending on the shapes
   the cost model's VMs ran before (every %h time moved by an ulp or
   so). *)
let expected_digests =
  [
    ("continuous/fcfs/clean/share-false", "92098e3f09dbb580b42efc58fec4d777");
    ("continuous/fcfs/clean/share-true", "285381088cc1507a29f75aa6cdb8435a");
    ("continuous/fcfs/faults5/share-false", "094c780a07240e241e6349f9a3822be4");
    ("continuous/fcfs/faults5/share-true", "55e5829d14f38da29055475b870678dd");
    ("continuous/deadline/clean/share-false", "32fde7af165de0460eb7c4ed414ddb4c");
    ("continuous/deadline/clean/share-true", "8dfeff21d71cd4c5efa2d97be5dbfb70");
    ("continuous/deadline/faults5/share-false", "d2c8c41ee4ebad92c44ff1cd580eb7a1");
    ("continuous/deadline/faults5/share-true", "8a0b194d0008a05c40eaff9ff2c5970b");
    ("static/fcfs/clean/share-false", "3765f98d1918c67831542be7f377d3f9");
    ("static/fcfs/clean/share-true", "2d40f70de679a09a06af6f5152cbe853");
    ("static/fcfs/faults5/share-false", "befd00a5728b7a41e441dfadd2e901dc");
    ("static/fcfs/faults5/share-true", "3c87eb931223366bd99cd42884075d33");
    ("static/deadline/clean/share-false", "3a3c85c6ed81e7f912af1a0e56bf20e6");
    ("static/deadline/clean/share-true", "630f4ab67d2e2df33896333e031afd26");
    ("static/deadline/faults5/share-false", "22335fada6eb887ceb9efb70a303393d");
    ("static/deadline/faults5/share-true", "f1bafaceedb681abc1c090aedacbadbd");
    ("best-of-n fork", "75a6760e4f848a4409ae661e09907bfb");
    ("kv-infeasible aborts/fcfs", "6fb3c5fafc941743d8ca0ccd8e0f9598");
    ("kv-infeasible aborts/deadline", "eb01d49b2051a285663e3ee353331cce");
    ("heavy faults/continuous", "0b47cff1f01eef0f2c1956c1ce5b7d1f");
    ("heavy faults/static", "1e246338f27fcd563c5241c6d056dad0");
    ("tight budget preempts", "db9cbf9ea4e992363db2d781f4a9f0da");
    ("slowdown window", "558f9fba97d8a9dbf5770af8671379c2");
    ("outage window", "fb4a3b8070f8d47feefad96160afd8cd");
    ("stop_at drain", "820760fa3034731ff0b8f15cdecf6dfd");
    ("numeric", "25c5d9538bd7d23dc7fbd0bb5d0f2650");
  ]

(* A memoized step cost is one run's charges summed from zero, so a
   request's estimate has the same bits whatever shapes the model's
   VMs ran before: first on a fresh model, after a longer request, and
   on the model every test shares. *)
let test_cost_order_independent () =
  let req prompt_len output_len =
    {
      Serve.Workload.id = 0;
      arrival_us = 0.0;
      prompt_len;
      output_len;
      deadline_us = None;
      prompt_tokens = None;
      fork_of = None;
    }
  in
  let est m r =
    Printf.sprintf "%h" (Serve.Scheduler.estimate_request_us m ~block_size:4 r)
  in
  let fresh () =
    Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device
  in
  let first = est (fresh ()) (req 4 4) in
  let m = fresh () in
  ignore (est m (req 12 4));
  Alcotest.(check string) "after a 12+4 request" first (est m (req 4 4));
  Alcotest.(check string) "on the shared model" first
    (est (Lazy.force model) (req 4 4))

let test_digests () =
  let actual =
    List.map
      (fun (name, go) ->
        (name, try go () with e -> "raised " ^ Printexc.to_string e))
      (digest_scenarios ())
  in
  if actual <> expected_digests then begin
    print_endline "--- actual behaviour digests ---";
    List.iter (fun (n, d) -> Printf.printf "    (%S, %S);\n" n d) actual
  end;
  Alcotest.(check (list (pair string string)))
    "scenario digests" expected_digests actual

let () =
  Alcotest.run "serve"
    [
      ( "golden",
        [
          Alcotest.test_case "deterministic completion log" `Quick test_golden;
          Alcotest.test_case "rerun is bit-identical" `Quick
            test_deterministic_rerun;
          Alcotest.test_case "workload reproducible" `Quick
            test_workload_reproducible;
          Alcotest.test_case "behaviour digests" `Quick test_digests;
          Alcotest.test_case "step costs independent of run order" `Quick
            test_cost_order_independent;
        ] );
      ( "invariants",
        List.map QCheck_alcotest.to_alcotest
          [ test_no_starvation; test_blocks_drain; test_numeric_matches_timed ]
        @ [
            Alcotest.test_case "preempted requests finish" `Quick
              test_preempted_finish;
            Alcotest.test_case "non-finite arrival is a typed error" `Quick
              test_nonfinite_arrival;
          ] );
      ( "numeric",
        [
          Alcotest.test_case "finite logits smoke" `Quick test_numeric_smoke;
          Alcotest.test_case "events fold into profiler" `Quick
            test_trace_profiler_fold;
        ] );
      ( "kv_sharing",
        List.map QCheck_alcotest.to_alcotest
          [ test_share_transparent; test_share_streams; test_share_modes_agree ]
        @ [
            Alcotest.test_case "sharing saves memory" `Quick
              test_share_saves_memory;
            Alcotest.test_case "fork inherits stream and COWs" `Quick
              test_fork_inherits_and_cows;
          ] );
    ]
