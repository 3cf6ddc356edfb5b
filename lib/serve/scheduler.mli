(** Iteration-level continuous batching over compiled [prefill] /
    [decode_paged] programs — the serving loop of the paper's
    evaluation, as a discrete-event simulation.

    Time advances by the cost of each prefill or batched decode step,
    measured by running the compiled programs on a [`Timed] VM (the
    same roofline substitution the benchmark harness uses; costs are
    memoized per batch-size bucket and block-rounded context length,
    after a warm-up run so graph-capture replay costs are
    steady-state). Scheduling is FCFS: waiting requests are admitted
    into the running batch whenever a slot and enough KV blocks are
    free ([Continuous]), or only in fixed cohorts that drain
    completely before the next forms ([Static] — the baseline the
    continuous policy dominates at high request rates). When a
    decode step cannot grow a request's KV cache, the most recently
    admitted request is preempted: its blocks are freed and it is
    re-prefilled over its accumulated tokens on re-admission
    (vLLM-style recompute preemption).

    [`Numeric] execution additionally runs real token generation
    (greedy argmax over the model's logits, with prompt/weight
    tensors derived from an explicit seed) through batch-1 numeric
    VMs while the clock still advances from the timed costs — so
    scheduling decisions are identical to [`Sim] by construction,
    which the test suite checks.

    {2 Resilience}

    [opts.faults] arms a seeded {!Runtime.Fault} injector drawn at
    discrete-event boundaries (never inside the memoized cost VMs, so
    [`Sim] and [`Numeric] still schedule identically): a prefill or
    decode step may fail transiently (time wasted, no tokens), stall
    (time inflated), a KV-block grow may hit an injected OOM (handled
    by the normal admission-control / preemption path), and a decoded
    token may come back corrupt (discarded). Transient/corrupt
    failures cost the request one attempt from [opts.retry]'s budget
    with exponential backoff between admission attempts (blocks are
    released while backing off); exhausting the budget aborts the
    request. Persistent stalls shrink the effective admission batch
    (halve after 3 consecutive stalled steps, restore after 8 clean
    ones). With [opts.faults = None] every fault path is skipped
    outright and traces/metrics are byte-identical to the fault-free
    engine.

    [opts.admission = Deadline_aware] adds load shedding: before each
    admission round, waiting requests whose deadline has passed
    ([`Timeout]) or provably cannot be met under the cost model
    ([`Shed]) are rejected, protecting the SLO of the rest — the
    chaos benchmark shows this beating FCFS under overload. Requests
    whose KV need exceeds the whole budget are aborted (typed) at the
    same point under either admission policy.

    {2 KV prefix sharing}

    [opts.kv_share = true] turns on {!Block_manager} prefix sharing:
    admission matches a request's [Workload.prompt_tokens] against the
    cross-request prefix tree and charges only the unshared suffix of
    blocks ([`Prefix_hit]); decode writes into shared blocks copy on
    write ([`Cow_copy]); cached refcount-0 blocks are evicted LRU
    under pool pressure ([`Evict]); and a [Workload.fork_of] child
    whose parent is still decoding inherits the parent's blocks and
    decode state outright instead of prefilling. Sharing is {e block
    accounting only}: the full prefill cost is still charged (and in
    numeric mode the prefill still runs, over per-request tensors), so
    with a budget generous enough that neither run sheds or preempts,
    sharing on and off make identical scheduling decisions — the
    differential test suite asserts token streams, finish order and
    the final clock coincide. Under a tight budget sharing admits
    requests the baseline must reject, so only per-request token
    streams remain comparable. What sharing buys is memory:
    [summary.kv_bytes_per_token] (physical block bytes integrated
    over time, per logical cached token) drops below the
    one-block-per-holder baseline, and the freed blocks become
    admission headroom. *)

type policy = Continuous | Static

type admission =
  | Fcfs  (** admit strictly in arrival order; never reject *)
  | Deadline_aware
      (** FCFS order, but shed waiting requests whose
          [Workload.deadline_us] has passed or is infeasible under
          the cost model *)

type retry = {
  max_attempts : int;
      (** per-request attempt budget across transient faults and
          corrupt tokens; >= 1. The request aborts when spent. *)
  backoff_us : float;  (** first backoff delay after a failed attempt *)
  backoff_mult : float;  (** exponential growth per further attempt *)
}

val default_retry : retry
(** 3 attempts, 500 us initial backoff, doubling. *)

type opts = {
  max_batch : int;  (** decode batch slots *)
  block_size : int;  (** KV block granularity, tokens *)
  policy : policy;
  kv_budget_bytes : int option;
      (** override the VRAM-derived KV budget (tests force preemption
          with tiny budgets) *)
  admission : admission;
  retry : retry;
  faults : Runtime.Fault.config option;
      (** [None]: no injector, zero-cost, byte-identical to the
          fault-free engine. [Some c]: seeded injection; note that a
          config with [oom_p = 1.0] can livelock admission (every
          grow fails forever) — chaos probabilities should be < 1. *)
  kv_share : bool;
      (** cross-request KV prefix sharing with copy-on-write blocks
          (see above). [false]: the block manager is the pre-sharing
          private-block accountant, byte-identical behavior. *)
  prefix_prefill_discount : bool;
      (** extend sharing from block accounting to time: a prefix hit
          of [matched] tokens charges prefill only for the unshared
          suffix ([max 1 (target - matched)] tokens), modeling a
          runtime that skips recomputation of cached KV. Numeric
          execution still prefills the full prompt (per-request
          tensors), so token streams are unchanged; only the clock —
          and therefore scheduling under load — differs. [false]
          (default): byte-identical to the accounting-only engine. *)
  slowdowns : (float * float * float) list;
      (** replica-level straggler windows [(from_us, until_us,
          factor)]: every prefill/decode step {e started} inside a
          window is slowed by [factor] (windows compose by
          multiplication), and slowed steps feed the same
          batch-degradation streaks injected stalls do. The cluster
          passes a replica's [Replica_stall] fault windows here. [[]]
          (default): byte-identical to the pre-failover engine. *)
  outages : (float * float) list;
      (** replica crash windows [(from_us, until_us)]: the engine is
          dead for the span — on entering a window every in-flight
          request loses its KV (recompute-preemption on restart) and
          the clock jumps to the window end, where the restarted
          engine drains the backlog. The health-blind cluster baseline
          runs crashed replicas this way; the health-aware path drains
          via [stop_at] instead. [[]] (default): no effect. *)
}

val default_opts : opts
(** Continuous, max_batch 8, block_size 16, VRAM-derived budget,
    FCFS admission, {!default_retry}, no faults, no sharing, no
    prefill discount, no slowdown/outage windows. *)

type model
(** Compiled programs + memoized step costs for one (config,
    precision, device) triple. Sharing one model across [run] calls
    reuses compilations and cost tables. *)

val model :
  cfg:Frontend.Configs.t ->
  precision:Frontend.Llm.precision ->
  device:Runtime.Device.t ->
  model

val estimate_request_us : model -> block_size:int -> Workload.request -> float
(** Uncontended service-time estimate: prefill of the (block-rounded)
    prompt plus [output_len - 1] decode steps at the batch-1 cost,
    from the same memoized timed VMs {!run} charges from. The cluster
    router ({!Dist.Cluster}) keeps per-replica backlog estimates with
    this; it runs nothing beyond the shared cost-model VMs. *)

type exec =
  [ `Sim  (** timed costs only; no tensor data *)
  | `Numeric of int  (** seed: also generate real tokens (tiny configs) *)
  ]

type result = {
  completed : Metrics.request_metrics list;  (** in completion order *)
  summary : Metrics.summary;
  logits : (int * Base.Ndarray.t) list;
      (** numeric mode: each request's final logits *)
  token_streams : (int * int list) list;
      (** numeric mode: each completed request's full token history
          (prompt ids then generated ids), in completion order — what
          the sharing-on/off differential tests compare. Empty in
          [`Sim] runs. *)
  clock_us : float;  (** simulated makespan *)
  blocks : Block_manager.t;
      (** the run's block manager, post-drain (tests assert
          [used_blocks = 0] and inspect the allocator pool) *)
  shed : int list;
      (** ids rejected by admission control or abandoned mid-flight
          once provably unable to meet their deadline, in shed order
          (includes timeouts) *)
  aborted : int list;
      (** ids aborted mid-flight (retry budget spent, or KV-infeasible),
          in abort order. Every submitted id lands in exactly one of
          [completed] / [shed] / [aborted] — except under [stop_at],
          where unfinished ids land in [drained] instead. *)
  drained : Workload.request list;
      (** requests not finished when [stop_at] fired — waiting, in
          flight (their KV blocks are released: a crashed engine's
          cache is gone) and undelivered arrivals — sorted by
          (arrival, id). The cluster failover path re-admits these on
          surviving replicas with recompute. Always [[]] without
          [stop_at]. *)
}

val run :
  ?trace:Runtime.Trace.sink ->
  ?exec:exec ->
  ?stop_at:float ->
  model ->
  opts ->
  Workload.t ->
  result
(** Serve the workload to completion — or, with [stop_at t], only
    until the clock reaches [t] (the moment a crashed replica's
    engine died): the run stops at the first event boundary at or
    after [t] (idle jumps never skip past it; an in-flight step may
    overshoot by its own duration), and everything unfinished is
    returned in [drained]. [trace] receives the
    {!Runtime.Trace.Serve} event stream ([Request_arrive] / [Prefill]
    / [Decode_step] / [Preempt] / [Finish], plus [Shed] / [Timeout] /
    [Retry] / [Abort] / [Degrade] on the resilience paths, plus
    [Prefix_hit] / [Cow_copy] / [Evict] when [kv_share] is on) and
    {!Runtime.Trace.Fault_injected} markers when injection is armed.

    Raising conditions (all {!Runtime.Fault.Error}):
    - [(Fatal, _)]: caller errors — [max_batch < 1],
      [retry.max_attempts < 1], a request whose
      [prompt_len + output_len] exceeds the model's max context or
      whose [arrival_us] is not finite — or a broken prefill program
      shape.
    - [(Resource_exhausted, _)]: without injection, a waiting request
      that can never be admitted (its prompt alone exceeds the KV
      budget on an idle machine) or a lone running request that
      cannot grow. With injection armed these become self-preemption
      / typed aborts instead of raises.

    [Invalid_argument] propagates from {!Block_manager.create} when
    the KV budget fits no block at all. *)
