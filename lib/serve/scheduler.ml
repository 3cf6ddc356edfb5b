type policy = Continuous | Static
type admission = Fcfs | Deadline_aware

type retry = {
  max_attempts : int;
  backoff_us : float;
  backoff_mult : float;
}

let default_retry = { max_attempts = 3; backoff_us = 500.0; backoff_mult = 2.0 }

type opts = {
  max_batch : int;
  block_size : int;
  policy : policy;
  kv_budget_bytes : int option;
  admission : admission;
  retry : retry;
  faults : Runtime.Fault.config option;
  kv_share : bool;
  prefix_prefill_discount : bool;
  slowdowns : (float * float * float) list;
  outages : (float * float) list;
}

let default_opts =
  {
    max_batch = 8;
    block_size = 16;
    policy = Continuous;
    kv_budget_bytes = None;
    admission = Fcfs;
    retry = default_retry;
    faults = None;
    kv_share = false;
    prefix_prefill_discount = false;
    slowdowns = [];
    outages = [];
  }

type exec = [ `Sim | `Numeric of int ]

(* ---------- cost model: timed VMs, memoized per rounded shape ---------- *)

type entry = {
  vm : Runtime.Vm.t;
  built : Frontend.Llm.built;
  costs : (int, float) Hashtbl.t;  (** rounded ctx -> elapsed_us *)
}

type model = {
  cfg : Frontend.Configs.t;
  precision : Frontend.Llm.precision;
  device : Runtime.Device.t;
  decode_entries : (int, entry) Hashtbl.t;  (** batch bucket -> entry *)
  prefill : entry Lazy.t;
  numeric_decode : (Frontend.Llm.built * Runtime.Vm.program) Lazy.t;
  numeric_prefill : (Frontend.Llm.built * Runtime.Vm.program) Lazy.t;
}

let compile built device =
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
    ~device built.Frontend.Llm.mod_

let warmup vm (built : Frontend.Llm.built) =
  (* First run pays per-kernel launch overheads and records the
     captured graph; memoized costs below are steady-state replays. *)
  ignore
    (Runtime.Vm.run vm built.Frontend.Llm.entry
       (Frontend.Llm.args_for built ~ctx:1 ~mode:`Shadow ()))

let timed_entry device built =
  let vm = Runtime.Vm.create (`Timed device) (compile built device) in
  warmup vm built;
  { vm; built; costs = Hashtbl.create 32 }

let model ~cfg ~precision ~device =
  let compiled built = (built, compile built device) in
  {
    cfg;
    precision;
    device;
    decode_entries = Hashtbl.create 8;
    prefill =
      lazy
        (timed_entry device
           (Frontend.Llm.prefill ~return_caches:false cfg precision));
    numeric_decode =
      lazy (compiled (Frontend.Llm.decode_paged cfg ~batch:1 precision));
    numeric_prefill =
      lazy (compiled (Frontend.Llm.prefill ~return_caches:true cfg precision));
  }

let decode_entry m bucket =
  match Hashtbl.find_opt m.decode_entries bucket with
  | Some e -> e
  | None ->
      let e =
        timed_entry m.device
          (Frontend.Llm.decode_paged m.cfg ~batch:bucket m.precision)
      in
      Hashtbl.add m.decode_entries bucket e;
      e

let cost_of (e : entry) ctx =
  match Hashtbl.find_opt e.costs ctx with
  | Some c -> c
  | None ->
      (* Sum this run's charges from zero: a difference of the running
         total would round at the total's magnitude, and so depend on
         which shapes this VM ran before. *)
      let st = Runtime.Vm.stats e.vm in
      let before = st.Runtime.Vm.elapsed_us in
      st.Runtime.Vm.elapsed_us <- 0.0;
      ignore
        (Runtime.Vm.run e.vm e.built.Frontend.Llm.entry
           (Frontend.Llm.args_for e.built ~ctx ~mode:`Shadow ()));
      let c = st.Runtime.Vm.elapsed_us in
      st.Runtime.Vm.elapsed_us <- before +. c;
      Hashtbl.add e.costs ctx c;
      c

(* Smallest power-of-two batch >= live, capped at max_batch: one
   compiled program per bucket instead of one per batch size. *)
let bucket_for ~max_batch live =
  let rec go b = if b >= live then b else go (2 * b) in
  min (go 1) max_batch

(* Costs are memoized per context rounded up to a whole block and
   clamped to what the program accepts: [n] positions for prefill, one
   fewer for decode, which writes one more. *)
let ctx_key ~block_size ~cap n =
  min (max 1 ((n + block_size - 1) / block_size * block_size)) cap

let prefill_us m ~block_size n =
  cost_of (Lazy.force m.prefill)
    (ctx_key ~block_size ~cap:m.cfg.Frontend.Configs.max_context n)

let decode_us m ~block_size ~bucket ctx =
  cost_of (decode_entry m bucket)
    (ctx_key ~block_size ~cap:(m.cfg.Frontend.Configs.max_context - 1) ctx)

(* Uncontended service-time estimate for one request: its prefill plus
   every output token at the batch-1 decode cost, from the same
   memoized timed VMs [run] charges from. The cluster router uses this
   to keep per-replica backlog estimates without running anything. *)
let estimate_request_us m ~block_size (req : Workload.request) =
  let pre = prefill_us m ~block_size req.Workload.prompt_len in
  let step =
    decode_us m ~block_size ~bucket:1
      (req.Workload.prompt_len + req.Workload.output_len - 1)
  in
  pre +. (float_of_int (max 0 (req.Workload.output_len - 1)) *. step)

(* ---------- per-request runtime state ---------- *)

type rstate = {
  req : Workload.request;
  mutable cache_len : int;  (** KV positions filled (0 = never prefilled) *)
  mutable generated : int;
  mutable first_token_us : float;
  mutable preempt_count : int;
  mutable attempts : int;  (** retries consumed (transient/corrupt faults) *)
  mutable retry_at : float;  (** backoff: not eligible for admission before *)
  (* numeric-mode state *)
  mutable rev_history : int list;
      (** prompt tokens then generated tokens, newest first *)
  mutable ncaches : Runtime.Vm.value list;  (** persistent paged caches *)
  mutable last_logits : Base.Ndarray.t option;
}

(* ---------- numeric execution (tiny configs) ---------- *)

type numeric = {
  dec_vm : Runtime.Vm.t;
  dec_built : Frontend.Llm.built;
  pre_vm : Runtime.Vm.t;
  pre_built : Frontend.Llm.built;
  weights : Runtime.Vm.value list;  (** embedding :: layer weights... *)
  seed : int;
}

let numeric_ctx m seed =
  let dec_built, dec_prog = Lazy.force m.numeric_decode in
  let pre_built, pre_prog = Lazy.force m.numeric_prefill in
  (* decode_paged params are ids, cur_len, caches..., embedding,
     weights...; the tail from the embedding onward is exactly
     prefill's tail, so both programs share one weight set. *)
  let template = Frontend.Llm.args_for dec_built ~ctx:0 ~seed ~mode:`Numeric () in
  let weights =
    List.filteri (fun i _ -> i >= 2 + (2 * m.cfg.Frontend.Configs.layers)) template
  in
  {
    dec_vm = Runtime.Vm.create `Numeric dec_prog;
    dec_built;
    pre_vm = Runtime.Vm.create `Numeric pre_prog;
    pre_built;
    weights;
    seed;
  }

(* Numeric prompt ids. A request carrying explicit [prompt_tokens]
   (the shared-prefix workload generators) feeds exactly those ids
   (mod vocab), so requests with equal prompts produce equal KV and
   equal greedy continuations — the property that makes accounting-
   level prefix sharing sound. Requests without ids keep the legacy
   seed-derived stream bit-for-bit. *)
let prompt_tokens (nx : numeric) vocab (req : Workload.request) =
  match req.Workload.prompt_tokens with
  | Some toks -> List.map (fun t -> ((t mod vocab) + vocab) mod vocab) toks
  | None ->
      let st = Random.State.make [| nx.seed; req.Workload.id |] in
      List.init req.Workload.prompt_len (fun _ -> Random.State.int st vocab)

let argmax_token logits =
  let n = Base.Ndarray.numel logits in
  let best = ref 0 and best_v = ref neg_infinity in
  for i = 0 to n - 1 do
    let v = Base.Ndarray.get_flat_float logits i in
    if v > !best_v then begin
      best_v := v;
      best := i
    end
  done;
  !best

let fresh_caches (cfg : Frontend.Configs.t) =
  List.init
    (2 * cfg.Frontend.Configs.layers)
    (fun _ ->
      Runtime.Vm.tensor
        (Base.Ndarray.create Base.Dtype.F16
           [|
             1;
             cfg.Frontend.Configs.kv_heads;
             cfg.Frontend.Configs.max_context;
             cfg.Frontend.Configs.head_dim;
           |]))

(* Run prefill over [tokens] and write the returned (1,kv,n,d) caches
   into the request's persistent (1,kv,mmax,d) paged tensors. *)
let numeric_prefill_run nx (cfg : Frontend.Configs.t) (r : rstate) tokens =
  if r.ncaches = [] then r.ncaches <- fresh_caches cfg;
  let n = List.length tokens in
  let ids =
    Runtime.Vm.tensor (Base.Ndarray.of_int_list Base.Dtype.I32 [| n |] tokens)
  in
  match Runtime.Vm.run nx.pre_vm nx.pre_built.Frontend.Llm.entry (ids :: nx.weights) with
  | Runtime.Vm.Tuple_val (logits :: caches) ->
      List.iter2
        (fun fresh persistent ->
          let src = Runtime.Vm.value_tensor fresh in
          let dst = Runtime.Vm.value_tensor persistent in
          let kv = cfg.Frontend.Configs.kv_heads
          and d = cfg.Frontend.Configs.head_dim in
          for h = 0 to kv - 1 do
            for p = 0 to n - 1 do
              for x = 0 to d - 1 do
                Base.Ndarray.set_float dst [| 0; h; p; x |]
                  (Base.Ndarray.get_float src [| 0; h; p; x |])
              done
            done
          done)
        caches r.ncaches;
      Runtime.Vm.value_tensor logits
  | _ ->
      Runtime.Fault.errorf Runtime.Fault.Fatal
        "Serve: prefill did not return (logits, caches...)"

let numeric_decode_run nx (r : rstate) =
  let last = List.hd r.rev_history in
  let ids =
    Runtime.Vm.tensor (Base.Ndarray.of_int_list Base.Dtype.I32 [| 1 |] [ last ])
  in
  let args =
    (ids :: Runtime.Vm.Shape_val [| r.cache_len |] :: r.ncaches) @ nx.weights
  in
  let out = Runtime.Vm.run nx.dec_vm nx.dec_built.Frontend.Llm.entry args in
  match out with
  | Runtime.Vm.Tuple_val (l :: _) -> Runtime.Vm.value_tensor l
  | v -> Runtime.Vm.value_tensor v

(* ---------- the wait queue ---------- *)

(* Requests waiting for (re-)admission in FCFS order: [front], then
   [back] newest first, so arrivals append and preemption victims
   push onto the head in O(1). [back] joins [front] only when a scan
   runs past [front]'s end. *)
type queue = {
  mutable front : rstate list;
  mutable back : rstate list;
  mutable len : int;
}

let push_back q r =
  q.back <- r :: q.back;
  q.len <- q.len + 1

let push_front q rs =
  q.front <- rs @ q.front;
  q.len <- q.len + List.length rs

let to_list q =
  if q.back <> [] then begin
    q.front <- q.front @ List.rev q.back;
    q.back <- []
  end;
  q.front

let filter q keep =
  q.front <- List.filter keep (to_list q);
  q.len <- List.length q.front

(* First request satisfying [ok], left in place (so in [front]). *)
let find_first q ok =
  match List.find_opt ok q.front with
  | None when q.back <> [] -> List.find_opt ok (to_list q)
  | found -> found

(* Remove [r], found by [find_first]: O(its position). *)
let remove q r =
  let rec go = function
    | [] -> []
    | x :: rest -> if x == r then rest else x :: go rest
  in
  q.front <- go q.front;
  q.len <- q.len - 1

(* ---------- the serving loop ---------- *)

type result = {
  completed : Metrics.request_metrics list;
  summary : Metrics.summary;
  logits : (int * Base.Ndarray.t) list;
  token_streams : (int * int list) list;
  clock_us : float;
  blocks : Block_manager.t;
  shed : int list;
  aborted : int list;
  drained : Workload.request list;
}

(* Effective-batch degradation thresholds: halve after this many
   consecutive stalled decode steps, double back after this many
   consecutive clean ones. *)
let degrade_after = 3
let recover_after = 8

(* Deadline-feasibility headroom: a request is admitted only if its
   estimated remaining service time fits in this fraction's inverse of
   the time to its deadline. The estimate assumes an uncontended
   machine and mean fault behavior; the 40% margin absorbs queueing
   delay after admission and stall variance — without it requests are
   admitted with exactly zero slack and mostly miss. *)
let feasibility_headroom = 1.4

let run ?trace ?(exec = `Sim) ?stop_at m opts workload =
  if opts.max_batch < 1 then
    Runtime.Fault.errorf Runtime.Fault.Fatal "Scheduler.run: max_batch < 1";
  if opts.retry.max_attempts < 1 then
    Runtime.Fault.errorf Runtime.Fault.Fatal "Scheduler.run: max_attempts < 1";
  let cfg = m.cfg in
  let mmax = cfg.Frontend.Configs.max_context in
  List.iter
    (fun (r : Workload.request) ->
      if not (Float.is_finite r.Workload.arrival_us) then
        Runtime.Fault.errorf Runtime.Fault.Fatal
          "Serve: request %d arrives at a non-finite time (%g us)"
          r.Workload.id r.Workload.arrival_us;
      if r.Workload.prompt_len + r.Workload.output_len > mmax then
        Runtime.Fault.errorf Runtime.Fault.Fatal
          "Serve: request %d needs %d tokens > max_context %d" r.Workload.id
          (r.Workload.prompt_len + r.Workload.output_len)
          mmax)
    workload;
  let nx = match exec with `Sim -> None | `Numeric seed -> Some (numeric_ctx m seed) in
  let alloc = Runtime.Allocator.create `Pooling in
  let bm =
    Block_manager.create ?kv_budget_bytes:opts.kv_budget_bytes
      ~sharing:opts.kv_share ~cfg ~precision:m.precision
      ~block_size:opts.block_size ~device:m.device alloc
  in
  let clock = ref 0.0 in
  (* KV-bytes-per-token integrals: referenced physical blocks (used
     minus reclaimable refcount-0 cache — the cache is free headroom,
     not a holding cost) and logical per-request holdings, each
     integrated over simulated time. Every clock advance goes through
     [advance_to] so the integrals cover the whole run. With sharing
     off, cached is always 0 and every logical block has its own
     physical block, so the ratio is exactly block_bytes/block_size. *)
  let kv_phys_block_us = ref 0.0 and kv_logical_block_us = ref 0.0 in
  let advance_to t =
    let dt = t -. !clock in
    if dt > 0.0 then begin
      kv_phys_block_us :=
        !kv_phys_block_us
        +. (float_of_int
              (Block_manager.used_blocks bm - Block_manager.cached_blocks bm)
           *. dt);
      kv_logical_block_us :=
        !kv_logical_block_us
        +. (float_of_int (Block_manager.logical_blocks bm) *. dt);
      clock := t
    end
  in
  let arrivals = ref workload in
  (* Delivered requests not yet checked for KV admissibility, newest
     first; the next admission pass checks each exactly once. *)
  let fresh = ref [] in
  let waiting = { front = []; back = []; len = 0 } in
  let waiting_empty () = waiting.len = 0 && !fresh = [] in
  let running = ref [] in
  (* A trace event stamped, unless told otherwise, with the engine
     clock and the live batch size. *)
  let emit ?(t_us = !clock) ?batch tag ~id ~tokens =
    match trace with
    | None -> ()
    | Some sink ->
        let batch = Option.value batch ~default:(List.length !running) in
        sink (Runtime.Trace.Serve { tag; id; t_us; batch; tokens })
  in
  let completed = ref [] in
  let logits_out = ref [] in
  let streams_out = ref [] in
  let shed_ids = ref [] in
  let aborted_ids = ref [] in
  let timeouts = ref 0 in
  let cohort = ref 0 in
  let busy = ref 0.0 and decode_time = ref 0.0 in
  (* ---- fault injection: one seeded injector for the whole run. All
     draws happen at discrete-event boundaries in an execution-mode-
     independent order, so `Sim and `Numeric schedule identically even
     under faults (the numeric VMs themselves are never armed). ---- *)
  let inj = Option.map Runtime.Fault.create opts.faults in
  let fault_ev ev =
    match trace with
    | Some sink -> sink (Runtime.Trace.Fault_injected ev)
    | None -> ()
  in
  (* One Bernoulli draw of [kind] ([Runtime.Fault.kernel_failure],
     [alloc_oom] or [nan_corruption]) at [site]; true if it fired. *)
  let draw kind site =
    match inj with
    | None -> false
    | Some i -> (
        match kind i ~site with
        | Some ev ->
            fault_ev ev;
            true
        | None -> false)
  in
  let stall_mult site =
    match inj with
    | None -> 1.0
    | Some i -> (
        match Runtime.Fault.device_stall i ~site with
        | Some (ev, factor) ->
            fault_ev ev;
            factor
        | None -> 1.0)
  in
  (* A block-manager call for request [id] behind an OOM draw: an
     injected OOM returns [oom], which callers handle exactly as block
     exhaustion (admission control / preemption). Copy-on-write and
     eviction happen inside the block manager; the trace stream
     recovers them by diffing its monotone counters around the call. *)
  let block_op ~site ~id ~oom f =
    if draw Runtime.Fault.alloc_oom site then oom
    else begin
      let before = Block_manager.stats bm in
      let res = f () in
      let after = Block_manager.stats bm in
      let delta count = count after - count before in
      let cows = delta (fun s -> s.Block_manager.cow_copies)
      and evicted = delta (fun s -> s.Block_manager.evictions) in
      if cows > 0 then emit `Cow_copy ~id ~tokens:cows;
      if evicted > 0 then emit `Evict ~id:(-1) ~tokens:evicted;
      res
    end
  in
  (* ---- graceful degradation: persistent device stall shrinks the
     effective batch (admission width), sustained clean steps restore
     it. Running requests are never evicted by a shrink. ---- *)
  let eff_batch = ref opts.max_batch in
  let stall_streak = ref 0 and clean_streak = ref 0 in
  let note_stall stalled =
    if stalled then begin
      clean_streak := 0;
      incr stall_streak;
      if !stall_streak >= degrade_after && !eff_batch > 1 then begin
        eff_batch := max 1 (!eff_batch / 2);
        stall_streak := 0;
        emit `Degrade ~id:(-1) ~batch:!eff_batch ~tokens:0
      end
    end
    else begin
      stall_streak := 0;
      incr clean_streak;
      if !clean_streak >= recover_after && !eff_batch < opts.max_batch then begin
        eff_batch := min opts.max_batch (!eff_batch * 2);
        clean_streak := 0;
        emit `Degrade ~id:(-1) ~batch:!eff_batch ~tokens:1
      end
    end
  in
  let decode_cost ~live ~ctx =
    decode_us m ~block_size:opts.block_size
      ~bucket:(bucket_for ~max_batch:opts.max_batch live)
      ctx
  in
  let prefill_cost n = prefill_us m ~block_size:opts.block_size n in
  (* Replica-level straggler windows (cluster fault plan): every step
     started inside a window is slowed by its factor. Empty list ->
     multiplier 1.0, and [dt *. 1.0] is exact, so runs without windows
     are byte-identical to the pre-failover engine. *)
  let window_mult t =
    List.fold_left
      (fun acc (from_us, until_us, factor) ->
        if t >= from_us && t < until_us then acc *. factor else acc)
      1.0 opts.slowdowns
  in
  (* Replica crash windows (health-blind cluster baseline): the engine
     is dead for [from, until) — everything in flight loses its KV and
     recomputes after the window, new admissions wait. *)
  let outage_at t =
    List.find_opt (fun (from_us, until_us) -> t >= from_us && t < until_us)
      opts.outages
  in
  let past_stop () =
    match stop_at with Some s -> !clock >= s | None -> false
  in
  (* Idle jumps never skip past the drain point (in-flight steps may
     overshoot it by one step's discrete-event granularity). *)
  let cap_stop t =
    match stop_at with Some s -> Float.min t s | None -> t
  in
  let deliver () =
    let rec go () =
      match !arrivals with
      | (r : Workload.request) :: rest when r.Workload.arrival_us <= !clock ->
          arrivals := rest;
          fresh :=
            {
              req = r;
              cache_len = 0;
              generated = 0;
              first_token_us = 0.0;
              preempt_count = 0;
              attempts = 0;
              retry_at = 0.0;
              rev_history = [];
              ncaches = [];
              last_logits = None;
            }
            :: !fresh;
          emit `Request_arrive ~id:r.Workload.id ~t_us:r.Workload.arrival_us
            ~tokens:r.Workload.prompt_len;
          go ()
      | _ -> ()
    in
    go ()
  in
  let finish (r : rstate) =
    Block_manager.release bm ~request_id:r.req.Workload.id;
    emit `Finish ~id:r.req.Workload.id ~tokens:r.generated;
    (match r.last_logits with
    | Some l -> logits_out := (r.req.Workload.id, l) :: !logits_out
    | None -> ());
    if r.rev_history <> [] then
      streams_out :=
        (r.req.Workload.id, List.rev r.rev_history) :: !streams_out;
    completed :=
      {
        Metrics.id = r.req.Workload.id;
        arrival_us = r.req.Workload.arrival_us;
        first_token_us = r.first_token_us;
        finish_us = !clock;
        prompt_len = r.req.Workload.prompt_len;
        tokens = r.generated;
        preemptions = r.preempt_count;
        retries = r.attempts;
        deadline_us = r.req.Workload.deadline_us;
      }
      :: !completed
  in
  (* A request that holds its first token joins the batch, or is done
     already when that was its only one. *)
  let start (r : rstate) =
    if r.generated >= r.req.Workload.output_len then finish r
    else running := !running @ [ r ]
  in
  let abort (r : rstate) =
    Block_manager.release bm ~request_id:r.req.Workload.id;
    aborted_ids := r.req.Workload.id :: !aborted_ids;
    emit `Abort ~id:r.req.Workload.id ~tokens:r.generated
  in
  let shed_req (r : rstate) ~timeout =
    shed_ids := r.req.Workload.id :: !shed_ids;
    if timeout then incr timeouts;
    emit
      (if timeout then `Timeout else `Shed)
      ~id:r.req.Workload.id ~tokens:r.req.Workload.prompt_len
  in
  (* Expected slowdown of the degraded machine, from the armed fault
     config: stalls inflate the average step by stall_p * (factor - 1)
     and transient launch failures waste a 1 / (1 - p) fraction of
     steps. Deadline feasibility charges it so admission control sheds
     against the capacity the machine actually has — estimating with
     healthy costs under a high fault rate admits doomed requests and
     goodput falls off a cliff instead of degrading. *)
  let fault_slowdown =
    match opts.faults with
    | None -> 1.0
    | Some c ->
        (1.0
        +. (max 0.0 c.Runtime.Fault.stall_p
           *. max 0.0 (c.Runtime.Fault.stall_factor -. 1.0)))
        /. (1.0 -. min 0.9 (max 0.0 c.Runtime.Fault.kernel_fail_p))
  in
  (* Deadline feasibility: prefill plus every remaining token at the
     would-be batch's step cost must land before the deadline. Uses
     the same memoized cost model the engine charges from, so the
     estimate is exact for an uncontended machine and optimistic
     under contention — a deliberately mild shedding bound. *)
  let feasible (r : rstate) d =
    let target =
      if r.cache_len = 0 then r.req.Workload.prompt_len else r.cache_len
    in
    let remaining = max 0 (r.req.Workload.output_len - max 1 r.generated) in
    let step =
      decode_cost
        ~live:(min opts.max_batch (List.length !running + 1))
        ~ctx:(r.req.Workload.prompt_len + r.req.Workload.output_len - 1)
    in
    !clock
    +. ((prefill_cost target +. (float_of_int remaining *. step))
       *. fault_slowdown *. feasibility_headroom)
    <= d
  in
  (* The admission-queue pass. Each delivered request is checked for
     KV admissibility exactly once, here: one that could never fit the
     whole budget aborts (typed) instead of wedging the engine later.
     Feasibility cannot change after arrival, so under [Fcfs] the pass
     visits only the requests delivered since the previous pass; under
     [Deadline_aware] it also sheds every waiting request whose
     deadline has passed or is unreachable. Visits run in queue order
     (fresh requests are its tail). Returns #removed. *)
  let admission_pass () =
    let pruned = ref 0 in
    let keep (r : rstate) =
      match (opts.admission, r.req.Workload.deadline_us) with
      | Deadline_aware, Some d when d <= !clock ->
          shed_req r ~timeout:true;
          incr pruned;
          false
      | Deadline_aware, Some d when not (feasible r d) ->
          shed_req r ~timeout:false;
          incr pruned;
          false
      | _ -> true
    in
    if opts.admission = Deadline_aware then filter waiting keep;
    List.iter
      (fun (r : rstate) ->
        let need =
          max r.req.Workload.prompt_len
            (r.req.Workload.prompt_len + r.req.Workload.output_len - 1)
        in
        if Block_manager.blocks_for bm need > Block_manager.total_blocks bm
        then begin
          abort r;
          incr pruned
        end
        else if keep r then push_back waiting r)
      (List.rev !fresh);
    fresh := [];
    !pruned
  in
  (* Deadline enforcement on the running batch: a request whose
     deadline has passed — or whose remaining decode provably cannot
     land before it even at uncontended mean-fault speed (no
     headroom: only certain losses are reaped) — is abandoned,
     releasing its slot and KV blocks for work that can still meet
     its SLO. Under FCFS the baseline runs everything to completion,
     doomed or not. *)
  let reap_running () =
    match opts.admission with
    | Fcfs -> 0
    | Deadline_aware ->
        let reaped = ref 0 in
        List.iter
          (fun (r : rstate) ->
            match r.req.Workload.deadline_us with
            | Some d ->
                let remaining =
                  max 0 (r.req.Workload.output_len - r.generated)
                in
                let step =
                  decode_cost
                    ~live:(min opts.max_batch (List.length !running))
                    ~ctx:(r.req.Workload.prompt_len + r.req.Workload.output_len - 1)
                in
                if
                  d <= !clock
                  || !clock +. (float_of_int remaining *. step *. fault_slowdown)
                     > d
                then begin
                  Block_manager.release bm ~request_id:r.req.Workload.id;
                  running := List.filter (fun x -> x != r) !running;
                  incr reaped;
                  shed_req r ~timeout:true
                end
            | None -> ())
          !running;
        !reaped
  in
  (* Best-of-n forking: a child whose parent is still decoding shares
     (sharing on, O(1) memory) or duplicates (sharing off) the
     parent's whole KV and inherits its decode state — no prefill
     runs and no time is charged, so sharing on and off schedule
     identically whenever both paths fit. A child whose parent is
     already gone (or whose copy does not fit) falls back to a normal
     prefill of its own prompt; greedy decoding makes either path
     produce a prefix of the same continuation. *)
  let try_fork (r : rstate) =
    match r.req.Workload.fork_of with
    | Some pid when r.cache_len = 0 -> (
        match
          List.find_opt (fun (p : rstate) -> p.req.Workload.id = pid) !running
        with
        | Some p
          when p.cache_len > 0 && Block_manager.holds bm ~request_id:pid > 0 ->
            if draw Runtime.Fault.alloc_oom "kv-admit" then `Oom
            else if Block_manager.fork bm ~parent:pid ~child:r.req.Workload.id
            then `Forked p
            else `Fresh (* sharing off and the copy doesn't fit *)
        | _ -> `Fresh)
    | _ -> `Fresh
  in
  (* Try to admit [r], the first waiting request whose backoff has
     expired: charge its (re-)prefill, produce the first token if
     fresh. [`Blocked]: its blocks don't fit (admission control; no
     preemption here). [`Backoff] / [`Aborted]: an injected transient
     fault wasted the prefill — time advanced and the request backs
     off in place, or aborts once its attempt budget is spent. *)
  let admit_one (r : rstate) =
    let id = r.req.Workload.id in
    match try_fork r with
    | `Oom -> `Blocked
    | `Forked p ->
        r.cache_len <- p.cache_len;
        r.generated <- 1;
        r.first_token_us <- !clock;
        r.rev_history <- p.rev_history;
        r.last_logits <- p.last_logits;
        (match nx with
        | None -> ()
        | Some _ ->
            (* Private numeric caches: sharing is block accounting,
               the tiny-model tensors stay per-request. *)
            r.ncaches <-
              List.map
                (fun v ->
                  Runtime.Vm.tensor
                    (Base.Ndarray.copy (Runtime.Vm.value_tensor v)))
                p.ncaches);
        if opts.kv_share then
          emit `Prefix_hit ~id ~tokens:r.cache_len;
        start r;
        `Admitted
    | `Fresh -> (
        let target =
          if r.cache_len = 0 then r.req.Workload.prompt_len else r.cache_len
        in
        (* Only requests that carry explicit prompt tokens can share. *)
        let prompt =
          Array.of_list (Option.value r.req.Workload.prompt_tokens ~default:[])
        in
        match
          block_op ~site:"kv-admit" ~id ~oom:`No_space (fun () ->
              Block_manager.acquire bm ~request_id:id ~prompt ~tokens:target)
        with
        | `No_space -> `Blocked
        | `Ok matched ->
            if matched > 0 then
              emit `Prefix_hit ~id ~tokens:matched;
            (* With the discount on, a prefix hit charges prefill only
               for the unshared suffix — the cached positions' KV is
               already resident. Off (default), the full cost is charged
               and sharing stays block accounting only. *)
            let charged_target =
              if opts.prefix_prefill_discount && matched > 0 then
                max 1 (target - matched)
              else target
            in
            let dt =
              prefill_cost charged_target *. stall_mult "prefill"
              *. window_mult !clock
            in
            advance_to (!clock +. dt);
            if draw Runtime.Fault.kernel_failure "prefill" then begin
              (* Transient prefill failure: the time is wasted, the
                 blocks are released between attempts, and the request
                 backs off exponentially — or aborts once its attempt
                 budget is spent. *)
              Block_manager.release bm ~request_id:id;
              r.attempts <- r.attempts + 1;
              emit `Retry ~id ~tokens:r.attempts;
              if r.attempts >= opts.retry.max_attempts then begin
                abort r;
                `Aborted
              end
              else begin
                r.retry_at <-
                  !clock
                  +. opts.retry.backoff_us
                     *. (opts.retry.backoff_mult
                        ** float_of_int (r.attempts - 1));
                `Backoff
              end
            end
            else begin
              emit `Prefill ~id
                ~batch:(List.length !running + 1)
                ~tokens:target;
              (match nx with
              | None -> ()
              | Some nx when r.cache_len = 0 ->
                  (* Fresh: prefill over the prompt yields the first
                     token. *)
                  let toks = prompt_tokens nx cfg.Frontend.Configs.vocab r.req in
                  let logits = numeric_prefill_run nx cfg r toks in
                  r.last_logits <- Some logits;
                  r.rev_history <- argmax_token logits :: List.rev toks
              | Some nx ->
                  (* Preempted earlier: re-prefill the cached positions
                     (recompute); the pending last token is consumed by
                     the next decode step, so [generated] does not
                     advance. *)
                  ignore
                    (numeric_prefill_run nx cfg r
                       (List.filteri
                          (fun i _ -> i < r.cache_len)
                          (List.rev r.rev_history))));
              if r.cache_len = 0 then begin
                r.cache_len <- target;
                r.generated <- 1;
                r.first_token_us <- !clock
              end;
              start r;
              `Admitted
            end)
  in
  (* One admission round: the queue pass, then admit FCFS from the
     first eligible request until the policy's bound or a blocked
     admission. [Continuous] fills the running batch up to the
     effective width; [Static] forms a cohort only when the machine is
     idle, and only at full width (or from the final stragglers once
     the stream has ended) — the static baseline's inefficiency.
     Returns true if the round made progress: admitted a request,
     consumed a (failed) attempt, or pruned a queue. Admitted requests
     may finish instantly on single-token outputs, so progress is not
     the same as a non-empty running batch. *)
  let admit () =
    let reaped = reap_running () in
    let pruned = admission_pass () in
    let admitted = ref 0 in
    let failed = ref false in
    let open_, filled =
      match opts.policy with
      | Continuous -> (true, fun () -> List.length !running)
      | Static ->
          ( !running = []
            && (waiting.len >= !eff_batch || !arrivals = [])
            && waiting.len > 0,
            fun () -> !admitted )
    in
    let rec fill () =
      if filled () < !eff_batch then
        match find_first waiting (fun r -> r.retry_at <= !clock) with
        | None -> ()
        | Some r -> (
            match admit_one r with
            | `Blocked -> ()
            | outcome ->
                if outcome <> `Backoff then remove waiting r;
                if outcome = `Admitted then incr admitted else failed := true;
                fill ())
    in
    if open_ then begin
      fill ();
      if opts.policy = Static then cohort := List.length !running
    end;
    !admitted > 0 || !failed || pruned > 0 || reaped > 0
  in
  (* Grow [r]'s cache for the next decode write; on block exhaustion,
     preempt from the tail of the running batch (latest admitted
     first — FCFS priority). Returns false if [r] preempted itself.
     With injection armed a lone request may self-preempt on a
     transient OOM and re-prefill later; without it, a lone request
     that cannot grow is a genuine budget overrun. *)
  let rec ensure_capacity (r : rstate) =
    let id = r.req.Workload.id in
    if
      block_op ~site:"kv-grow" ~id ~oom:false (fun () ->
          Block_manager.grow bm ~request_id:id ~tokens:(r.cache_len + 1))
    then true
    else
      match List.rev !running with
      | [] ->
          Runtime.Fault.errorf Runtime.Fault.Fatal
            "Serve: empty batch cannot grow"
      | victim :: _ ->
          if victim == r && List.length !running = 1 && Option.is_none inj then
            Runtime.Fault.errorf Runtime.Fault.Resource_exhausted
              "Serve: request %d alone exceeds the KV budget (%d blocks)"
              r.req.Workload.id (Block_manager.total_blocks bm);
          Block_manager.release bm ~request_id:victim.req.Workload.id;
          victim.preempt_count <- victim.preempt_count + 1;
          running := List.filter (fun x -> x != victim) !running;
          push_front waiting [ victim ];
          emit `Preempt ~id:victim.req.Workload.id ~tokens:victim.cache_len;
          if victim == r then false else ensure_capacity r
  in
  let decode_step () =
    (* Capacity first: every survivor must fit its next KV write.
       Skip requests a previous iteration already preempted — they
       must not grow blocks from the waiting queue. *)
    List.iter
      (fun r -> if List.memq r !running then ignore (ensure_capacity r))
      !running;
    let live = !running in
    let nlive = List.length live in
    if nlive > 0 then begin
      let cost_batch =
        match opts.policy with
        | Continuous -> nlive
        | Static -> max nlive !cohort  (* fixed cohort width until drained *)
      in
      let ctx = List.fold_left (fun acc r -> max acc r.cache_len) 0 live in
      let base_dt = decode_cost ~live:cost_batch ~ctx in
      let mult = stall_mult "decode" in
      let wmult = window_mult !clock in
      let dt = base_dt *. mult *. wmult in
      advance_to (!clock +. dt);
      if draw Runtime.Fault.kernel_failure "decode" then begin
        (* Whole-step transient failure: the step's time is wasted and
           no tokens advance; the next loop iteration retries. Charged
           to decode time (the machine was busy) but not to useful
           occupancy. *)
        decode_time := !decode_time +. dt;
        emit `Retry ~id:(-1) ~batch:nlive ~tokens:0;
        note_stall (mult > 1.0 || wmult > 1.0)
      end
      else begin
        busy := !busy +. (float_of_int nlive *. dt);
        decode_time := !decode_time +. dt;
        emit `Decode_step ~id:(-1) ~batch:nlive ~tokens:nlive;
        note_stall (mult > 1.0 || wmult > 1.0);
        List.iter
          (fun r ->
            if draw Runtime.Fault.nan_corruption "decode" then begin
              (* Corrupt output for this request's token: discard it
                 and spend an attempt; the next step regenerates. *)
              r.attempts <- r.attempts + 1;
              emit `Retry ~id:r.req.Workload.id ~tokens:r.attempts;
              if r.attempts >= opts.retry.max_attempts then begin
                running := List.filter (fun x -> x != r) !running;
                abort r
              end
            end
            else begin
              (match nx with
              | None -> ()
              | Some nx ->
                  let logits = numeric_decode_run nx r in
                  r.last_logits <- Some logits;
                  r.rev_history <- argmax_token logits :: r.rev_history);
              r.cache_len <- r.cache_len + 1;
              r.generated <- r.generated + 1;
              if r.generated >= r.req.Workload.output_len then begin
                running := List.filter (fun x -> x != r) !running;
                finish r
              end
            end)
          live
      end
    end
  in
  let rec loop () =
    deliver ();
    if past_stop () then ()
    else
      match outage_at !clock with
      | Some (_, until_us) ->
          (* The engine is down: everything in flight loses its KV
             (recompute-preemption on restart) and the clock jumps to
             the window's end, where the restarted engine drains the
             backlog that piled up. *)
          List.iter
            (fun (r : rstate) ->
              Block_manager.release bm ~request_id:r.req.Workload.id;
              r.preempt_count <- r.preempt_count + 1;
              emit `Preempt ~id:r.req.Workload.id ~tokens:r.cache_len)
            !running;
          push_front waiting !running;
          running := [];
          advance_to until_us;
          loop ()
      | None ->
    if !running = [] && waiting_empty () then
      match !arrivals with
      | [] -> ()
      | (r : Workload.request) :: _ ->
          advance_to (cap_stop (max !clock r.Workload.arrival_us));
          loop ()
    else begin
      let progressed = admit () in
      if !running <> [] then begin
        decode_step ();
        loop ()
      end
      else if progressed || waiting_empty () then
        (* Everything admitted finished at its prefill (single-token
           outputs); form the next batch or wait for an arrival. *)
        loop ()
      else
        match (!arrivals, opts.policy) with
        | (r : Workload.request) :: _, Static ->
            (* waiting for the cohort to fill *)
            advance_to (cap_stop (max !clock r.Workload.arrival_us));
            loop ()
        | _ ->
            (* Idle machine, nothing admissible. With faults armed (or
               requests backing off) this is transient: jump to the
               next retry/arrival time and try again. Without, every
               block is free, so a failed admission can never succeed
               later — a genuine budget overrun. *)
            let next_retry =
              List.fold_left
                (fun acc (r : rstate) ->
                  if r.retry_at > !clock then Float.min acc r.retry_at else acc)
                Float.infinity (to_list waiting)
            in
            let next_arrival =
              match !arrivals with
              | (a : Workload.request) :: _ -> a.Workload.arrival_us
              | [] -> Float.infinity
            in
            if Option.is_some inj || next_retry < Float.infinity then begin
              let next = Float.min next_retry next_arrival in
              let next =
                if next > !clock && next < Float.infinity then next
                else !clock +. opts.retry.backoff_us
              in
              advance_to (cap_stop next);
              loop ()
            end
            else
              Runtime.Fault.errorf Runtime.Fault.Resource_exhausted
                "Serve: waiting request cannot be admitted on an idle machine \
                 (KV budget too small for its prompt)"
    end
  in
  loop ();
  (* Drain surface (cluster failover): everything not yet finished at
     the stop point — waiting, in flight (KV released: the crashed
     engine's cache is gone) and not-yet-delivered arrivals — is
     handed back for re-admission elsewhere. Empty without [stop_at]. *)
  let drained =
    if stop_at = None then []
    else begin
      List.iter
        (fun (r : rstate) ->
          Block_manager.release bm ~request_id:r.req.Workload.id)
        !running;
      List.map (fun (r : rstate) -> r.req) (to_list waiting @ !fresh @ !running)
      @ !arrivals
      |> List.sort (fun (a : Workload.request) (b : Workload.request) ->
             compare
               (a.Workload.arrival_us, a.Workload.id)
               (b.Workload.arrival_us, b.Workload.id))
    end
  in
  let completed = List.rev !completed in
  let occupancy =
    if !decode_time > 0.0 then
      !busy /. (float_of_int opts.max_batch *. !decode_time)
    else 0.0
  in
  let faults =
    match inj with Some i -> Runtime.Fault.injected_total i | None -> 0
  in
  let bstats = Block_manager.stats bm in
  let prefix_hit_rate =
    if bstats.Block_manager.lookup_tokens > 0 then
      float_of_int bstats.Block_manager.hit_tokens
      /. float_of_int bstats.Block_manager.lookup_tokens
    else 0.0
  in
  let kv_bytes_per_token =
    if !kv_logical_block_us > 0.0 then
      !kv_phys_block_us
      *. float_of_int (Block_manager.block_bytes bm)
      /. (!kv_logical_block_us *. float_of_int opts.block_size)
    else 0.0
  in
  {
    completed;
    summary =
      Metrics.summarize ~makespan_us:!clock ~occupancy
        ~submitted:(List.length workload)
        ~shed:(List.length !shed_ids)
        ~timeouts:!timeouts
        ~aborted:(List.length !aborted_ids)
        ~faults ~prefix_hit_rate
        ~cow_copies:bstats.Block_manager.cow_copies ~kv_bytes_per_token
        completed;
    logits = List.rev !logits_out;
    token_streams = List.rev !streams_out;
    clock_us = !clock;
    blocks = bm;
    shed = List.rev !shed_ids;
    aborted = List.rev !aborted_ids;
    drained;
  }
