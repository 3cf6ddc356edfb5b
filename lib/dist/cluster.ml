(* Replicated serving cluster: a router spreads one request stream
   across M independent Serve.Scheduler replicas, then each replica
   runs to completion on its own engine (own block manager, own
   clock). Dispatch is decided up front from per-replica backlog
   estimates (Scheduler.estimate_request_us), so it is deterministic
   and cheap — the golden routing tests pin the exact sequence.

   Fault tolerance (DESIGN.md §14). A Runtime.Fault replica plan
   schedules crash / stall / partition windows; Health simulates the
   heartbeat prober against the plan up front, so the health timeline
   — like everything else about routing — is a pure function of
   (workload, policy, seed, plan). With [health_aware] on, routing
   never targets a Down replica and deprioritizes Degraded ones, and
   each detected crash splits the victim replica into "eras": the
   pre-crash era runs with [stop_at] the crash instant, everything it
   drains is re-admitted on surviving replicas (KV recomputed, bounded
   migrations), and the post-recovery era is a fresh engine
   incarnation — an engine restart has no KV either. With it off (the
   health-blind baseline the failover bench compares against), crashed
   replicas run their whole assignment through Scheduler outage
   windows: their queues strand until the engine returns. *)

module Scheduler = Serve.Scheduler
module Workload = Serve.Workload
module Metrics = Serve.Metrics
module Fault = Runtime.Fault
module Trace = Runtime.Trace

type route = Round_robin | Least_loaded | Power_of_two | Prefix_affinity

let route_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Power_of_two -> "power-of-two"
  | Prefix_affinity -> "prefix-affinity"

let route_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "power-of-two" | "p2c" -> Some Power_of_two
  | "prefix-affinity" | "affinity" -> Some Prefix_affinity
  | _ -> None

type opts = {
  replicas : int;
  route : route;
  affinity_window : int;
  route_seed : int;
  sched : Scheduler.opts;
  replica_faults : Fault.plan;
  health : Health.opts;
  health_aware : bool;
  hedge : bool;
  max_migrations : int;
}

let default_opts =
  {
    replicas = 2;
    route = Round_robin;
    affinity_window = 64;
    route_seed = 0;
    sched = Scheduler.default_opts;
    replica_faults = [];
    health = Health.default_opts;
    health_aware = true;
    hedge = false;
    max_migrations = 2;
  }

(* 32-bit FNV-1a over token ids (4 little-endian bytes each). Not
   Hashtbl.hash: the routing goldens must not move across OCaml
   versions. *)
let fnv1a tokens =
  let h = ref 0x811c9dc5 in
  List.iter
    (fun tok ->
      let tok = tok land 0xffffffff in
      for b = 0 to 3 do
        h := !h lxor ((tok lsr (8 * b)) land 0xff);
        h := !h * 0x01000193 land 0xffffffff
      done)
    tokens;
  !h

let take n l = List.filteri (fun i _ -> i < n) l

(* ---------- the router ----------

   One mutable routing state shared by the up-front dispatch walk and
   (in failover runs) the mid-walk re-admission of drained requests.
   All decisions are deterministic; the only PRNG is the seeded
   power-of-two sampler. When every replica is Healthy at every
   decision point (in particular whenever the fault plan is empty),
   every policy reduces bit-for-bit to its pre-failover behavior — the
   existing routing goldens pin that. The health-blind baseline is
   exactly that case: it routes through the same code over a view in
   which every replica is always Healthy. *)

type router = {
  busy_until : float array;
  mutable rr : int;
  rng : Random.State.t;
  assigned : (int, int) Hashtbl.t;  (* request id -> current replica *)
}

let make_router opts =
  {
    busy_until = Array.make opts.replicas 0.0;
    rr = 0;
    rng = Random.State.make [| opts.route_seed |];
    assigned = Hashtbl.create 64;
  }

(* The replica states routing decides on: the probed health timeline,
   or all-Healthy for the health-blind baseline. *)
let routing_view opts tl =
  if opts.health_aware then fun k t -> Health.state_at tl ~replica:k ~t_us:t
  else fun _ _ -> Health.Healthy

(* Health penalty for routing order: prefer Healthy, then
   Degraded/Recovering, never Down unless nothing else is up. *)
let penalty = function
  | Health.Healthy -> 0
  | Health.Degraded | Health.Recovering -> 1
  | Health.Down -> 2

let route_pick ~opts ~rt ~state (r : Workload.request) ~t =
  let m = opts.replicas in
  let backlog k = Float.max 0.0 (rt.busy_until.(k) -. t) in
  let round_robin () =
    let start = rt.rr in
    rt.rr <- rt.rr + 1;
    let first_with p =
      let rec go i =
        if i >= m then None
        else
          let k = (start + i) mod m in
          if penalty (state k t) = p then Some k else go (i + 1)
      in
      go 0
    in
    match first_with 0 with
    | Some k -> k
    | None -> (
        match first_with 1 with Some k -> k | None -> start mod m)
  in
  let least_loaded () =
    let best = ref 0 in
    let key k = (penalty (state k t), backlog k) in
    for k = 1 to m - 1 do
      if key k < key !best then best := k
    done;
    !best
  in
  match opts.route with
  | Round_robin -> round_robin ()
  | Least_loaded -> least_loaded ()
  | Power_of_two -> (
      let avail =
        List.filter (fun k -> state k t <> Health.Down) (List.init m Fun.id)
      in
      match avail with
      | [] -> least_loaded ()
      | [ k ] -> k
      | _ ->
          let n = List.length avail in
          let a = List.nth avail (Random.State.int rt.rng n) in
          let b =
            List.nth avail
              ((List.length (List.filter (fun k -> k < a) avail)
               + 1
               + Random.State.int rt.rng (n - 1))
              mod n)
          in
          let pa = penalty (state a t) and pb = penalty (state b t) in
          if pa < pb then a
          else if pb < pa then b
          else if backlog a <= backlog b then a
          else b)
  | Prefix_affinity -> (
      match r.Workload.prompt_tokens with
      | Some toks when toks <> [] ->
          let h = fnv1a (take opts.affinity_window toks) mod m in
          if state h t = Health.Healthy then h
          else begin
            (* Deterministic fallback: the hash home unless it is not
               fully Healthy, then the next-healthiest replica —
               ordered by (health, backlog, scan distance from h) so a
               hot home's sessions re-spread over the survivors
               instead of piling onto h+1. *)
            let best = ref h and best_key = ref (penalty Health.Down + 1, 0.0) in
            for i = 0 to m - 1 do
              let k = (h + i) mod m in
              let key = (penalty (state k t), backlog k) in
              if key < !best_key then begin
                best := k;
                best_key := key
              end
            done;
            !best
          end
      | _ -> round_robin ())

(* Legacy-exact backlog bump: max(busy, arrival) + estimate. *)
let note_assign ~model ~opts ~rt k (r : Workload.request) =
  let est =
    Scheduler.estimate_request_us model
      ~block_size:opts.sched.Scheduler.block_size r
  in
  rt.busy_until.(k) <-
    Float.max rt.busy_until.(k) r.Workload.arrival_us +. est

let pick_for ~opts ~rt ~state (r : Workload.request) ~t =
  match r.Workload.fork_of with
  | Some p when Hashtbl.mem rt.assigned p ->
      (* Forks must land where their parent's KV lives — unless that
         replica is currently believed Down. *)
      let pk = Hashtbl.find rt.assigned p in
      if state pk t = Health.Down then route_pick ~opts ~rt ~state r ~t
      else pk
  | _ -> route_pick ~opts ~rt ~state r ~t

(* Probe horizon: past every arrival and fault window, plus slack for
   detection and half-open recovery to land. *)
let probe_horizon opts (w : Workload.t) =
  let last_arrival =
    List.fold_left
      (fun acc (r : Workload.request) -> Float.max acc r.Workload.arrival_us)
      0.0 w
  in
  let last_window =
    List.fold_left
      (fun acc (win : Fault.window) -> Float.max acc win.Fault.until_us)
      0.0 opts.replica_faults
  in
  Float.max last_arrival last_window
  +. (4.0 *. opts.health.Health.max_backoff_us)
  +. (float_of_int
        (opts.health.Health.down_after + opts.health.Health.recover_after + 4)
     *. opts.health.Health.heartbeat_us)

let timeline_of opts w =
  if opts.replica_faults = [] then []
  else
    Health.timeline opts.health ~plan:opts.replica_faults
      ~replicas:opts.replicas ~horizon_us:(probe_horizon opts w)

let dispatch ~model opts (w : Workload.t) =
  if opts.replicas < 1 then invalid_arg "Dist.Cluster: replicas < 1";
  let state = routing_view opts (timeline_of opts w) in
  let rt = make_router opts in
  List.map
    (fun (r : Workload.request) ->
      let pick = pick_for ~opts ~rt ~state r ~t:r.Workload.arrival_us in
      Hashtbl.replace rt.assigned r.Workload.id pick;
      note_assign ~model ~opts ~rt pick r;
      (r.Workload.id, pick))
    w

(* ---------- crash-era bookkeeping ---------- *)

(* Merge a replica's crash windows into maximal disjoint spans. *)
let merged_crash_spans plan ~replica =
  Fault.plan_windows plan ~replica ~rkind:Fault.Replica_crash ()
  |> List.map (fun (w : Fault.window) -> (w.Fault.from_us, w.Fault.until_us))
  |> List.sort compare
  |> List.fold_left
       (fun acc (a, b) ->
         match acc with
         | (pa, pb) :: rest when a <= pb -> (pa, Float.max pb b) :: rest
         | _ -> (a, b) :: acc)
       []
  |> List.rev

let stall_windows plan ~replica =
  Fault.plan_windows plan ~replica ~rkind:Fault.Replica_stall ()
  |> List.map (fun (w : Fault.window) ->
         (w.Fault.from_us, w.Fault.until_us, w.Fault.factor))

type crash_event = {
  ce_replica : int;
  ce_crash_us : float;  (* the engine died here *)
  ce_detect_us : float;  (* the health model marked it Down here *)
  ce_rejoin_us : float option;  (* first non-Down after detection *)
}

(* A crash window is *detected* iff the health model transitions to
   Down while the window is still open (consecutive probe misses fit
   inside it). Undetected blips are handled engine-side as Scheduler
   outage windows instead — nothing drains for them. *)
let crash_events opts tl =
  List.init opts.replicas (fun k ->
      merged_crash_spans opts.replica_faults ~replica:k
      |> List.filter_map (fun (tc, tce) ->
             let detect =
               match
                 List.find_opt
                   (fun (x : Health.transition) ->
                     x.Health.replica = k && x.Health.state = Health.Down
                     && x.Health.t_us >= tc && x.Health.t_us < tce)
                   tl
               with
               | Some x -> Some x.Health.t_us
               | None ->
                   if Health.state_at tl ~replica:k ~t_us:tc = Health.Down then
                     Some tc (* already believed down (e.g. partition) *)
                   else None
             in
             match detect with
             | None -> None
             | Some td ->
                 let tr =
                   List.find_opt
                     (fun (x : Health.transition) ->
                       x.Health.replica = k && x.Health.state <> Health.Down
                       && x.Health.t_us >= td)
                     tl
                   |> Option.map (fun (x : Health.transition) -> x.Health.t_us)
                 in
                 Some
                   {
                     ce_replica = k;
                     ce_crash_us = tc;
                     ce_detect_us = td;
                     ce_rejoin_us = tr;
                   }))
  |> List.concat
  |> List.sort (fun a b ->
         match compare a.ce_detect_us b.ce_detect_us with
         | 0 -> compare a.ce_replica b.ce_replica
         | c -> c)

let undetected_outages opts tl ~replica =
  let detected =
    crash_events opts tl
    |> List.filter (fun ce -> ce.ce_replica = replica)
    |> List.map (fun ce -> ce.ce_crash_us)
  in
  merged_crash_spans opts.replica_faults ~replica
  |> List.filter (fun (a, _) -> not (List.mem a detected))

(* ---------- the cluster run ---------- *)

type replica_report = {
  eras : (float * Scheduler.result) list;
      (* (era start, result) in time order; one era when the replica
         never crashed *)
  downtime_us : float;
}

type result = {
  dispatch : (int * int) list;
  hedged : (int * int) list;
  migrations : (int * int * int) list;
  replica_reports : replica_report array;
  health : Health.transition list;
  summary : Metrics.summary;
}

let run ?trace ?exec ~model opts (w : Workload.t) =
  if opts.replicas < 1 then invalid_arg "Dist.Cluster: replicas < 1";
  let m = opts.replicas in
  let plan = opts.replica_faults in
  let aware = opts.health_aware in
  let tl = timeline_of opts w in
  let state = routing_view opts tl in
  let emit tag ~id ~t ~batch ~tokens =
    match trace with
    | None -> ()
    | Some sink -> sink (Trace.Serve { tag; id; t_us = t; batch; tokens })
  in
  (* Record the scheduled windows and the health transitions they
     cause up front — the plan is part of the run's configuration. *)
  (match trace with
  | None -> ()
  | Some sink ->
      List.iteri
        (fun i win -> sink (Trace.Fault_injected (Fault.window_event ~seq:i win)))
        plan);
  if plan <> [] then begin
    let horizon = probe_horizon opts w in
    for k = 0 to m - 1 do
      List.iter
        (fun (a, b) ->
          emit `Replica_down ~id:k ~t:a ~batch:0 ~tokens:0;
          if b < horizon then emit `Replica_up ~id:k ~t:b ~batch:0 ~tokens:0)
        (Health.down_spans tl ~replica:k ~horizon_us:horizon)
    done
  end;
  let rt = make_router opts in
  let sched_for k =
    if plan = [] then opts.sched
    else
      {
        opts.sched with
        Scheduler.slowdowns = stall_windows plan ~replica:k;
        outages =
          (if aware then undetected_outages opts tl ~replica:k
           else merged_crash_spans plan ~replica:k);
      }
  in
  (* Era state. *)
  let era_start = Array.make m 0.0 in
  let era_acc = Array.make m [] in
  let eras_done = Array.make m [] in
  let disp_acc = ref [] in
  let hedged = ref [] in
  let migrations = ref [] in
  let mig_aborted = ref [] in
  let migcount = Hashtbl.create 16 in
  let orig_arrival = Hashtbl.create 16 in
  let assign k (r : Workload.request) =
    era_acc.(k) <- r :: era_acc.(k);
    note_assign ~model ~opts ~rt k r
  in
  let hedge_target pick t =
    let best = ref None in
    for k = 0 to m - 1 do
      if k <> pick && state k t = Health.Healthy then
        let b = Float.max 0.0 (rt.busy_until.(k) -. t) in
        match !best with
        | Some (_, bb) when bb <= b -> ()
        | _ -> best := Some (k, b)
    done;
    Option.map fst !best
  in
  let route_original (r : Workload.request) =
    let t = r.Workload.arrival_us in
    let pick = pick_for ~opts ~rt ~state r ~t in
    Hashtbl.replace rt.assigned r.Workload.id pick;
    disp_acc := (r.Workload.id, pick) :: !disp_acc;
    assign pick r;
    if
      opts.hedge
      && (match state pick t with
         | Health.Degraded | Health.Recovering -> true
         | Health.Healthy | Health.Down -> false)
    then
      match hedge_target pick t with
      | Some hk ->
          hedged := (r.Workload.id, hk) :: !hedged;
          emit `Hedge ~id:r.Workload.id ~t ~batch:hk ~tokens:0;
          assign hk r
      | None -> ()
  in
  let run_era ?stop_at k =
    let sub =
      List.stable_sort
        (fun (a : Workload.request) (b : Workload.request) ->
          compare a.Workload.arrival_us b.Workload.arrival_us)
        (List.rev era_acc.(k))
    in
    era_acc.(k) <- [];
    let res = Scheduler.run ?exec ?stop_at model (sched_for k) sub in
    eras_done.(k) <- (era_start.(k), res) :: eras_done.(k);
    res
  in
  let process_crash ce =
    let k = ce.ce_replica in
    let res = run_era ~stop_at:ce.ce_crash_us k in
    era_start.(k) <-
      (match ce.ce_rejoin_us with Some tr -> tr | None -> Float.infinity);
    let td = ce.ce_detect_us in
    List.iter
      (fun (d : Workload.request) ->
        let n =
          (Option.value (Hashtbl.find_opt migcount d.Workload.id) ~default:0)
          + 1
        in
        Hashtbl.replace migcount d.Workload.id n;
        if not (Hashtbl.mem orig_arrival d.Workload.id) then
          Hashtbl.replace orig_arrival d.Workload.id d.Workload.arrival_us;
        if n > opts.max_migrations then
          mig_aborted := d.Workload.id :: !mig_aborted
        else begin
          let pick = route_pick ~opts ~rt ~state d ~t:td in
          (* A migrant waits out the destination's own downtime if it
             was forced onto a not-yet-recovered replica. *)
          let arrival =
            if Float.is_finite era_start.(pick) then
              Float.max td era_start.(pick)
            else td
          in
          let d' = { d with Workload.arrival_us = arrival } in
          migrations := (d.Workload.id, k, pick) :: !migrations;
          emit `Failover ~id:d.Workload.id ~t:td ~batch:pick ~tokens:0;
          Hashtbl.replace rt.assigned d.Workload.id pick;
          assign pick d'
        end)
      res.Scheduler.drained
  in
  (* Merged walk: arrivals in order, crash detections interleaved at
     their detection times (arrivals tie-break first — a request
     landing exactly at the detection instant is routed against the
     already-Down state either way). *)
  let crashes = if aware then crash_events opts tl else [] in
  let rec walk arrivals crashes =
    match (arrivals, crashes) with
    | [], [] -> ()
    | (a : Workload.request) :: arest, [] ->
        route_original a;
        walk arest []
    | [], ce :: crest ->
        process_crash ce;
        walk [] crest
    | (a : Workload.request) :: arest, ce :: crest ->
        if a.Workload.arrival_us <= ce.ce_detect_us then begin
          route_original a;
          walk arest crashes
        end
        else begin
          process_crash ce;
          walk arrivals crest
        end
  in
  walk w crashes;
  (* Final era of every replica (the only era when nothing crashed). *)
  for k = 0 to m - 1 do
    ignore (run_era k)
  done;
  let reports_eras = Array.map List.rev eras_done in
  (* ---------- fold ---------- *)
  let fold_eras f init =
    Array.fold_left (fun acc eras -> List.fold_left f acc eras) init
      reports_eras
  in
  let makespan =
    fold_eras (fun acc (_, r) -> Float.max acc r.Scheduler.clock_us) 0.0
  in
  let dur (start, (r : Scheduler.result)) =
    Float.max 0.0 (r.Scheduler.clock_us -. start)
  in
  let sum_dur = fold_eras (fun acc e -> acc +. dur e) 0.0 in
  (* Time-weighted over replica activity; a replica that never ran
     contributes nothing. *)
  let weighted f =
    if sum_dur > 0.0 then
      fold_eras (fun acc ((_, r) as e) -> acc +. (f r.Scheduler.summary *. dur e))
        0.0
      /. sum_dur
    else 0.0
  in
  let sum_i f = fold_eras (fun acc (_, r) -> acc + f r.Scheduler.summary) 0 in
  (* Winner per request id: hedged duplicates (and rare crash-window
     double completions) resolve to the earliest finish. *)
  let tagged =
    List.concat
      (List.mapi
         (fun k eras ->
           List.concat_map
             (fun (_, (r : Scheduler.result)) ->
               List.map (fun rm -> (k, rm)) r.Scheduler.completed)
             eras)
         (Array.to_list reports_eras))
  in
  let winners = Hashtbl.create 64 in
  List.iter
    (fun ((_, (rm : Metrics.request_metrics)) as entry) ->
      match Hashtbl.find_opt winners rm.Metrics.id with
      | Some (_, (cur : Metrics.request_metrics))
        when cur.Metrics.finish_us <= rm.Metrics.finish_us ->
          ()
      | _ -> Hashtbl.replace winners rm.Metrics.id entry)
    tagged;
  let completed =
    List.filter_map
      (fun ((_, (rm : Metrics.request_metrics)) as entry) ->
        match Hashtbl.find_opt winners rm.Metrics.id with
        | Some e when e == entry ->
            (* Migrated requests keep their original arrival so the
               latency percentiles charge the full pre-crash wait. *)
            Some
              (match Hashtbl.find_opt orig_arrival rm.Metrics.id with
              | Some a -> { rm with Metrics.arrival_us = a }
              | None -> rm)
        | _ -> None)
      tagged
  in
  let hedge_wins =
    List.filter
      (fun (id, hk) ->
        match Hashtbl.find_opt winners id with
        | Some (k, (rm : Metrics.request_metrics)) when k = hk ->
            emit `Hedge_win ~id ~t:rm.Metrics.finish_us ~batch:hk ~tokens:0;
            true
        | _ -> false)
      (List.rev !hedged)
    |> List.length
  in
  (* Terminal resolution per id: completed beats aborted beats shed —
     a hedge or migration that saved a request means it was not lost. *)
  let ab = Hashtbl.create 16 and sh = Hashtbl.create 16 in
  let note tbl id =
    if
      (not (Hashtbl.mem winners id))
      && (not (Hashtbl.mem ab id))
      && not (Hashtbl.mem sh id)
    then Hashtbl.replace tbl id ()
  in
  fold_eras
    (fun () (_, (r : Scheduler.result)) ->
      List.iter (note ab) r.Scheduler.aborted)
    ();
  List.iter (note ab) (List.rev !mig_aborted);
  fold_eras
    (fun () (_, (r : Scheduler.result)) -> List.iter (note sh) r.Scheduler.shed)
    ();
  let shed = Hashtbl.length sh and aborted = Hashtbl.length ab in
  let timeouts = min (sum_i (fun s -> s.Metrics.timeouts)) shed in
  let fired_windows =
    List.length
      (List.filter (fun (win : Fault.window) -> win.Fault.from_us <= makespan)
         plan)
  in
  let downtime k =
    if plan = [] then 0.0
    else Health.downtime_us tl ~replica:k ~horizon_us:makespan
  in
  let failover_ids = Hashtbl.create 16 in
  List.iter (fun (id, _, _) -> Hashtbl.replace failover_ids id ()) !migrations;
  let summary =
    Metrics.summarize ~makespan_us:makespan
      ~occupancy:(weighted (fun s -> s.Metrics.occupancy))
      ~submitted:(List.length w) ~shed ~timeouts ~aborted
      ~faults:(sum_i (fun s -> s.Metrics.faults) + fired_windows)
      ~prefix_hit_rate:(weighted (fun s -> s.Metrics.prefix_hit_rate))
      ~cow_copies:(sum_i (fun s -> s.Metrics.cow_copies))
      ~kv_bytes_per_token:(weighted (fun s -> s.Metrics.kv_bytes_per_token))
      ~failovers:(Hashtbl.length failover_ids)
      ~migrations:(List.length !migrations)
      ~hedges:(List.length !hedged)
      ~hedge_wins
      ~replica_downtime_us:
        (List.fold_left
           (fun acc k -> acc +. downtime k)
           0.0
           (List.init m Fun.id))
      completed
  in
  {
    dispatch = List.rev !disp_acc;
    hedged = List.rev !hedged;
    migrations = List.rev !migrations;
    replica_reports =
      Array.init m (fun k ->
          { eras = reports_eras.(k); downtime_us = downtime k });
    health = tl;
    summary;
  }

let to_string opts (r : result) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "cluster: %d replicas, %s routing\n" opts.replicas
       (route_name opts.route));
  Array.iteri
    (fun k (rep : replica_report) ->
      let completed =
        List.fold_left
          (fun acc (_, (er : Scheduler.result)) ->
            acc + er.Scheduler.summary.Metrics.completed)
          0 rep.eras
      in
      let busy =
        List.fold_left
          (fun acc ((start, (er : Scheduler.result)) : float * _) ->
            acc +. Float.max 0.0 (er.Scheduler.clock_us -. start))
          0.0 rep.eras
      in
      let tokens =
        List.fold_left
          (fun acc (_, (er : Scheduler.result)) ->
            List.fold_left
              (fun a (rm : Metrics.request_metrics) -> a + rm.Metrics.tokens)
              acc er.Scheduler.completed)
          0 rep.eras
      in
      let tok_s =
        if busy > 0.0 then float_of_int tokens /. (busy /. 1e6) else 0.0
      in
      Buffer.add_string b
        (Printf.sprintf "  replica %d: %d completed, %.1f ms busy, %.1f tok/s%s\n"
           k completed (busy /. 1000.0) tok_s
           (if rep.downtime_us > 0.0 then
              Printf.sprintf ", down %.1f ms" (rep.downtime_us /. 1000.0)
            else "")))
    r.replica_reports;
  Buffer.add_string b (Metrics.to_string r.summary);
  Buffer.contents b
