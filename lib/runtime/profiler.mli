(** Fold a {!Trace} event stream into per-kernel counters.

    The profiler is a {!Trace.sink}: attach it to a VM via
    [Vm.create ~trace:(Profiler.sink p)] and every kernel launch,
    library call, capture replay and allocation is aggregated into a
    table of per-routine counters (calls, launches that paid overhead,
    simulated time, flops, bytes moved) plus global memory statistics.

    Invariants the test suite relies on:
    - {!total_time_us} equals the VM's [stats.elapsed_us] for the same
      run (every charged microsecond appears in exactly one event);
    - {!peak_live_bytes} equals [Allocator.peak_bytes] of the VM's
      allocator (events carry live-bytes-after, so the fold recovers
      the exact peak);
    - per-row [calls - launches] counts replayed executions.

    The benchmark harness derives its tables from these counters, so
    benches and tests assert on the same numbers. *)

type row = {
  name : string;
  kind : [ `Kernel | `Extern | `Comm ];
  mutable calls : int;  (** total executions, including replays *)
  mutable launches : int;  (** executions that paid launch overhead *)
  mutable time_us : float;
  mutable flops : float;
  mutable bytes_moved : float;
  mutable origin : string option;
      (** provenance: the Relax binding that produced the call *)
  mutable backend : string;
      (** execution backend that ran the kernel ("interp" | "imp",
          see {!Tir.Exec}); ["-"] for library routines and rows that
          have not seen a launch *)
}

type serve_counts = {
  arrivals : int;
  prefills : int;
  decode_steps : int;
  preempts : int;
  finishes : int;
  sheds : int;  (** [`Shed] + [`Timeout] (timeouts are sheds too) *)
  timeouts : int;
  retries : int;
  aborts : int;
  degrades : int;
  prefix_hits : int;  (** [`Prefix_hit]: admissions served from the prefix cache *)
  cow_copies : int;  (** [`Cow_copy]: writes into shared blocks that copied *)
  kv_evictions : int;  (** [`Evict]: cached refcount-0 blocks reclaimed *)
  failovers : int;  (** [`Failover]: requests migrated off a crashed replica *)
  hedges : int;  (** [`Hedge]: duplicate dispatches to cover stragglers *)
  hedge_wins : int;  (** [`Hedge_win]: hedge copies that finished first *)
  replica_downs : int;  (** [`Replica_down]: health transitions to Down *)
  replica_ups : int;  (** [`Replica_up]: recoveries back to non-Down *)
}
(** Counts of {!Trace.Serve} events by tag (all zero unless a serving
    engine fed its events into this profiler). *)

type t

val create : unit -> t
val sink : t -> Trace.sink
val feed : t -> Trace.event -> unit

val rows : t -> row list
(** Sorted by simulated time (descending), then name. *)

val find_row : t -> string -> row option
val call_time_us : t -> float
val total_time_us : t -> float
(** Call time plus step and replay overheads: equals the VM's
    [stats.elapsed_us] over the profiled runs. *)

val peak_live_bytes : t -> int
val steps : t -> int
val replays : t -> int
val event_count : t -> int
val alloc_count : t -> int
val reuse_count : t -> int
val free_count : t -> int
val serve_counts : t -> serve_counts

val backend_split : t -> (string * int * float) list
(** Kernel time attributed per execution backend:
    [(backend, calls, time_us)] sorted by backend name. Empty until a
    kernel launch is profiled. The [--profile] report renders this as
    a "backends:" line. *)

val comm_time_us : t -> float
(** Simulated time spent in collectives ([`Comm] rows). *)

val collective_count : t -> int
(** Total collective executions, including replays. *)

val device_split : t -> (string * int * float) list
(** Per-device attribution [(tag, calls, time_us)] for tensor-parallel
    sharded modules: shard tags ["g0"…"g<tp-1>"] (parsed from
    ["g<k>:"]-prefixed provenance), ["shared"] for replicated work that
    runs on every device, ["link"] for collectives. Empty unless some
    event carried a shard tag, so single-device runs are unaffected.
    The [--profile] report renders this as a "devices:" line. *)

val fault_count : t -> Fault.kind -> int
(** {!Trace.Fault_injected} events seen, by fault kind. *)

val faults_injected : t -> int
(** Total {!Trace.Fault_injected} events seen. *)

val report : ?top:int -> t -> string
(** Text table sorted by time; [top] truncates to the first [top]
    rows. Ends with call/time/memory total lines. *)
