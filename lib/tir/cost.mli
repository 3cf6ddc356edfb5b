(** Symbolic cost analysis of tensor programs.

    Produces the quantities the device performance model consumes:
    arithmetic work and global-memory traffic, both as symbolic
    expressions over the program's shape variables. Traffic per buffer
    is the smaller of its footprint (ideal on-chip reuse — the regime
    that makes LLM decode bandwidth-bound in the paper's evaluation)
    and the executed access count (the gather/copy regime, where a
    kernel touches far less than the whole buffer).

    Shared/local scratch buffers do not count toward global traffic:
    this is exactly the benefit FuseTensorIR obtains by demoting
    intermediates into fused kernels. *)

type t = {
  flops : Arith.Expr.t;  (** arithmetic ops over the full loop nest *)
  bytes_read : Arith.Expr.t;  (** global footprint loaded *)
  bytes_written : Arith.Expr.t;  (** global footprint stored *)
  transcendentals : Arith.Expr.t;
      (** transcendental library calls (exp, log, tanh, pow, ...) over
          the full loop nest — a subset of [flops], charged at a
          higher per-op rate by {!est_imp_ns} *)
}

val analyze : Prim_func.t -> t

val total_bytes : t -> Arith.Expr.t

val eval :
  (Arith.Var.t -> int) -> t -> flops:int ref -> bytes:int ref -> unit
(** Evaluate and accumulate into the two counters. *)

val est_imp_ns : Prim_func.t -> (Arith.Var.t -> int) -> float
(** Estimated execution time (nanoseconds) of the program on the imp
    register-machine backend for the given shape assignment. The model
    mirrors how {!Imp_compile} lowers each loop: an innermost
    single-store loop fuses into a native trip loop — priced at the
    reduction rate when the store accumulates into itself and at the
    slightly higher streaming-map rate otherwise; a loop whose body is
    a row-stream nest ({!Imp_compile.row_stream_extent}, matmul and
    attention's value loop) is priced per multiply-add at the
    row-stream rate, and when {!Imp.splits_row} holds, as its longest
    {!Imp.split_bounds} range plus a per-split overhead (the kernel
    assumed proved, so its rows run split); statements outside those
    forms pay
    per-instruction dispatch; transcendental calls carry a flat
    surcharge either way. Calibrated against BENCH_kernels.json so
    rankings agree with measured imp-backend times; only the relative
    ordering of estimates is meaningful. *)
