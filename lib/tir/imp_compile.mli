(** Lower tensor programs to the flat imperative IR ({!Imp}).

    Per (kernel, shape signature): symbolic shapes become constants,
    loop-invariant index arithmetic is hoisted to the loop level of
    its deepest variable, buffer accesses become flat offsets into raw
    storage, innermost single-store loops fuse into native trip loops
    ([Imp.Floop]) or are unrolled by 4 with register-promoted
    accumulators (and dispatch-fused multiply-accumulate) for float
    reductions, and row-stream reduction nests (matmul rows,
    attention's value loop) run k-outer over unit-stride rows
    ([Imp.Frow], see {!row_stream_extent}). Results are
    bit-identical to {!Interp} on valid programs (differential-tested
    in test/test_compile.ml).

    When [elide_bounds] is set — the caller must have proved the
    kernel memory-safe, e.g. via [Analysis.Tir_safety] (see
    DESIGN.md §12) — loads and stores use unchecked array access;
    otherwise every access keeps OCaml's bounds check on the flat
    storage array. *)

type compiled = Base.Ndarray.t list -> unit
(** A bound kernel: call with arguments whose shapes match the
    signature it was compiled for (outputs mutated in place). *)

val row_stream_extent :
  lookup:(Arith.Var.t -> int option) ->
  shape:(Buffer.t -> int array) ->
  Arith.Var.t ->
  Stmt.t ->
  Arith.Expr.t option
(** [row_stream_extent ~lookup ~shape j body] is [Some nk] when a
    loop over [j] with this [body] lowers to one {!Imp.Frow} — the
    nest [Y[..j..] = c; for k < nk: Y[..j..] = Y[..j..] + a(k) *
    W[..k..j..]] with [Y] and [W] unit-stride in [j] — and [None]
    otherwise. [lookup] resolves shape variables and [shape] gives a
    buffer's concrete shape. This is the predicate the lowering
    itself uses; {!Cost.est_imp_ns} shares it. *)

val lower :
  ?sym_args:(Arith.Var.t * int) list ->
  ?elide_bounds:bool ->
  Prim_func.t ->
  int array list ->
  Imp.program
(** The lowered program, for inspection ({!Imp.to_string},
    {!Imp.count_mem}) and tests.
    @raise Interp.Runtime_error on rank/shape inconsistencies or
    ill-kinded expressions. *)

val compile :
  ?sym_args:(Arith.Var.t * int) list ->
  ?elide_bounds:bool ->
  Prim_func.t ->
  int array list ->
  compiled
(** Lower and bind to a reusable executable closure (register files
    allocated once, reused across calls). *)

val run :
  ?sym_args:(Arith.Var.t * int) list ->
  ?elide_bounds:bool ->
  Prim_func.t ->
  Base.Ndarray.t list ->
  unit
(** Compile-and-execute once (drop-in replacement for
    {!Interp.run}); use a cache (see [Exec.Cache]) on hot paths. *)
