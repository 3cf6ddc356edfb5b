(** Lower tensor programs to the flat imperative IR ({!Imp}).

    Per (kernel, symbolic signature): the symbolic arguments that
    {!register_vars} selects live in int registers bound from each
    call's [sym_args], every other symbolic variable becomes a
    constant, loop-invariant index arithmetic is hoisted to the loop
    level of
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

type compiled = (Arith.Var.t * int) list -> Base.Ndarray.t list -> unit
(** A bound kernel: call with the symbolic arguments and buffer
    arguments of one launch (outputs mutated in place). The shapes and
    the specialised symbolic arguments must match the signature it
    was compiled for; register-held ones may take any value.
    @raise Interp.Runtime_error otherwise, or when a symbolic argument
    is missing. *)

val register_vars : Prim_func.t -> Arith.Var.t list
(** The [sym_params] a compiled program holds in int registers, in
    declaration order: those appearing in no parameter shape and
    multiplied by no variable of a loop the fused templates linearize
    an address over (so every stride, including the stream strides of
    {!Imp.Floop} and {!Imp.Frow}, stays a constant). They may size
    loop extents and scratch buffers, offset addresses and feed
    values. The rest are specialised: folded to constants at lowering
    and part of the cache key. A static classification, decided
    before lowering. *)

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
    {!Imp.count_mem}) and tests. The values of register-held variables
    in [sym_args] are ignored.
    @raise Interp.Runtime_error on rank/shape inconsistencies or
    ill-kinded expressions. *)

val compile :
  ?sym_args:(Arith.Var.t * int) list ->
  ?elide_bounds:bool ->
  Prim_func.t ->
  int array list ->
  compiled
(** Lower and bind to a reusable executable closure (register files
    allocated once, reused across calls). [sym_args] supplies the
    specialised symbolic arguments. *)

val run :
  ?sym_args:(Arith.Var.t * int) list ->
  ?elide_bounds:bool ->
  Prim_func.t ->
  Base.Ndarray.t list ->
  unit
(** Compile-and-execute once (drop-in replacement for
    {!Interp.run}); use a cache (see [Exec.Cache]) on hot paths. *)
