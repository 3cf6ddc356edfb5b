(** Reference interpreter for tensor programs.

    Executes a prim func on concrete {!Base.Ndarray.t} arguments,
    binding symbolic shape variables from the actual buffer shapes
    (and from explicit [sym_args]). This is the numeric substrate for
    the VM's numeric mode and for all correctness tests: there is no
    other "real" kernel implementation to diverge from. *)

exception
  Runtime_error of string
    (** Raised on assertion failures, unbound symbols, rank or shape
        mismatches between declared buffers and actual arguments. *)

val run :
  ?sym_args:(Arith.Var.t * int) list ->
  Prim_func.t ->
  Base.Ndarray.t list ->
  unit
(** [run f args] executes [f] with [args] bound positionally to
    [f.params] (destination-passing: outputs are mutated in place).

    Symbolic variables are bound by unifying each parameter's declared
    symbolic shape with the concrete argument shape (a declared
    dimension that is a bare variable binds it; any other declared
    dimension is checked by evaluation once all variables are bound).

    @raise Runtime_error on any inconsistency. *)

val unify_shapes : (int, int) Hashtbl.t -> Prim_func.t -> int array list -> unit
(** [unify_shapes sym f arg_shapes] binds symbolic shape variables in
    [sym] (var id -> concrete value) by unifying [f]'s declared
    parameter shapes against [arg_shapes], as {!run} does. Shared
    with {!Imp_compile} so both executors resolve signatures
    identically.
    @raise Runtime_error on rank or dimension mismatch. *)

val eval_shape : (Arith.Var.t -> int) -> Arith.Expr.t list -> int array
(** Evaluate a symbolic shape under a variable environment. *)

val erf : float -> float
(** The error-function approximation used by [Texpr.Erf]
    (Abramowitz & Stegun 7.1.26). Shared with {!Imp} so the two
    executors are bit-identical. *)
