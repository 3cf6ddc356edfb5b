(** Kernel execution backends and the kernel cache.

    The [--backend interp|imp] selector surfaces here: the VM and the
    eager baseline execute every kernel through {!Cache.run} with the
    backend chosen at creation. [Interp] is the reference semantics;
    [Imp] (the default) is bit-identical to it on valid programs and
    additionally elides proved-redundant bounds checks when a prover
    is installed (see {!Imp_compile} and DESIGN.md §12). *)

type backend = Interp | Imp

val default : backend
(** [Imp]. *)

val all : backend list
val backend_name : backend -> string
val backend_of_string : string -> backend option

module Cache : sig
  type t

  val create : ?prove:(Prim_func.t -> bool) -> backend -> t
  (** [prove f] decides bounds-check elision for the [Imp] backend
      (default: never elide). The VM installs
      [Analysis.Proof.prover]; the callback is consulted once per
      kernel (per physical identity), not per signature. *)

  val run :
    t ->
    ?sym_args:(Arith.Var.t * int) list ->
    Prim_func.t ->
    Base.Ndarray.t list ->
    unit
  (** Execute through the cache: compile on first sight of a
      (kernel, signature), replay after. The signature is the argument
      shapes plus the values of the specialised symbolic arguments;
      register-held ones ({!Imp_compile.register_vars}) are read from
      each call's [sym_args] and never keyed. The backend is fixed at
      {!create}, so one cache never holds another backend's code. *)

  val backend : t -> backend
  val hits : t -> int
  val misses : t -> int

  val compiled_count : t -> int
  (** Number of distinct (kernel, signature) entries compiled: a
      kernel whose symbolic arguments are all register-held compiles
      once per argument-shape signature, whatever their values. *)

  val elision_of : t -> string -> bool option
  (** Whether bounds checks were elided for the named kernel; [None]
      if the kernel has not been seen. *)

  val register_vars_of : t -> string -> string list option
  (** Names of the named kernel's register-held symbolic arguments
      (empty when all are specialised); [None] if the kernel has not
      been seen. *)
end
