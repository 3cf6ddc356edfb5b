(** The Relax virtual machine (§4.7).

    After lowering, a graph-level program is a sequence of VM
    instructions, each a call into a generated tensor program, an
    external library routine, or a runtime builtin (allocation, shape
    binding, graph capture). The same program executes in two modes:

    - [`Numeric]: tensors carry real data; kernels run through
      {!Tir.Exec.Cache} on the backend chosen at {!create} (imp by
      default: flat imperative code with proved bounds checks elided;
      compiled once per shape signature) and library routines through
      their OCaml implementations. Used by tests and examples.
    - [`Timed device]: tensors are shape-only shadows; each call
      accrues simulated time from the device roofline model plus
      launch overhead. Used by the benchmark harness at paper-scale
      shapes (see DESIGN.md §1 on this substitution).

    Both modes drive the allocator identically, so memory statistics
    (Table 2) are mode-independent. *)

type instr =
  | Match_shape of { src : int; dims : Arith.Expr.t array }
      (** Bind unbound symbolic variables from the runtime shape of
          register [src]; check already-bound/constant dimensions.
          Implements parameter binding and [match_cast]. *)
  | Alloc_storage of { dst : int; bytes : Arith.Expr.t }
      (** Planned storage: cached per call site across invocations
          (a static plan allocates once at load time); re-evaluated
          and reallocated only if the computed size changes. *)
  | Alloc_tensor of {
      dst : int;
      storage : int option;  (** [None]: own fresh storage (unplanned) *)
      dims : Arith.Expr.t array;
      dtype : Base.Dtype.t;
    }
  | Kill of int array
      (** Liveness markers inserted by memory planning: registers die
          here; owned storage is released to the allocator. *)
  | Call_kernel of {
      kernel : string;
      args : int array;  (** DPS: outputs are trailing registers *)
      sym_args : Arith.Expr.t array;
    }
  | Call_extern of { func : string; args : int array }
  | Call_func of { dst : int; func : string; args : int array }
  | Call_captured of { dst : int; func : string; args : int array; capture_id : int }
      (** Graph-capture region (§4.5): the first execution captures,
          later ones replay without per-kernel launch overhead. *)
  | Make_tuple of { dst : int; srcs : int array }
  | Get_tuple of { dst : int; src : int; index : int }
  | Make_shape of { dst : int; dims : Arith.Expr.t array }
      (** first-class shape value computed from the symbolic env *)
  | Cond of {
      cond : int;
      then_code : instr array;
      then_reg : int;
      else_code : instr array;
      else_reg : int;
      dst : int;
    }
      (** structured control flow: run one branch depending on the
          truthiness of register [cond] (non-zero scalar tensor,
          shape value or prim), then move the branch's result into
          [dst]. Timed mode takes the then-branch (data-dependent
          branches cannot be simulated without data). *)
  | Load_const of { dst : int; tensor : Base.Ndarray.t }
  | Ret of int

type vm_func = {
  fname : string;
  nparams : int;
  nregs : int;
  instrs : instr array;
  prov : string option array;
      (** provenance: the originating Relax binding name for each
          instruction (attached by [To_vm]), used to attribute trace
          events to source-level operations *)
}

type program = {
  funcs : (string * vm_func) list;
  mod_ : Relax_core.Ir_module.t;  (** kernel lookup for [Call_kernel] *)
}

type value =
  | Tensor of Base.Ndarray.t
  | Shadow of { shape : int array; dtype : Base.Dtype.t }
  | Storage_val of { id : int; bytes : int }
  | Shape_val of int array
  | Tuple_val of value list
  | Unit_val

type mode = [ `Numeric | `Timed of Device.t ]

type stats = {
  mutable elapsed_us : float;
  mutable kernel_launches : int;
  mutable lib_calls : int;
  mutable collective_calls : int;
  mutable graph_replays : int;
}

type t

exception Vm_error of string

(** [create ?allocator ?trace ?fault mode program] builds a VM.
    [trace] receives a {!Trace.event} for every observable runtime
    action (instruction begin/end, launches with resolved shapes and
    costs, allocator traffic, capture/replay, shape bind/check).
    Attach a {!Profiler} sink to aggregate, or a {!Trace.recorder} to
    assert on event sequences. No sink: zero tracing overhead.

    [fault] arms the VM with a seeded {!Fault} injector consulted at
    three points, each preceded by a {!Trace.Fault_injected} event:
    - every [Call_kernel] may fail transiently — the launch is
      skipped (no time charged, no launch event) and
      {!Fault.Error}[ (Transient, _)] is raised out of {!run};
    - every timed kernel/extern charge may stall, multiplying that
      launch's simulated time by the configured factor;
    - every [Call_extern] may corrupt its output: in numeric mode the
      destination tensor is {!Library.poison}ed with NaN (the call
      "succeeds", as a misbehaving vendor routine would).
    The injector does not cover allocation — arm the {!Allocator}
    itself for OOM spikes. No injector (or all-zero probabilities):
    behavior is byte-identical to a fault-free VM.

    [backend] selects the kernel execution backend (interp/imp;
    default {!Tir.Exec.default}, i.e. imp). Both backends are
    bit-identical on valid kernels; imp additionally
    elides bounds checks for kernels [Analysis.Tir_safety] proves
    memory-safe. *)
val create :
  ?allocator:Allocator.t ->
  ?trace:Trace.sink ->
  ?fault:Fault.t ->
  ?backend:Tir.Exec.backend ->
  mode ->
  program ->
  t
val stats : t -> stats

val kernel_cache : t -> Tir.Exec.Cache.t
(** The compiled-kernel cache backing numeric-mode [Call_kernel]:
    keyed by (kernel name, backend-prefixed shape signature), so a
    decode loop compiles each kernel once and replays thereafter, and
    caches of different backends never alias. *)

val allocator : t -> Allocator.t
val device : t -> Device.t option

val run : t -> string -> value list -> value
(** Invoke a VM function by name.
    @raise Vm_error on shape-check failures, missing functions, or
    mode/value mismatches. *)

val shadow_of_shape : Base.Dtype.t -> int list -> value
val tensor : Base.Ndarray.t -> value
val value_shape : value -> int array
(** @raise Vm_error if the value is not tensor-like. *)

val value_tensor : value -> Base.Ndarray.t
(** @raise Vm_error in timed mode (shadows carry no data). *)
