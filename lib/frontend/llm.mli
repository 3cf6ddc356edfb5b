(** Decoder-only transformer builders (the paper's LLM workloads).

    Models are constructed through the Relax block builder with an
    nn.Module-like structure (§5.1): weights are function parameters,
    the KV cache flows through functional append kernels, sequence
    length and cache length are first-class symbolic variables, and
    the customized attention / RoPE / quantization-decode tensor
    programs of {!Attention} and {!Tir.Kernels} are invoked through
    [call_tir] — the cross-level path that lets FuseOps merge the
    4-bit weight decode into the matmul (Figure 9).

    Every entry point below is one call into a single builder,
    parameterised by phase (prefill | decode), KV discipline
    (functional append | paged in-place write) and tensor-parallel
    degree [tp] (1 = unsharded): [decode] builds one generation step
    for a fixed batch size with a symbolic cache length [m]; [prefill]
    builds whole-sequence processing (batch 1) with symbolic length
    [n]. *)

type precision = F16 | Q4 | Q3

val bits_of_precision : precision -> int

type built = {
  mod_ : Relax_core.Ir_module.t;
  entry : string;  (** entry function name *)
  ctx_var : Arith.Var.t;  (** symbolic cache/sequence length *)
  batch_var : Arith.Var.t option;
      (** symbolic batch dimension, when compiled once for arbitrary
          batch sizes (§5.1) *)
  params : (string * Relax_core.Struct_info.t) list;
      (** entry parameters in order: inputs, caches, weights *)
  config : Configs.t;
  batch : int;
  precision : precision;
}

val decode : ?return_caches:bool -> Configs.t -> batch:int -> precision -> built
val decode_symbolic_batch :
  ?return_caches:bool -> ?max_batch:int -> Configs.t -> precision -> built
(** Compile-once variant: the batch dimension is a symbolic variable
    bounded by [max_batch] (default 64).

    [return_caches:false] builds the serving-loop variant used by the
    Table 2 memory measurement: grown caches are consumed by attention
    but not returned, so their storage is recycled across layers —
    modeling a runtime that maintains the cache outside the
    activation pool. *)

val decode_paged : Configs.t -> batch:int -> precision -> built
(** Serving-style decode with a pre-allocated in-place KV cache (the
    paged-cache extension): caches are passed at the model's maximum
    context length, a [Shape] parameter carries the current length,
    and each step writes one position through [call_tir_inplace] —
    no cache copies, matching production runtimes. Returns logits
    only. *)

val prefill : ?return_caches:bool -> Configs.t -> precision -> built

(** {1 Tensor-parallel sharding (DESIGN.md §13)}

    The same builder at [tp > 1]: one Relax module unrolled over [tp]
    simulated devices. Shard [s]'s weights are contiguous column/row
    slices of the full model's
    matrices (head-parallel attention, column-parallel MLP), its
    bindings are named ["g<s>:…"] (surfaced as per-device provenance
    by {!Runtime.Profiler.device_split}), and explicit [ccl.*]
    collectives — charged from {!Runtime.Device.link} — stitch shard
    outputs back together. F16 only. *)

type tp_strategy =
  | Gather
      (** all-gather column-split outputs everywhere: every dot
          product is computed whole on exactly one shard, so results
          are bit-identical to TP=1 *)
  | Reduce
      (** Megatron-style: row-split the second matmul of each pair and
          all-reduce partial sums (deterministic fixed-order left fold,
          but a different association than TP=1 — not bit-identical) *)

(** Where each sharded parameter's value comes from, in terms of the
    full (TP=1) model's parameter names: *)
type shard_src =
  | Sh_input of string  (** runtime input: ids, cur_len, KV caches *)
  | Sh_replicated of string  (** full parameter, copied to every device *)
  | Sh_sliced of { src : string; axis : int; shard : int; tp : int }
      (** contiguous block [shard] of [tp] along [axis] of full
          parameter [src] *)

type sharded = {
  sbuilt : built;
  srcs : shard_src list;  (** aligned with [sbuilt.params] *)
  tp : int;
}

val tp_supported : Configs.t -> tp:int -> bool
(** heads, kv_heads, inter, vocab and hidden all divisible by [tp];
    no qkv biases. *)

val decode_paged_tp :
  ?strategy:tp_strategy -> Configs.t -> batch:int -> tp:int -> unit -> sharded
(** Sharded {!decode_paged}: per-shard KV caches
    ["k_cache_<l>_g<s>"]/["v_cache_<l>_g<s>"] (kv_heads/tp heads each)
    in layer-major, shard-minor order. [tp = 1] builds exactly
    {!decode_paged}. @raise Invalid_argument when unsupported. *)

val prefill_tp :
  ?strategy:tp_strategy ->
  ?return_caches:bool ->
  Configs.t ->
  tp:int ->
  unit ->
  sharded
(** Sharded {!prefill}: returned caches are per shard,
    [(1, kv_heads/tp, n, head_dim)] each, in the same layer-major,
    shard-minor order as {!decode_paged_tp}'s cache parameters. *)

val args_for :
  built ->
  ctx:int ->
  ?batch:int ->
  ?seed:int ->
  mode:[ `Shadow | `Numeric ] ->
  unit ->
  Runtime.Vm.value list
(** Concrete VM arguments for context/sequence length [ctx] (and
    [batch] when compiled with a symbolic batch): shape-only shadows
    for timed runs, seeded random tensors for numeric runs. [seed]
    (default 0) makes numeric runs reproducible: the i-th parameter is
    drawn with seed [seed + i], so the same [seed] on the same build
    always yields identical tensors. (Across different builds the
    parameter indices differ — to share weights between e.g. [prefill]
    and [decode_paged], extract the weight suffix from one call's
    result and splice it into the other's arguments.) *)

val upper_bound_hints : built -> (Arith.Var.t * int) list
(** [ctx_var] (and the symbolic batch, if any) bounded by the model's
    maximum context / batch — the user annotation that enables fully
    static memory planning (§4.3). *)
