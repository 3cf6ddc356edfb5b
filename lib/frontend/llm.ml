open Relax_core
module E = Arith.Expr

type precision = F16 | Q4 | Q3

let bits_of_precision = function F16 -> 16 | Q4 -> 4 | Q3 -> 3

type built = {
  mod_ : Ir_module.t;
  entry : string;
  ctx_var : Arith.Var.t;
  batch_var : Arith.Var.t option;
  params : (string * Struct_info.t) list;
  config : Configs.t;
  batch : int;
  precision : precision;
}

(* Tensor parallelism (DESIGN.md §13). One Relax module, unrolled over
   [tp] shards: shard s's weights are contiguous column (or row) slices
   of the full model's matrices and its bindings are named "g<s>:...",
   which To_vm threads through as provenance so the profiler can
   attribute work per simulated device. Explicit ccl.* collectives
   stitch the shards back together; they are charged from the device
   interconnect (Device.link).

   The default Gather strategy only ever concatenates shard outputs
   (all-gather), so results are bit-identical to the unsharded model:
   every dot product is computed whole on exactly one shard, in the
   same order as the full model. The Megatron-style Reduce strategy
   row-splits the second matmul of each pair and all-reduces partial
   sums — fewer wire bytes, but the k-fold summation reassociates the
   reduction, so it is deterministic without being bit-identical to
   TP=1. *)

type tp_strategy = Gather | Reduce

type shard_src =
  | Sh_input of string
  | Sh_replicated of string
  | Sh_sliced of { src : string; axis : int; shard : int; tp : int }

type sharded = { sbuilt : built; srcs : shard_src list; tp : int }

let tp_supported (cfg : Configs.t) ~tp =
  tp >= 1
  && cfg.Configs.heads mod tp = 0
  && cfg.Configs.kv_heads mod tp = 0
  && cfg.Configs.inter mod tp = 0
  && cfg.Configs.vocab mod tp = 0
  && cfg.Configs.hidden mod tp = 0
  && not cfg.Configs.qkv_bias

let check_tp fn (cfg : Configs.t) ~tp =
  if not (tp_supported cfg ~tp) then
    invalid_arg
      (Printf.sprintf
         "Llm.%s: %s does not shard at tp=%d (heads/kv_heads/inter/vocab/hidden \
          must divide, qkv_bias unsupported)"
         fn cfg.Configs.name tp)

let dt = Base.Dtype.F16
let c = E.const

(* ---------- parameter declaration ---------- *)

(* Models declare all parameters up front and receive indices into the
   parameter array. Each parameter also records where its value comes
   from in terms of the full (TP=1) model's parameters. *)
type decl = {
  mutable count : int;
  mutable rev_specs : (string * Struct_info.t) list;
  mutable rev_srcs : shard_src list;
}

let declare d src name sinfo =
  let i = d.count in
  d.count <- i + 1;
  d.rev_specs <- (name, sinfo) :: d.rev_specs;
  d.rev_srcs <- src :: d.rev_srcs;
  i

let input d name sinfo = declare d (Sh_input name) name sinfo
let replicated d name sinfo = declare d (Sh_replicated name) name sinfo

let ceil_div a b = (a + b - 1) / b

(* A linear layer's weights: one f16 matrix, or packed data + scales. *)
type weight = Full of int | Packed of { wdata : int; wscale : int; k : int; n : int }

let declare_linear d precision ~name ~k ~n =
  let packed ~per_word =
    (* Scales first: the established positional parameter order. *)
    let wscale =
      replicated d (name ^ "_scale")
        (Struct_info.tensor [ c k; c (ceil_div n 32) ] dt)
    in
    let wdata =
      replicated d (name ^ "_data")
        (Struct_info.Tensor
           {
             shape = Known [ c k; c (ceil_div n per_word) ];
             dtype = Some Base.Dtype.U32;
           })
    in
    Packed { wdata; wscale; k; n }
  in
  match precision with
  | F16 -> Full (replicated d name (Struct_info.tensor [ c k; c n ] dt))
  | Q4 -> packed ~per_word:8
  | Q3 -> packed ~per_word:10

(* Full-model projection [name] of shape (k, n) as a list of [tp]
   shards, each a contiguous block along [axis] declared as its own
   parameter "g<s>:name". Unsharded, the one shard is the whole
   (possibly quantized) matrix. *)
let declare_proj d precision ~tp ~axis ~name ~k ~n =
  if tp = 1 then [ declare_linear d precision ~name ~k ~n ]
  else
    let k, n = if axis = 0 then (k / tp, n) else (k, n / tp) in
    List.init tp (fun shard ->
        Full
          (declare d
             (Sh_sliced { src = name; axis; shard; tp })
             (Printf.sprintf "g%d:%s" shard name)
             (Struct_info.tensor [ c k; c n ] dt)))

type norm = Rms of int | Layer of int * int

let declare_norm d (cfg : Configs.t) name =
  let vec = Struct_info.tensor [ c cfg.Configs.hidden ] dt in
  match cfg.Configs.norm with
  | Configs.Rms -> Rms (replicated d name vec)
  | Configs.Layer ->
      let b = replicated d (name ^ "_b") vec in
      let g = replicated d (name ^ "_g") vec in
      Layer (g, b)

(* One layer's weights; each projection is its list of shards. *)
type layer = {
  attn_norm : norm;
  wq : weight list;
  wk : weight list;
  wv : weight list;
  qkv_biases : (int * int * int) option;
      (** Qwen2-style projection biases (q, k, v); unsharded only *)
  wo : weight list;
  ffn_norm : norm;
  w_gate : weight list option;
  w_up : weight list;
  w_down : weight list;
}

(* Column-parallel first matmuls split along axis 1; the second matmul
   of each pair (wo, w_down) is column-split under Gather and row-split
   under Reduce. *)
let declare_layer d (cfg : Configs.t) precision ~tp ~strategy l =
  let h = cfg.Configs.hidden in
  let qd = cfg.Configs.heads * cfg.Configs.head_dim in
  let kvd = cfg.Configs.kv_heads * cfg.Configs.head_dim in
  let inter = cfg.Configs.inter in
  let pre name = Printf.sprintf "l%d_%s" l name in
  let proj ~axis name ~k ~n =
    lazy (declare_proj d precision ~tp ~axis ~name:(pre name) ~k ~n)
  in
  let second = match strategy with Gather -> 1 | Reduce -> 0 in
  let attn_norm = lazy (declare_norm d cfg (pre "attn_norm")) in
  let wq = proj ~axis:1 "wq" ~k:h ~n:qd in
  let wk = proj ~axis:1 "wk" ~k:h ~n:kvd in
  let wv = proj ~axis:1 "wv" ~k:h ~n:kvd in
  let qkv_biases =
    lazy
      (if cfg.Configs.qkv_bias then
         let bv = replicated d (pre "bv") (Struct_info.tensor [ c kvd ] dt) in
         let bk = replicated d (pre "bk") (Struct_info.tensor [ c kvd ] dt) in
         let bq = replicated d (pre "bq") (Struct_info.tensor [ c qd ] dt) in
         Some (bq, bk, bv)
       else None)
  in
  let wo = proj ~axis:second "wo" ~k:qd ~n:h in
  let ffn_norm = lazy (declare_norm d cfg (pre "ffn_norm")) in
  let w_gate =
    lazy
      (match cfg.Configs.mlp with
      | Configs.Gated -> Some (Lazy.force (proj ~axis:1 "w_gate" ~k:h ~n:inter))
      | Configs.Plain -> None)
  in
  let w_up = proj ~axis:1 "w_up" ~k:h ~n:inter in
  let w_down = proj ~axis:second "w_down" ~k:inter ~n:h in
  (* Declaration order is the positional parameter order callers rely
     on: unsharded layers list their weights last-to-first (w_down up
     to attn_norm), sharded layers first-to-last. *)
  let force v () = ignore (Lazy.force v) in
  let in_order =
    [ force attn_norm; force wq; force wk; force wv; force qkv_biases;
      force wo; force ffn_norm; force w_gate; force w_up; force w_down ]
  in
  List.iter (fun f -> f ()) (if tp = 1 then List.rev in_order else in_order);
  {
    attn_norm = Lazy.force attn_norm;
    wq = Lazy.force wq;
    wk = Lazy.force wk;
    wv = Lazy.force wv;
    qkv_biases = Lazy.force qkv_biases;
    wo = Lazy.force wo;
    ffn_norm = Lazy.force ffn_norm;
    w_gate = Lazy.force w_gate;
    w_up = Lazy.force w_up;
    w_down = Lazy.force w_down;
  }

(* ---------- graph emission ---------- *)

type ctx = {
  b : Builder.t;
  cfg : Configs.t;
  precision : precision;
  tp : int;
  strategy : tp_strategy;
  params : Rvar.t array;
  decode_cache : (int * int, Tir.Prim_func.t) Hashtbl.t;
      (** (k, n) -> quantized weight decode kernel, shared by every
          layer *)
}

let param ctx i = Expr.Var ctx.params.(i)

(* Shard [s]'s binding name "g<s>:name"; unsharded bindings stay
   unnamed. *)
let gname ctx s name =
  if ctx.tp = 1 then None else Some (Printf.sprintf "g%d:%s" s name)

let op ctx ?name o args =
  Builder.emit ctx.b ?name (Expr.call_op o (List.map (fun v -> Expr.Var v) args))

let reshape ctx ?name v dims =
  Builder.emit ctx.b ?name
    (Expr.call_op "reshape" [ Expr.Var v; Expr.Shape_expr dims ])

let swap01 ctx ?name v =
  Builder.emit ctx.b ?name
    (Expr.call_op "permute_dims"
       [ Expr.Var v; Expr.Shape_expr [ c 1; c 0; c 2 ] ])

let linear ctx ?name x w =
  match w with
  | Full i -> Builder.emit ctx.b ?name (Expr.call_op "matmul" [ Expr.Var x; param ctx i ])
  | Packed { wdata; wscale; k; n } ->
      let kernel =
        match Hashtbl.find_opt ctx.decode_cache (k, n) with
        | Some kf -> kf
        | None ->
            let name, gen =
              match ctx.precision with
              | Q3 -> ("decode_q3", Tir.Kernels.decode_q3)
              | Q4 | F16 -> ("decode_q4", Tir.Kernels.decode_q4)
            in
            let kf = gen ~name ~k:(c k) ~n:(c n) dt in
            Hashtbl.replace ctx.decode_cache (k, n) kf;
            kf
      in
      let w_full =
        Builder.emit_call_tir ctx.b kernel
          [ param ctx wdata; param ctx wscale ]
          ~out:(Struct_info.tensor [ c k; c n ] dt)
          ()
      in
      Builder.emit ctx.b ?name (Expr.call_op "matmul" [ Expr.Var x; Expr.Var w_full ])

(* Broadcast-add a projection bias when the model has one. *)
let add_bias ctx bias v =
  match bias with
  | None -> v
  | Some i -> Builder.emit ctx.b (Expr.call_op "add" [ Expr.Var v; param ctx i ])

let apply_norm ctx spec x =
  match spec with
  | Rms i -> Builder.emit ctx.b (Expr.call_op "rms_norm" [ Expr.Var x; param ctx i ])
  | Layer (g, bias) ->
      Builder.emit ctx.b
        (Expr.call_op "layer_norm" [ Expr.Var x; param ctx g; param ctx bias ])

let collective ctx o name parts ~rows ~cols =
  Builder.emit_call_dps_library ctx.b o
    (List.map (fun v -> Expr.Var v) parts)
    ~out:(Struct_info.tensor [ rows; c cols ] dt)
    ~name ()

(* [x] through every shard's column block of [ws], all-gathered into
   the full (rows, n) result. A single shard is just the linear. *)
let gather_linear ctx ~rows ~n ~name ~ag x ws =
  let outs = List.mapi (fun s w -> linear ctx ?name:(gname ctx s name) x w) ws in
  match outs with [ o ] -> o | _ -> collective ctx "ccl.all_gather" ag outs ~rows ~cols:n

(* The second matmul of a column-parallel pair, fed the shards' column
   blocks [xs] of a (rows, k) activation. Gather re-gathers [xs] and
   column-splits [ws]; Reduce feeds each shard's block through its row
   slice of [ws] and all-reduces the partial sums. Collectives are named
   "l<l>_<tag_in>_ag" / "l<l>_<tag_out>_ag" / "l<l>_<tag_out>_ar". *)
let second_linear ctx ~l ~rows ~k ~n ~name ~tag_in ~tag_out xs ws =
  let name = Printf.sprintf "l%d_%s" l name in
  let coll suffix tag = Printf.sprintf "l%d_%s_%s" l tag suffix in
  match (ctx.strategy, xs) with
  | _, [ x ] -> linear ctx x (List.hd ws)
  | Gather, _ ->
      let full = collective ctx "ccl.all_gather" (coll "ag" tag_in) xs ~rows ~cols:k in
      gather_linear ctx ~rows ~n ~name ~ag:(coll "ag" tag_out) full ws
  | Reduce, _ ->
      let outs =
        List.mapi
          (fun s (x, w) -> linear ctx ?name:(gname ctx s name) x w)
          (List.combine xs ws)
      in
      collective ctx "ccl.all_reduce" (coll "ar" tag_out) outs ~rows ~cols:n

let mlp ctx ~l ~rows lw x =
  let cfg = ctx.cfg in
  let act = match cfg.Configs.act with Configs.Silu -> "silu" | Configs.Gelu -> "gelu" in
  let parts =
    List.init ctx.tp (fun s ->
        let name what = gname ctx s (Printf.sprintf "l%d_%s" l what) in
        let lin what w = linear ctx ?name:(name what) x (List.nth w s) in
        match lw.w_gate with
        | Some gate ->
            let g = lin "w_gate" gate in
            let u = lin "w_up" lw.w_up in
            let a = op ctx ?name:(name "act") act [ g ] in
            op ctx ?name:(name "mul") "multiply" [ a; u ]
        | None -> op ctx ?name:(name "act") act [ lin "w_up" lw.w_up ])
  in
  second_linear ctx ~l ~rows ~k:cfg.Configs.inter ~n:cfg.Configs.hidden ~name:"w_down"
    ~tag_in:"mlp" ~tag_out:"down" parts lw.w_down

(* Copy the last row: lets prefill return (1, vocab) logits instead of
   materializing the full (n, vocab) matrix. *)
let last_row_kernel ~n ~width dtype =
  let x = Tir.Buffer.create "X" [ n; width ] dtype in
  let y = Tir.Buffer.create "Y" [ c 1; width ] dtype in
  let j = Arith.Var.fresh "j" in
  let body =
    Tir.Stmt.for_ j width
      (Tir.Stmt.Store
         ( y,
           [ Tir.Texpr.i 0; Tir.Texpr.iv j ],
           Tir.Texpr.load x [ E.sub n (c 1); E.var j ] ))
  in
  Tir.Prim_func.create ~name:"last_row" ~params:[ x; y ] body

(* ---------- the transformer ---------- *)

(* How a decode step updates the KV cache: a functional append that
   returns grown caches, or an in-place write into caches
   pre-allocated at the model's maximum context (the paged-cache
   extension). *)
type kv = Append | Paged
type phase = Prefill | Decode of kv

(* The one transformer graph builder. [Prefill] processes a whole
   sequence (batch 1) of symbolic length n and hands on its KV caches;
   [Decode] runs one step for [batch] sequences (symbolic when
   [batch_var] is given) against caches of symbolic length m. [tp > 1]
   shards every layer over [tp] simulated devices (F16 only). *)
let build ?(tp = 1) ?(strategy = Gather) ?batch_var ?(return_caches = true)
    (cfg : Configs.t) ~phase ~batch precision =
  let len_var =
    Arith.Var.fresh (match phase with Prefill -> "n" | Decode _ -> "m")
  in
  let m = E.var len_var in
  let bb = match batch_var with Some v -> E.var v | None -> c batch in
  let rows = match phase with Prefill -> m | Decode _ -> bb in
  let h = cfg.Configs.hidden and d = cfg.Configs.head_dim in
  let hs = cfg.Configs.heads / tp and kvs = cfg.Configs.kv_heads / tp in
  let mmax = c cfg.Configs.max_context in
  let decl = { count = 0; rev_specs = []; rev_srcs = [] } in
  let ids_i =
    input decl "ids"
      (Struct_info.Tensor { shape = Known [ rows ]; dtype = Some Base.Dtype.I32 })
  in
  if phase = Decode Paged then ignore (input decl "cur_len" (Struct_info.shape [ m ]));
  let cache_is =
    match phase with
    | Prefill -> [||]
    | Decode kv ->
        let len = match kv with Append -> m | Paged -> mmax in
        let cache kv_name l s =
          let name =
            if tp = 1 then Printf.sprintf "%s_cache_%d" kv_name l
            else Printf.sprintf "%s_cache_%d_g%d" kv_name l s
          in
          input decl name (Struct_info.tensor [ bb; c kvs; len; c d ] dt)
        in
        (* Sequenced lets: a tuple of two declarations would evaluate
           right-to-left and register v_cache before k_cache, silently
           crossing the positional (k, v, k, v, ...) argument convention
           every caller of this program relies on. *)
        Array.init cfg.Configs.layers (fun l ->
            Array.init tp (fun s ->
                let k = cache "k" l s in
                let v = cache "v" l s in
                (k, v)))
  in
  let emb_i =
    replicated decl "embedding" (Struct_info.tensor [ c cfg.Configs.vocab; c h ] dt)
  in
  let layer_ws =
    List.init cfg.Configs.layers (declare_layer decl cfg precision ~tp ~strategy)
  in
  let final_norm = declare_norm decl cfg "final_norm" in
  let lm_head =
    declare_proj decl precision ~tp ~axis:1 ~name:"lm_head" ~k:h ~n:cfg.Configs.vocab
  in
  let b = Builder.create () in
  let specs = List.rev decl.rev_specs in
  let entry = match phase with Prefill -> "prefill" | Decode _ -> "decode" in
  (* One shard's attention for layer [l] over its q/k/v projections:
     the (rows, hs * d) output, and a thunk returning the KV caches this
     shard hands on. The layer runs the thunk after its MLP, so
     prefill's cache reshapes bind there (the order the printed-IR
     golden pins). *)
  let attention =
    match phase with
    | Decode kv ->
        let rope name heads =
          Attention.rope_decode ~name ~batch:bb ~heads ~head_dim:d
            ~pos:(Arith.Var.fresh "pos") dt
        in
        let rope_q = rope "rope_q" hs in
        let rope_k = rope "rope_k" kvs in
        let cache_kernel =
          match kv with
          | Append ->
              Attention.kv_append ~name:"kv_append" ~batch:bb ~kv_heads:kvs ~head_dim:d
                ~m:(E.var (Arith.Var.fresh "mc")) dt
          | Paged ->
              Attention.kv_write ~name:"kv_write" ~batch:bb ~kv_heads:kvs ~head_dim:d
                ~max_ctx:mmax ~pos:(Arith.Var.fresh "wpos") dt
        in
        let attn_kernel =
          match kv with
          | Append ->
              Attention.decode ~name:"attention_decode" ~batch:bb ~heads:hs
                ~kv_heads:kvs ~head_dim:d ~m:(E.var (Arith.Var.fresh "ma")) dt
          | Paged ->
              Attention.decode_paged ~name:"attention_paged" ~batch:bb ~heads:hs
                ~kv_heads:kvs ~head_dim:d ~max_ctx:mmax ~len:(Arith.Var.fresh "alen") dt
        in
        fun ctx ~name ~l ~s (q, k, v) ->
          let heads4 n = [ bb; c n; c 1; c d ] in
          let q4 = reshape ctx ?name:(name "q4") q (heads4 hs) in
          let k4 = reshape ctx ?name:(name "k4") k (heads4 kvs) in
          let v4 = reshape ctx ?name:(name "v4") v (heads4 kvs) in
          let rope kernel x n what =
            Builder.emit_call_tir b kernel [ Expr.Var x ]
              ~out:(Struct_info.tensor (heads4 n) dt) ~sym_args:[ m ] ?name:(name what) ()
          in
          let qr = rope rope_q q4 hs "rope_q" in
          let kr = rope rope_k k4 kvs "rope_k" in
          let ksi, vsi = cache_is.(l).(s) in
          let cache_k, cache_v, attn_sym =
            match kv with
            | Append ->
                let append cache x what =
                  Builder.emit_call_tir b cache_kernel [ param ctx cache; Expr.Var x ]
                    ~out:(Struct_info.tensor [ bb; c kvs; E.add m (c 1); c d ] dt)
                    ?name:(name what) ()
                in
                let kc = append ksi kr "kv_append_k" in
                let vc = append vsi v4 "kv_append_v" in
                (kc, vc, [])
            | Paged ->
                let write cache x what =
                  Builder.emit_call_tir_inplace b cache_kernel
                    [ Expr.Var x; param ctx cache ]
                    ~out_index:1
                    ~out:(Struct_info.tensor [ bb; c kvs; mmax; c d ] dt)
                    ~sym_args:[ m ] ?name:(name what) ()
                in
                let kc = write ksi kr "kv_write_k" in
                let vc = write vsi v4 "kv_write_v" in
                (kc, vc, [ E.add m (c 1) ])
          in
          let at =
            Builder.emit_call_tir b attn_kernel
              [ Expr.Var qr; Expr.Var cache_k; Expr.Var cache_v ]
              ~out:(Struct_info.tensor (heads4 hs) dt)
              ~sym_args:attn_sym ?name:(name "attn") ()
          in
          let flat = reshape ctx ?name:(name "attn_flat") at [ bb; c (hs * d) ] in
          let handed_on () =
            match kv with Append -> [ cache_k; cache_v ] | Paged -> []
          in
          (flat, handed_on)
    | Prefill ->
        let rope name heads = Attention.rope_prefill ~name ~heads ~head_dim:d ~n:m dt in
        let rope_q = rope "rope_prefill_q" hs in
        let rope_k = rope "rope_prefill_k" kvs in
        let attn_kernel =
          Attention.prefill ~name:"attention_prefill" ~heads:hs ~kv_heads:kvs ~head_dim:d
            ~n:(E.var (Arith.Var.fresh "na")) dt
        in
        fun ctx ~name ~l:_ ~s:_ (q, k, v) ->
          (* (n, count*d) -> (count, n, d) *)
          let to_heads x count what =
            swap01 ctx ?name:(name what) (reshape ctx x [ m; c count; c d ])
          in
          let qh = to_heads q hs "qh" in
          let kh = to_heads k kvs "kh" in
          let vh = to_heads v kvs "vh" in
          let rope kernel x n what =
            Builder.emit_call_tir b kernel [ Expr.Var x ]
              ~out:(Struct_info.tensor [ c n; m; c d ] dt) ?name:(name what) ()
          in
          let qr = rope rope_q qh hs "rope_q" in
          let kr = rope rope_k kh kvs "rope_k" in
          let at =
            Builder.emit_call_tir b attn_kernel
              [ Expr.Var qr; Expr.Var kr; Expr.Var vh ]
              ~out:(Struct_info.tensor [ c hs; m; c d ] dt)
              ?name:(name "attn") ()
          in
          (* (hs, n, d) -> (n, hs*d) *)
          let atp = swap01 ctx ?name:(name "attn_t") at in
          let flat = reshape ctx ?name:(name "attn_flat") atp [ m; c (hs * d) ] in
          (* caches for subsequent decode: (1, kvs, n, d) *)
          let handed_on () =
            let kc = reshape ctx ?name:(name "kc") kr [ c 1; c kvs; m; c d ] in
            let vc = reshape ctx ?name:(name "vc") vh [ c 1; c kvs; m; c d ] in
            [ kc; vc ]
          in
          (flat, handed_on)
  in
  let last_row =
    match phase with
    | Prefill -> Some (last_row_kernel ~n:(E.var (Arith.Var.fresh "nl")) ~width:(c h) dt)
    | Decode _ -> None
  in
  let layer ctx l lw x =
    let hin = apply_norm ctx lw.attn_norm x in
    let shards =
      List.init tp (fun s ->
          let name what = gname ctx s (Printf.sprintf "l%d_%s" l what) in
          let bias pick = Option.map pick lw.qkv_biases in
          let proj what w bias_i =
            add_bias ctx bias_i (linear ctx ?name:(name what) hin (List.nth w s))
          in
          let q = proj "wq" lw.wq (bias (fun (q, _, _) -> q)) in
          let k = proj "wk" lw.wk (bias (fun (_, k, _) -> k)) in
          let v = proj "wv" lw.wv (bias (fun (_, _, v) -> v)) in
          attention ctx ~name ~l ~s (q, k, v))
    in
    let o =
      second_linear ctx ~l ~rows ~k:(cfg.Configs.heads * d) ~n:h ~name:"wo"
        ~tag_in:"attn" ~tag_out:"wo" (List.map fst shards) lw.wo
    in
    let x1 = op ctx "add" [ x; o ] in
    let h2 = apply_norm ctx lw.ffn_norm x1 in
    let x2 = op ctx "add" [ x1; mlp ctx ~l ~rows lw h2 ] in
    (x2, List.concat_map (fun (_, handed_on) -> handed_on ()) shards)
  in
  Builder.function_ b ~name:entry ~params:specs (fun params ->
      let ctx =
        {
          b;
          cfg;
          precision;
          tp;
          strategy;
          params = Array.of_list params;
          decode_cache = Hashtbl.create 8;
        }
      in
      Builder.dataflow b (fun () ->
          let x =
            ref (Builder.emit b (Expr.call_op "take" [ param ctx emb_i; param ctx ids_i ]))
          in
          let caches = ref [] in
          List.iteri
            (fun l lw ->
              let x', handed_on = layer ctx l lw !x in
              x := x';
              caches := handed_on :: !caches)
            layer_ws;
          let last, out_rows =
            match last_row with
            | Some lrk ->
                ( Builder.emit_call_tir b lrk [ Expr.Var !x ]
                    ~out:(Struct_info.tensor [ c 1; c h ] dt)
                    (),
                  c 1 )
            | None -> (!x, bb)
          in
          let xf = apply_norm ctx final_norm last in
          let logits =
            gather_linear ctx ~rows:out_rows ~n:cfg.Configs.vocab ~name:"lm_head"
              ~ag:"lm_head_ag" xf lm_head
          in
          if return_caches && phase <> Decode Paged then
            Expr.Tuple
              (List.map (fun v -> Expr.Var v) (logits :: List.concat (List.rev !caches)))
          else Expr.Var logits));
  {
    sbuilt =
      {
        mod_ = Builder.module_ b;
        entry;
        ctx_var = len_var;
        batch_var;
        params = specs;
        config = cfg;
        batch;
        precision;
      };
    srcs = List.rev decl.rev_srcs;
    tp;
  }

let decode ?return_caches (cfg : Configs.t) ~batch precision =
  (build ?return_caches cfg ~phase:(Decode Append) ~batch precision).sbuilt

let decode_symbolic_batch ?return_caches ?(max_batch = 64) (cfg : Configs.t)
    precision =
  let bv = Arith.Var.fresh "b" in
  (build ?return_caches ~batch_var:bv cfg ~phase:(Decode Append) ~batch:max_batch
     precision)
    .sbuilt

let decode_paged (cfg : Configs.t) ~batch precision =
  (build cfg ~phase:(Decode Paged) ~batch precision).sbuilt

let prefill ?return_caches (cfg : Configs.t) precision =
  (build ?return_caches cfg ~phase:Prefill ~batch:1 precision).sbuilt

let decode_paged_tp ?strategy (cfg : Configs.t) ~batch ~tp () =
  check_tp "decode_paged_tp" cfg ~tp;
  build ~tp ?strategy cfg ~phase:(Decode Paged) ~batch F16

let prefill_tp ?strategy ?return_caches (cfg : Configs.t) ~tp () =
  check_tp "prefill_tp" cfg ~tp;
  build ~tp ?strategy ?return_caches cfg ~phase:Prefill ~batch:1 F16

(* ---------- runtime argument construction ---------- *)

let args_for built ~ctx ?batch ?(seed = 0) ~mode () =
  let lookup v =
    if Arith.Var.equal v built.ctx_var then ctx
    else
      match built.batch_var with
      | Some bv when Arith.Var.equal v bv -> (
          match batch with
          | Some b -> b
          | None -> built.batch)
      | _ ->
          failwith
            (Printf.sprintf "Llm.args_for: unexpected symbolic variable %s"
               (Arith.Var.name v))
  in
  List.mapi
    (fun i (name, sinfo) ->
      ignore name;
      match sinfo with
      | Struct_info.Tensor { shape = Struct_info.Known dims; dtype = Some dtype }
        -> (
          let shape = List.map (E.eval lookup) dims in
          match mode with
          | `Shadow -> Runtime.Vm.shadow_of_shape dtype shape
          | `Numeric ->
              Runtime.Vm.tensor
                (Base.Ndarray.random_uniform ~seed:(seed + i) dtype
                   (Array.of_list shape)))
      | Struct_info.Shape (Struct_info.Known dims) ->
          Runtime.Vm.Shape_val
            (Array.of_list (List.map (E.eval lookup) dims))
      | _ -> failwith "Llm.args_for: unsupported parameter kind")
    built.params

let upper_bound_hints built =
  (built.ctx_var, built.config.Configs.max_context)
  ::
  (match built.batch_var with
  | Some bv -> [ (bv, built.batch) ]
  | None -> [])
