(* The paged-cache extension: in-place KV writes via call_tir_inplace
   must agree with the functional copy-append decode, across steps, and
   must cut activation memory to the paper's regime (Table 2's
   accounting). *)

let f32 = Base.Dtype.F32

let opts bounds =
  { Relax_passes.Pipeline.default_options with
    Relax_passes.Pipeline.upper_bounds = bounds }

let logits_of = function
  | Runtime.Vm.Tuple_val (l :: _) -> Runtime.Vm.value_tensor l
  | v -> Runtime.Vm.value_tensor v

(* Drive several decode steps through both cache disciplines with
   identical weights and token ids; logits must match step by step. *)
let test_paged_matches_functional () =
  let cfg = Frontend.Configs.tiny in
  let functional = Frontend.Llm.decode cfg ~batch:1 Frontend.Llm.F16 in
  let paged = Frontend.Llm.decode_paged cfg ~batch:1 Frontend.Llm.F16 in
  let fprog =
    Relax_passes.Pipeline.compile
      ~options:(opts (Frontend.Llm.upper_bound_hints functional))
      ~device:Runtime.Device.rtx4090 functional.Frontend.Llm.mod_
  in
  let pprog =
    Relax_passes.Pipeline.compile
      ~options:(opts (Frontend.Llm.upper_bound_hints paged))
      ~device:Runtime.Device.rtx4090 paged.Frontend.Llm.mod_
  in
  let fvm = Runtime.Vm.create `Numeric fprog in
  let pvm = Runtime.Vm.create `Numeric pprog in
  (* Shared weights: take them from the functional arg template (the
     weight section follows ids + caches); the paged template shares
     ordering for ids/embedding/weights but differs in cache params. *)
  let layers = cfg.Frontend.Configs.layers in
  let f_template = Frontend.Llm.args_for functional ~ctx:0 ~seed:33 ~mode:`Numeric () in
  let ids = List.nth f_template 0 in
  let weights = List.filteri (fun i _ -> i > 2 * layers) f_template in
  let mmax = cfg.Frontend.Configs.max_context in
  (* Paged caches: persistent zero tensors mutated in place. *)
  let paged_caches =
    List.init (2 * layers) (fun _ ->
        Runtime.Vm.tensor
          (Base.Ndarray.create Base.Dtype.F16
             [| 1; cfg.Frontend.Configs.kv_heads; mmax; cfg.Frontend.Configs.head_dim |]))
  in
  (* Functional caches start empty and are threaded through steps. *)
  let fcaches =
    ref
      (List.init (2 * layers) (fun _ ->
           Runtime.Vm.tensor
             (Base.Ndarray.create Base.Dtype.F16
                [| 1; cfg.Frontend.Configs.kv_heads; 0; cfg.Frontend.Configs.head_dim |])))
  in
  for step = 0 to 3 do
    let f_out =
      Runtime.Vm.run fvm "decode" ((ids :: !fcaches) @ weights)
    in
    let f_logits, new_caches =
      match f_out with
      | Runtime.Vm.Tuple_val (l :: caches) -> (Runtime.Vm.value_tensor l, caches)
      | _ -> Alcotest.fail "expected tuple"
    in
    fcaches := new_caches;
    let p_out =
      Runtime.Vm.run pvm "decode"
        ((ids :: Runtime.Vm.Shape_val [| step |] :: paged_caches) @ weights)
    in
    let p_logits = logits_of p_out in
    Alcotest.(check bool)
      (Printf.sprintf "step %d logits agree" step)
      true
      (Base.Ndarray.equal_approx ~eps:1e-9 f_logits p_logits)
  done

let test_paged_memory_regime () =
  (* Activation footprint with the in-place cache: no cache copies, so
     the planned peak collapses to the per-step intermediates — the
     paper's Table 2 accounting. *)
  let cfg = Frontend.Configs.llama3_8b in
  let measure built bounds =
    let program =
      Relax_passes.Pipeline.compile ~options:(opts bounds)
        ~device:Runtime.Device.rtx4090 built.Frontend.Llm.mod_
    in
    let alloc = Runtime.Allocator.create `Planned in
    let vm = Runtime.Vm.create ~allocator:alloc (`Timed Runtime.Device.rtx4090) program in
    let args = Frontend.Llm.args_for built ~ctx:1024 ~mode:`Shadow () in
    ignore (Runtime.Vm.run vm "decode" args);
    Runtime.Allocator.peak_bytes alloc
  in
  let functional = Frontend.Llm.decode ~return_caches:false cfg ~batch:1 Frontend.Llm.F16 in
  let paged = Frontend.Llm.decode_paged cfg ~batch:1 Frontend.Llm.F16 in
  let fpeak = measure functional [ (functional.Frontend.Llm.ctx_var, 1024) ] in
  let ppeak = measure paged [ (paged.Frontend.Llm.ctx_var, 1024) ] in
  (* The paged plan must be well under the functional plan (which holds
     two cache-sized ping-pong buffers). *)
  Alcotest.(check bool)
    (Printf.sprintf "paged %.1f MiB << functional %.1f MiB"
       (float_of_int ppeak /. 1048576.)
       (float_of_int fpeak /. 1048576.))
    true
    (ppeak * 4 < fpeak);
  (* And in the paper's decode regime (order of tens of MiB at batch 1). *)
  Alcotest.(check bool) "paged peak under 64 MiB at batch 1" true
    (ppeak < 64 * 1024 * 1024)

let test_inplace_not_dce_eliminated () =
  (* A call_tir_inplace whose binding is otherwise unused must survive
     DCE: the mutation is the point. *)
  let open Relax_core in
  let e = Arith.Expr.const in
  let kernel =
    Frontend.Attention.kv_write ~name:"kvw" ~batch:(e 1) ~kv_heads:1
      ~head_dim:2 ~max_ctx:(e 4) ~pos:(Arith.Var.fresh "p") Base.Dtype.F32
  in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:
      [ ("newkv", Struct_info.tensor [ e 1; e 1; e 1; e 2 ] f32);
        ("cache", Struct_info.tensor [ e 1; e 1; e 4; e 2 ] f32) ]
    (fun params ->
      match params with
      | [ newkv; cache ] ->
          Builder.dataflow b (fun () ->
              let _unused =
                Builder.emit_call_tir_inplace b kernel
                  [ Expr.Var newkv; Expr.Var cache ]
                  ~out_index:1
                  ~out:(Struct_info.tensor [ e 1; e 1; e 4; e 2 ] f32)
                  ~sym_args:[ e 2 ] ()
              in
              Expr.Var newkv)
      | _ -> assert false);
  let mod_ = Relax_passes.Dce.run (Builder.module_ b) in
  let f = Option.get (Ir_module.find_func mod_ "main") in
  let blocks, _ = Expr.body_blocks f in
  Alcotest.(check int) "inplace call survives DCE" 1
    (List.length (List.concat_map (fun (blk : Expr.block) -> blk.Expr.bindings) blocks));
  (* End-to-end: the cache really is mutated at position 2. *)
  let program =
    Relax_passes.Pipeline.compile
      ~options:{ (opts []) with Relax_passes.Pipeline.memory_plan = false; graph_capture = false }
      ~device:Runtime.Device.rtx4090 mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  let newkv = Base.Ndarray.of_float_list f32 [| 1; 1; 1; 2 |] [ 5.; 6. ] in
  let cache = Base.Ndarray.create f32 [| 1; 1; 4; 2 |] in
  ignore
    (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor newkv; Runtime.Vm.tensor cache ]);
  Alcotest.(check (float 1e-9)) "row 2 written" 5.0
    (Base.Ndarray.get_float cache [| 0; 0; 2; 0 |]);
  Alcotest.(check (float 1e-9)) "row 0 untouched" 0.0
    (Base.Ndarray.get_float cache [| 0; 0; 0; 0 |])

(* Recompute-preemption (and the sharing differential suite) depend on
   prefill(n) being interchangeable with prefill(n-1) + one decode
   step. This is exactly the handoff that silently breaks if the two
   programs disagree on cache parameter order — a regression here once
   crossed k_cache/v_cache positionally (tuple evaluation order
   declared v before k) and made preempted requests decode from
   swapped caches. *)
let test_prefill_decode_handoff (cfg : Frontend.Configs.t) =
  let dec = Frontend.Llm.decode_paged cfg ~batch:1 Frontend.Llm.F16 in
  (* Positional contract: ids, cur_len, then k/v cache pairs in layer
     order — what the serving engine (and any embedder) passes. *)
  Alcotest.(check (list string))
    "decode_paged parameter order"
    ([ "ids"; "cur_len" ]
    @ List.concat
        (List.init cfg.Frontend.Configs.layers (fun l ->
             [ Printf.sprintf "k_cache_%d" l; Printf.sprintf "v_cache_%d" l ]))
    @ [ "embedding" ])
    (List.filteri
       (fun i _ -> i < 3 + (2 * cfg.Frontend.Configs.layers))
       (List.map fst dec.Frontend.Llm.params));
  let pre = Frontend.Llm.prefill ~return_caches:true cfg Frontend.Llm.F16 in
  let compile built =
    Relax_passes.Pipeline.compile
      ~options:(opts (Frontend.Llm.upper_bound_hints built))
      ~device:Runtime.Device.rtx4090 built.Frontend.Llm.mod_
  in
  let dvm = Runtime.Vm.create `Numeric (compile dec) in
  let pvm = Runtime.Vm.create `Numeric (compile pre) in
  let layers = cfg.Frontend.Configs.layers in
  let template = Frontend.Llm.args_for dec ~ctx:0 ~seed:11 ~mode:`Numeric () in
  let weights = List.filteri (fun i _ -> i >= 2 + (2 * layers)) template in
  let ids toks =
    Runtime.Vm.tensor
      (Base.Ndarray.of_int_list Base.Dtype.I32 [| List.length toks |] toks)
  in
  let prefill toks =
    match Runtime.Vm.run pvm "prefill" (ids toks :: weights) with
    | Runtime.Vm.Tuple_val (l :: caches) ->
        (Runtime.Vm.value_tensor l, List.map Runtime.Vm.value_tensor caches)
    | _ -> Alcotest.fail "prefill: expected (logits, caches...)"
  in
  let toks = [ 8; 22; 29; 2; 27; 18; 17; 6 ] in
  let n = List.length toks in
  let full_logits, _ = prefill toks in
  (* Restore the first n-1 positions into paged caches, decode the
     last token: logits must match the one-shot prefill bit-for-bit. *)
  let _, part = prefill (List.filteri (fun i _ -> i < n - 1) toks) in
  let kvh = cfg.Frontend.Configs.kv_heads
  and hd = cfg.Frontend.Configs.head_dim in
  let paged =
    List.map
      (fun src ->
        let dst =
          Base.Ndarray.create Base.Dtype.F16
            [| 1; kvh; cfg.Frontend.Configs.max_context; hd |]
        in
        for h = 0 to kvh - 1 do
          for p = 0 to n - 2 do
            for x = 0 to hd - 1 do
              Base.Ndarray.set_float dst [| 0; h; p; x |]
                (Base.Ndarray.get_float src [| 0; h; p; x |])
            done
          done
        done;
        Runtime.Vm.tensor dst)
      part
  in
  let step_logits =
    logits_of
      (Runtime.Vm.run dvm "decode"
         ((ids [ List.nth toks (n - 1) ]
          :: Runtime.Vm.Shape_val [| n - 1 |] :: paged)
         @ weights))
  in
  (* equal_approx lets NaN match anything, so rule it out first. *)
  Alcotest.(check bool) "finite logits" true
    (List.for_all Float.is_finite (Base.Ndarray.to_float_list full_logits));
  Alcotest.(check bool) "prefill(n) = prefill(n-1) + decode" true
    (Base.Ndarray.equal_approx ~eps:1e-9 full_logits step_logits)

(* ---------- block manager: prefix sharing + refcount invariants ----------

   The accounting layer under the serving engine: refcounted blocks, a
   token-keyed prefix tree with LRU leaf eviction, copy-on-write
   forking. Golden traces pin the sharing semantics (notably the
   partial-block boundary) and a qcheck suite drives random op
   sequences through the manager's own [check_invariants] audit. *)

let tiny = Frontend.Configs.tiny
let device = Runtime.Device.rtx4090

(* tiny block @ size 4: 2 (K,V) x 2 layers x 2 kv_heads x 4 head_dim
   x 4 positions x 2 B = 256 B *)
let block_bytes = 256

let mk ?(sharing = true) blocks =
  Serve.Block_manager.create ~kv_budget_bytes:(blocks * block_bytes) ~sharing
    ~cfg:tiny ~precision:Frontend.Llm.F16 ~block_size:4 ~device
    (Runtime.Allocator.create `Pooling)

let audit bm =
  match Serve.Block_manager.check_invariants bm with
  | None -> ()
  | Some msg -> Alcotest.failf "invariant violated: %s" msg

let acquire bm id prompt tokens =
  Serve.Block_manager.acquire bm ~request_id:id ~prompt ~tokens

let matched bm id prompt tokens =
  match acquire bm id prompt tokens with
  | `Ok m -> m
  | `No_space -> Alcotest.failf "request %d: unexpected No_space" id

let test_prefix_tree_golden () =
  let bm = mk 8 in
  let p = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  (* Cold: nothing cached, both blocks fresh. *)
  Alcotest.(check int) "cold acquire matches nothing" 0 (matched bm 0 p 8);
  audit bm;
  Alcotest.(check int) "2 blocks resident" 2
    (Serve.Block_manager.used_blocks bm);
  (* Second identical prompt shares both blocks: no new memory. *)
  Alcotest.(check int) "identical prompt fully shared" 8 (matched bm 1 p 8);
  Alcotest.(check int) "still 2 blocks resident" 2
    (Serve.Block_manager.used_blocks bm);
  Alcotest.(check int) "4 logical blocks" 4
    (Serve.Block_manager.logical_blocks bm);
  audit bm;
  (* A diverging prompt shares only the common full-block prefix. *)
  Alcotest.(check int) "common first block shared" 4
    (matched bm 2 [| 1; 2; 3; 4; 9; 9; 9; 9 |] 8);
  audit bm;
  (* Release everyone: blocks stay resident as reclaimable cache. *)
  List.iter (fun id -> Serve.Block_manager.release bm ~request_id:id) [ 0; 1; 2 ];
  Alcotest.(check int) "cache keeps blocks resident"
    (Serve.Block_manager.used_blocks bm)
    (Serve.Block_manager.cached_blocks bm);
  Alcotest.(check bool) "cache non-empty" true
    (Serve.Block_manager.cached_blocks bm > 0);
  audit bm;
  (* A later arrival still hits the cache. *)
  Alcotest.(check int) "cache survives release" 8 (matched bm 3 p 8);
  Serve.Block_manager.release bm ~request_id:3;
  (* Drop the cache: everything returns to the pool. *)
  Serve.Block_manager.drop_cache bm;
  Alcotest.(check int) "drained" 0 (Serve.Block_manager.used_blocks bm);
  audit bm

let test_partial_block_boundary () =
  (* A prompt ending mid-block must not share (or cache) that block:
     its tail positions will be written by decode. 6 tokens @ block 4
     = one shareable full block + one private partial block. *)
  let bm = mk 8 in
  let p = [| 1; 2; 3; 4; 5; 6 |] in
  Alcotest.(check int) "cold" 0 (matched bm 0 p 6);
  Serve.Block_manager.release bm ~request_id:0;
  Alcotest.(check int) "only the full block is cached" 1
    (Serve.Block_manager.cached_blocks bm);
  Alcotest.(check int) "identical 6-token prompt shares 4, not 6" 4
    (matched bm 1 p 6);
  audit bm;
  (* Prompt shorter than a block never shares at all. *)
  Alcotest.(check int) "sub-block prompt" 0 (matched bm 2 [| 1; 2; 3 |] 3);
  audit bm

let test_lru_eviction () =
  let bm = mk 4 in
  let a = [| 1; 2; 3; 4 |] and b = [| 5; 6; 7; 8 |] in
  ignore (matched bm 0 a 4);
  ignore (matched bm 1 b 4);
  Serve.Block_manager.release bm ~request_id:0;
  Serve.Block_manager.release bm ~request_id:1;
  (* Touch A so B becomes the LRU leaf. *)
  Alcotest.(check int) "A hits" 4 (matched bm 2 a 4);
  Serve.Block_manager.release bm ~request_id:2;
  audit bm;
  (* 3 fresh blocks with only 2 free: one cached block must be
     evicted, and it must be B. *)
  Alcotest.(check int) "fresh alloc evicts" 0
    (matched bm 3 [| 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9 |] 12);
  let st = Serve.Block_manager.stats bm in
  Alcotest.(check int) "one eviction" 1 st.Serve.Block_manager.evictions;
  Alcotest.(check int) "A survived (recently used)" 4 (matched bm 4 a 4);
  audit bm;
  (* B is gone: a re-acquire of B misses. *)
  Serve.Block_manager.release bm ~request_id:3;
  Serve.Block_manager.release bm ~request_id:4;
  Alcotest.(check int) "B was the LRU victim" 0 (matched bm 5 b 4);
  audit bm

let test_cow_on_fork () =
  let bm = mk 8 in
  ignore (matched bm 0 [| 1; 2; 3; 4; 5; 6 |] 6);
  Alcotest.(check bool) "fork shares" true
    (Serve.Block_manager.fork bm ~parent:0 ~child:1);
  Alcotest.(check int) "O(1) fork: no new blocks" 2
    (Serve.Block_manager.used_blocks bm);
  audit bm;
  (* The parent's next write lands in the shared partial tail block:
     copy-on-write charged to the writer. *)
  Alcotest.(check bool) "grow with COW" true
    (Serve.Block_manager.grow bm ~request_id:0 ~tokens:7);
  let st = Serve.Block_manager.stats bm in
  Alcotest.(check int) "one cow copy" 1 st.Serve.Block_manager.cow_copies;
  Alcotest.(check int) "copy is a new block" 3
    (Serve.Block_manager.used_blocks bm);
  audit bm;
  (* The child now owns its tail alone: its write is in place. *)
  Alcotest.(check bool) "child grows in place" true
    (Serve.Block_manager.grow bm ~request_id:1 ~tokens:7);
  Alcotest.(check int) "still one cow copy" 1
    (Serve.Block_manager.stats bm).Serve.Block_manager.cow_copies;
  Serve.Block_manager.release bm ~request_id:0;
  Serve.Block_manager.release bm ~request_id:1;
  Serve.Block_manager.drop_cache bm;
  Alcotest.(check int) "drained" 0 (Serve.Block_manager.used_blocks bm);
  audit bm

let test_sharing_off_is_private () =
  (* sharing = false: the pre-sharing accountant — nothing cached,
     fork copies, release frees. *)
  let bm = mk ~sharing:false 8 in
  let p = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Alcotest.(check int) "no match" 0 (matched bm 0 p 8);
  Alcotest.(check int) "no match for identical prompt" 0 (matched bm 1 p 8);
  Alcotest.(check int) "4 private blocks" 4
    (Serve.Block_manager.used_blocks bm);
  Alcotest.(check bool) "fork copies" true
    (Serve.Block_manager.fork bm ~parent:0 ~child:2);
  Alcotest.(check int) "copy costs blocks" 6
    (Serve.Block_manager.used_blocks bm);
  audit bm;
  List.iter (fun id -> Serve.Block_manager.release bm ~request_id:id) [ 0; 1; 2 ];
  Alcotest.(check int) "release frees immediately" 0
    (Serve.Block_manager.used_blocks bm);
  Alcotest.(check int) "nothing cached" 0
    (Serve.Block_manager.cached_blocks bm);
  audit bm

let test_budget_error_message () =
  let try_create budget =
    try
      ignore
        (Serve.Block_manager.create ~kv_budget_bytes:budget ~cfg:tiny
           ~precision:Frontend.Llm.F16 ~block_size:4 ~device
           (Runtime.Allocator.create `Pooling));
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument m -> m
  in
  let contains hay needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= String.length hay
      && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  (* The error reports requested vs available bytes and the shortfall. *)
  let m = try_create 100 in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" m needle)
        true (contains m needle))
    [ "needs 256 B"; "only 100 B"; "156 B short" ];
  (* Negative budget = weights alone exceed VRAM. *)
  Alcotest.(check bool) "negative budget names the cause" true
    (contains (try_create (-64)) "model weights alone exceed device VRAM")

(* Random op sequences: every step must satisfy the manager's own
   structural audit (refcount sum = live references, resident census =
   used, cached refcount-0 blocks = reclaimable, allocator bytes back
   exactly the resident blocks), and a full drain must leave zero
   blocks with every byte returned to the pool. *)

let share_prompts =
  [|
    [| 1; 2; 3; 4; 5; 6; 7; 8 |];
    [| 1; 2; 3; 4; 9; 9; 9; 9; 9; 9 |];
    [| 1; 2; 3; 4 |];
    [| 7; 7; 7; 7; 7 |];
    [| 1; 2; 3; 4; 5; 6; 7; 8; 1; 2; 3; 4 |];
  |]

let print_ops (sharing, ops) =
  Printf.sprintf "sharing=%b [%s]" sharing
    (String.concat ";"
       (List.map (fun (op, a, b) -> Printf.sprintf "%d,%d,%d" op a b) ops))

let gen_ops =
  QCheck.Gen.(
    pair bool
      (list_size (int_range 1 40)
         (triple (int_range 0 4) (int_range 0 15) (int_range 0 15))))

let test_refcount_invariants =
  QCheck.Test.make ~count:200 ~name:"refcount invariants under random ops"
    (QCheck.make ~print:print_ops gen_ops) (fun (sharing, ops) ->
      let bm = mk ~sharing 6 in
      let tokens_of = Hashtbl.create 8 in
      let fail_audit () =
        match Serve.Block_manager.check_invariants bm with
        | None -> ()
        | Some msg -> QCheck.Test.fail_reportf "invariant violated: %s" msg
      in
      List.iter
        (fun (op, a, b) ->
          let id = a mod 8 in
          (match op with
          | 0 ->
              (* acquire (only when the id holds nothing) *)
              if Serve.Block_manager.holds bm ~request_id:id = 0 then begin
                let prompt = share_prompts.(b mod Array.length share_prompts) in
                let t = Array.length prompt + (b mod 3) in
                match acquire bm id prompt t with
                | `Ok _ -> Hashtbl.replace tokens_of id t
                | `No_space -> ()
              end
          | 1 -> (
              (* grow by one token *)
              match Hashtbl.find_opt tokens_of id with
              | Some t ->
                  if Serve.Block_manager.grow bm ~request_id:id ~tokens:(t + 1)
                  then Hashtbl.replace tokens_of id (t + 1)
              | None -> ())
          | 2 ->
              (* fork into a fresh child id *)
              let child = b mod 8 in
              if
                id <> child
                && Serve.Block_manager.holds bm ~request_id:id > 0
                && Serve.Block_manager.holds bm ~request_id:child = 0
              then begin
                if Serve.Block_manager.fork bm ~parent:id ~child then
                  Hashtbl.replace tokens_of child
                    (Hashtbl.find tokens_of id)
              end
          | 3 ->
              Serve.Block_manager.release bm ~request_id:id;
              Hashtbl.remove tokens_of id
          | _ -> Serve.Block_manager.drop_cache bm);
          fail_audit ())
        ops;
      (* Drain: release every holder, drop the cache — no block leaks,
         every byte back in the pool. *)
      Hashtbl.iter
        (fun id _ -> Serve.Block_manager.release bm ~request_id:id)
        tokens_of;
      Serve.Block_manager.drop_cache bm;
      fail_audit ();
      if Serve.Block_manager.used_blocks bm <> 0 then
        QCheck.Test.fail_reportf "%d blocks leaked at drain"
          (Serve.Block_manager.used_blocks bm);
      let alloc = Serve.Block_manager.allocator bm in
      Runtime.Allocator.pool_free_bytes alloc
      = Runtime.Allocator.live_bytes alloc)

let () =
  Alcotest.run "paged_cache"
    [ ( "extension",
        [ Alcotest.test_case "paged matches functional decode" `Quick
            test_paged_matches_functional;
          Alcotest.test_case "memory regime" `Quick test_paged_memory_regime;
          Alcotest.test_case "inplace survives DCE" `Quick
            test_inplace_not_dce_eliminated ]
        @ Arch_variants.cases "prefill/decode cache handoff" `Quick
            test_prefill_decode_handoff );
      ( "prefix_sharing",
        [ Alcotest.test_case "prefix tree golden trace" `Quick
            test_prefix_tree_golden;
          Alcotest.test_case "partial-block boundary" `Quick
            test_partial_block_boundary;
          Alcotest.test_case "LRU leaf eviction" `Quick test_lru_eviction;
          Alcotest.test_case "copy-on-write fork" `Quick test_cow_on_fork;
          Alcotest.test_case "sharing off = private blocks" `Quick
            test_sharing_off_is_private;
          Alcotest.test_case "budget error reports bytes" `Quick
            test_budget_error_message;
          QCheck_alcotest.to_alcotest test_refcount_invariants ] ) ]
