(* End-to-end tests for the transformer frontend: tiny models run
   numerically through every pipeline configuration and must agree
   bit-for-bit; paper-scale models run in timed mode and must land in
   a plausible performance regime. *)

let opts = Relax_passes.Pipeline.default_options

let compile_built ?(options = opts) ~device (built : Frontend.Llm.built) =
  let options =
    { options with
      Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
  in
  Relax_passes.Pipeline.compile ~options ~device built.Frontend.Llm.mod_

let logits_of value =
  match value with
  | Runtime.Vm.Tuple_val (logits :: _) -> Runtime.Vm.value_tensor logits
  | _ -> Alcotest.fail "expected a (logits, caches...) tuple"

let run_numeric ?options ~device built ~ctx =
  let program = compile_built ?options ~device built in
  let vm = Runtime.Vm.create `Numeric program in
  let args = Frontend.Llm.args_for built ~ctx ~seed:100 ~mode:`Numeric () in
  (Runtime.Vm.run vm built.Frontend.Llm.entry args, vm)

let test_tiny_decode_configs_agree () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny ~batch:2 Frontend.Llm.F16 in
  let variants =
    [ ("all on", opts);
      ("no fusion", { opts with Relax_passes.Pipeline.fusion = false });
      ("no planning",
        { opts with Relax_passes.Pipeline.memory_plan = false; graph_capture = false });
      ("all off", Relax_passes.Pipeline.all_off) ]
  in
  let results =
    List.map
      (fun (name, options) ->
        let v, _ = run_numeric ~options ~device:Runtime.Device.rtx4090 built ~ctx:5 in
        (name, logits_of v))
      variants
  in
  match results with
  | (_, reference) :: rest ->
      Alcotest.(check (array int)) "logits shape" [| 2; 32 |]
        reference.Base.Ndarray.shape;
      List.iter
        (fun (name, actual) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s agrees with all-on" name)
            true
            (Base.Ndarray.equal_approx ~eps:1e-9 reference actual))
        rest
  | [] -> Alcotest.fail "no results"

let test_tiny_decode_gqa () =
  (* Grouped-query attention path (kv_heads < heads). *)
  let built = Frontend.Llm.decode Frontend.Configs.tiny_gqa ~batch:1 Frontend.Llm.F16 in
  let v, _ = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:3 in
  let logits = logits_of v in
  Alcotest.(check (array int)) "logits shape" [| 1; 32 |] logits.Base.Ndarray.shape;
  (* Caches grew by one position. *)
  match v with
  | Runtime.Vm.Tuple_val (_ :: kc :: _) ->
      Alcotest.(check (array int)) "cache grew"
        [| 1; 2; 4; 4 |]
        (Runtime.Vm.value_shape kc)
  | _ -> Alcotest.fail "expected tuple"

let test_tiny_quantized_decode () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny_q ~batch:1 Frontend.Llm.Q4 in
  let v, vm = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:2 in
  let logits = logits_of v in
  Alcotest.(check (array int)) "logits shape" [| 1; 64 |] logits.Base.Ndarray.shape;
  (* Figure 9's effect: the quantization decodes fused into matmuls, so
     launches stay moderate (no separate decode kernels at batch 1). *)
  let stats = Runtime.Vm.stats vm in
  Alcotest.(check bool) "ran kernels" true (stats.Runtime.Vm.kernel_launches > 0);
  (* Same logits with fusion disabled. *)
  let v2, _ =
    run_numeric
      ~options:{ opts with Relax_passes.Pipeline.fusion = false }
      ~device:Runtime.Device.rtx4090 built ~ctx:2
  in
  Alcotest.(check bool) "fusion-independent numerics" true
    (Base.Ndarray.equal_approx ~eps:1e-9 logits (logits_of v2))

let test_tiny_q3_decode () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny_q ~batch:1 Frontend.Llm.Q3 in
  let v, _ = run_numeric ~device:Runtime.Device.samsung_s23 built ~ctx:2 in
  Alcotest.(check (array int)) "logits shape" [| 1; 64 |]
    (logits_of v).Base.Ndarray.shape

let test_tiny_prefill () =
  let built = Frontend.Llm.prefill Frontend.Configs.tiny Frontend.Llm.F16 in
  let v, _ = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:6 in
  let logits = logits_of v in
  Alcotest.(check (array int)) "last-token logits" [| 1; 32 |]
    logits.Base.Ndarray.shape;
  match v with
  | Runtime.Vm.Tuple_val (_ :: kc :: _) ->
      Alcotest.(check (array int)) "prefill cache layout"
        [| 1; 2; 6; 4 |]
        (Runtime.Vm.value_shape kc)
  | _ -> Alcotest.fail "expected tuple"

(* prefill(n) must equal prefill(n-1) followed by one functional decode
   step, with one weight set spliced into both programs: the decode step
   accepts prefill-produced caches (the symbolic context length threads
   across functions) and computes the same last-token logits. *)
let test_prefill_then_decode_consistency (cfg : Frontend.Configs.t) =
  let pre = Frontend.Llm.prefill cfg Frontend.Llm.F16 in
  let dec = Frontend.Llm.decode cfg ~batch:1 Frontend.Llm.F16 in
  let pre_vm =
    Runtime.Vm.create `Numeric (compile_built ~device:Runtime.Device.rtx4090 pre)
  in
  let dec_vm =
    Runtime.Vm.create `Numeric (compile_built ~device:Runtime.Device.rtx4090 dec)
  in
  (* Prefill parameters are ids then the weights; decode's are ids, the
     k/v caches, then the same weights in the same order. *)
  let weights =
    List.tl (Frontend.Llm.args_for pre ~ctx:1 ~seed:7 ~mode:`Numeric ())
  in
  let ids toks =
    Runtime.Vm.tensor
      (Base.Ndarray.of_int_list Base.Dtype.I32 [| List.length toks |] toks)
  in
  let prefill toks =
    match Runtime.Vm.run pre_vm pre.Frontend.Llm.entry (ids toks :: weights) with
    | Runtime.Vm.Tuple_val (logits :: caches) ->
        (Runtime.Vm.value_tensor logits, caches)
    | _ -> Alcotest.fail "prefill: expected (logits, caches...)"
  in
  let toks = [ 8; 22; 29; 2; 27; 18 ] in
  let n = List.length toks in
  let full_logits, _ = prefill toks in
  let _, caches = prefill (List.filteri (fun i _ -> i < n - 1) toks) in
  let out =
    Runtime.Vm.run dec_vm dec.Frontend.Llm.entry
      ((ids [ List.nth toks (n - 1) ] :: caches) @ weights)
  in
  let step_logits = logits_of out in
  Alcotest.(check (array int)) "decode after prefill"
    [| 1; cfg.Frontend.Configs.vocab |]
    step_logits.Base.Ndarray.shape;
  (* equal_approx lets NaN match anything, so rule it out first. *)
  Alcotest.(check bool) "finite logits" true
    (List.for_all Float.is_finite (Base.Ndarray.to_float_list full_logits));
  Alcotest.(check bool) "prefill(n) = prefill(n-1) + decode" true
    (Base.Ndarray.equal_approx ~eps:0.0 full_logits step_logits)

let test_qkv_bias_config () =
  (* Qwen2-style projection biases: the model builds, runs, and the
     bias parameters demonstrably reach the computation. *)
  let cfg = { Frontend.Configs.tiny with Frontend.Configs.qkv_bias = true } in
  let built = Frontend.Llm.decode cfg ~batch:1 Frontend.Llm.F16 in
  Alcotest.(check bool) "bias parameters declared" true
    (List.exists (fun (n, _) -> n = "l0_bq") built.Frontend.Llm.params);
  let v, _ = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:3 in
  let l1 = logits_of v in
  (* Same seeds but with one bias zeroed-out differs from random bias. *)
  let args = Frontend.Llm.args_for built ~ctx:3 ~seed:100 ~mode:`Numeric () in
  let args_zeroed =
    List.mapi
      (fun i a ->
        match (List.nth built.Frontend.Llm.params i, a) with
        | (name, _), Runtime.Vm.Tensor nd when name = "l0_bq" ->
            let z = Base.Ndarray.create nd.Base.Ndarray.dtype nd.Base.Ndarray.shape in
            Runtime.Vm.tensor z
        | _ -> a)
      args
  in
  let program = compile_built ~device:Runtime.Device.rtx4090 built in
  let vm = Runtime.Vm.create `Numeric program in
  let l2 = logits_of (Runtime.Vm.run vm built.Frontend.Llm.entry args_zeroed) in
  Alcotest.(check bool) "bias changes the logits" false
    (Base.Ndarray.equal_approx ~eps:1e-9 l1 l2)

let test_llama3_timed_plausible () =
  (* Full-size Llama3-8B decode in timed mode on the 4090 model: the
     simulated per-token latency must be in the tens of milliseconds
     (memory-bound over ~16 GB of f16 weights). *)
  let built = Frontend.Llm.decode Frontend.Configs.llama3_8b ~batch:1 Frontend.Llm.F16 in
  let program = compile_built ~device:Runtime.Device.rtx4090 built in
  let vm = Runtime.Vm.create (`Timed Runtime.Device.rtx4090) program in
  let args = Frontend.Llm.args_for built ~ctx:1024 ~mode:`Shadow () in
  ignore (Runtime.Vm.run vm "decode" args);
  ignore (Runtime.Vm.run vm "decode" args);
  let stats = Runtime.Vm.stats vm in
  let per_token_ms = stats.Runtime.Vm.elapsed_us /. 2.0 /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "latency plausible (%.2f ms)" per_token_ms)
    true
    (per_token_ms > 10.0 && per_token_ms < 60.0)

(* ---------- printed-IR golden ----------

   MD5 digests of the printed module for every builder entry point
   across the model zoo, precisions and sharding degrees. Printed IR
   holds binding names only (no ids), so it repeats exactly across
   processes and rebuilds. A builder refactor that changes any binding
   name, order, shape or parameter shows up here. Sharded cases also
   digest the printed [srcs] list, which maps each shard parameter to
   the full model's weights. On a mismatch the failure lists every
   differing case with its current digest, ready to re-record once the
   IR change is understood. *)

let zoo =
  Frontend.Configs.
    [ ("llama3_8b", llama3_8b); ("llama2_7b", llama2_7b); ("gemma_7b", gemma_7b);
      ("qwen2_7b", qwen2_7b); ("phi3_mini", phi3_mini);
      ("redpajama_3b", redpajama_3b); ("tiny", tiny); ("tiny_gqa", tiny_gqa);
      ("tiny_q", tiny_q); ("tiny_tp", tiny_tp) ]

let ir (b : Frontend.Llm.built) =
  Relax_core.Printer.module_to_string b.Frontend.Llm.mod_

let srcs_to_string (sh : Frontend.Llm.sharded) =
  String.concat "\n"
    (List.map
       (function
         | Frontend.Llm.Sh_input n -> "input " ^ n
         | Frontend.Llm.Sh_replicated n -> "replicated " ^ n
         | Frontend.Llm.Sh_sliced { src; axis; shard; tp } ->
             Printf.sprintf "sliced %s axis=%d shard=%d/%d" src axis shard tp)
       sh.Frontend.Llm.srcs)

(* (label, printed text) for every golden case. *)
let golden_cases () =
  let open Frontend.Llm in
  let unsharded =
    List.concat_map
      (fun (cn, cfg) ->
        List.concat_map
          (fun (pn, prec) ->
            let l what = Printf.sprintf "%s %s %s" what cn pn in
            [ (l "decode b1", fun () -> ir (decode cfg ~batch:1 prec));
              ( l "decode b4 no-caches",
                fun () -> ir (decode ~return_caches:false cfg ~batch:4 prec) );
              (l "decode symbolic-batch", fun () -> ir (decode_symbolic_batch cfg prec));
              (l "decode_paged b8", fun () -> ir (decode_paged cfg ~batch:8 prec));
              (l "prefill", fun () -> ir (prefill cfg prec));
              ( l "prefill no-caches",
                fun () -> ir (prefill ~return_caches:false cfg prec) ) ])
          [ ("F16", F16); ("Q4", Q4); ("Q3", Q3) ])
      zoo
  in
  let sharded =
    List.concat_map
      (fun (cn, cfg) ->
        List.concat_map
          (fun tp ->
            List.concat_map
              (fun (sn, strategy) ->
                if not (tp_supported cfg ~tp) then []
                else
                  let l what = Printf.sprintf "%s %s tp%d %s" what cn tp sn in
                  let dec () = decode_paged_tp ~strategy cfg ~batch:2 ~tp () in
                  let pre () = prefill_tp ~strategy cfg ~tp () in
                  [ (l "decode_paged_tp", fun () -> ir (dec ()).sbuilt);
                    (l "decode_paged_tp srcs", fun () -> srcs_to_string (dec ()));
                    (l "prefill_tp", fun () -> ir (pre ()).sbuilt);
                    (l "prefill_tp srcs", fun () -> srcs_to_string (pre ())) ])
              [ ("Gather", Gather); ("Reduce", Reduce) ])
          [ 1; 2; 4 ])
      Frontend.Configs.[ ("tiny_tp", tiny_tp); ("tiny", tiny); ("llama3_8b", llama3_8b) ]
  in
  unsharded @ sharded

let ir_golden =
  [
    ("decode b1 llama3_8b F16", "4f09aecfc43f52f889523778fa645288");
    ("decode b4 no-caches llama3_8b F16", "4bbd4219e1a3ab3272e69b0ffd285aea");
    ("decode symbolic-batch llama3_8b F16", "cf4b2df7d64ee554885352dc2a3e0cdd");
    ("decode_paged b8 llama3_8b F16", "30ca0088139be4473687010fccb1c6a7");
    ("prefill llama3_8b F16", "66d48ccbe6ee4da47da5df8e47188741");
    ("prefill no-caches llama3_8b F16", "7320c5cdaec2d05066e2ba66073ab97c");
    ("decode b1 llama3_8b Q4", "4f8e83b0ca72f29eb15499063cdb770e");
    ("decode b4 no-caches llama3_8b Q4", "6992171f1c4c8489760637835c4031a9");
    ("decode symbolic-batch llama3_8b Q4", "4024e37ef6bbf2a95022c591671407d0");
    ("decode_paged b8 llama3_8b Q4", "17658a5ba1f2ce01f45e5c2c4deb3aec");
    ("prefill llama3_8b Q4", "95a0d403f7331785b0ca44f99f7bec97");
    ("prefill no-caches llama3_8b Q4", "fdc3870955647447f4feddeb79098d7a");
    ("decode b1 llama3_8b Q3", "ffb23e9550318012b7e196430c5fad47");
    ("decode b4 no-caches llama3_8b Q3", "623d407718a7e3753232379f29f88671");
    ("decode symbolic-batch llama3_8b Q3", "3c1c70042076b11abc29906fc236ae4f");
    ("decode_paged b8 llama3_8b Q3", "2a35948d9088cbd10e64530a09fd12f8");
    ("prefill llama3_8b Q3", "a2804874e2fe9c378054648a59970f19");
    ("prefill no-caches llama3_8b Q3", "0186eab80c7e86f778c68732741f232a");
    ("decode b1 llama2_7b F16", "76ddd9cc684e47ca5a7198f07d717776");
    ("decode b4 no-caches llama2_7b F16", "3d2b0f7e9b8e744b281123bc2b692df2");
    ("decode symbolic-batch llama2_7b F16", "d9492693745a98684ae372ba06efc9b6");
    ("decode_paged b8 llama2_7b F16", "e504f4e4920fbed75e2c2965079fa843");
    ("prefill llama2_7b F16", "a03ccf20653ee9f8c0c85d8f175241fe");
    ("prefill no-caches llama2_7b F16", "2f54cc0bbe99a63b6d0080e6eaa2c717");
    ("decode b1 llama2_7b Q4", "d4c4cead201540c678861cf1446feb05");
    ("decode b4 no-caches llama2_7b Q4", "5bc476dd1cd75e3ec0a79c862f49aa01");
    ("decode symbolic-batch llama2_7b Q4", "b9f7522082c10b6b69e322a4f3d7d2a8");
    ("decode_paged b8 llama2_7b Q4", "821d098ad5be0325a58e3436e85c8e96");
    ("prefill llama2_7b Q4", "d23bca37a3c081b4aeb2363b07a879a1");
    ("prefill no-caches llama2_7b Q4", "868797e8bd494604ff54cb69dbc0e2cf");
    ("decode b1 llama2_7b Q3", "2193b2bb1cb8205eea75910abc0918d4");
    ("decode b4 no-caches llama2_7b Q3", "d1117b774bb41f8597f9a882204501ab");
    ("decode symbolic-batch llama2_7b Q3", "37b12522e9864690cbbf4c9b50090026");
    ("decode_paged b8 llama2_7b Q3", "5196b9349f1f2d01812c89bc17df0925");
    ("prefill llama2_7b Q3", "72512e2ad4913b256e9bfd20d0c7535d");
    ("prefill no-caches llama2_7b Q3", "ed4f1c63e6fb6b0fff96586bbd9867b0");
    ("decode b1 gemma_7b F16", "2f09b0be8ab83a0e72c4797f3614cbe3");
    ("decode b4 no-caches gemma_7b F16", "e9af844402acf83e76d3a12794bddd8a");
    ("decode symbolic-batch gemma_7b F16", "cfb05e94788569f32a39e9a83f3080f1");
    ("decode_paged b8 gemma_7b F16", "a1f5da9934d8032addeaa51e7109c069");
    ("prefill gemma_7b F16", "4df5eaedaf45c83dcd6ba376617ccc82");
    ("prefill no-caches gemma_7b F16", "294165cd95dc5456f6a6638f51767158");
    ("decode b1 gemma_7b Q4", "45a3e7ad090ba603c6d012540c8c0cd0");
    ("decode b4 no-caches gemma_7b Q4", "0c4c999e7672ca05c192308c4b9456ab");
    ("decode symbolic-batch gemma_7b Q4", "e5c919cf5bda41322d9c23f8576e6da3");
    ("decode_paged b8 gemma_7b Q4", "781739fb4f6c4e98602eb5f871c0cf6e");
    ("prefill gemma_7b Q4", "2e14bed58b3ad8a4b76f54b1262ef503");
    ("prefill no-caches gemma_7b Q4", "a5b686c03c1ffe3e610f65c002c2f9fb");
    ("decode b1 gemma_7b Q3", "539188066b4d916a96e857ee9ade1e90");
    ("decode b4 no-caches gemma_7b Q3", "01bc4e286439e85f3ada9a7f1578d48d");
    ("decode symbolic-batch gemma_7b Q3", "d4f4b5625bb3b8d04672e53e52f29430");
    ("decode_paged b8 gemma_7b Q3", "11fc13a66077ec0bebc376ed40551f47");
    ("prefill gemma_7b Q3", "71cb4986db4dbd3d7f173898188f0272");
    ("prefill no-caches gemma_7b Q3", "5921151328ae3bba474f923831a4d909");
    ("decode b1 qwen2_7b F16", "2b05905f4fac42aad89d87c1d864c523");
    ("decode b4 no-caches qwen2_7b F16", "0abc4d3b11687ed27aca23a9aef431ae");
    ("decode symbolic-batch qwen2_7b F16", "4f0c1a7ef7c0db39e8164a0f97a87a7b");
    ("decode_paged b8 qwen2_7b F16", "daa5a39e2c0373bc123277463e164667");
    ("prefill qwen2_7b F16", "6910cd2eb1e650bfd3b58fdc276ff20e");
    ("prefill no-caches qwen2_7b F16", "eb5475036266fb2ee79e80e2dee0c761");
    ("decode b1 qwen2_7b Q4", "1656df0a938c26b9ab4ce82db6a397e2");
    ("decode b4 no-caches qwen2_7b Q4", "9b471defe81232101494348cf2b06fe2");
    ("decode symbolic-batch qwen2_7b Q4", "623179f1ecf7366296f8f43c3e75e92d");
    ("decode_paged b8 qwen2_7b Q4", "0dafc2e3481885e4c19656f0b7f46a1a");
    ("prefill qwen2_7b Q4", "ed8fbb8ac6d0c7e0b96a7a8668abb2ce");
    ("prefill no-caches qwen2_7b Q4", "2dbc60505230427d5772bdde9bdd82c6");
    ("decode b1 qwen2_7b Q3", "2a7c1c0576e5850e3272884fd2f327ca");
    ("decode b4 no-caches qwen2_7b Q3", "2a31e09282554ff9c13ec0771399e135");
    ("decode symbolic-batch qwen2_7b Q3", "64cc5d83eebe004d4ce5d379c8f7e88d");
    ("decode_paged b8 qwen2_7b Q3", "451b43129e346304b316306aa1ecfec9");
    ("prefill qwen2_7b Q3", "26b01aafe50a9949bc963e71a392cd67");
    ("prefill no-caches qwen2_7b Q3", "957657a86e184ee00809becc83a4388b");
    ("decode b1 phi3_mini F16", "f48b5575c6d55608b83c5a0e4195edcd");
    ("decode b4 no-caches phi3_mini F16", "4d44e9cab6e394c9faf8a8a818a5a320");
    ("decode symbolic-batch phi3_mini F16", "d3e9ed28992fa5eacab2df8129146f76");
    ("decode_paged b8 phi3_mini F16", "99ba3179aaf90b071a252f3fcd409413");
    ("prefill phi3_mini F16", "21d680278146c343415f89c42251c8d8");
    ("prefill no-caches phi3_mini F16", "dd0a4603ec65bc97ea916eb640dda140");
    ("decode b1 phi3_mini Q4", "e526deb47905e6e1ef75f721a1de02a8");
    ("decode b4 no-caches phi3_mini Q4", "3d5d330e440ad614f4f37c70fcd0db4a");
    ("decode symbolic-batch phi3_mini Q4", "743dd7f52da5d443ea60764fd96a87f1");
    ("decode_paged b8 phi3_mini Q4", "16c79522a7505de28fcf688969f5746f");
    ("prefill phi3_mini Q4", "d35b30c19406f3e523f0f02549c84f11");
    ("prefill no-caches phi3_mini Q4", "c709c2e82645d5540928a93ae236a71b");
    ("decode b1 phi3_mini Q3", "072c7bab1525028c2ad7911524ddad5d");
    ("decode b4 no-caches phi3_mini Q3", "6007b43c47846996ddd6ad6032c516ce");
    ("decode symbolic-batch phi3_mini Q3", "d78666a5b44f5b3d816d0c792b2ca660");
    ("decode_paged b8 phi3_mini Q3", "2956abf6d7ee153bbeea83f2a7a69c49");
    ("prefill phi3_mini Q3", "8485d8f70e9790c26e5f2e103f6c5506");
    ("prefill no-caches phi3_mini Q3", "afa1d74e2028ef3227511856e3e43dfb");
    ("decode b1 redpajama_3b F16", "6974384a5a76c132fefc0e132b6eef16");
    ("decode b4 no-caches redpajama_3b F16", "a586e56149839b8d9ad5fc2ad869f670");
    ("decode symbolic-batch redpajama_3b F16", "d115232ceb77aa058e3bd2b0d0db4e4d");
    ("decode_paged b8 redpajama_3b F16", "e68775f53f5f414bc80ce0e9e8e54933");
    ("prefill redpajama_3b F16", "5e065ba354e3ca0cf986e2357923b311");
    ("prefill no-caches redpajama_3b F16", "c3e504caf027269bbe560336a7eccb8a");
    ("decode b1 redpajama_3b Q4", "3e91a19b10e7ad034f72e6b3d7160df4");
    ("decode b4 no-caches redpajama_3b Q4", "99f31b41ea7adbc43f1597f4b45c7e1b");
    ("decode symbolic-batch redpajama_3b Q4", "46c921074e63013c64f17a31eda11788");
    ("decode_paged b8 redpajama_3b Q4", "ef9a3ed16c3e3cab325c07698275d361");
    ("prefill redpajama_3b Q4", "270aa84de1a08c18748abba9d9520975");
    ("prefill no-caches redpajama_3b Q4", "ce615bc6db7fd8c2550a1a2f863b9252");
    ("decode b1 redpajama_3b Q3", "d12c12909ad90a411f090fdb118a6150");
    ("decode b4 no-caches redpajama_3b Q3", "d903b4ad8c60950010ad90cd7281f3c7");
    ("decode symbolic-batch redpajama_3b Q3", "ae9218df08955d0189d32e8d6657e1d4");
    ("decode_paged b8 redpajama_3b Q3", "a6d56ce49df70bd2ff07100dcc8be27a");
    ("prefill redpajama_3b Q3", "791284ff78ffe5d0e43c197a5472cd98");
    ("prefill no-caches redpajama_3b Q3", "e98bf1513c34f589024da59782440899");
    ("decode b1 tiny F16", "2eeb9946c7983ce07d64fb7c0099d7cb");
    ("decode b4 no-caches tiny F16", "13715f6cd60e5857f6125b83ab784d7a");
    ("decode symbolic-batch tiny F16", "8fe3ff0ae9cb59442ae286255c44e8d9");
    ("decode_paged b8 tiny F16", "a69927194cd604ad3dbb52eab991e51b");
    ("prefill tiny F16", "273153e855554d427f181ef96c662438");
    ("prefill no-caches tiny F16", "8fc746d0cd2eed1f96b90bc36d990b4d");
    ("decode b1 tiny Q4", "29abd31a7a274ac082afe884c0a5926b");
    ("decode b4 no-caches tiny Q4", "0a454e812300c5f5a71da36e5c8c9fc7");
    ("decode symbolic-batch tiny Q4", "14f676bf4f0fb2c015c1071468cdcdb7");
    ("decode_paged b8 tiny Q4", "833757bdac35b7dbff71582f67fa3318");
    ("prefill tiny Q4", "ce0badc06215a25b496af639cae7ebec");
    ("prefill no-caches tiny Q4", "ecb25bd4f1f34c1d6a79c77d93edf8c1");
    ("decode b1 tiny Q3", "a7bb1ede7ecbc4c3cef688d7fc90085a");
    ("decode b4 no-caches tiny Q3", "ee804b9b8dc90e316ae571e2483efca6");
    ("decode symbolic-batch tiny Q3", "e63a6213c9588c89c671dcf10560b5b0");
    ("decode_paged b8 tiny Q3", "f480a758ae82209510e0fc048a3b4348");
    ("prefill tiny Q3", "882f4d85ec9af1a269eea467998c8e74");
    ("prefill no-caches tiny Q3", "e0343f07cfb49d681ed36b37fab2e2da");
    ("decode b1 tiny_gqa F16", "1be5d4c5c467c8d62716a4c35d83afef");
    ("decode b4 no-caches tiny_gqa F16", "dc1ad0afd84647b8e19f8c66f3eac755");
    ("decode symbolic-batch tiny_gqa F16", "816a0e6f21dc80e1f6ac80673418fafc");
    ("decode_paged b8 tiny_gqa F16", "63b15cfb692d2fcde21af94cf6c80e46");
    ("prefill tiny_gqa F16", "286215b59ddf73658f99f8bc7d501253");
    ("prefill no-caches tiny_gqa F16", "1355801c8dc88d0966e1cb554b8d27e7");
    ("decode b1 tiny_gqa Q4", "11a84bdb837e9c0a14ef44fb588c3e2d");
    ("decode b4 no-caches tiny_gqa Q4", "2370d7eba47f1a7a1c3ca67431e78cdf");
    ("decode symbolic-batch tiny_gqa Q4", "d3860f307257f70e0d6a0e0beecd8334");
    ("decode_paged b8 tiny_gqa Q4", "1df1d0835903565049fee74d516e1bc2");
    ("prefill tiny_gqa Q4", "94b2fa9719a67331f0e9d92647a80206");
    ("prefill no-caches tiny_gqa Q4", "408338efc12df9b10e62134aea6ca94c");
    ("decode b1 tiny_gqa Q3", "9b663027949995d43951febba8e9301a");
    ("decode b4 no-caches tiny_gqa Q3", "adc23a869e856e778b8958693e3d4c43");
    ("decode symbolic-batch tiny_gqa Q3", "aedb866c99c3a6e0191a7d5b7c82367d");
    ("decode_paged b8 tiny_gqa Q3", "c1b53b7decb313aaf3343aa734d35fed");
    ("prefill tiny_gqa Q3", "d484cd48a490a2d2330ad14ca320b862");
    ("prefill no-caches tiny_gqa Q3", "a30a0fb04cb962cfb37f00b17be24c49");
    ("decode b1 tiny_q F16", "46ddca35d62e0491b70cbe52a475e6f9");
    ("decode b4 no-caches tiny_q F16", "5c9232f5a775da28f439d09a83fee247");
    ("decode symbolic-batch tiny_q F16", "10bf783ab28cbb52247951e07dd7a49d");
    ("decode_paged b8 tiny_q F16", "197dae7a4cda9cb25251c6bf8fa1a126");
    ("prefill tiny_q F16", "53457679a43f45f98a1d06fe2be4ccfa");
    ("prefill no-caches tiny_q F16", "35c15630d0488b43bcebf6bdc3d85676");
    ("decode b1 tiny_q Q4", "0d30621b252b3524aacae6b02f841613");
    ("decode b4 no-caches tiny_q Q4", "af6a0b802a6a9862f86ee0dc81bcf730");
    ("decode symbolic-batch tiny_q Q4", "5e42d2537a8cc66a549e85e3f35af42e");
    ("decode_paged b8 tiny_q Q4", "dc30e20bca8ec0a82cb68e1b525bec7c");
    ("prefill tiny_q Q4", "f127fb99a9ca4d63de8dd4766df5fac9");
    ("prefill no-caches tiny_q Q4", "6098f6517f35489301089baf219227ff");
    ("decode b1 tiny_q Q3", "5c780da9a183d400e99bd6d01faa606f");
    ("decode b4 no-caches tiny_q Q3", "e610c75199f52f84d545a6221c8f5915");
    ("decode symbolic-batch tiny_q Q3", "219ad56bb0f6000268ad07523ae4c8fc");
    ("decode_paged b8 tiny_q Q3", "d4008718a84379660b89aca4ca851a7b");
    ("prefill tiny_q Q3", "90e4b45601334a37001a5a6c697ed477");
    ("prefill no-caches tiny_q Q3", "c08ad5bcc5dc54f58a56cc50ebc64556");
    ("decode b1 tiny_tp F16", "5f6e4fccd4c650b3a808d76b61a2f3fe");
    ("decode b4 no-caches tiny_tp F16", "e960b462342dfd2916fa0c6943e92dc9");
    ("decode symbolic-batch tiny_tp F16", "36b2de88d75a1993fd345e948868c7f2");
    ("decode_paged b8 tiny_tp F16", "f83a360749a0ef0acad38627dc362fbd");
    ("prefill tiny_tp F16", "fa2f005932d20b19cd91f0707f719145");
    ("prefill no-caches tiny_tp F16", "ee93772254aec7688d03fdb515b7f563");
    ("decode b1 tiny_tp Q4", "9f89a5586d74e4dcfcfc2f0da5b124cc");
    ("decode b4 no-caches tiny_tp Q4", "510a841860496e88ca919bde1513ca51");
    ("decode symbolic-batch tiny_tp Q4", "668d2e6c8f5ed205ed418bbb486057a2");
    ("decode_paged b8 tiny_tp Q4", "7ea219b8357634f8c31a9c1130b99b0d");
    ("prefill tiny_tp Q4", "5d4640f10198dd322aee84362b789659");
    ("prefill no-caches tiny_tp Q4", "01c6ba08dcfd8e3703800a2cb442f9c5");
    ("decode b1 tiny_tp Q3", "4c7e505d78aa9009fd03c40627cfd0ee");
    ("decode b4 no-caches tiny_tp Q3", "8ef989a257c81d5a2d074e6b2bd692dc");
    ("decode symbolic-batch tiny_tp Q3", "a6980cdc6690f9f22406f78445112317");
    ("decode_paged b8 tiny_tp Q3", "d3399b28a057d5efbf9603f496e03dac");
    ("prefill tiny_tp Q3", "d687855f076df6f379cda165f9ea348d");
    ("prefill no-caches tiny_tp Q3", "d16ab28dae1c727c7b9c52b4033bb448");
    ("decode_paged_tp tiny_tp tp1 Gather", "8a1c88d8f8ea9d83f149b57bc66619d1");
    ("decode_paged_tp srcs tiny_tp tp1 Gather", "8d5e0255ca54e79d05362779b262731c");
    ("prefill_tp tiny_tp tp1 Gather", "fa2f005932d20b19cd91f0707f719145");
    ("prefill_tp srcs tiny_tp tp1 Gather", "21eebcbf8616d3406e7775f89f4caefd");
    ("decode_paged_tp tiny_tp tp1 Reduce", "8a1c88d8f8ea9d83f149b57bc66619d1");
    ("decode_paged_tp srcs tiny_tp tp1 Reduce", "8d5e0255ca54e79d05362779b262731c");
    ("prefill_tp tiny_tp tp1 Reduce", "fa2f005932d20b19cd91f0707f719145");
    ("prefill_tp srcs tiny_tp tp1 Reduce", "21eebcbf8616d3406e7775f89f4caefd");
    ("decode_paged_tp tiny_tp tp2 Gather", "3f5c34f225afceaf65102e8b8cb451d4");
    ("decode_paged_tp srcs tiny_tp tp2 Gather", "1a270f6f43d6913215d0cedabe3c20b1");
    ("prefill_tp tiny_tp tp2 Gather", "6d66e070324160c1af9034abdaa2fa7f");
    ("prefill_tp srcs tiny_tp tp2 Gather", "746bea0fd4d86bc40bdc12f80556e8aa");
    ("decode_paged_tp tiny_tp tp2 Reduce", "75e96df588ccb1bcef2c397c7cb283c5");
    ("decode_paged_tp srcs tiny_tp tp2 Reduce", "0340b9de66b64dc50ab4c741347ad0dc");
    ("prefill_tp tiny_tp tp2 Reduce", "2320e76bb4ba72577cc61e6e52e0551d");
    ("prefill_tp srcs tiny_tp tp2 Reduce", "469fa32cd9a3919dcaea77c009670677");
    ("decode_paged_tp tiny_tp tp4 Gather", "b23f95226d44297bd7601b233c18b85e");
    ("decode_paged_tp srcs tiny_tp tp4 Gather", "cac132f027b8c6d8f3ce1b65eb0f0851");
    ("prefill_tp tiny_tp tp4 Gather", "216ff2bb1a8efca6a10dff774198a369");
    ("prefill_tp srcs tiny_tp tp4 Gather", "35b2c719e4f677148e70231c92697248");
    ("decode_paged_tp tiny_tp tp4 Reduce", "128cc53672fe7e390942ed104ad7f6eb");
    ("decode_paged_tp srcs tiny_tp tp4 Reduce", "9efe025a5ab926fb6245a32d03de8511");
    ("prefill_tp tiny_tp tp4 Reduce", "23b9fb919d971076f8ff607b9c5a333e");
    ("prefill_tp srcs tiny_tp tp4 Reduce", "7d0827a7d64fd7ceab2d697d0bf7762f");
    ("decode_paged_tp tiny tp1 Gather", "67d8d6b12db24bc30894863eb57e9c7b");
    ("decode_paged_tp srcs tiny tp1 Gather", "8d5e0255ca54e79d05362779b262731c");
    ("prefill_tp tiny tp1 Gather", "273153e855554d427f181ef96c662438");
    ("prefill_tp srcs tiny tp1 Gather", "21eebcbf8616d3406e7775f89f4caefd");
    ("decode_paged_tp tiny tp1 Reduce", "67d8d6b12db24bc30894863eb57e9c7b");
    ("decode_paged_tp srcs tiny tp1 Reduce", "8d5e0255ca54e79d05362779b262731c");
    ("prefill_tp tiny tp1 Reduce", "273153e855554d427f181ef96c662438");
    ("prefill_tp srcs tiny tp1 Reduce", "21eebcbf8616d3406e7775f89f4caefd");
    ("decode_paged_tp tiny tp2 Gather", "834f72e2bfe2323a36db38089f07e691");
    ("decode_paged_tp srcs tiny tp2 Gather", "1a270f6f43d6913215d0cedabe3c20b1");
    ("prefill_tp tiny tp2 Gather", "d2c6c8d7456dd0f22685ba2e43c6b85c");
    ("prefill_tp srcs tiny tp2 Gather", "746bea0fd4d86bc40bdc12f80556e8aa");
    ("decode_paged_tp tiny tp2 Reduce", "b35fb8f9b2abc8e512509a977cb3f60b");
    ("decode_paged_tp srcs tiny tp2 Reduce", "0340b9de66b64dc50ab4c741347ad0dc");
    ("prefill_tp tiny tp2 Reduce", "52f1ed87fa0ca53d6ed01cde9ffe595e");
    ("prefill_tp srcs tiny tp2 Reduce", "469fa32cd9a3919dcaea77c009670677");
    ("decode_paged_tp llama3_8b tp1 Gather", "72575bea94a26422292599c70d58519e");
    ("decode_paged_tp srcs llama3_8b tp1 Gather", "156162f58171858c6efebfabd5e7d71f");
    ("prefill_tp llama3_8b tp1 Gather", "66d48ccbe6ee4da47da5df8e47188741");
    ("prefill_tp srcs llama3_8b tp1 Gather", "dd03194959888041f946f32c54b1aad4");
    ("decode_paged_tp llama3_8b tp1 Reduce", "72575bea94a26422292599c70d58519e");
    ("decode_paged_tp srcs llama3_8b tp1 Reduce", "156162f58171858c6efebfabd5e7d71f");
    ("prefill_tp llama3_8b tp1 Reduce", "66d48ccbe6ee4da47da5df8e47188741");
    ("prefill_tp srcs llama3_8b tp1 Reduce", "dd03194959888041f946f32c54b1aad4");
    ("decode_paged_tp llama3_8b tp2 Gather", "208a649ecc410e4ef075d5e822f9625e");
    ("decode_paged_tp srcs llama3_8b tp2 Gather", "9fe52cd1d7258f15b23de6560c3ee34f");
    ("prefill_tp llama3_8b tp2 Gather", "1d37e62f9daf27368623b12d9400f678");
    ("prefill_tp srcs llama3_8b tp2 Gather", "731e0e3c9b3d1800bafcf98a9df62270");
    ("decode_paged_tp llama3_8b tp2 Reduce", "6aa752399fd76ac126f40efa490107a7");
    ("decode_paged_tp srcs llama3_8b tp2 Reduce", "27d6a661b39f8281406d2a8f9488ad76");
    ("prefill_tp llama3_8b tp2 Reduce", "288220521077f72b47664b25a729a8c3");
    ("prefill_tp srcs llama3_8b tp2 Reduce", "4827dc23ddcc700ba2579716c5b21b3c");
    ("decode_paged_tp llama3_8b tp4 Gather", "da27d9de408179c76c1b6fa055754be9");
    ("decode_paged_tp srcs llama3_8b tp4 Gather", "75a3340fa124a2822a8c2a314e697f56");
    ("prefill_tp llama3_8b tp4 Gather", "cbd54f02c3fd8373d85622ebba517147");
    ("prefill_tp srcs llama3_8b tp4 Gather", "0f46f24a318b777036e3ee35b1455c8f");
    ("decode_paged_tp llama3_8b tp4 Reduce", "abea5365f3a42719a2e175f776787627");
    ("decode_paged_tp srcs llama3_8b tp4 Reduce", "3846128f77e57342fef125e04755ca2f");
    ("prefill_tp llama3_8b tp4 Reduce", "d5d330c7bd4bd5f6d042617b9c0b3062");
    ("prefill_tp srcs llama3_8b tp4 Reduce", "1117440fe2f309d5d347784fe54c5029")
  ]

let test_ir_golden () =
  let actual =
    List.map
      (fun (label, text) -> (label, Digest.to_hex (Digest.string (text ()))))
      (golden_cases ())
  in
  let stale =
    List.filter (fun (label, d) -> List.assoc_opt label ir_golden <> Some d) actual
  in
  if stale <> [] || List.length actual <> List.length ir_golden then
    Alcotest.failf "%d of %d cases differ from the golden table (%d entries); now:\n%s"
      (List.length stale) (List.length actual) (List.length ir_golden)
      (String.concat "\n"
         (List.map (fun (l, d) -> Printf.sprintf "    (%S, %S);" l d) stale))

let () =
  Alcotest.run "llm"
    [ ( "numeric",
        [ Alcotest.test_case "decode configs agree" `Quick
            test_tiny_decode_configs_agree;
          Alcotest.test_case "grouped-query attention" `Quick test_tiny_decode_gqa;
          Alcotest.test_case "q4 decode (Fig 9 path)" `Quick
            test_tiny_quantized_decode;
          Alcotest.test_case "q3 decode" `Quick test_tiny_q3_decode;
          Alcotest.test_case "prefill" `Quick test_tiny_prefill ]
        @ Arch_variants.cases "prefill feeds decode" `Quick
            test_prefill_then_decode_consistency
        @ [ Alcotest.test_case "qkv biases (Qwen2)" `Quick test_qkv_bias_config ] );
      ("golden", [ Alcotest.test_case "printed IR digests" `Quick test_ir_golden ]);
      ( "timed",
        [ Alcotest.test_case "llama3-8b latency regime" `Quick
            test_llama3_timed_plausible ] ) ]
