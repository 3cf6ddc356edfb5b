(* Static verifier: TIR memory safety, parallel-race detection,
   per-pass pipeline verification, and the structural well-formedness
   checks that now report through the same diagnostics type.

   The central property: every kernel the compiler can emit — the
   whole standard-kernel zoo, plus anything the scheduler derives from
   it — is provably memory-safe (zero Error diagnostics), while seeded
   defects of each class (out-of-bounds store, racy parallel loop,
   violated assert) are detected. *)

open Relax_core

let e = Arith.Expr.const
let f32 = Base.Dtype.F32

module D = Analysis.Diag
module K = Tir.Kernels
module E = Arith.Expr
module S = Tir.Stmt
module T = Tir.Texpr

let sym name = E.var (Arith.Var.fresh name)

let check_all ?bounds f =
  Analysis.Tir_safety.check ?bounds f @ Analysis.Race.check ?bounds f

let has_code code diags = List.exists (fun (d : D.t) -> d.D.code = code) diags
let error_codes diags = List.map (fun (d : D.t) -> d.D.code) (D.errors diags)

let zoo () : Tir.Prim_func.t list =
  let n = sym "n" and m = sym "m" and b = sym "b" in
  [
    K.unary ~name:"exp" ~op:(fun x -> T.Unop (T.Exp, x)) [ n; e 8 ] f32;
    K.unary ~name:"relu" ~op:K.relu [ e 4; e 3 ] f32;
    K.binary ~name:"add" ~op:(fun a c -> T.(a +. c)) [ n; m ] f32;
    K.broadcast_binary ~name:"badd"
      ~op:(fun a c -> T.(a +. c))
      ~lhs:[ b; n; e 8 ] ~rhs:[ e 8 ] f32;
    K.cast_kernel ~name:"cast" [ n; e 5 ] ~from_:f32 ~to_:Base.Dtype.F16;
    K.matmul ~name:"bmm" ~batch:[ b ] ~m:n ~k:(e 64) ~n:m f32;
    K.matmul_weights ~name:"mm" ~m:n ~k:(e 6) ~n:(e 10) f32;
    K.transpose ~name:"tr" [ n; m; e 4 ] ~perm:[ 2; 0; 1 ] f32;
    K.reshape ~name:"rs" ~from_:[ n; e 6 ] ~to_:[ n; e 2; e 3 ] f32;
    K.reduce ~name:"rsum" ~kind:`Sum [ n; m ] f32;
    K.reduce ~name:"rmax" ~kind:`Max [ e 3; e 7 ] f32;
    K.reduce ~name:"rmean" ~kind:`Mean [ n; e 7 ] f32;
    K.softmax_last ~name:"sm" [ b; n ] f32;
    K.layer_norm ~name:"ln" [ n; e 16 ] ~eps:1e-5 f32;
    K.rms_norm ~name:"rms" [ n; e 16 ] ~eps:1e-5 f32;
    K.take_rows ~name:"take" ~rows:n ~width:m ~num_indices:b f32;
    K.decode_q4 ~name:"q4" ~k:n ~n:(e 64) f32;
    K.decode_q3 ~name:"q3" ~k:n ~n:(e 64) f32;
    K.split_k_matmul ~name:"skmm" ~m:(e 8) ~k:(e 32) ~n:(e 4) ~splits:4 f32;
  ]

let assert_no_errors ~what diags =
  match D.errors diags with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: unexpected errors:\n%s" what (D.render errs)

(* Every standard kernel is provably memory-safe and race-free. *)
let test_zoo_memory_safe () =
  List.iter
    (fun (f : Tir.Prim_func.t) ->
      assert_no_errors ~what:f.Tir.Prim_func.name (check_all f))
    (zoo ())

(* ... and stays so under the analysis-based default schedules. *)
let test_zoo_auto_scheduled_safe () =
  List.iter
    (fun (f : Tir.Prim_func.t) ->
      let fs = Tir.Schedule.auto_schedule f in
      assert_no_errors
        ~what:(f.Tir.Prim_func.name ^ " (auto-scheduled)")
        (check_all fs))
    (zoo ())

(* Random schedule sequences (split with arbitrary factors inserts
   guarded remainder iterations; parallelize creates Parallel loops)
   never make a safe kernel unprovable at the Error level. *)
let prop_random_schedules_safe =
  QCheck.Test.make ~count:60
    ~name:"random schedule sequences stay provably safe"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 4)
        (pair (int_range 0 2) (int_range 2 5)))
    (fun ops ->
      let f0 =
        K.matmul_weights ~name:"mm" ~m:(sym "n") ~k:(e 6) ~n:(e 10) f32
      in
      let f =
        List.fold_left
          (fun f (which, factor) ->
            let loops = Tir.Schedule.loop_vars f in
            let loop = List.nth loops (which mod List.length loops) in
            match which mod 3 with
            | 0 -> (
                match Tir.Schedule.split f ~loop ~factor with
                | f', _, _ -> f')
            | 1 -> ( try Tir.Schedule.parallelize f ~loop with _ -> f)
            | _ -> (
                match Tir.Schedule.loop_vars f with
                | a :: b :: _ -> (
                    try Tir.Schedule.reorder f ~outer:a ~inner:b
                    with Tir.Schedule.Schedule_error _ -> f)
                | _ -> f))
          f0 ops
      in
      D.errors (check_all f) = [])

(* --- golden broken kernels ------------------------------------- *)

let buf name shape = Tir.Buffer.create name shape f32

(* for i < n: Y[i + 1] = X[i] — the classic off-by-one store. *)
let test_oob_store_detected () =
  let n = Arith.Var.fresh "n" in
  let x = buf "X" [ E.var n ] and y = buf "Y" [ E.var n ] in
  let i = Arith.Var.fresh "i" in
  let body =
    S.for_ i (E.var n)
      (S.Store (y, [ T.idx (E.add (E.var i) (e 1)) ], T.load x [ E.var i ]))
  in
  let f = Tir.Prim_func.create ~name:"off_by_one" ~params:[ x; y ] body in
  let diags = Analysis.Tir_safety.check f in
  Alcotest.(check bool) "oob-store is an error" true
    (List.mem "oob-store" (error_codes diags));
  (* The guarded variant is fully proved: the branch hypothesis
     i + 1 <= n - 1 discharges the store. *)
  let guarded =
    S.for_ i (E.var n)
      (S.If
         ( T.Binop (T.Lt, T.idx (E.add (E.var i) (e 1)), T.idx (E.var n)),
           S.Store (y, [ T.idx (E.add (E.var i) (e 1)) ], T.load x [ E.var i ]),
           None ))
  in
  let fg = Tir.Prim_func.create ~name:"guarded" ~params:[ x; y ] guarded in
  Alcotest.(check (list string))
    "guarded store fully proved" []
    (List.map (fun (d : D.t) -> d.D.code) (Analysis.Tir_safety.check fg))

let test_oob_load_and_unproved () =
  let n = Arith.Var.fresh "n" in
  let x = buf "X" [ E.var n ] and y = buf "Y" [ E.var n ] in
  let i = Arith.Var.fresh "i" in
  (* Load past the end: Y[i] = X[i + 1]. *)
  let body =
    S.for_ i (E.var n)
      (S.Store (y, [ T.iv i ], T.load x [ E.add (E.var i) (e 1) ]))
  in
  let f = Tir.Prim_func.create ~name:"load_past" ~params:[ x; y ] body in
  Alcotest.(check bool) "oob-load is an error" true
    (List.mem "oob-load" (error_codes (Analysis.Tir_safety.check f)));
  (* Y[2i] may or may not overflow (fine iff n <= 1): a warning, not
     an error. *)
  let body2 =
    S.for_ i (E.var n)
      (S.Store (y, [ T.idx (E.mul (e 2) (E.var i)) ], T.load x [ E.var i ]))
  in
  let f2 = Tir.Prim_func.create ~name:"stride2" ~params:[ x; y ] body2 in
  let diags2 = Analysis.Tir_safety.check f2 in
  Alcotest.(check (list string)) "stride-2 store: warning only" []
    (error_codes diags2);
  Alcotest.(check bool) "unproved-store warning present" true
    (has_code "unproved-store" diags2);
  (* With an annotated upper bound the doubt remains (2(n-1) > n - 1
     for n >= 2), but a bound makes the overflow provable once the
     extent is known to be >= 2... which it is not; the warning is the
     honest answer either way. *)
  Alcotest.(check bool) "still not an error with bounds" true
    (error_codes (Analysis.Tir_safety.check ~bounds:[ (n, 128) ] f2) = [])

let test_rank_mismatch_and_dyn_index () =
  let n = Arith.Var.fresh "n" in
  let x = buf "X" [ E.var n; e 4 ] and y = buf "Y" [ E.var n ] in
  let i = Arith.Var.fresh "i" in
  let body = S.for_ i (E.var n) (S.Store (y, [ T.iv i ], T.load x [ E.var i ])) in
  let f = Tir.Prim_func.create ~name:"rank" ~params:[ x; y ] body in
  Alcotest.(check bool) "rank mismatch flagged" true
    (List.mem "rank-mismatch" (error_codes (Analysis.Tir_safety.check f)));
  (* Gather: the table row index is data-dependent — warning. *)
  let take = K.take_rows ~name:"take" ~rows:(sym "r") ~width:(sym "w")
      ~num_indices:(sym "k") f32
  in
  let diags = Analysis.Tir_safety.check take in
  Alcotest.(check bool) "gather row index warns as dyn-index" true
    (has_code "dyn-index" diags);
  Alcotest.(check (list string)) "gather has no errors" [] (error_codes diags)

let test_asserts () =
  let n = Arith.Var.fresh "n" in
  let y = buf "Y" [ E.var n ] in
  let mk assert_stmt =
    Tir.Prim_func.create ~name:"a" ~params:[ y ]
      (S.seq [ assert_stmt; S.Store (y, [ T.idx (e 0) ], T.f 0.0) ])
  in
  (* 5 < 3 is provably false: dead assert, an error. *)
  let dead = mk (S.Assert (T.Binop (T.Lt, T.i 5, T.i 3), "five below three")) in
  Alcotest.(check bool) "violated assert is an error" true
    (List.mem "assert-violated" (error_codes (Analysis.Tir_safety.check dead)));
  (* n >= 1 is the standing convention: redundant, no diagnostic. *)
  let redundant = mk (S.Assert (T.Binop (T.Ge, T.idx (E.var n), T.i 1), "n positive")) in
  Alcotest.(check (list string)) "redundant assert is silent" []
    (List.map (fun (d : D.t) -> d.D.code) (Analysis.Tir_safety.check redundant));
  (* n <= 100 is not provable either way: warning. *)
  let unknown = mk (S.Assert (T.Binop (T.Le, T.idx (E.var n), T.i 100), "small n")) in
  let diags = Analysis.Tir_safety.check unknown in
  Alcotest.(check bool) "unprovable assert warns" true
    (has_code "assert-unproved" diags);
  Alcotest.(check (list string)) "unprovable assert is not an error" []
    (error_codes diags);
  (* ... unless the bound annotation proves it outright. *)
  Alcotest.(check (list string)) "bound annotation discharges it" []
    (List.map (fun (d : D.t) -> d.D.code)
       (Analysis.Tir_safety.check ~bounds:[ (n, 100) ] unknown))

let test_race_detection () =
  let n = Arith.Var.fresh "n" in
  let x = buf "X" [ e 8 ] and y = buf "Y" [ e 8 ] in
  let i = Arith.Var.fresh "i" in
  (* parallel i < 8: Y[0] = Y[0] + X[i] — unguarded reduction: both a
     write/write and a write/read race, definite because the extent is
     statically >= 2. *)
  let racy =
    S.for_par i (e 8)
      (S.Store
         ( y,
           [ T.idx (e 0) ],
           T.Binop (T.Add, T.load y [ e 0 ], T.load x [ E.var i ]) ))
  in
  let f = Tir.Prim_func.create ~name:"racy" ~params:[ x; y ] racy in
  let codes = error_codes (Analysis.Race.check f) in
  Alcotest.(check bool) "write/write race" true (List.mem "race-ww" codes);
  Alcotest.(check bool) "write/read race" true (List.mem "race-rw" codes);
  (* Same reduction over a symbolic extent: the loop may be a single
     iteration, so it degrades to a warning. *)
  let x2 = buf "X" [ E.var n ] in
  let racy_sym =
    S.for_par i (E.var n)
      (S.Store
         ( y,
           [ T.idx (e 0) ],
           T.Binop (T.Add, T.load y [ e 0 ], T.load x2 [ E.var i ]) ))
  in
  let f2 = Tir.Prim_func.create ~name:"racy_sym" ~params:[ x2; y ] racy_sym in
  let d2 = Analysis.Race.check f2 in
  Alcotest.(check (list string)) "symbolic extent: no hard error" []
    (error_codes d2);
  Alcotest.(check bool) "but an unproved-race warning" true
    (has_code "race-unproved" d2)

let test_race_disjoint_patterns () =
  let n = Arith.Var.fresh "n" in
  let x = buf "X" [ E.var n ] and y = buf "Y" [ E.var n ] in
  let i = Arith.Var.fresh "i" in
  (* parallel i: Y[i] = X[i] + Y[i] — per-iteration slot, no race. *)
  let ok =
    S.for_par i (E.var n)
      (S.Store (y, [ T.iv i ], T.Binop (T.Add, T.load x [ E.var i ], T.load y [ E.var i ])))
  in
  let f = Tir.Prim_func.create ~name:"ewise_par" ~params:[ x; y ] ok in
  Alcotest.(check (list string)) "elementwise parallel loop is clean" []
    (List.map (fun (d : D.t) -> d.D.code) (Analysis.Race.check f));
  (* Tiled store: parallel io: for ii < 32: Y[io*32 + ii] = ... inside
     a guard (non-divisible extent). Distinct io cannot alias: the
     index difference is 32*(io - io') + (ii - ii'), |ii - ii'| <= 31. *)
  let io = Arith.Var.fresh "io" and ii = Arith.Var.fresh "ii" in
  let fused = E.add (E.mul (E.var io) (e 32)) (E.var ii) in
  let tiled =
    S.for_par io
      (E.floor_div (E.add (E.var n) (e 31)) (e 32))
      (S.for_ ii (e 32)
         (S.If
            ( T.Binop (T.Lt, T.idx fused, T.idx (E.var n)),
              S.Store (y, [ T.idx fused ], T.load x [ fused ]),
              None )))
  in
  let ft = Tir.Prim_func.create ~name:"tiled_par" ~params:[ x; y ] tiled in
  Alcotest.(check (list string)) "guarded tiled parallel store is clean" []
    (List.map (fun (d : D.t) -> d.D.code) (Analysis.Race.check ft));
  (* Accumulators allocated inside the parallel body are
     iteration-private: no race reported. *)
  let acc = Tir.Buffer.create ~scope:Tir.Buffer.Local "acc" [ e 1 ] f32 in
  let private_acc =
    S.for_par i (e 8)
      (S.Alloc
         ( acc,
           S.seq
             [ S.Store (acc, [ T.idx (e 0) ], T.load x [ E.var i ]);
               S.Store (y, [ T.iv i ], T.load acc [ e 0 ]) ] ))
  in
  let fp = Tir.Prim_func.create ~name:"private_acc" ~params:[ x; y ] private_acc in
  Alcotest.(check (list string)) "private accumulator is clean" []
    (List.map (fun (d : D.t) -> d.D.code) (Analysis.Race.check fp))

(* --- whole-module and per-pass verification --------------------- *)

let test_lowered_llm_is_clean () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny ~batch:2 Frontend.Llm.F16 in
  let bounds = Frontend.Llm.upper_bound_hints built in
  List.iter
    (fun schedule ->
      let options =
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.schedule_tensorir = schedule;
          upper_bounds = bounds }
      in
      let lowered =
        Relax_passes.Pipeline.lower ~options ~device:Runtime.Device.rtx4090
          built.Frontend.Llm.mod_
      in
      let diags = Relax_passes.Verify.check_module ~bounds lowered in
      assert_no_errors
        ~what:(Printf.sprintf "lowered tiny llm (schedule=%b)" schedule)
        diags)
    [ false; true ]

let test_per_pass_verification () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny ~batch:2 Frontend.Llm.F16 in
  let bounds = Frontend.Llm.upper_bound_hints built in
  let options =
    { Relax_passes.Pipeline.default_options with
      Relax_passes.Pipeline.schedule_tensorir = true;
      upper_bounds = bounds }
  in
  let _mod, diags =
    Relax_passes.Pipeline.lower_with_diags ~options
      ~device:Runtime.Device.rtx4090 built.Frontend.Llm.mod_
  in
  (* No pass may introduce an error-severity diagnostic... *)
  assert_no_errors ~what:"per-pass verification" diags;
  (* ... and whatever it did introduce is attributed to it. *)
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "diag %s has provenance" d.D.code)
        true (d.D.pass <> None))
    diags;
  (* compile ~verify:true is the same gate end to end. *)
  let _program =
    Relax_passes.Pipeline.compile ~options ~verify:true
      ~device:Runtime.Device.rtx4090 built.Frontend.Llm.mod_
  in
  ()

(* --- well-formedness over the new diagnostics ------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_wf_checks_if_branches () =
  (* A use-before-def buried inside an If branch body: the old checker
     never recursed into branches. *)
  let ghost = Rvar.fresh "ghost" (Struct_info.tensor [ e 2 ] f32) in
  let w = Rvar.fresh "w" (Struct_info.tensor [ e 2 ] f32) in
  let v = Rvar.fresh "v" (Struct_info.tensor [ e 2 ] f32) in
  let branch_body =
    Expr.Seq
      {
        blocks =
          [ { Expr.dataflow = false;
              bindings = [ Expr.Bind (w, Expr.call_op "exp" [ Expr.Var ghost ]) ] } ];
        body = Expr.Var w;
      }
  in
  let x = Rvar.fresh "x" (Struct_info.tensor [ e 2 ] f32) in
  let body =
    Expr.Seq
      {
        blocks =
          [ { Expr.dataflow = false;
              bindings =
                [ Expr.Bind
                    ( v,
                      Expr.If
                        {
                          cond = Expr.Prim_value (e 1);
                          then_ = branch_body;
                          else_ = Expr.Var x;
                        } ) ] } ];
        body = Expr.Var v;
      }
  in
  let f = { Expr.params = [ x ]; ret_sinfo = Rvar.sinfo v; body; attrs = [] } in
  let mod_ = Ir_module.add_func Ir_module.empty "branchy" f in
  let violations = Well_formed.check_module mod_ in
  Alcotest.(check bool) "ghost use inside branch flagged" true
    (List.exists
       (fun (d : Well_formed.violation) ->
         d.D.code = "undef-var" && contains ~sub:"ghost" d.D.message)
       violations);
  (* Branch-local bindings do not leak: using the branch-bound w after
     the If is also a violation. *)
  let leak_body =
    Expr.Seq
      {
        blocks =
          [ { Expr.dataflow = false;
              bindings =
                [ Expr.Bind
                    ( v,
                      Expr.If
                        {
                          cond = Expr.Prim_value (e 1);
                          then_ = branch_body;
                          else_ = Expr.Var x;
                        } ) ] } ];
        body = Expr.Var w;
      }
  in
  let f2 =
    { Expr.params = [ x ]; ret_sinfo = Rvar.sinfo w; body = leak_body; attrs = [] }
  in
  let mod2 = Ir_module.add_func Ir_module.empty "leaky" f2 in
  Alcotest.(check bool) "branch binding does not leak" true
    (List.exists
       (fun (d : Well_formed.violation) ->
         d.D.code = "undef-var" && contains ~sub:"w" d.D.message)
       (Well_formed.check_module mod2))

let test_wf_duplicate_binding () =
  let x = Rvar.fresh "x" (Struct_info.tensor [ e 2 ] f32) in
  let v = Rvar.fresh "v" (Struct_info.tensor [ e 2 ] f32) in
  let body =
    Expr.Seq
      {
        blocks =
          [ { Expr.dataflow = true;
              bindings =
                [ Expr.Bind (v, Expr.call_op "exp" [ Expr.Var x ]);
                  Expr.Bind (v, Expr.call_op "relu" [ Expr.Var x ]) ] } ];
        body = Expr.Var v;
      }
  in
  let f = { Expr.params = [ x ]; ret_sinfo = Rvar.sinfo v; body; attrs = [] } in
  let mod_ = Ir_module.add_func Ir_module.empty "dup" f in
  Alcotest.(check bool) "duplicate binding flagged" true
    (List.exists
       (fun (d : Well_formed.violation) -> d.D.code = "rebinding")
       (Well_formed.check_module mod_))

(* --- the diagnostics type itself -------------------------------- *)

let test_diag_rendering () =
  let d =
    D.error ~code:"oob-store" ~func:"softmax" ~path:[ "i0"; "store Y" ]
      "index out of range"
  in
  let d = D.with_pass d "fuse" in
  Alcotest.(check string) "pretty line"
    "error[oob-store] softmax @ i0/store Y: index out of range (introduced by \
     fuse)"
    (D.to_string d);
  let w = D.warning ~code:"unproved-store" ~func:"f" "maybe" in
  (* render puts errors first regardless of input order. *)
  let r = D.render [ w; d ] in
  Alcotest.(check bool) "errors sort first" true
    (contains ~sub:"error[oob-store]" (String.sub r 0 20));
  let json = D.render_json [ d ] in
  Alcotest.(check bool) "json has severity" true
    (contains ~sub:"\"severity\": \"error\"" json);
  Alcotest.(check bool) "json has pass" true
    (contains ~sub:"\"pass\": \"fuse\"" json);
  Alcotest.(check bool) "json is versioned" true
    (contains ~sub:"\"schema_version\": 2" json);
  (* machine-readable payloads ride along under "data" but stay out of
     the stable key, so per-pass diffing is unaffected by them. *)
  let p =
    D.warning ~code:"fp-budget-unproved" ~func:"f"
      ~data:[ ("bound_ulps", "42") ] "over"
  in
  Alcotest.(check bool) "json has data payload" true
    (contains ~sub:"\"bound_ulps\": \"42\"" (D.render_json [ p ]));
  let p' = D.warning ~code:"fp-budget-unproved" ~func:"f" "over" in
  Alcotest.(check string) "data excluded from key" p'.D.key p.D.key;
  (* tally counts per stable key; dedup keeps first occurrences. *)
  let t = D.tally [ d; d; w ] in
  Alcotest.(check int) "tally counts" 2 (List.assoc d.D.key t);
  Alcotest.(check int) "dedup" 2 (List.length (D.dedup [ d; d; w ]))

(* --- the JSON emitter: one layout for every document ---------------- *)

let test_json_layout () =
  let module J = Base.Json in
  let check name expected v =
    Alcotest.(check string) name expected (J.to_string v)
  in
  check "null" "null" J.Null;
  check "bool" "true" (J.Bool true);
  check "int" "-3" (J.Int (-3));
  check "float, fixed decimals" "3.14" (J.Float (2, 3.14159));
  check "float, padded decimals" "0.500" (J.Float (3, 0.5));
  check "float, no decimals" "500" (J.Float (0, 500.0));
  check "nan is null" "null" (J.Float (1, Float.nan));
  check "infinity is null" "null" (J.Float (1, Float.infinity));
  check "string" {|"abc"|} (J.String "abc");
  check "escapes" {|"q\"b\\n\nt\tc\u0001"|} (J.String "q\"b\\n\nt\tc\001");
  check "empty list" "[]" (J.List []);
  check "empty object" "{}" (J.Object []);
  check "scalar list inline" "[1, 2.0, \"x\"]"
    (J.List [ J.Int 1; J.Float (1, 2.0); J.String "x" ]);
  check "mixed list inline" "[1, {}]" (J.List [ J.Int 1; J.Object [] ]);
  check "top-level object, one member per line"
    {|{
  "l": [],
  "o": {},
  "inline": { "x": 1, "y": [1, 2] }
}|}
    (J.Object
       [ ("l", J.List []);
         ("o", J.Object []);
         ("inline", J.Object [ ("x", J.Int 1); ("y", J.List [ J.Int 1; J.Int 2 ]) ])
       ]);
  let row v = J.Object [ ("v", J.Int v) ] in
  check "top-level array of objects" {|[
  { "v": 1 },
  { "v": 2 }
]|}
    (J.List [ row 1; row 2 ]);
  check "array of objects in an inline object"
    {|{
  "curves": [
    { "k": "x", "points": [
      { "v": 1 },
      { "v": 2 }
    ] }
  ],
  "sweep": { "ctx": 8, "points": [
    { "v": 3 }
  ] }
}|}
    (J.Object
       [ ( "curves",
           J.List
             [ J.Object
                 [ ("k", J.String "x"); ("points", J.List [ row 1; row 2 ]) ]
             ] );
         ( "sweep",
           J.Object [ ("ctx", J.Int 8); ("points", J.List [ row 3 ]) ] ) ])

let test_diag_json_golden () =
  let e =
    D.with_pass
      (D.error ~code:"fp-budget" ~func:"sm" ~path:[ "i"; "store Y" ]
         ~data:[ ("bound_ulps", "42"); ("interval", "[-1, 1]") ]
         "bound \"42\" over\nbudget")
      "fuse"
  in
  let w = D.warning ~code:"dyn-index" ~func:"take" "data-dependent" in
  (* Errors first, whatever the input order. *)
  Alcotest.(check string) "render_json"
    {|{
  "schema_version": 2,
  "diagnostics": [
    { "severity": "error", "code": "fp-budget", "func": "sm", "path": ["i", "store Y"], "message": "bound \"42\" over\nbudget", "pass": "fuse", "data": { "bound_ulps": "42", "interval": "[-1, 1]" } },
    { "severity": "warning", "code": "dyn-index", "func": "take", "path": [], "message": "data-dependent", "pass": null, "data": {} }
  ]
}|}
    (D.render_json [ w; e ]);
  Alcotest.(check string) "render_json, no diagnostics"
    "{\n  \"schema_version\": 2,\n  \"diagnostics\": []\n}" (D.render_json [])

let () =
  Alcotest.run "analysis"
    [ ( "memory-safety",
        [ Alcotest.test_case "kernel zoo proved safe" `Quick
            test_zoo_memory_safe;
          Alcotest.test_case "auto-scheduled zoo proved safe" `Quick
            test_zoo_auto_scheduled_safe;
          Alcotest.test_case "off-by-one store" `Quick test_oob_store_detected;
          Alcotest.test_case "oob load / unprovable store" `Quick
            test_oob_load_and_unproved;
          Alcotest.test_case "rank mismatch & gather" `Quick
            test_rank_mismatch_and_dyn_index;
          Alcotest.test_case "asserts" `Quick test_asserts ] );
      ( "races",
        [ Alcotest.test_case "definite races" `Quick test_race_detection;
          Alcotest.test_case "disjoint patterns" `Quick
            test_race_disjoint_patterns ] );
      ( "pipeline",
        [ Alcotest.test_case "lowered llm clean" `Quick
            test_lowered_llm_is_clean;
          Alcotest.test_case "per-pass verification" `Quick
            test_per_pass_verification ] );
      ( "well-formed",
        [ Alcotest.test_case "if-branch recursion" `Quick
            test_wf_checks_if_branches;
          Alcotest.test_case "duplicate binding" `Quick
            test_wf_duplicate_binding ] );
      ( "diagnostics",
        [ Alcotest.test_case "rendering" `Quick test_diag_rendering;
          Alcotest.test_case "json golden" `Quick test_diag_json_golden ] );
      ("json", [ Alcotest.test_case "layout" `Quick test_json_layout ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_schedules_safe ] )
    ]
