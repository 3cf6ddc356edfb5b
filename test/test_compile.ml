(* Differential suite for the compiled kernel layer (Tir.Imp_compile).

   Every kernel family in Tir.Kernels, plus schedule-transformed
   variants, runs under fixed and random shapes/inputs through
   Tir.Interp.run (the reference semantics) and the imp backend, both
   checked and bounds-elided; outputs must be bit-identical across all
   three. Also covers the kernel cache (VM and standalone), symbolic
   signatures (register-held symbolic arguments: one program serves
   every position), the Floor_div/Shift_right semantics fixes, and
   the @perf-smoke timing
   sanity check (the default imp backend must not be slower than the
   interpreter on the matmul micro case). *)

let e = Arith.Expr.const
let sym = Arith.Var.fresh
let f32 = Base.Dtype.F32

let bits_equal_exn msg (a : Base.Ndarray.t) (b : Base.Ndarray.t) =
  if a.Base.Ndarray.shape <> b.Base.Ndarray.shape then
    Alcotest.failf "%s: shapes differ" msg;
  match (a.Base.Ndarray.data, b.Base.Ndarray.data) with
  | Base.Ndarray.Float_data x, Base.Ndarray.Float_data y ->
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then
            Alcotest.failf "%s: element %d differs: %h vs %h" msg i v y.(i))
        x
  | Base.Ndarray.Int_data x, Base.Ndarray.Int_data y ->
      Array.iteri
        (fun i v ->
          if v <> y.(i) then
            Alcotest.failf "%s: element %d differs: %d vs %d" msg i v y.(i))
        x
  | _ -> Alcotest.failf "%s: storage kinds differ" msg

(* Run [k] through the interpreter and the imp backend (both checked
   and bounds-elided) on identical inputs (same seeds, separate
   arrays); all buffers — inputs included, to catch clobbering — must
   come out bit-identical across all three. [compiled] supplies the
   checked and elided imp programs, compiled earlier, instead of
   compiling them for this call, and each of [caches] runs [k] too. *)
let differential ?(sym_args = []) ?(seed = 0) ?fill ?compiled ?(caches = [])
    msg
    (k : Tir.Prim_func.t) (shapes : int array list) =
  let n = List.length k.Tir.Prim_func.params in
  let n_out = k.Tir.Prim_func.num_outputs in
  let mk () =
    List.mapi
      (fun i ((b : Tir.Buffer.t), shape) ->
        if i >= n - n_out then Base.Ndarray.create b.Tir.Buffer.dtype shape
        else begin
          let nd =
            Base.Ndarray.random_uniform
              ~seed:((31 * i) + (7 * seed) + 3)
              b.Tir.Buffer.dtype shape
          in
          (* [fill i data] overwrites input [i] in place, identically
             for every backend's copy *)
          (match (fill, Base.Ndarray.float_data nd) with
          | Some f, Some data -> f i data
          | _ -> ());
          nd
        end)
      (List.combine k.Tir.Prim_func.params shapes)
  in
  let ref_args = mk () in
  Tir.Interp.run ~sym_args k ref_args;
  let check tag run =
    let cmp_args = mk () in
    run cmp_args;
    List.iteri
      (fun i (r, c) ->
        bits_equal_exn (Printf.sprintf "%s[%s arg %d]" msg tag i) r c)
      (List.combine ref_args cmp_args)
  in
  let imp, imp_elide =
    match compiled with
    | Some pair -> pair
    | None ->
        let c elide =
          Tir.Imp_compile.compile ~sym_args ~elide_bounds:elide k shapes
        in
        (c false, c true)
  in
  check "imp" (imp sym_args);
  check "imp-elide" (imp_elide sym_args);
  List.iter
    (fun c ->
      check
        ("cached " ^ Tir.Exec.backend_name (Tir.Exec.Cache.backend c))
        (Tir.Exec.Cache.run c ~sym_args k))
    caches

(* ---------- every kernel family, fixed shapes ---------- *)

let va () = Arith.Expr.var (sym "a")
let vb () = Arith.Expr.var (sym "b")

let test_elementwise () =
  differential "exp"
    (Tir.Kernels.unary ~name:"exp"
       ~op:(fun x -> Tir.Texpr.Unop (Tir.Texpr.Exp, x))
       [ va () ] f32)
    [ [| 7 |]; [| 7 |] ];
  List.iter
    (fun (name, op) ->
      differential name
        (Tir.Kernels.unary ~name ~op [ va (); vb () ] f32)
        [ [| 3; 5 |]; [| 3; 5 |] ])
    [ ("relu", Tir.Kernels.relu);
      ("silu", Tir.Kernels.silu);
      ("gelu", Tir.Kernels.gelu);
      ("sigmoid", fun x -> Tir.Texpr.Unop (Tir.Texpr.Sigmoid, x));
      ("tanh", fun x -> Tir.Texpr.Unop (Tir.Texpr.Tanh, x));
      ("neg", fun x -> Tir.Texpr.Unop (Tir.Texpr.Neg, x)) ];
  differential "add"
    (Tir.Kernels.binary ~name:"add"
       ~op:(fun a b -> Tir.Texpr.(a +. b))
       [ va (); vb () ] f32)
    [ [| 4; 3 |]; [| 4; 3 |]; [| 4; 3 |] ];
  let a = va () and b = vb () in
  differential "broadcast_mul"
    (Tir.Kernels.broadcast_binary ~name:"bmul"
       ~op:(fun x y -> Tir.Texpr.(x *. y))
       ~lhs:[ a; b ] ~rhs:[ b ] f32)
    [ [| 4; 5 |]; [| 5 |]; [| 4; 5 |] ];
  differential "cast_f2i"
    (Tir.Kernels.cast_kernel ~name:"c1" [ va () ] ~from_:f32
       ~to_:Base.Dtype.I32)
    [ [| 6 |]; [| 6 |] ];
  differential "cast_i2f"
    (Tir.Kernels.cast_kernel ~name:"c2" [ va () ] ~from_:Base.Dtype.I32
       ~to_:f32)
    [ [| 6 |]; [| 6 |] ]

let test_matmul_family () =
  differential "matmul_weights"
    (Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e 6) ~n:(e 4) f32)
    [ [| 5; 6 |]; [| 6; 4 |]; [| 5; 4 |] ];
  differential "batched_matmul"
    (Tir.Kernels.matmul ~name:"bmm" ~batch:[ e 2 ] ~m:(va ()) ~k:(e 3)
       ~n:(e 2) f32)
    [ [| 2; 4; 3 |]; [| 2; 3; 2 |]; [| 2; 4; 2 |] ];
  differential "split_k_matmul"
    (Tir.Kernels.split_k_matmul ~name:"mmsk" ~m:(e 4) ~k:(e 8) ~n:(e 3)
       ~splits:2 f32)
    [ [| 4; 8 |]; [| 8; 3 |]; [| 4; 3 |] ]

let test_layout_kernels () =
  differential "transpose2"
    (Tir.Kernels.transpose ~name:"t2" [ va (); vb () ] ~perm:[ 1; 0 ] f32)
    [ [| 3; 4 |]; [| 4; 3 |] ];
  differential "transpose3"
    (Tir.Kernels.transpose ~name:"t3" [ e 2; e 3; e 4 ] ~perm:[ 2; 0; 1 ] f32)
    [ [| 2; 3; 4 |]; [| 4; 2; 3 |] ];
  differential "reshape"
    (Tir.Kernels.reshape ~name:"rs" ~from_:[ e 6; e 4 ] ~to_:[ e 2; e 3; e 4 ]
       f32)
    [ [| 6; 4 |]; [| 2; 3; 4 |] ];
  differential "take_rows"
    (Tir.Kernels.take_rows ~name:"tk" ~rows:(e 16) ~width:(e 3)
       ~num_indices:(va ()) f32)
    [ [| 16; 3 |]; [| 5 |]; [| 5; 3 |] ]

let test_reduction_kernels () =
  List.iter
    (fun (name, kind) ->
      differential name
        (Tir.Kernels.reduce ~name ~kind [ va (); vb () ] f32)
        [ [| 4; 6 |]; [| 4 |] ])
    [ ("rsum", `Sum); ("rmean", `Mean); ("rmax", `Max) ];
  differential "softmax"
    (Tir.Kernels.softmax_last ~name:"sm" [ va (); vb () ] f32)
    [ [| 3; 7 |]; [| 3; 7 |] ];
  differential "rms_norm"
    (Tir.Kernels.rms_norm ~name:"rn" [ va (); vb () ] ~eps:1e-5 f32)
    [ [| 3; 8 |]; [| 8 |]; [| 3; 8 |] ];
  differential "layer_norm"
    (Tir.Kernels.layer_norm ~name:"ln" [ va (); vb () ] ~eps:1e-5 f32)
    [ [| 3; 8 |]; [| 8 |]; [| 8 |]; [| 3; 8 |] ]

let test_quant_kernels () =
  differential "decode_q4"
    (Tir.Kernels.decode_q4 ~name:"q4" ~k:(e 4) ~n:(e 16) f32)
    [ [| 4; 2 |]; [| 4; 1 |]; [| 4; 16 |] ];
  differential "decode_q3"
    (Tir.Kernels.decode_q3 ~name:"q3" ~k:(e 4) ~n:(e 20) f32)
    [ [| 4; 2 |]; [| 4; 1 |]; [| 4; 20 |] ]

(* ---------- row-stream nests (Imp.Frow) ---------- *)

let has_frow (p : Tir.Imp.program) =
  Array.exists (function Tir.Imp.Frow _ -> true | _ -> false) p.Tir.Imp.code

let has_ldot (p : Tir.Imp.program) =
  Array.exists
    (function
      | Tir.Imp.Floop { op = Tir.Imp.Ldot _; _ } -> true
      | _ -> false)
    p.Tir.Imp.code

let attention_prefill n =
  Frontend.Attention.prefill ~name:"attention_prefill" ~heads:2 ~kv_heads:1
    ~head_dim:4 ~n f32

let attention_paged () =
  let len = sym "len" in
  ( len,
    Frontend.Attention.decode_paged ~name:"attention_paged" ~batch:(e 1)
      ~heads:2 ~kv_heads:1 ~head_dim:4 ~max_ctx:(e 20) ~len f32 )

let paged_shapes =
  [ [| 1; 2; 1; 4 |]; [| 1; 1; 20; 4 |]; [| 1; 1; 20; 4 |]; [| 1; 2; 1; 4 |] ]

(* A hand-built 4x4x4 reduction nest
   [for i, j: Y[i,j] = 0; for k: Y[i,j] += factor * weight], the two
   factors given as functions of the loop variables. *)
let custom_nest name ~factor ~weight =
  let x = Tir.Buffer.create "X" [ e 4; e 4 ] f32 in
  let w = Tir.Buffer.create "W" [ e 4; e 4 ] f32 in
  let y = Tir.Buffer.create "Y" [ e 4; e 4 ] f32 in
  let i = sym "i" and j = sym "j" and k = sym "k" in
  let ei = Arith.Expr.var i
  and ej = Arith.Expr.var j
  and ek = Arith.Expr.var k in
  let yi = List.map Tir.Texpr.idx [ ei; ej ] in
  let body =
    Tir.Stmt.for_ i (e 4)
      (Tir.Stmt.for_ j (e 4)
         (Tir.Stmt.seq
            [ Tir.Stmt.Store (y, yi, Tir.Texpr.f 0.0);
              Tir.Stmt.for_ k (e 4)
                (Tir.Stmt.Store
                   ( y,
                     yi,
                     Tir.Texpr.(
                       Load (y, yi)
                       +. (factor ~x ~y ei ek *. weight w ej ek)) )) ]))
  in
  Tir.Prim_func.create ~name ~params:[ x; w; y ] body

let test_row_stream_goldens () =
  let lower ?sym_args k shapes =
    Tir.Imp_compile.lower ?sym_args ~elide_bounds:false k shapes
  in
  let expect name want k ?sym_args shapes =
    Alcotest.(check bool) (name ^ " emits frow") want
      (has_frow (lower ?sym_args k shapes))
  in
  let mm =
    Tir.Kernels.matmul_weights ~name:"mm" ~m:(e 3) ~k:(e 5) ~n:(e 4) f32
  in
  expect "matmul_weights" true mm [ [| 3; 5 |]; [| 5; 4 |]; [| 3; 4 |] ];
  expect "batched matmul" true
    (Tir.Kernels.matmul ~name:"bmm" ~batch:[ e 2 ] ~m:(e 3) ~k:(e 5) ~n:(e 4)
       f32)
    [ [| 2; 3; 5 |]; [| 2; 5; 4 |]; [| 2; 3; 4 |] ];
  (* matmul + relu epilogue merged into one kernel; the matmul output
     becomes a shared-scope temp *)
  let x = Tir.Buffer.create "x" [ e 3; e 5 ] f32 in
  let w = Tir.Buffer.create "w" [ e 5; e 4 ] f32 in
  let t = Tir.Buffer.create "t" [ e 3; e 4 ] f32 in
  let y = Tir.Buffer.create "y" [ e 3; e 4 ] f32 in
  let relu =
    Tir.Kernels.unary ~name:"relu" ~op:Tir.Kernels.relu [ e 3; e 4 ] f32
  in
  let fused =
    Tir.Fuse.merge ~name:"fused_mm_relu" ~inputs:[ x; w ] ~outputs:[ y ]
      ~temps:[ t ]
      ~calls:
        [ { Tir.Fuse.callee = mm; buffer_args = [ x; w; t ]; sym_args = [] };
          { Tir.Fuse.callee = relu; buffer_args = [ t; y ]; sym_args = [] } ]
      ()
  in
  let fused_shapes = [ [| 3; 5 |]; [| 5; 4 |]; [| 3; 4 |] ] in
  expect "fused matmul + epilogue" true fused fused_shapes;
  differential "fused matmul + epilogue" fused fused_shapes;
  expect "attention_prefill" true (attention_prefill (e 5))
    [ [| 2; 5; 4 |]; [| 1; 5; 4 |]; [| 1; 5; 4 |]; [| 2; 5; 4 |] ];
  let len, paged = attention_paged () in
  expect "attention_paged" true paged ~sym_args:[ (len, 7) ] paged_shapes;
  (* the printed form names every operand, the invariant divisor
     included *)
  let printed =
    Tir.Imp.to_string
      (Tir.Imp_compile.lower ~sym_args:[ (len, 7) ] ~elide_bounds:true paged
         paged_shapes)
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length printed
      && (String.sub printed i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("printed frow has " ^ sub) true (contains sub))
    [ "frow.u j<i"; ", k<i"; "+ j] = f"; "+ k*1] / f"; "+ k*4 + j]" ];
  (* W[j, k]: stride 4 in j, so the nest stays a per-element dot *)
  let transposed =
    custom_nest "mm_wt"
      ~factor:(fun ~x ~y:_ ei ek -> Tir.Texpr.load x [ ei; ek ])
      ~weight:(fun w ej ek -> Tir.Texpr.load w [ ej; ek ])
  in
  let shapes = [ [| 4; 4 |]; [| 4; 4 |]; [| 4; 4 |] ] in
  expect "transposed weight" false transposed shapes;
  Alcotest.(check bool) "transposed weight stays on ldot" true
    (has_ldot (lower transposed shapes));
  differential "transposed weight" transposed shapes;
  (* the factor reads Y itself: the row cannot be streamed *)
  let reads_y =
    custom_nest "mm_ry"
      ~factor:(fun ~x:_ ~y ei ek -> Tir.Texpr.load y [ ei; ek ])
      ~weight:(fun w ej ek -> Tir.Texpr.load w [ ek; ej ])
  in
  expect "factor reads Y" false reads_y shapes;
  differential "factor reads Y" reads_y shapes

(* k extents 1..9 cover every remainder of the by-4 k step, and zero
   extents in j and k exercise the guards. *)
let test_row_stream_extents () =
  for kk = 0 to 9 do
    differential
      (Printf.sprintf "matmul k=%d" kk)
      (Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e kk) ~n:(e 5) f32)
      [ [| 3; kk |]; [| kk; 5 |]; [| 3; 5 |] ]
  done;
  differential "matmul n=0"
    (Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e 6) ~n:(e 0) f32)
    [ [| 3; 6 |]; [| 6; 0 |]; [| 3; 0 |] ];
  List.iter
    (fun n ->
      differential
        (Printf.sprintf "attention_prefill n=%d" n)
        (attention_prefill (va ()))
        [ [| 2; n; 4 |]; [| 1; n; 4 |]; [| 1; n; 4 |]; [| 2; n; 4 |] ];
      let len, paged = attention_paged () in
      differential ~sym_args:[ (len, n) ]
        (Printf.sprintf "attention_paged len=%d" n)
        paged paged_shapes)
    [ 1; 3; 4; 5; 17 ]

(* Signed zeros, infinities and NaNs of both signs, written over two
   of every three elements of float input [i] (integer inputs keep
   their random data): inf - inf, 0 * inf and NaN + NaN all occur, so
   NaN signs and payloads must propagate exactly as in [Interp]. *)
let special_values =
  [| -0.0; 0.0; infinity; neg_infinity; nan; -.nan; -1.0; 2.0 |]

let fill_specials i data =
  Array.iteri
    (fun p _ ->
      if (p + i) mod 3 <> 1 then
        data.(p) <-
          special_values.(((p * 5) + i) mod Array.length special_values))
    data

(* Signed zeros, infinities and NaNs: the first product after the 0.0
   init can be -0.0, and NaN payloads propagate through the same
   operation sequence, so all of it must match bit for bit. *)
let test_row_stream_specials () =
  let fill = fill_specials in
  let neg_zero i data =
    if i = 0 then Array.fill data 0 (Array.length data) (-0.0)
  in
  List.iter
    (fun kk ->
      let mm () =
        Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e kk) ~n:(e 6) f32
      in
      let shapes = [ [| 4; kk |]; [| kk; 6 |]; [| 4; 6 |] ] in
      differential ~fill (Printf.sprintf "specials k=%d" kk) (mm ()) shapes;
      differential ~fill:neg_zero
        (Printf.sprintf "-0.0 products k=%d" kk)
        (mm ()) shapes)
    [ 1; 3; 4; 5; 7; 9 ];
  differential ~fill "attention_prefill specials" (attention_prefill (va ()))
    [ [| 2; 5; 4 |]; [| 1; 5; 4 |]; [| 1; 5; 4 |]; [| 2; 5; 4 |] ];
  let len, paged = attention_paged () in
  differential ~fill ~sym_args:[ (len, 6) ] "attention_paged specials" paged
    paged_shapes;
  (* 0.0 and -0.0 are distinct constants: a -0.0 row init in a kernel
     that also stores 0.0 keeps its sign, so the -0.0 products of X =
     -0.0 and W >= 0 sum to -0.0 *)
  let mm =
    custom_nest "mm_nz"
      ~factor:(fun ~x ~y:_ ei ek -> Tir.Texpr.load x [ ei; ek ])
      ~weight:(fun w ej ek -> Tir.Texpr.load w [ ek; ej ])
  in
  let z = Tir.Buffer.create "Z" [ e 4 ] f32 in
  let rec neg_init (st : Tir.Stmt.t) : Tir.Stmt.t =
    match st with
    | Tir.Stmt.For r -> Tir.Stmt.For { r with body = neg_init r.body }
    | Tir.Stmt.Seq (Tir.Stmt.Store (b, ix, Tir.Texpr.Imm_float 0.0) :: rest) ->
        Tir.Stmt.Seq (Tir.Stmt.Store (b, ix, Tir.Texpr.f (-0.0)) :: rest)
    | st -> st
  in
  let zi = sym "zi" in
  let body =
    Tir.Stmt.seq
      [ Tir.Stmt.for_ zi (e 4)
          (Tir.Stmt.Store
             (z, [ Tir.Texpr.idx (Arith.Expr.var zi) ], Tir.Texpr.f 0.0));
        neg_init mm.Tir.Prim_func.body ]
  in
  let signed =
    match mm.Tir.Prim_func.params with
    | [ x; w; y ] ->
        Tir.Prim_func.create ~num_outputs:2 ~name:"mm_signed_zero"
          ~params:[ x; w; z; y ] body
    | _ -> assert false
  in
  let shapes = [ [| 4; 4 |]; [| 4; 4 |]; [| 4 |]; [| 4; 4 |] ] in
  Alcotest.(check bool) "-0.0 init nest emits frow" true
    (has_frow (Tir.Imp_compile.lower signed shapes));
  let neg_zero_pos_w i data =
    neg_zero i data;
    if i = 1 then Array.iteri (fun p v -> data.(p) <- Float.abs v) data
  in
  differential ~fill:neg_zero_pos_w "-0.0 row init" signed shapes

(* The same special values through every other kernel family. Row
   lengths 9 and 13 leave a remainder after the promoted loops'
   4-way unroll, and the two seeds move the specials across lanes. *)
let test_family_specials () =
  let d ?(seed = 0) name k shapes =
    differential ~seed ~fill:fill_specials name k shapes
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, op) ->
          d ~seed name
            (Tir.Kernels.unary ~name ~op [ va (); vb () ] f32)
            [ [| 3; 13 |]; [| 3; 13 |] ])
        [ ("exp", fun x -> Tir.Texpr.Unop (Tir.Texpr.Exp, x));
          ("relu", Tir.Kernels.relu);
          ("silu", Tir.Kernels.silu);
          ("gelu", Tir.Kernels.gelu);
          ("sigmoid", fun x -> Tir.Texpr.Unop (Tir.Texpr.Sigmoid, x));
          ("tanh", fun x -> Tir.Texpr.Unop (Tir.Texpr.Tanh, x));
          ("neg", fun x -> Tir.Texpr.Unop (Tir.Texpr.Neg, x)) ];
      d ~seed "add"
        (Tir.Kernels.binary ~name:"add"
           ~op:(fun a b -> Tir.Texpr.(a +. b))
           [ va (); vb () ] f32)
        [ [| 4; 9 |]; [| 4; 9 |]; [| 4; 9 |] ];
      let a = va () and b = vb () in
      d ~seed "broadcast_mul"
        (Tir.Kernels.broadcast_binary ~name:"bmul"
           ~op:(fun x y -> Tir.Texpr.(x *. y))
           ~lhs:[ a; b ] ~rhs:[ b ] f32)
        [ [| 4; 9 |]; [| 9 |]; [| 4; 9 |] ];
      List.iter
        (fun (name, kind) ->
          List.iter
            (fun r ->
              d ~seed
                (Printf.sprintf "%s r=%d" name r)
                (Tir.Kernels.reduce ~name ~kind [ va (); vb () ] f32)
                [ [| 4; r |]; [| 4 |] ])
            [ 9; 13 ])
        [ ("rsum", `Sum); ("rmean", `Mean); ("rmax", `Max) ];
      List.iter
        (fun r ->
          d ~seed
            (Printf.sprintf "softmax r=%d" r)
            (Tir.Kernels.softmax_last ~name:"sm" [ va (); vb () ] f32)
            [ [| 3; r |]; [| 3; r |] ];
          d ~seed
            (Printf.sprintf "rms_norm r=%d" r)
            (Tir.Kernels.rms_norm ~name:"rn" [ va (); vb () ] ~eps:1e-5 f32)
            [ [| 3; r |]; [| r |]; [| 3; r |] ];
          d ~seed
            (Printf.sprintf "layer_norm r=%d" r)
            (Tir.Kernels.layer_norm ~name:"ln" [ va (); vb () ] ~eps:1e-5 f32)
            [ [| 3; r |]; [| r |]; [| r |]; [| 3; r |] ])
        [ 9; 13 ];
      d ~seed "decode_q4"
        (Tir.Kernels.decode_q4 ~name:"q4" ~k:(e 5) ~n:(e 32) f32)
        [ [| 5; 4 |]; [| 5; 1 |]; [| 5; 32 |] ];
      d ~seed "decode_q3"
        (Tir.Kernels.decode_q3 ~name:"q3" ~k:(e 5) ~n:(e 20) f32)
        [ [| 5; 2 |]; [| 5; 1 |]; [| 5; 20 |] ];
      d ~seed "split_k_matmul"
        (Tir.Kernels.split_k_matmul ~name:"mmsk" ~m:(e 4) ~k:(e 16) ~n:(e 3)
           ~splits:2 f32)
        [ [| 4; 16 |]; [| 16; 3 |]; [| 4; 3 |] ];
      d ~seed "attention_decode"
        (Frontend.Attention.decode ~name:"attention_decode" ~batch:(e 1)
           ~heads:2 ~kv_heads:1 ~head_dim:4 ~m:(va ()) f32)
        [ [| 1; 2; 1; 4 |]; [| 1; 1; 9; 4 |]; [| 1; 1; 9; 4 |];
          [| 1; 2; 1; 4 |] ];
      d ~seed "rope_prefill"
        (Frontend.Attention.rope_prefill ~name:"rope" ~heads:2 ~head_dim:4
           ~n:(va ()) f32)
        [ [| 2; 9; 4 |]; [| 2; 9; 4 |] ];
      (* a squared weight is no stream: neither Frow nor Ldot matches,
         so the k loop takes the register-promoted Fma form *)
      let sq =
        custom_nest "mm_sq"
          ~factor:(fun ~x ~y:_ ei ek -> Tir.Texpr.load x [ ei; ek ])
          ~weight:(fun w ej ek ->
            Tir.Texpr.(load w [ ek; ej ] *. load w [ ek; ej ]))
      in
      let shapes = [ [| 4; 4 |]; [| 4; 4 |]; [| 4; 4 |] ] in
      Alcotest.(check bool) "squared weight lowers to fma" true
        (Array.exists
           (function Tir.Imp.Fma _ -> true | _ -> false)
           (Tir.Imp_compile.lower sq shapes).Tir.Imp.code);
      d ~seed "promoted fma" sq shapes)
    [ 0; 1 ]

(* ---------- split row streams (Imp.Pool) ---------- *)

(* [differential], plus a check that the elided run took the split
   path ([split]) or stayed serial, whenever the host has a second
   domain to split onto. *)
let split_differential ?sym_args ?fill ~split msg k shapes =
  let before = Tir.Imp.split_count () in
  differential ?sym_args ?fill msg k shapes;
  if Tir.Imp.split_width >= 2 then
    Alcotest.(check bool)
      (msg ^ if split then " ran split" else " stayed serial")
      split
      (Tir.Imp.split_count () > before)

let test_split_rows () =
  (* rows of 256 outputs or more split (every k here gives them at
     least 16384 multiply-adds); narrower rows stay serial *)
  List.iter
    (fun m ->
      List.iter
        (fun kk ->
          List.iter
            (fun n ->
              split_differential ~split:(n >= 256)
                (Printf.sprintf "split matmul m=%d k=%d n=%d" m kk n)
                (Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e kk)
                   ~n:(e n) f32)
                [ [| m; kk |]; [| kk; n |]; [| m; n |] ])
            [ 64; 200; 256; 513 ])
        [ 256; 257; 259 ])
    [ 1; 3 ];
  split_differential ~split:true "split batched matmul"
    (Tir.Kernels.matmul ~name:"bmm" ~batch:[ e 2 ] ~m:(va ()) ~k:(e 130)
       ~n:(e 264) f32)
    [ [| 2; 3; 130 |]; [| 2; 130; 264 |]; [| 2; 3; 264 |] ];
  (* matmul + silu(t) * u merged into one kernel, t a shared temp *)
  let mm =
    Tir.Kernels.matmul_weights ~name:"mm" ~m:(e 2) ~k:(e 257) ~n:(e 264) f32
  in
  let glu =
    Tir.Kernels.binary ~name:"silu_mul"
      ~op:(fun a b -> Tir.Texpr.(Tir.Kernels.silu a *. b))
      [ e 2; e 264 ] f32
  in
  let x = Tir.Buffer.create "x" [ e 2; e 257 ] f32 in
  let w = Tir.Buffer.create "w" [ e 257; e 264 ] f32 in
  let u = Tir.Buffer.create "u" [ e 2; e 264 ] f32 in
  let t = Tir.Buffer.create "t" [ e 2; e 264 ] f32 in
  let y = Tir.Buffer.create "y" [ e 2; e 264 ] f32 in
  let fused =
    Tir.Fuse.merge ~name:"fused_mm_silu_mul" ~inputs:[ x; w; u ]
      ~outputs:[ y ] ~temps:[ t ]
      ~calls:
        [ { Tir.Fuse.callee = mm; buffer_args = [ x; w; t ]; sym_args = [] };
          { Tir.Fuse.callee = glu; buffer_args = [ t; u; y ]; sym_args = [] } ]
      ()
  in
  split_differential ~split:true "split fused matmul + silu*mul" fused
    [ [| 2; 257 |]; [| 257; 264 |]; [| 2; 264 |]; [| 2; 264 |] ];
  (* the value loop of paged attention: 256 outputs (head_dim) by len
     k steps, on either side of the 16384 multiply-add threshold *)
  List.iter
    (fun (n, split) ->
      let len = sym "len" in
      let paged =
        Frontend.Attention.decode_paged ~name:"attention_paged" ~batch:(e 1)
          ~heads:2 ~kv_heads:1 ~head_dim:256 ~max_ctx:(e 64) ~len f32
      in
      split_differential ~split ~sym_args:[ (len, n) ]
        (Printf.sprintf "attention_paged head_dim=256 len=%d" n)
        paged
        [ [| 1; 2; 1; 256 |]; [| 1; 1; 64; 256 |]; [| 1; 1; 64; 256 |];
          [| 1; 2; 1; 256 |] ])
    [ (63, false); (64, true) ];
  split_differential ~split:true ~fill:fill_specials "split matmul specials"
    (Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e 257) ~n:(e 264)
       f32)
    [ [| 3; 257 |]; [| 257; 264 |]; [| 3; 264 |] ]

let test_split_bounds () =
  for width = 1 to 8 do
    for nj = 0 to 300 do
      let b = Tir.Imp.split_bounds ~width nj in
      let n = Array.length b - 1 in
      let msg = Printf.sprintf "width=%d nj=%d" width nj in
      Alcotest.(check bool) (msg ^ ": 1..width ranges") true
        (n >= 1 && n <= width);
      Alcotest.(check int) (msg ^ ": starts at 0") 0 b.(0);
      Alcotest.(check int) (msg ^ ": ends at nj") nj b.(n);
      for r = 0 to n - 1 do
        if nj > 0 then
          Alcotest.(check bool) (msg ^ ": non-empty, ordered") true
            (b.(r) < b.(r + 1));
        if r > 0 then
          Alcotest.(check int) (msg ^ ": cache-line boundary") 0
            (b.(r) mod 8)
      done
    done
  done

(* ---------- schedule-transformed variants ---------- *)

let test_scheduled_variants () =
  let mk () =
    Tir.Kernels.matmul_weights ~name:"mm" ~m:(Arith.Expr.var (sym "n"))
      ~k:(e 6) ~n:(e 10) f32
  in
  let shapes = [ [| 5; 6 |]; [| 6; 10 |]; [| 5; 10 |] ] in
  let check name f = differential name f shapes in
  let f = mk () in
  (match Tir.Schedule.loop_vars f with
  | i :: j :: _ ->
      let fd, _, _ = Tir.Schedule.split f ~loop:j ~factor:5 in
      check "split divisible" fd;
      let fg, _, _ = Tir.Schedule.split f ~loop:j ~factor:4 in
      check "split guarded" fg;
      let fs, _, _ = Tir.Schedule.split f ~loop:i ~factor:4 in
      check "split symbolic extent" fs;
      check "reorder" (Tir.Schedule.reorder f ~outer:i ~inner:j);
      check "tile 2x4" (Tir.Schedule.tile2 f ~i ~j ~ti:2 ~tj:4);
      check "parallelize" (Tir.Schedule.parallelize f ~loop:i);
      check "unroll" (Tir.Schedule.unroll f ~loop:j)
  | _ -> Alcotest.fail "expected at least two loops");
  check "auto_schedule" (Tir.Schedule.auto_schedule (mk ()))

(* ---------- qcheck: random shapes through both paths ---------- *)

let prop_random_shapes =
  QCheck.Test.make ~count:60 ~name:"compiled matches interp on random shapes"
    QCheck.(
      quad (int_range 1 8) (int_range 1 8) (int_range 1 8) (int_range 0 1000))
    (fun (a, b, c, seed) ->
      differential ~seed "rand matmul"
        (Tir.Kernels.matmul_weights ~name:"mm" ~m:(va ()) ~k:(e b) ~n:(e c)
           f32)
        [ [| a; b |]; [| b; c |]; [| a; c |] ];
      differential ~seed "rand gelu"
        (Tir.Kernels.unary ~name:"g" ~op:Tir.Kernels.gelu [ va (); vb () ] f32)
        [ [| a; b |]; [| a; b |] ];
      differential ~seed "rand softmax"
        (Tir.Kernels.softmax_last ~name:"sm" [ va (); vb () ] f32)
        [ [| a; c |]; [| a; c |] ];
      differential ~seed "rand layer_norm"
        (Tir.Kernels.layer_norm ~name:"ln" [ va (); vb () ] ~eps:1e-5 f32)
        [ [| a; b |]; [| b |]; [| b |]; [| a; b |] ];
      differential ~seed "rand reduce"
        (Tir.Kernels.reduce ~name:"r" ~kind:`Sum [ va (); vb () ] f32)
        [ [| c; a |]; [| c |] ];
      true)

let prop_random_schedules =
  QCheck.Test.make ~count:40
    ~name:"compiled matches interp under random split factors"
    QCheck.(triple (int_range 1 8) (int_range 2 5) (int_range 2 5))
    (fun (m, fi, fj) ->
      let f =
        Tir.Kernels.matmul_weights ~name:"mm" ~m:(Arith.Expr.var (sym "n"))
          ~k:(e 6) ~n:(e 10) f32
      in
      let shapes = [ [| m; 6 |]; [| 6; 10 |]; [| m; 10 |] ] in
      (match Tir.Schedule.loop_vars f with
      | i :: j :: _ ->
          let f', _, _ = Tir.Schedule.split f ~loop:i ~factor:fi in
          let f', _, _ = Tir.Schedule.split f' ~loop:j ~factor:fj in
          differential ~seed:m "rand schedule" f' shapes
      | _ -> Alcotest.fail "expected loops");
      true)

(* ---------- semantics fixes (regression) ---------- *)

let test_floor_div_float () =
  (* floor must stay in double precision: truncating through a native
     int corrupts magnitudes beyond 2^62. *)
  let k =
    Tir.Kernels.unary ~name:"fd"
      ~op:(fun x -> Tir.Texpr.Binop (Tir.Texpr.Floor_div, x, Tir.Texpr.f 2.0))
      [ e 4 ] f32
  in
  let x = Base.Ndarray.of_float_list f32 [| 4 |] [ 1e19; -7.5; 7.5; -1e19 ] in
  let expect = [ 5e18; -4.0; 3.0; -5e18 ] in
  let y_i = Base.Ndarray.create f32 [| 4 |] in
  Tir.Interp.run k [ x; y_i ];
  Alcotest.(check (list (float 0.0))) "interp floor_div" expect
    (Base.Ndarray.to_float_list y_i);
  let y_c = Base.Ndarray.create f32 [| 4 |] in
  Tir.Imp_compile.run k [ x; y_c ];
  Alcotest.(check (list (float 0.0))) "imp floor_div" expect
    (Base.Ndarray.to_float_list y_c)

let test_shift_right_arithmetic () =
  (* >> on signed ints must be an arithmetic shift: negative operands
     keep their sign instead of turning into huge positives (lsr). *)
  let i32 = Base.Dtype.I32 in
  let x = Tir.Buffer.create "X" [ e 4 ] i32 in
  let y = Tir.Buffer.create "Y" [ e 4 ] i32 in
  let body =
    Tir.Stmt.grid
      [ ("i", e 4) ]
      (fun idx ->
        Tir.Stmt.Store
          ( y,
            List.map Tir.Texpr.idx idx,
            Tir.Texpr.Binop
              (Tir.Texpr.Shift_right, Tir.Texpr.load x idx, Tir.Texpr.i 1) ))
  in
  let k = Tir.Prim_func.create ~name:"shr" ~params:[ x; y ] body in
  let input = Base.Ndarray.of_int_list i32 [| 4 |] [ -8; -1; 8; 3 ] in
  let expect = [ -4; -1; 4; 1 ] in
  let ints nd = List.map int_of_float (Base.Ndarray.to_float_list nd) in
  let y_i = Base.Ndarray.create i32 [| 4 |] in
  Tir.Interp.run k [ input; y_i ];
  Alcotest.(check (list int)) "interp asr" expect (ints y_i);
  let y_c = Base.Ndarray.create i32 [| 4 |] in
  Tir.Imp_compile.run k [ input; y_c ];
  Alcotest.(check (list int)) "imp asr" expect (ints y_c)

(* ---------- cache behavior ---------- *)

let test_cache_keying () =
  let n = sym "n" in
  let k =
    Tir.Kernels.unary ~name:"relu" ~op:Tir.Kernels.relu
      [ Arith.Expr.var n ] f32
  in
  let cache = Tir.Exec.Cache.create Tir.Exec.Imp in
  let run len =
    let x = Base.Ndarray.random_uniform ~seed:len f32 [| len |] in
    let y = Base.Ndarray.create f32 [| len |] in
    Tir.Exec.Cache.run cache k [ x; y ]
  in
  run 4;
  run 4;
  run 8;
  Alcotest.(check int) "two shape signatures compiled" 2
    (Tir.Exec.Cache.compiled_count cache);
  Alcotest.(check int) "one replay hit" 1 (Tir.Exec.Cache.hits cache);
  Alcotest.(check int) "two misses" 2 (Tir.Exec.Cache.misses cache);
  (* A distinct same-named kernel must not reuse stale code. *)
  let k2 =
    Tir.Kernels.unary ~name:"relu"
      ~op:(fun x -> Tir.Texpr.Unop (Tir.Texpr.Neg, x))
      [ Arith.Expr.var (sym "n") ]
      f32
  in
  let x = Base.Ndarray.of_float_list f32 [| 4 |] [ 1.0; -2.0; 3.0; -4.0 ] in
  let y = Base.Ndarray.create f32 [| 4 |] in
  Tir.Exec.Cache.run cache k2 [ x; y ];
  Alcotest.(check (list (float 0.0))) "replaced entry recompiles"
    [ -1.0; 2.0; -3.0; 4.0 ]
    (Base.Ndarray.to_float_list y)

let test_vm_kernel_cache () =
  let open Relax_core in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor [ e 4; e 4 ] f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          Builder.dataflow b (fun () ->
              let o1 = Builder.emit b (Expr.call_op "relu" [ Expr.Var x ]) in
              let o2 = Builder.emit b (Expr.call_op "gelu" [ Expr.Var o1 ]) in
              Expr.Var o2)
      | _ -> assert false);
  let mod_ = Builder.module_ b in
  let program =
    Relax_passes.Pipeline.compile ~device:Runtime.Device.rtx4090 mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  let x = Base.Ndarray.random_uniform ~seed:5 f32 [| 4; 4 |] in
  let r1 =
    Runtime.Vm.value_tensor (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ])
  in
  let cache = Runtime.Vm.kernel_cache vm in
  let m1 = Tir.Exec.Cache.misses cache in
  Alcotest.(check bool) "first run compiles kernels" true (m1 > 0);
  let r2 =
    Runtime.Vm.value_tensor (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ])
  in
  Alcotest.(check int) "replay compiles nothing new" m1
    (Tir.Exec.Cache.misses cache);
  Alcotest.(check bool) "replay hits the cache" true
    (Tir.Exec.Cache.hits cache >= m1);
  bits_equal_exn "replay result" r1 r2

(* ---------- proof-elision goldens ---------- *)

(* A static matmul is exactly what the verifier proves clean: the imp
   lowering must emit only unsafe accesses under elision, and the
   backend cache must record the elision decision. *)
let test_elision_proved () =
  let k =
    Tir.Kernels.matmul_weights ~name:"mm_static" ~m:(e 4) ~k:(e 4) ~n:(e 4) f32
  in
  let shapes = [ [| 4; 4 |]; [| 4; 4 |]; [| 4; 4 |] ] in
  Alcotest.(check bool) "verifier proves static matmul" true
    (Analysis.Proof.memory_safe k);
  let p = Tir.Imp_compile.lower ~elide_bounds:true k shapes in
  Alcotest.(check bool) "static matmul lowers to frow" true (has_frow p);
  let unsafe, checked = Tir.Imp.count_mem p in
  Alcotest.(check int) "no checked accesses remain" 0 checked;
  Alcotest.(check bool) "unsafe accesses present" true (unsafe > 0);
  let cache =
    Tir.Exec.Cache.create ~prove:(Analysis.Proof.prover ()) Tir.Exec.Imp
  in
  let args =
    [ Base.Ndarray.random_uniform ~seed:1 f32 [| 4; 4 |];
      Base.Ndarray.random_uniform ~seed:2 f32 [| 4; 4 |];
      Base.Ndarray.create f32 [| 4; 4 |] ]
  in
  Tir.Exec.Cache.run cache k args;
  Alcotest.(check (option bool)) "cache elided the proved kernel"
    (Some true)
    (Tir.Exec.Cache.elision_of cache "mm_static")

(* The gather kernel loads through a data-dependent row index the
   verifier cannot bound, so even with the prover installed it must
   stay on checked access. *)
let test_elision_unproved () =
  let k =
    Tir.Kernels.take_rows ~name:"tk_dyn" ~rows:(e 16) ~width:(e 3)
      ~num_indices:(e 5) f32
  in
  let shapes = [ [| 16; 3 |]; [| 5 |]; [| 5; 3 |] ] in
  Alcotest.(check bool) "verifier cannot prove the gather" false
    (Analysis.Proof.memory_safe k);
  let cache =
    Tir.Exec.Cache.create ~prove:(Analysis.Proof.prover ()) Tir.Exec.Imp
  in
  let idxs =
    Base.Ndarray.of_float_list Base.Dtype.I32 [| 5 |]
      [ 3.0; 0.0; 15.0; 7.0; 1.0 ]
  in
  let args =
    [ Base.Ndarray.random_uniform ~seed:3 f32 [| 16; 3 |];
      idxs;
      Base.Ndarray.create f32 [| 5; 3 |] ]
  in
  Tir.Exec.Cache.run cache k args;
  Alcotest.(check (option bool)) "cache kept checked access" (Some false)
    (Tir.Exec.Cache.elision_of cache "tk_dyn");
  let p = Tir.Imp_compile.lower ~elide_bounds:false k shapes in
  let unsafe, checked = Tir.Imp.count_mem p in
  Alcotest.(check int) "no unsafe accesses" 0 unsafe;
  Alcotest.(check bool) "checked accesses present" true (checked > 0)

(* ---------- backend selection round-trip ---------- *)

(* The --backend selector must round-trip through the VM's kernel
   cache: each backend compiles its own entries (a cache's backend is
   fixed at creation, so it never replays another backend's code),
   replays hit only its own entries, and all backends agree
   bit-identically. *)
let test_backend_roundtrip () =
  let open Relax_core in
  let build_program () =
    let b = Builder.create () in
    Builder.function_ b ~name:"main"
      ~params:[ ("x", Struct_info.tensor [ e 4; e 4 ] f32) ]
      (fun params ->
        match params with
        | [ x ] ->
            Builder.dataflow b (fun () ->
                let o1 =
                  Builder.emit b (Expr.call_op "relu" [ Expr.Var x ])
                in
                let o2 =
                  Builder.emit b (Expr.call_op "gelu" [ Expr.Var o1 ])
                in
                Expr.Var o2)
        | _ -> assert false);
    Relax_passes.Pipeline.compile ~device:Runtime.Device.rtx4090
      (Builder.module_ b)
  in
  let program = build_program () in
  let x = Base.Ndarray.random_uniform ~seed:11 f32 [| 4; 4 |] in
  let results =
    List.map
      (fun backend ->
        let name = Tir.Exec.backend_name backend in
        Alcotest.(check bool)
          (name ^ " name round-trips") true
          (Tir.Exec.backend_of_string name = Some backend);
        let vm = Runtime.Vm.create ~backend `Numeric program in
        let cache = Runtime.Vm.kernel_cache vm in
        Alcotest.(check string)
          (name ^ " cache carries the backend") name
          (Tir.Exec.backend_name (Tir.Exec.Cache.backend cache));
        let r1 =
          Runtime.Vm.value_tensor
            (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ])
        in
        let m1 = Tir.Exec.Cache.misses cache in
        Alcotest.(check bool)
          (name ^ " compiles fresh entries (no cross-backend reuse)")
          true (m1 > 0);
        let _ = Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ] in
        Alcotest.(check int)
          (name ^ " replay stays within its backend") m1
          (Tir.Exec.Cache.misses cache);
        (name, r1))
      Tir.Exec.all
  in
  match results with
  | (_, ref_r) :: rest ->
      List.iter
        (fun (name, r) ->
          bits_equal_exn ("backend " ^ name ^ " agrees with interp") ref_r r)
        rest
  | [] -> Alcotest.fail "no backends"

(* ---------- symbolic signatures: register-held sym args ---------- *)

let compile_cpu (built : Frontend.Llm.built) =
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds =
          Frontend.Llm.upper_bound_hints built }
    ~device:Runtime.Device.samsung_s24_cpu built.Frontend.Llm.mod_

(* 200 numeric decode steps, each at a new position and cache length:
   every kernel compiles on the first step and replays after, and the
   position-dependent kernels (RoPE, fused with the reshape before
   it, the KV write and paged attention) hold their variable in a
   register. *)
let test_symbolic_decode_steps () =
  let cfg =
    { Frontend.Configs.tiny with Frontend.Configs.max_context = 256 }
  in
  let dec = Frontend.Llm.decode_paged cfg ~batch:1 Frontend.Llm.F16 in
  let vm = Runtime.Vm.create `Numeric (compile_cpu dec) in
  let cache = Runtime.Vm.kernel_cache vm in
  let template = Frontend.Llm.args_for dec ~ctx:0 ~seed:7 ~mode:`Numeric () in
  let step pos =
    ignore
      (Runtime.Vm.run vm "decode"
         (List.mapi
            (fun i a -> if i = 1 then Runtime.Vm.Shape_val [| pos |] else a)
            template))
  in
  step 0;
  let compiled = Tir.Exec.Cache.compiled_count cache in
  Alcotest.(check bool) "first step compiles" true (compiled > 0);
  for pos = 1 to 199 do
    step pos;
    if Tir.Exec.Cache.compiled_count cache <> compiled then
      Alcotest.failf "step %d compiled %d programs (first step: %d)" pos
        (Tir.Exec.Cache.compiled_count cache) compiled
  done;
  Alcotest.(check int) "every miss was on the first step" compiled
    (Tir.Exec.Cache.misses cache);
  List.iter
    (fun (name, want) ->
      Alcotest.(check (option (list string)))
        (name ^ " register vars") (Some want)
        (Tir.Exec.Cache.register_vars_of cache name))
    [ ("fused_reshape_rope_q", [ "m" ]);
      ("fused_reshape_1_rope_k", [ "m" ]);
      ("kv_write", [ "wpos" ]);
      ("attention_paged", [ "alen" ]) ]

(* attention_prefill's [n] is shape-derived and strides its scratch
   rows, so it stays specialised: each length is its own program. A
   symbolic argument multiplied by the variable of a fused loop
   (here [w], the row stride of scratch [t] in an innermost loop over
   rows) stays specialised and keyed too, while [o], an offset in the
   same kernel, is held in a register. *)
let test_symbolic_specialised () =
  let cache = Tir.Exec.Cache.create Tir.Exec.Imp in
  let prefill = attention_prefill (va ()) in
  List.iter
    (fun n ->
      let shapes =
        [ [| 2; n; 4 |]; [| 1; n; 4 |]; [| 1; n; 4 |]; [| 2; n; 4 |] ]
      in
      Tir.Exec.Cache.run cache prefill
        (List.mapi
           (fun i sh -> Base.Ndarray.random_uniform ~seed:(n + i) f32 sh)
           shapes))
    [ 3; 5; 3 ];
  Alcotest.(check (option (list string)))
    "attention_prefill register vars" (Some [])
    (Tir.Exec.Cache.register_vars_of cache "attention_prefill");
  Alcotest.(check int) "one program per prefill length" 2
    (Tir.Exec.Cache.compiled_count cache);
  let w = sym "w" and o = sym "o" in
  let ew = Arith.Expr.var w and eo = Arith.Expr.var o in
  let x = Tir.Buffer.create "X" [ e 4; e 16 ] f32 in
  let y = Tir.Buffer.create "Y" [ e 4 ] f32 in
  let t = Tir.Buffer.create ~scope:Tir.Buffer.Shared "t" [ e 4; ew ] f32 in
  let i = sym "i" and j = sym "j" in
  let ei = Arith.Expr.var i and ej = Arith.Expr.var j in
  let body =
    Tir.Stmt.Alloc
      ( t,
        Tir.Stmt.seq
          [ Tir.Stmt.for_ j ew
              (Tir.Stmt.for_ i (e 4)
                 (Tir.Stmt.Store
                    ( t,
                      List.map Tir.Texpr.idx [ ei; ej ],
                      Tir.Texpr.load x [ ei; Arith.Expr.add ej eo ] )));
            Tir.Stmt.for_ i (e 4)
              (Tir.Stmt.seq
                 [ Tir.Stmt.Store (y, [ Tir.Texpr.idx ei ], Tir.Texpr.f 0.0);
                   Tir.Stmt.for_ j ew
                     (Tir.Stmt.Store
                        ( y,
                          [ Tir.Texpr.idx ei ],
                          Tir.Texpr.(
                            Load (y, [ idx ei ]) +. Load (t, [ idx ei; idx ej ]))
                        )) ]) ] )
  in
  let k =
    Tir.Prim_func.create ~sym_params:[ w; o ] ~name:"strided" ~params:[ x; y ]
      body
  in
  Alcotest.(check (list string)) "only the offset is a register" [ "o" ]
    (List.map Arith.Var.name (Tir.Imp_compile.register_vars k));
  let cache = Tir.Exec.Cache.create Tir.Exec.Imp in
  List.iter
    (fun (wv, ov) ->
      let sym_args = [ (w, wv); (o, ov) ] in
      differential ~sym_args
        (Printf.sprintf "strided w=%d o=%d" wv ov)
        k
        [ [| 4; 16 |]; [| 4 |] ];
      Tir.Exec.Cache.run cache ~sym_args k
        [ Base.Ndarray.random_uniform ~seed:1 f32 [| 4; 16 |];
          Base.Ndarray.create f32 [| 4 |] ])
    [ (3, 0); (3, 5); (6, 2); (6, 10) ];
  Alcotest.(check int) "keyed by w, not by o" 2
    (Tir.Exec.Cache.compiled_count cache)

(* One compiled program per kernel and elision mode serves every
   position: 0, 1, the midpoint and the last, on random and on
   special-value inputs, bit-identical to the interpreter at each. So
   does one cache entry per backend: every runner reads the call's own
   value. *)
let test_symbolic_many_values () =
  let max_ctx = 20 in
  let pos = sym "pos" in
  let rope =
    Frontend.Attention.rope_decode ~name:"rope_q" ~batch:(e 1) ~heads:2
      ~head_dim:4 ~pos f32
  in
  let wpos = sym "wpos" in
  let kvw =
    Frontend.Attention.kv_write ~name:"kv_write" ~batch:(e 1) ~kv_heads:1
      ~head_dim:4 ~max_ctx:(e max_ctx) ~pos:wpos f32
  in
  let len, paged = attention_paged () in
  let cases =
    [ (rope, pos, [ [| 1; 2; 1; 4 |]; [| 1; 2; 1; 4 |] ], [ 0; 1; 10; 19 ]);
      (kvw, wpos, [ [| 1; 1; 1; 4 |]; [| 1; 1; 20; 4 |] ], [ 0; 1; 10; 19 ]);
      (paged, len, paged_shapes, [ 0; 1; 10; 19; 20 ]) ]
  in
  List.iter
    (fun ((k : Tir.Prim_func.t), v, shapes, values) ->
      Alcotest.(check (list string))
        (k.Tir.Prim_func.name ^ " holds its variable in a register")
        [ Arith.Var.name v ]
        (List.map Arith.Var.name (Tir.Imp_compile.register_vars k));
      let c elide = Tir.Imp_compile.compile ~elide_bounds:elide k shapes in
      let compiled = (c false, c true) in
      let caches = List.map Tir.Exec.Cache.create Tir.Exec.all in
      List.iter
        (fun x ->
          let sym_args = [ (v, x) ] in
          let msg = Printf.sprintf "%s at %d" k.Tir.Prim_func.name x in
          differential ~compiled ~caches ~sym_args msg k shapes;
          differential ~compiled ~caches ~sym_args ~fill:fill_specials
            (msg ^ ", specials") k shapes)
        values;
      List.iter
        (fun cache ->
          Alcotest.(check int)
            (k.Tir.Prim_func.name ^ " cached once")
            1
            (Tir.Exec.Cache.compiled_count cache))
        caches)
    cases

(* [f] with each register-held variable replaced by a constant: the
   lowering the kernel would get if the variable were specialised. *)
let specialise (f : Tir.Prim_func.t) value =
  let regs = Tir.Imp_compile.register_vars f in
  let env =
    List.fold_left
      (fun m v -> Arith.Var.Map.add v (e value) m)
      Arith.Var.Map.empty regs
  in
  Tir.Prim_func.create
    ~sym_params:
      (List.filter
         (fun v -> not (List.exists (Arith.Var.equal v) regs))
         f.Tir.Prim_func.sym_params)
    ~num_outputs:f.Tir.Prim_func.num_outputs ~name:f.Tir.Prim_func.name
    ~params:f.Tir.Prim_func.params
    (Tir.Stmt.subst_vars env f.Tir.Prim_func.body)

(* Every zoo decode kernel with a register-held variable keeps the
   fused instructions of its constant lowering: nothing falls back to
   the generic loop because an extent or a base became a register. *)
let test_symbolic_fused_counts () =
  let count p =
    Array.fold_left
      (fun (fl, fr) ins ->
        match ins with
        | Tir.Imp.Floop _ -> (fl + 1, fr)
        | Tir.Imp.Frow _ -> (fl, fr + 1)
        | _ -> (fl, fr))
      (0, 0) p.Tir.Imp.code
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (cfg, precision) ->
      let dec = Frontend.Llm.decode_paged cfg ~batch:1 precision in
      let prog = compile_cpu dec in
      List.iter
        (fun (name, (f : Tir.Prim_func.t)) ->
          if Tir.Imp_compile.register_vars f <> [] then begin
            let shapes =
              List.map
                (fun (b : Tir.Buffer.t) ->
                  Tir.Interp.eval_shape
                    (fun v ->
                      Alcotest.failf "%s: free %s" name (Arith.Var.name v))
                    b.Tir.Buffer.shape)
                f.Tir.Prim_func.params
            in
            let value = 5 in
            let sym_args =
              List.map (fun v -> (v, value)) f.Tir.Prim_func.sym_params
            in
            let symbolic = Tir.Imp_compile.lower ~sym_args f shapes in
            let constant = Tir.Imp_compile.lower (specialise f value) shapes in
            let fl, fr = count constant in
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s %s floop/frow" cfg.Frontend.Configs.name
                 name)
              (fl, fr) (count symbolic);
            Hashtbl.replace seen f.Tir.Prim_func.name ()
          end)
        (Relax_core.Ir_module.tir_funcs prog.Runtime.Vm.mod_))
    [ (Frontend.Configs.tiny, Frontend.Llm.F16);
      (Frontend.Configs.tiny_gqa, Frontend.Llm.F16);
      (Frontend.Configs.tiny_q, Frontend.Llm.Q4);
      (Frontend.Configs.llama3_8b, Frontend.Llm.F16);
      (Frontend.Configs.phi3_mini, Frontend.Llm.Q4) ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " checked") true (Hashtbl.mem seen name))
    [ "fused_reshape_rope_q"; "fused_reshape_1_rope_k"; "kv_write";
      "attention_paged" ]

(* Register-held arguments do not loosen a signature: a symbolic
   argument that contradicts an argument shape, a shape or a
   specialised value other than the compiled one, and a missing
   argument all still raise. *)
let test_symbolic_inconsistent () =
  let raises msg f =
    match f () with
    | () -> Alcotest.failf "%s: no error" msg
    | exception Tir.Interp.Runtime_error _ -> ()
  in
  (* [n] is a symbolic argument and also a parameter dimension *)
  let n = sym "n" in
  let x = Tir.Buffer.create "X" [ Arith.Expr.var n ] f32 in
  let y = Tir.Buffer.create "Y" [ Arith.Expr.var n ] f32 in
  let i = sym "i" in
  let ei = [ Arith.Expr.var i ] in
  let k =
    Tir.Prim_func.create ~sym_params:[ n ] ~name:"scale_n" ~params:[ x; y ]
      (Tir.Stmt.for_ i (Arith.Expr.var n)
         (Tir.Stmt.Store
            ( y,
              List.map Tir.Texpr.idx ei,
              Tir.Texpr.(load x ei *. f 2.0) )))
  in
  Alcotest.(check int) "a parameter dimension stays specialised" 0
    (List.length (Tir.Imp_compile.register_vars k));
  let args () =
    [ Base.Ndarray.random_uniform ~seed:4 f32 [| 4 |];
      Base.Ndarray.create f32 [| 4 |] ]
  in
  List.iter
    (fun backend ->
      let cache = Tir.Exec.Cache.create backend in
      Tir.Exec.Cache.run cache ~sym_args:[ (n, 4) ] k (args ());
      raises
        (Tir.Exec.backend_name backend ^ ": argument contradicts a shape")
        (fun () -> Tir.Exec.Cache.run cache ~sym_args:[ (n, 5) ] k (args ())))
    Tir.Exec.all;
  let c =
    Tir.Imp_compile.compile ~sym_args:[ (n, 4) ] k [ [| 4 |]; [| 4 |] ]
  in
  c [ (n, 4) ] (args ());
  raises "specialised value changed since compilation" (fun () ->
      c [ (n, 5) ] (args ()));
  let pos = sym "pos" in
  let rope =
    Frontend.Attention.rope_decode ~name:"rope_q" ~batch:(e 1) ~heads:2
      ~head_dim:4 ~pos f32
  in
  let rope_args d =
    [ Base.Ndarray.random_uniform ~seed:2 f32 [| 1; 2; 1; d |];
      Base.Ndarray.create f32 [| 1; 2; 1; d |] ]
  in
  let c =
    Tir.Imp_compile.compile rope [ [| 1; 2; 1; 4 |]; [| 1; 2; 1; 4 |] ]
  in
  c [ (pos, 3) ] (rope_args 4);
  raises "register argument missing" (fun () -> c [] (rope_args 4));
  raises "shape changed since compilation" (fun () ->
      c [ (pos, 3) ] (rope_args 8))

(* ---------- @perf-smoke: imp must not lose to the walker ---------- *)

let test_perf_smoke () =
  let s = 48 in
  let k = Tir.Kernels.matmul_weights ~name:"mm" ~m:(e s) ~k:(e s) ~n:(e s) f32 in
  let x = Base.Ndarray.random_uniform ~seed:1 f32 [| s; s |] in
  let w = Base.Ndarray.random_uniform ~seed:2 f32 [| s; s |] in
  let y = Base.Ndarray.create f32 [| s; s |] in
  let args = [ x; w; y ] in
  let reps = 5 in
  let time f =
    f ();
    (* warm *)
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    Sys.time () -. t0
  in
  let interp_s = time (fun () -> Tir.Interp.run k args) in
  (* the backend that ships: imp through the exec cache with the
     prover installed, as the VM runs it *)
  let imp_cache =
    Tir.Exec.Cache.create ~prove:(Analysis.Proof.prover ()) Tir.Exec.default
  in
  let imp_s = time (fun () -> Tir.Exec.Cache.run imp_cache k args) in
  let ms t = t *. 1000.0 /. float_of_int reps in
  Printf.printf
    "perf-smoke matmul %dx%dx%d: interp %.2f ms/run, imp %.3f ms/run (%.1fx)\n"
    s s s (ms interp_s) (ms imp_s)
    (interp_s /. Float.max imp_s 1e-9);
  Alcotest.(check (option bool)) "imp elided the proved matmul" (Some true)
    (Tir.Exec.Cache.elision_of imp_cache "mm");
  Alcotest.(check bool) "imp <= interpreted" true (imp_s <= interp_s)

let () =
  Alcotest.run "compile"
    [ ( "differential",
        [ Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "matmul family" `Quick test_matmul_family;
          Alcotest.test_case "layout kernels" `Quick test_layout_kernels;
          Alcotest.test_case "reductions" `Quick test_reduction_kernels;
          Alcotest.test_case "quantized decode" `Quick test_quant_kernels;
          Alcotest.test_case "scheduled variants" `Quick
            test_scheduled_variants;
          Alcotest.test_case "row-stream lowering goldens" `Quick
            test_row_stream_goldens;
          Alcotest.test_case "row-stream extents" `Quick
            test_row_stream_extents;
          Alcotest.test_case "row-stream special values" `Quick
            test_row_stream_specials;
          Alcotest.test_case "special values, every family" `Quick
            test_family_specials;
          Alcotest.test_case "split rows" `Quick test_split_rows;
          Alcotest.test_case "split bounds" `Quick test_split_bounds ] );
      ( "random",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_shapes; prop_random_schedules ] );
      ( "semantics",
        [ Alcotest.test_case "floor_div float" `Quick test_floor_div_float;
          Alcotest.test_case "shift_right arithmetic" `Quick
            test_shift_right_arithmetic ] );
      ( "cache",
        [ Alcotest.test_case "shape-signature keying" `Quick test_cache_keying;
          Alcotest.test_case "vm kernel cache" `Quick test_vm_kernel_cache ] );
      ( "elision",
        [ Alcotest.test_case "proved kernel elides" `Quick test_elision_proved;
          Alcotest.test_case "unproved kernel stays checked" `Quick
            test_elision_unproved ] );
      ( "backend",
        [ Alcotest.test_case "selector round-trips through caches" `Quick
            test_backend_roundtrip ] );
      ( "symbolic",
        [ Alcotest.test_case "200 decode steps compile once" `Quick
            test_symbolic_decode_steps;
          Alcotest.test_case "strides and shapes stay specialised" `Quick
            test_symbolic_specialised;
          Alcotest.test_case "one program, many values" `Quick
            test_symbolic_many_values;
          Alcotest.test_case "fused instructions kept" `Quick
            test_symbolic_fused_counts;
          Alcotest.test_case "inconsistent bindings raise" `Quick
            test_symbolic_inconsistent ] );
      ("perf_smoke", [ Alcotest.test_case "matmul" `Quick test_perf_smoke ])
    ]
