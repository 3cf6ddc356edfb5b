open Relax_core

type stats = {
  mutable elapsed_us : float;
  mutable ops : int;
  mutable peak_bytes : int;
}

type mode = [ `Numeric | `Timed of Runtime.Device.t ]

let host_overhead_us = 12.0

type env = {
  mode : mode;
  mod_ : Ir_module.t;
  vars : (int, Runtime.Vm.value) Hashtbl.t;  (** Rvar id -> value *)
  sym : (int, int) Hashtbl.t;  (** Arith var id -> value *)
  kcache : Tir.Exec.Cache.t;  (** compiled kernels, per shape signature *)
  st : stats;
  mutable live_bytes : int;
}

let fail fmt = Format.kasprintf failwith fmt

let value_of env (v : Rvar.t) =
  match Hashtbl.find_opt env.vars v.Rvar.id with
  | Some x -> x
  | None -> fail "Eager: variable %s unbound" (Rvar.name v)

let sym_lookup env (v : Arith.Var.t) =
  match Hashtbl.find_opt env.sym v.Arith.Var.id with
  | Some x -> x
  | None -> fail "Eager: symbolic variable %s unbound" (Arith.Var.name v)

(* Bind symbolic variables from a runtime value's shape. *)
let bind_shape env (sinfo : Struct_info.t) (value : Runtime.Vm.value) =
  match (sinfo, value) with
  | Struct_info.Tensor { shape = Struct_info.Known dims; _ }, _
  | Struct_info.Shape (Struct_info.Known dims), _ ->
      let actual = Runtime.Vm.value_shape value in
      List.iteri
        (fun i dim ->
          match dim with
          | Arith.Expr.Var v ->
              Hashtbl.replace env.sym v.Arith.Var.id actual.(i)
          | _ -> ())
        dims
  | _, _ -> ()

let alloc_tensor env dtype shape =
  let bytes =
    Array.fold_left ( * ) 1 shape * Base.Dtype.size_in_bytes dtype
  in
  env.live_bytes <- env.live_bytes + bytes;
  if env.live_bytes > env.st.peak_bytes then env.st.peak_bytes <- env.live_bytes;
  match env.mode with
  | `Numeric -> Runtime.Vm.tensor (Base.Ndarray.create dtype shape)
  | `Timed _ -> Runtime.Vm.Shadow { shape; dtype }

let charge env kernel lookup =
  env.st.ops <- env.st.ops + 1;
  match env.mode with
  | `Numeric -> env.st.elapsed_us <- env.st.elapsed_us +. host_overhead_us
  | `Timed dev ->
      let cost = Tir.Cost.analyze kernel in
      let flops = float_of_int (Arith.Expr.eval lookup cost.Tir.Cost.flops) in
      let bytes =
        float_of_int
          (Arith.Expr.eval lookup cost.Tir.Cost.bytes_read
          + Arith.Expr.eval lookup cost.Tir.Cost.bytes_written)
      in
      let t =
        Runtime.Device.kernel_time_us dev ~flops ~bytes
          ~compute_eff:dev.Runtime.Device.gen_eff
      in
      env.st.elapsed_us <-
        env.st.elapsed_us +. t +. dev.Runtime.Device.launch_overhead_us
        +. host_overhead_us

(* Execute one tensor program on runtime values. *)
let run_kernel env (kernel : Tir.Prim_func.t) (args : Runtime.Vm.value list)
    (sym_args : (Arith.Var.t * int) list) (out : Runtime.Vm.value) =
  let all = args @ [ out ] in
  let shapes = List.map Runtime.Vm.value_shape all in
  (* Recover the kernel's symbolic env from shapes for costing. *)
  let kenv = Hashtbl.create 8 in
  List.iter
    (fun ((v : Arith.Var.t), x) -> Hashtbl.replace kenv v.Arith.Var.id x)
    sym_args;
  List.iter2
    (fun (b : Tir.Buffer.t) shape ->
      List.iteri
        (fun d dim ->
          match dim with
          | Arith.Expr.Var v ->
              if not (Hashtbl.mem kenv v.Arith.Var.id) then
                Hashtbl.replace kenv v.Arith.Var.id shape.(d)
          | _ -> ())
        b.Tir.Buffer.shape)
    kernel.Tir.Prim_func.params shapes;
  let lookup (v : Arith.Var.t) =
    match Hashtbl.find_opt kenv v.Arith.Var.id with
    | Some x -> x
    | None -> fail "Eager: kernel %s variable %s unbound" kernel.Tir.Prim_func.name (Arith.Var.name v)
  in
  charge env kernel lookup;
  match env.mode with
  | `Numeric ->
      Tir.Exec.Cache.run env.kcache ~sym_args kernel
        (List.map Runtime.Vm.value_tensor all)
  | `Timed _ -> ()

let eval_dims env dims =
  Array.of_list (List.map (Arith.Expr.eval (sym_lookup env)) dims)

let rec eval_expr env (e : Expr.expr) : Runtime.Vm.value =
  match e with
  | Expr.Var v -> value_of env v
  | Expr.Const nd -> Runtime.Vm.tensor nd
  | Expr.Shape_expr dims -> Runtime.Vm.Shape_val (eval_dims env dims)
  | Expr.Tuple es -> Runtime.Vm.Tuple_val (List.map (eval_expr env) es)
  | Expr.Tuple_get (e, i) -> (
      match eval_expr env e with
      | Runtime.Vm.Tuple_val vs -> List.nth vs i
      | _ -> fail "Eager: tuple_get on non-tuple")
  | Expr.Call c -> eval_call env c
  | Expr.Prim_value p ->
      Runtime.Vm.Shape_val [| Arith.Expr.eval (sym_lookup env) p |]
  | Expr.Seq { blocks; body } ->
      List.iter
        (fun (blk : Expr.block) ->
          List.iter
            (fun binding ->
              let v = Expr.binding_var binding in
              let value = eval_expr env (Expr.bound_expr binding) in
              Hashtbl.replace env.vars v.Rvar.id value;
              bind_shape env (Rvar.sinfo v) value)
            blk.Expr.bindings)
        blocks;
      eval_expr env body
  | Expr.If { cond; then_; else_ } ->
      let truthy =
        match eval_expr env cond with
        | Runtime.Vm.Tensor nd ->
            Base.Ndarray.numel nd > 0 && Base.Ndarray.get_flat_float nd 0 <> 0.0
        | Runtime.Vm.Shape_val [| x |] -> x <> 0
        | _ -> fail "Eager: non-scalar condition"
      in
      eval_expr env (if truthy then then_ else else_)
  | Expr.Global_var _ | Expr.Extern_func _ | Expr.Op _ ->
      fail "Eager: unsupported expression"

and eval_call env (c : Expr.call) : Runtime.Vm.value =
  match Expr.as_call_tir (Expr.Call c) with
  | Some (kname, args, out_sinfo, sym_exprs) -> (
      match Ir_module.find_tir env.mod_ kname with
      | Some kernel ->
          let arg_vals = List.map (eval_expr env) args in
          let dims =
            match Struct_info.tensor_shape out_sinfo with
            | Some dims -> eval_dims env dims
            | None -> fail "Eager: call_tir without known output shape"
          in
          let dtype =
            match Struct_info.tensor_dtype out_sinfo with
            | Some dt -> dt
            | None -> Base.Dtype.F32
          in
          let out = alloc_tensor env dtype dims in
          let sym_args =
            List.map2
              (fun v e -> (v, Arith.Expr.eval (sym_lookup env) e))
              kernel.Tir.Prim_func.sym_params sym_exprs
          in
          run_kernel env kernel arg_vals sym_args out;
          out
      | None -> fail "Eager: kernel %s not found" kname)
  | None -> (
      match c.Expr.callee with
      | Expr.Op name -> (
          let args = c.Expr.args in
          let arg_vals = List.map (eval_expr env) args in
          let arg_sinfo =
            List.map
              (fun v ->
                match v with
                | Runtime.Vm.Tensor nd ->
                    Struct_info.tensor
                      (List.map Arith.Expr.const
                         (Array.to_list nd.Base.Ndarray.shape))
                      nd.Base.Ndarray.dtype
                | Runtime.Vm.Shadow { shape; dtype } ->
                    Struct_info.tensor
                      (List.map Arith.Expr.const (Array.to_list shape))
                      dtype
                | Runtime.Vm.Shape_val dims ->
                    Struct_info.shape
                      (List.map Arith.Expr.const (Array.to_list dims))
                | _ -> Struct_info.Object)
              arg_vals
          in
          (* Concretize shape-typed literal args so legalizers see
             static shapes. *)
          let args_concrete =
            List.map
              (fun a ->
                match a with
                | Expr.Shape_expr dims ->
                    Expr.Shape_expr
                      (List.map
                         (fun d ->
                           Arith.Expr.const
                             (Arith.Expr.eval (sym_lookup env) d))
                         dims)
                | a -> a)
              args
          in
          match Op.legalizer name with
          | None -> fail "Eager: operator %s has no legalizer" name
          | Some legalize -> (
              let rule =
                match Op.deduce_rule name with
                | Some r -> r
                | None -> fail "Eager: operator %s has no rule" name
              in
              let out_sinfo = rule ~args:args_concrete ~arg_sinfo in
              match legalize ~args:args_concrete ~arg_sinfo ~out:out_sinfo with
              | None -> fail "Eager: %s not legalizable" name
              | Some { Op.kernel; tensor_args; sym_args } ->
                  let tensor_vals =
                    List.map
                      (fun a ->
                        match a with
                        | Expr.Var _ | Expr.Const _ -> eval_expr env a
                        | _ ->
                            (* positional: match original arg values *)
                            let idx =
                              match
                                List.find_index (fun x -> x == a) args_concrete
                              with
                              | Some i -> i
                              | None -> 0
                            in
                            List.nth arg_vals idx)
                      tensor_args
                  in
                  let dims =
                    match Struct_info.tensor_shape out_sinfo with
                    | Some dims -> eval_dims env dims
                    | None -> fail "Eager: %s output shape unknown" name
                  in
                  let dtype =
                    match Struct_info.tensor_dtype out_sinfo with
                    | Some dt -> dt
                    | None -> Base.Dtype.F32
                  in
                  let out = alloc_tensor env dtype dims in
                  let sym_bindings =
                    List.map2
                      (fun v e -> (v, Arith.Expr.eval (sym_lookup env) e))
                      kernel.Tir.Prim_func.sym_params sym_args
                  in
                  run_kernel env kernel tensor_vals sym_bindings out;
                  out))
      | _ -> fail "Eager: unsupported callee")

let run ?(entry = "main") ?(backend = Tir.Exec.default) mode mod_ args =
  let f =
    match Ir_module.find_func mod_ entry with
    | Some f -> f
    | None -> fail "Eager: function %s not found" entry
  in
  let env =
    {
      mode;
      mod_;
      vars = Hashtbl.create 64;
      sym = Hashtbl.create 16;
      kcache = Tir.Exec.Cache.create ~prove:(Analysis.Proof.prover ()) backend;
      st = { elapsed_us = 0.0; ops = 0; peak_bytes = 0 };
      live_bytes = 0;
    }
  in
  List.iter2
    (fun (p : Rvar.t) v ->
      Hashtbl.replace env.vars p.Rvar.id v;
      bind_shape env (Rvar.sinfo p) v)
    f.Expr.params args;
  let blocks, result = Expr.body_blocks f in
  List.iter
    (fun (blk : Expr.block) ->
      List.iter
        (fun binding ->
          let v = Expr.binding_var binding in
          let value = eval_expr env (Expr.bound_expr binding) in
          Hashtbl.replace env.vars v.Rvar.id value;
          bind_shape env (Rvar.sinfo v) value)
        blk.Expr.bindings)
    blocks;
  (eval_expr env result, env.st)
