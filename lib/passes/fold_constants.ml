open Relax_core

let const_args args =
  List.for_all
    (fun a ->
      match a with
      | Expr.Const _ -> true
      | Expr.Shape_expr dims -> List.for_all Arith.Expr.is_const dims
      | _ -> false)
    args

let try_fold (e : Expr.expr) : Base.Ndarray.t option =
  match e with
  | Expr.Call { callee = Expr.Op name; args; sinfo_args = [] }
    when const_args args && Op.legalizer name <> None -> (
      let arg_sinfo =
        List.map
          (fun a ->
            match a with
            | Expr.Const nd ->
                Struct_info.tensor
                  (List.map Arith.Expr.const (Array.to_list nd.Base.Ndarray.shape))
                  nd.Base.Ndarray.dtype
            | Expr.Shape_expr dims -> Struct_info.shape dims
            | _ -> Struct_info.Object)
          args
      in
      match Op.deduce_rule name with
      | None -> None
      | Some rule -> (
          match rule ~args ~arg_sinfo with
          | exception Op.Deduce_error _ -> None
          | out_sinfo -> (
              match (Op.legalizer name, Struct_info.tensor_shape out_sinfo) with
              | Some legalize, Some out_dims -> (
                  match legalize ~args ~arg_sinfo ~out:out_sinfo with
                  | None -> None
                  | Some { Op.kernel; tensor_args; sym_args = _ } -> (
                      let inputs =
                        List.filter_map
                          (fun a ->
                            match a with Expr.Const nd -> Some nd | _ -> None)
                          tensor_args
                      in
                      let dtype =
                        match Struct_info.tensor_dtype out_sinfo with
                        | Some dt -> dt
                        | None -> Base.Dtype.F32
                      in
                      let shape =
                        Array.of_list
                          (List.map
                             (fun d ->
                               match Arith.Expr.as_const d with
                               | Some c -> c
                               | None -> -1)
                             out_dims)
                      in
                      if Array.exists (fun d -> d < 0) shape then None
                      else
                        let out = Base.Ndarray.create dtype shape in
                        match
                          Tir.Imp_compile.run kernel (inputs @ [ out ])
                        with
                        | () -> Some out
                        | exception Tir.Interp.Runtime_error _ -> None))
              | _, _ -> None)))
  | _ -> None

let run_func _mod (f : Expr.func) =
  (* Iterate: folding one binding can make its consumers foldable, but
     consumers see Vars, not Consts — so propagate a constant
     environment through the block. *)
  let consts = Hashtbl.create 16 in
  let substitute (e : Expr.expr) =
    match e with
    | Expr.Call c ->
        Expr.Call
          {
            c with
            Expr.args =
              List.map
                (fun a ->
                  match a with
                  | Expr.Var v -> (
                      match Hashtbl.find_opt consts v.Rvar.id with
                      | Some nd -> Expr.Const nd
                      | None -> a)
                  | a -> a)
                c.Expr.args;
          }
    | e -> e
  in
  Util.map_func_bindings
    (fun b ->
      match b with
      | Expr.Bind (v, e) -> (
          let e' = substitute e in
          match try_fold e' with
          | Some nd ->
              Hashtbl.replace consts v.Rvar.id nd;
              [ Expr.Bind (v, Expr.Const nd) ]
          | None -> [ Expr.Bind (v, e) ])
      | Expr.Match_cast _ -> [ b ])
    f

let run mod_ = Ir_module.map_funcs (fun _ f -> run_func mod_ f) mod_
