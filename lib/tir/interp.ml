exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type value = I of int | F of float

let to_f = function F x -> x | I x -> float_of_int x
let to_i = function
  | I x -> x
  | F x -> fail "expected an integer value, got float %g" x

let truth = function I 0 -> false | I _ -> true | F x -> x <> 0.0

let erf x =
  (* Abramowitz & Stegun 7.1.26; max abs error 1.5e-7. *)
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = abs_float x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429 in
  let poly = ((((a5 *. t) +. a4) *. t +. a3) *. t +. a2) *. t +. a1 in
  sign *. (1.0 -. (poly *. t *. exp (-.(x *. x))))

(* A single mutable environment threaded through execution. *)
type env = {
  vars : (int, int) Hashtbl.t; (* Arith var id -> value *)
  bufs : (int, Base.Ndarray.t) Hashtbl.t; (* Buffer id -> storage *)
}

let var_value vars (v : Arith.Var.t) =
  match Hashtbl.find_opt vars v.Arith.Var.id with
  | Some x -> x
  | None -> fail "unbound symbolic variable %s" (Arith.Var.name v)

let eval_arith env e = Arith.Expr.eval (var_value env.vars) e

let buffer_of env (b : Buffer.t) =
  match Hashtbl.find_opt env.bufs b.Buffer.id with
  | Some nd -> nd
  | None -> fail "unbound buffer %s" b.Buffer.name

let rec eval_expr env (e : Texpr.t) : value =
  match e with
  | Texpr.Imm_int c -> I c
  | Texpr.Imm_float x -> F x
  | Texpr.Idx ie -> I (eval_arith env ie)
  | Texpr.Load (b, idxs) ->
      let nd = buffer_of env b in
      let idx = Array.of_list (List.map (fun i -> to_i (eval_expr env i)) idxs) in
      if Base.Dtype.is_float b.Buffer.dtype then F (Base.Ndarray.get_float nd idx)
      else I (Base.Ndarray.get_int nd idx)
  | Texpr.Binop (op, a, b) -> eval_binop env op a b
  | Texpr.Unop (op, a) -> eval_unop op (eval_expr env a)
  | Texpr.Cast (dt, a) -> (
      let v = eval_expr env a in
      if Base.Dtype.is_float dt then F (to_f v)
      else
        match v with I x -> I x | F x -> I (int_of_float x))
  | Texpr.Select (c, a, b) ->
      if truth (eval_expr env c) then eval_expr env a else eval_expr env b

and eval_binop env op ea eb =
  let a = eval_expr env ea and b = eval_expr env eb in
  let bool_ x = I (if x then 1 else 0) in
  match (op, a, b) with
  | Texpr.Add, I x, I y -> I (x + y)
  | Texpr.Add, _, _ -> F (to_f a +. to_f b)
  | Texpr.Sub, I x, I y -> I (x - y)
  | Texpr.Sub, _, _ -> F (to_f a -. to_f b)
  | Texpr.Mul, I x, I y -> I (x * y)
  | Texpr.Mul, _, _ -> F (to_f a *. to_f b)
  | Texpr.Div, I x, I y ->
      if y = 0 then fail "integer division by zero" else I (x / y)
  | Texpr.Div, _, _ -> F (to_f a /. to_f b)
  | Texpr.Floor_div, I x, I y ->
      if y = 0 then fail "floordiv by zero" else I (Arith.Expr.fdiv x y)
  | Texpr.Floor_div, _, _ -> F (floor (to_f a /. to_f b))
  | Texpr.Floor_mod, I x, I y ->
      if y = 0 then fail "floormod by zero" else I (Arith.Expr.fmod x y)
  | Texpr.Floor_mod, _, _ -> F (Float.rem (to_f a) (to_f b))
  | Texpr.Min, I x, I y -> I (min x y)
  | Texpr.Min, _, _ -> F (Float.min (to_f a) (to_f b))
  | Texpr.Max, I x, I y -> I (max x y)
  | Texpr.Max, _, _ -> F (Float.max (to_f a) (to_f b))
  | Texpr.Pow, _, _ -> F (Float.pow (to_f a) (to_f b))
  | Texpr.Bit_and, _, _ -> I (to_i a land to_i b)
  | Texpr.Bit_or, _, _ -> I (to_i a lor to_i b)
  | Texpr.Bit_xor, _, _ -> I (to_i a lxor to_i b)
  | Texpr.Shift_left, _, _ -> I (to_i a lsl to_i b)
  | Texpr.Shift_right, _, _ -> I (to_i a asr to_i b)
  | Texpr.Eq, I x, I y -> bool_ (x = y)
  | Texpr.Eq, _, _ -> bool_ (to_f a = to_f b)
  | Texpr.Ne, I x, I y -> bool_ (x <> y)
  | Texpr.Ne, _, _ -> bool_ (to_f a <> to_f b)
  | Texpr.Lt, I x, I y -> bool_ (x < y)
  | Texpr.Lt, _, _ -> bool_ (to_f a < to_f b)
  | Texpr.Le, I x, I y -> bool_ (x <= y)
  | Texpr.Le, _, _ -> bool_ (to_f a <= to_f b)
  | Texpr.Gt, I x, I y -> bool_ (x > y)
  | Texpr.Gt, _, _ -> bool_ (to_f a > to_f b)
  | Texpr.Ge, I x, I y -> bool_ (x >= y)
  | Texpr.Ge, _, _ -> bool_ (to_f a >= to_f b)
  | Texpr.And, _, _ -> bool_ (truth a && truth b)
  | Texpr.Or, _, _ -> bool_ (truth a || truth b)

and eval_unop op v =
  match op with
  | Texpr.Neg -> ( match v with I x -> I (-x) | F x -> F (-.x))
  | Texpr.Exp -> F (exp (to_f v))
  | Texpr.Log -> F (log (to_f v))
  | Texpr.Sqrt -> F (sqrt (to_f v))
  | Texpr.Rsqrt -> F (1.0 /. sqrt (to_f v))
  | Texpr.Tanh -> F (tanh (to_f v))
  | Texpr.Sigmoid -> F (1.0 /. (1.0 +. exp (-.to_f v)))
  | Texpr.Erf -> F (erf (to_f v))
  | Texpr.Abs -> ( match v with I x -> I (abs x) | F x -> F (abs_float x))
  | Texpr.Not -> I (if truth v then 0 else 1)
  | Texpr.Cos -> F (cos (to_f v))
  | Texpr.Sin -> F (sin (to_f v))

let rec exec env (s : Stmt.t) =
  match s with
  | Stmt.Seq ss -> List.iter (exec env) ss
  | Stmt.For { var; extent; kind = _; body } ->
      let n = eval_arith env extent in
      for i = 0 to n - 1 do
        Hashtbl.replace env.vars var.Arith.Var.id i;
        exec env body
      done;
      Hashtbl.remove env.vars var.Arith.Var.id
  | Stmt.Store (b, idxs, v) ->
      let nd = buffer_of env b in
      let idx = Array.of_list (List.map (fun i -> to_i (eval_expr env i)) idxs) in
      let value = eval_expr env v in
      if Base.Dtype.is_float b.Buffer.dtype then
        Base.Ndarray.set_float nd idx (to_f value)
      else Base.Ndarray.set_int nd idx (to_i value)
  | Stmt.If (c, t, e) ->
      if truth (eval_expr env c) then exec env t
      else ( match e with Some e -> exec env e | None -> ())
  | Stmt.Alloc (b, body) ->
      let shape =
        Array.of_list (List.map (eval_arith env) b.Buffer.shape)
      in
      Hashtbl.replace env.bufs b.Buffer.id
        (Base.Ndarray.create b.Buffer.dtype shape);
      exec env body;
      Hashtbl.remove env.bufs b.Buffer.id
  | Stmt.Assert (c, msg) ->
      if not (truth (eval_expr env c)) then fail "assertion failed: %s" msg
  | Stmt.Evaluate e -> ignore (eval_expr env e)

let eval_shape lookup dims =
  Array.of_list (List.map (Arith.Expr.eval lookup) dims)

(* Bind symbolic variables by unifying declared parameter shapes with
   actual argument shapes; check non-variable dims once bound. *)
let unify_shapes sym (f : Prim_func.t) (arg_shapes : int array list) =
  let deferred = ref [] in
  List.iter2
    (fun (b : Buffer.t) (actual : int array) ->
      let declared = b.Buffer.shape in
      if List.length declared <> Array.length actual then
        fail "%s: buffer %s rank mismatch (declared %d, got %d)"
          f.Prim_func.name b.Buffer.name (List.length declared)
          (Array.length actual);
      List.iteri
        (fun d dim ->
          match dim with
          | Arith.Expr.Const c ->
              if c <> actual.(d) then
                fail "%s: buffer %s dim %d mismatch (declared %d, got %d)"
                  f.Prim_func.name b.Buffer.name d c actual.(d)
          | Arith.Expr.Var v -> (
              match Hashtbl.find_opt sym v.Arith.Var.id with
              | Some bound ->
                  if bound <> actual.(d) then
                    fail
                      "%s: symbolic variable %s bound inconsistently (%d vs %d)"
                      f.Prim_func.name (Arith.Var.name v) bound actual.(d)
              | None -> Hashtbl.replace sym v.Arith.Var.id actual.(d))
          | Arith.Expr.Add _ | Arith.Expr.Sub _ | Arith.Expr.Mul _
          | Arith.Expr.Floor_div _ | Arith.Expr.Floor_mod _ | Arith.Expr.Min _
          | Arith.Expr.Max _ ->
              deferred := (b.Buffer.name, d, dim, actual.(d)) :: !deferred)
        declared)
    f.Prim_func.params arg_shapes;
  List.iter
    (fun (bname, d, dim, actual) ->
      let v = Arith.Expr.eval (var_value sym) dim in
      if v <> actual then
        fail "%s: buffer %s dim %d: %s = %d but argument has %d"
          f.Prim_func.name bname d (Arith.Expr.to_string dim) v actual)
    !deferred

let run ?(sym_args = []) (f : Prim_func.t) args =
  if List.length args <> List.length f.Prim_func.params then
    fail "%s: expected %d buffer arguments, got %d" f.Prim_func.name
      (List.length f.Prim_func.params)
      (List.length args);
  let env = { vars = Hashtbl.create 16; bufs = Hashtbl.create 16 } in
  List.iter
    (fun (v, x) -> Hashtbl.replace env.vars v.Arith.Var.id x)
    sym_args;
  unify_shapes env.vars f
    (List.map (fun (nd : Base.Ndarray.t) -> nd.Base.Ndarray.shape) args);
  List.iter2
    (fun (b : Buffer.t) nd -> Hashtbl.replace env.bufs b.Buffer.id nd)
    f.Prim_func.params args;
  exec env f.Prim_func.body
