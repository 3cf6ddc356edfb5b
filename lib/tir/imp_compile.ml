(* Lower tensor programs (Stmt.t) to the flat imperative IR (Imp).

   Where {!Interp} walks the AST per element with boxed values and
   hashtable lookups, this module emits a flat instruction stream once
   per (kernel, symbolic signature):

   - a symbolic argument ([sym_params]) that only sizes loops and
     scratch rows, offsets addresses or feeds float values lives in an
     int register filled from the call's [sym_args] when the kernel
     is bound ({!register_vars}), so one program serves every value;
     every other symbolic variable (shape-derived ones included)
     resolves to a constant, so strides and the stream strides of the
     fused templates below stay immediates;
   - loop-invariant *index* arithmetic is hoisted: every pure integer
     expression is emitted at the loop level of its deepest loop
     variable and memoized there (so a row base [i*K] is computed once
     per [i], not once per inner element);
   - buffer accesses are flat offsets into the raw storage arrays,
     with checked or unsafe element access chosen at compile time
     (see the proof-elision contract in DESIGN.md §12);
   - innermost single-store loops whose store value matches one of the
     {!Imp.floop_op} templates (strided reductions, streaming maps)
     fuse into a single [Imp.Floop] superinstruction whose trip loop
     runs natively, eliminating per-element dispatch entirely;
   - a loop whose body is a row-stream reduction nest
     [Y[..j..] = c; for k: Y[..j..] += a(k) * W[..k..j..]] with [Y]
     and [W] unit-stride in [j] (matmul rows, attention's value loop)
     lowers to one [Imp.Frow] that runs k-outer, j-inner: each output
     element still sees [c] and then the same two-rounding updates in
     the same [k] order, while [W] is read along rows instead of down
     columns;
   - remaining innermost single-store loops are unrolled by 4, and
     float reductions whose accumulator address is loop-invariant are
     promoted to a register with a fused-dispatch multiply-accumulate
     ([Imp.Fma] — two IEEE roundings, bit-identical to the
     interpreter's [load +. (a *. b)]).

   Float expressions (loads included) are never hoisted or shared —
   they are emitted in statement order exactly where {!Interp} would
   evaluate them — so store/load orderings, and thus results, are
   bit-identical to {!Interp}. The only sanctioned divergences are on
   invalid programs: the exact raise site of an out-of-bounds access
   can shift across an unrolled loop's pre-header, and elided kernels
   skip bounds checks that {!Analysis.Tir_safety} proved
   unreachable. *)

let fail fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

(* ---------- lowering context ---------- *)

type item = Ins of Imp.instr | Lbl of int

(* One open loop level: its (reversed) item stream plus the memo table
   of pure index expressions already computed at this level. *)
type level = {
  mutable items : item list;
  mutable imemo : (Arith.Expr.t, int) Hashtbl.t;
}

type bslot = {
  index : int;  (* position in the program's buffer file *)
  is_float : bool;
  strides : Arith.Expr.t array;  (* constants, or over register vars *)
}

type ctx = {
  sym : (int, int) Hashtbl.t;  (* specialised var id -> constant *)
  var_reg : (int, int * int) Hashtbl.t;
      (* loop var id -> (ireg, depth); register-held symbolic
         arguments sit at depth 0 *)
  bufs : (int, bslot) Hashtbl.t;
  mutable levels : level list;  (* head = innermost open loop *)
  mutable n_ireg : int;
  mutable n_freg : int;
  mutable n_buf : int;
  mutable n_lbl : int;
  ipool : (int, int) Hashtbl.t;  (* int constant -> level-0 ireg *)
  fpool : (int64, int) Hashtbl.t;  (* keyed by bits: 0.0 <> -0.0 *)
  elide : bool;  (* proved safe: emit unsafe loads/stores *)
  (* reduction promotion: loads of (buffer id, these indices) read the
     accumulator register instead of memory *)
  mutable acc : (int * Texpr.t list * int) option;
}

let depth ctx = List.length ctx.levels - 1
let cur ctx = List.hd ctx.levels
let level_at ctx d = List.nth ctx.levels (depth ctx - d)

let emit_at ctx d ins =
  let lv = level_at ctx d in
  lv.items <- Ins ins :: lv.items

let emit ctx ins =
  let lv = cur ctx in
  lv.items <- Ins ins :: lv.items

let emit_lbl ctx l =
  let lv = cur ctx in
  lv.items <- Lbl l :: lv.items

let fresh_level () = { items = []; imemo = Hashtbl.create 16 }
let push_level ctx = ctx.levels <- fresh_level () :: ctx.levels

let pop_level ctx =
  match ctx.levels with
  | lv :: rest ->
      ctx.levels <- rest;
      List.rev lv.items
  | [] -> assert false

let splice ctx items =
  let lv = cur ctx in
  lv.items <- List.rev_append items lv.items

let new_ireg ctx = let r = ctx.n_ireg in ctx.n_ireg <- r + 1; r
let new_freg ctx = let r = ctx.n_freg in ctx.n_freg <- r + 1; r
let new_buf ctx = let r = ctx.n_buf in ctx.n_buf <- r + 1; r
let new_lbl ctx = let l = ctx.n_lbl in ctx.n_lbl <- l + 1; l

(* Constants live in a level-0 pool: materialized once, before any use
   (level-0 instructions always precede the statements compiled after
   them), and valid everywhere since they are never overwritten. *)
let iconst ctx v =
  match Hashtbl.find_opt ctx.ipool v with
  | Some r -> r
  | None ->
      let r = new_ireg ctx in
      emit_at ctx 0 (Imp.Iconst { dst = r; v });
      Hashtbl.replace ctx.ipool v r;
      r

let fconst ctx v =
  let key = Int64.bits_of_float v in
  match Hashtbl.find_opt ctx.fpool key with
  | Some r -> r
  | None ->
      let r = new_freg ctx in
      emit_at ctx 0 (Imp.Fconst { dst = r; v });
      Hashtbl.replace ctx.fpool key r;
      r

let sym_lookup ctx (v : Arith.Var.t) = Hashtbl.find_opt ctx.sym v.Arith.Var.id

let slot_of ctx (b : Buffer.t) =
  match Hashtbl.find_opt ctx.bufs b.Buffer.id with
  | Some s -> s
  | None -> fail "unbound buffer %s" b.Buffer.name

(* Row-major strides; constant dimensions fold to constant strides. *)
let strides_of (dims : Arith.Expr.t array) =
  let rank = Array.length dims in
  let strides = Array.make rank (Arith.Expr.const 1) in
  for d = rank - 2 downto 0 do
    strides.(d) <- Arith.Expr.mul strides.(d + 1) dims.(d + 1)
  done;
  strides

let const_strides (shape : int array) =
  strides_of (Array.map Arith.Expr.const shape)

(* ---------- index (Arith.Expr) lowering with hoisting ---------- *)

(* The hoisting level of a pure index expression: the depth of its
   deepest loop variable. Division and modulo by a divisor that is not
   a known nonzero constant can raise, so they are pinned to the
   current depth (inside any conditional) to preserve raise timing. *)
let rec arith_depth ctx (e : Arith.Expr.t) =
  match e with
  | Arith.Expr.Const _ -> 0
  | Arith.Expr.Var v -> (
      match sym_lookup ctx v with
      | Some _ -> 0
      | None -> (
          match Hashtbl.find_opt ctx.var_reg v.Arith.Var.id with
          | Some (_, d) -> d
          | None -> fail "unbound symbolic variable %s" (Arith.Var.name v)))
  | Arith.Expr.Add (a, b)
  | Arith.Expr.Sub (a, b)
  | Arith.Expr.Mul (a, b)
  | Arith.Expr.Min (a, b)
  | Arith.Expr.Max (a, b) ->
      max (arith_depth ctx a) (arith_depth ctx b)
  | Arith.Expr.Floor_div (a, b) | Arith.Expr.Floor_mod (a, b) -> (
      match Arith.Expr.eval_opt (sym_lookup ctx) b with
      | Some c when c <> 0 -> max (arith_depth ctx a) (arith_depth ctx b)
      | _ -> depth ctx)

let rec comp_arith ctx (e : Arith.Expr.t) : int =
  match Arith.Expr.eval_opt (sym_lookup ctx) e with
  | Some c -> iconst ctx c
  | None -> comp_arith_dyn ctx e

and comp_arith_dyn ctx (e : Arith.Expr.t) : int =
  let d = arith_depth ctx e in
  let lv = level_at ctx d in
  match Hashtbl.find_opt lv.imemo e with
  | Some r -> r
  | None ->
      let cfold x = Arith.Expr.eval_opt (sym_lookup ctx) x in
      let bin op a b =
        let ra = comp_arith ctx a in
        let rb = comp_arith ctx b in
        let r = new_ireg ctx in
        emit_at ctx d (Imp.Ibin { op; dst = r; a = ra; b = rb });
        r
      in
      let addi a imm =
        let ra = comp_arith ctx a in
        let r = new_ireg ctx in
        emit_at ctx d (Imp.Iaddi { dst = r; a = ra; imm });
        r
      in
      let muli a imm =
        let ra = comp_arith ctx a in
        let r = new_ireg ctx in
        emit_at ctx d (Imp.Imuli { dst = r; a = ra; imm });
        r
      in
      let r =
        match e with
        | Arith.Expr.Const c -> iconst ctx c
        | Arith.Expr.Var v -> (
            match sym_lookup ctx v with
            | Some c -> iconst ctx c
            | None -> (
                match Hashtbl.find_opt ctx.var_reg v.Arith.Var.id with
                | Some (r, _) -> r
                | None ->
                    fail "unbound symbolic variable %s" (Arith.Var.name v)))
        | Arith.Expr.Add (a, b) -> (
            match (cfold a, cfold b) with
            | Some c, _ -> addi b c
            | _, Some c -> addi a c
            | None, None -> bin Imp.Add a b)
        | Arith.Expr.Sub (a, b) -> (
            match cfold b with
            | Some c -> addi a (-c)
            | None -> bin Imp.Sub a b)
        | Arith.Expr.Mul (a, b) -> (
            match (cfold a, cfold b) with
            | Some c, _ -> muli b c
            | _, Some c -> muli a c
            | None, None -> bin Imp.Mul a b)
        | Arith.Expr.Floor_div (a, b) -> bin Imp.Fdivx a b
        | Arith.Expr.Floor_mod (a, b) -> bin Imp.Fmodx a b
        | Arith.Expr.Min (a, b) -> bin Imp.Min a b
        | Arith.Expr.Max (a, b) -> bin Imp.Max a b
      in
      Hashtbl.replace lv.imemo e r;
      r

(* ---------- expression lowering ---------- *)

type rcode = Ri of int | Rf of int

let to_f ctx = function
  | Rf r -> r
  | Ri r ->
      let d = new_freg ctx in
      emit ctx (Imp.Ffloat_of_int { dst = d; src = r });
      d

let to_i what = function
  | Ri r -> r
  | Rf _ -> fail "%s: expected an integer expression, got float" what

(* A register usable as a branch condition (zero = false). *)
let truth_reg ctx = function
  | Ri r -> r
  | Rf r ->
      let d = new_ireg ctx in
      emit ctx (Imp.Ftruth { dst = d; a = r });
      d

(* A normalized 0/1 truth value (for And/Or). *)
let truth01 ctx = function
  | Ri r ->
      let d = new_ireg ctx in
      emit ctx (Imp.Itruth { dst = d; a = r });
      d
  | Rf r ->
      let d = new_ireg ctx in
      emit ctx (Imp.Ftruth { dst = d; a = r });
      d

(* The static int/float kind of an expression: the kind {!Interp}'s
   value takes at run time, except that a [Select] with one int and
   one float arm is float here (the int arm is converted), where the
   interpreter keeps the taken arm's kind. *)
let rec is_float_expr (e : Texpr.t) =
  match e with
  | Texpr.Imm_int _ | Texpr.Idx _ -> false
  | Texpr.Imm_float _ -> true
  | Texpr.Load (b, _) -> Base.Dtype.is_float b.Buffer.dtype
  | Texpr.Binop (op, a, b) -> (
      match op with
      | Texpr.Add | Texpr.Sub | Texpr.Mul | Texpr.Div | Texpr.Floor_div
      | Texpr.Floor_mod | Texpr.Min | Texpr.Max ->
          is_float_expr a || is_float_expr b
      | Texpr.Pow -> true
      | Texpr.Bit_and | Texpr.Bit_or | Texpr.Bit_xor | Texpr.Shift_left
      | Texpr.Shift_right | Texpr.Eq | Texpr.Ne | Texpr.Lt | Texpr.Le
      | Texpr.Gt | Texpr.Ge | Texpr.And | Texpr.Or ->
          false)
  | Texpr.Unop (op, a) -> (
      match op with
      | Texpr.Neg | Texpr.Abs -> is_float_expr a
      | Texpr.Not -> false
      | Texpr.Exp | Texpr.Log | Texpr.Sqrt | Texpr.Rsqrt | Texpr.Tanh
      | Texpr.Sigmoid | Texpr.Erf | Texpr.Cos | Texpr.Sin ->
          true)
  | Texpr.Cast (dt, _) -> Base.Dtype.is_float dt
  | Texpr.Select (_, a, b) -> is_float_expr a || is_float_expr b

(* The flat offset of an access as one index expression over the
   given row-major strides, or [None] when an index is not a pure
   index expression (it loads) or the rank is wrong. *)
let flat_expr (strides : Arith.Expr.t array) (il : Texpr.t list) :
    Arith.Expr.t option =
  let as_idx = List.map Texpr.as_index il in
  if
    List.length il <> Array.length strides
    || not (List.for_all Option.is_some as_idx)
  then None
  else
    Some
      (List.fold_left
         (fun (d, acc) ie ->
           ( d + 1,
             Arith.Expr.add acc (Arith.Expr.mul (Option.get ie) strides.(d))
           ))
         (0, Arith.Expr.const 0) as_idx
      |> snd)

let rec comp_texpr ctx (e : Texpr.t) : rcode =
  match e with
  | Texpr.Imm_int c -> Ri (iconst ctx c)
  | Texpr.Imm_float x -> Rf (fconst ctx x)
  | Texpr.Idx ie -> Ri (comp_arith ctx ie)
  | Texpr.Load (b, idxs) -> (
      match ctx.acc with
      | Some (bid, sidxs, freg) when b.Buffer.id = bid && idxs = sidxs ->
          Rf freg
      | _ ->
          let s = slot_of ctx b in
          let addr = flat_addr ctx "load index" s idxs in
          if s.is_float then begin
            let d = new_freg ctx in
            emit ctx
              (if ctx.elide then
                 Imp.Fload_u { dst = d; buf = s.index; addr; off = 0 }
               else Imp.Fload { dst = d; buf = s.index; addr; off = 0 });
            Rf d
          end
          else begin
            let d = new_ireg ctx in
            emit ctx
              (if ctx.elide then
                 Imp.Iload_u { dst = d; buf = s.index; addr; off = 0 }
               else Imp.Iload { dst = d; buf = s.index; addr; off = 0 });
            Ri d
          end)
  | Texpr.Binop (op, a, b) -> comp_binop ctx op a b
  | Texpr.Unop (op, a) -> comp_unop ctx op a
  | Texpr.Cast (dt, a) -> (
      let c = comp_texpr ctx a in
      if Base.Dtype.is_float dt then Rf (to_f ctx c)
      else
        match c with
        | Ri _ as c -> c
        | Rf r ->
            let d = new_ireg ctx in
            emit ctx (Imp.Fint_of_float { dst = d; src = r });
            Ri d)
  | Texpr.Select (c, a, b) -> comp_select ctx c a b

(* Flat address of a buffer access. When every index is a pure index
   expression we build a single [Arith.Expr] for the whole flat offset
   so its loop-invariant parts hoist and memoize; otherwise indices
   are lowered individually in order (matching {!Interp}'s evaluation
   order) and combined with the static strides. *)
and flat_addr ctx what (s : bslot) (idxs : Texpr.t list) : int =
  let rank = Array.length s.strides in
  if List.length idxs <> rank then
    fail "rank mismatch: %d indices for rank-%d buffer" (List.length idxs) rank;
  match flat_expr s.strides idxs with
  | Some flat -> comp_arith ctx flat
  | None ->
      let codes = List.map (fun i -> to_i what (comp_texpr ctx i)) idxs in
      let addr = ref (-1) in
      List.iteri
        (fun d code ->
          let term =
            match Arith.Expr.as_const s.strides.(d) with
            | Some 1 -> code
            | Some stride ->
                let r = new_ireg ctx in
                emit ctx (Imp.Imuli { dst = r; a = code; imm = stride });
                r
            | None ->
                let b = comp_arith ctx s.strides.(d) in
                let r = new_ireg ctx in
                emit ctx (Imp.Ibin { op = Imp.Mul; dst = r; a = code; b });
                r
          in
          if !addr < 0 then addr := term
          else begin
            let r = new_ireg ctx in
            emit ctx (Imp.Ibin { op = Imp.Add; dst = r; a = !addr; b = term });
            addr := r
          end)
        codes;
      if !addr < 0 then iconst ctx 0 else !addr

and comp_binop ctx op ea eb : rcode =
  let ca = comp_texpr ctx ea in
  let cb = comp_texpr ctx eb in
  let ibin op a b =
    let d = new_ireg ctx in
    emit ctx (Imp.Ibin { op; dst = d; a; b });
    Ri d
  in
  let fbin op a b =
    let d = new_freg ctx in
    emit ctx (Imp.Fbin { op; dst = d; a; b });
    Rf d
  in
  let arith iop fop =
    match (ca, cb) with
    | Ri x, Ri y -> ibin iop x y
    | _ ->
        let x = to_f ctx ca in
        let y = to_f ctx cb in
        fbin fop x y
  in
  let cmp c =
    match (ca, cb) with
    | Ri x, Ri y ->
        let d = new_ireg ctx in
        emit ctx (Imp.Icmp { op = c; dst = d; a = x; b = y });
        Ri d
    | _ ->
        let x = to_f ctx ca in
        let y = to_f ctx cb in
        let d = new_ireg ctx in
        emit ctx (Imp.Fcmp { op = c; dst = d; a = x; b = y });
        Ri d
  in
  let bitop what iop =
    let x = to_i what ca in
    let y = to_i what cb in
    ibin iop x y
  in
  let logic iop =
    let x = truth01 ctx ca in
    let y = truth01 ctx cb in
    ibin iop x y
  in
  match op with
  | Texpr.Add -> arith Imp.Add Imp.FAdd
  | Texpr.Sub -> arith Imp.Sub Imp.FSub
  | Texpr.Mul -> arith Imp.Mul Imp.FMul
  | Texpr.Div -> arith Imp.Div Imp.FDiv
  | Texpr.Floor_div -> (
      match (ca, cb) with
      | Ri x, Ri y -> ibin Imp.Fdiv x y
      | _ ->
          (* floor on doubles, matching the interpreter *)
          let x = to_f ctx ca in
          let y = to_f ctx cb in
          let q = new_freg ctx in
          emit ctx (Imp.Fbin { op = Imp.FDiv; dst = q; a = x; b = y });
          let d = new_freg ctx in
          emit ctx (Imp.Funop { op = Imp.FFloor; dst = d; a = q });
          Rf d)
  | Texpr.Floor_mod -> (
      match (ca, cb) with
      | Ri x, Ri y -> ibin Imp.Fmod x y
      | _ ->
          let x = to_f ctx ca in
          let y = to_f ctx cb in
          fbin Imp.FRem x y)
  | Texpr.Min -> arith Imp.Min Imp.FMin
  | Texpr.Max -> arith Imp.Max Imp.FMax
  | Texpr.Pow ->
      let x = to_f ctx ca in
      let y = to_f ctx cb in
      fbin Imp.FPow x y
  | Texpr.Bit_and -> bitop "bit_and" Imp.And_
  | Texpr.Bit_or -> bitop "bit_or" Imp.Or_
  | Texpr.Bit_xor -> bitop "bit_xor" Imp.Xor
  | Texpr.Shift_left -> bitop "shift_left" Imp.Shl
  | Texpr.Shift_right -> bitop "shift_right" Imp.Shr
  | Texpr.Eq -> cmp Imp.Eq
  | Texpr.Ne -> cmp Imp.Ne
  | Texpr.Lt -> cmp Imp.Lt
  | Texpr.Le -> cmp Imp.Le
  | Texpr.Gt -> cmp Imp.Gt
  | Texpr.Ge -> cmp Imp.Ge
  (* Both operands are evaluated before testing truth (no
     short-circuit), exactly like the interpreter. *)
  | Texpr.And -> logic Imp.And_
  | Texpr.Or -> logic Imp.Or_

and comp_unop ctx op ea : rcode =
  let c = comp_texpr ctx ea in
  let f1 fop =
    let x = to_f ctx c in
    let d = new_freg ctx in
    emit ctx (Imp.Funop { op = fop; dst = d; a = x });
    Rf d
  in
  match op with
  | Texpr.Neg -> (
      match c with
      | Ri r ->
          let d = new_ireg ctx in
          emit ctx (Imp.Ineg { dst = d; a = r });
          Ri d
      | Rf r ->
          let d = new_freg ctx in
          emit ctx (Imp.Funop { op = Imp.FNeg; dst = d; a = r });
          Rf d)
  | Texpr.Abs -> (
      match c with
      | Ri r ->
          let d = new_ireg ctx in
          emit ctx (Imp.Iabs { dst = d; a = r });
          Ri d
      | Rf r ->
          let d = new_freg ctx in
          emit ctx (Imp.Funop { op = Imp.FAbs; dst = d; a = r });
          Rf d)
  | Texpr.Not ->
      let t = truth_reg ctx c in
      let d = new_ireg ctx in
      emit ctx (Imp.Inot { dst = d; a = t });
      Ri d
  | Texpr.Exp -> f1 Imp.FExp
  | Texpr.Log -> f1 Imp.FLog
  | Texpr.Sqrt -> f1 Imp.FSqrt
  | Texpr.Rsqrt -> f1 Imp.FRsqrt
  | Texpr.Tanh -> f1 Imp.FTanh
  | Texpr.Sigmoid -> f1 Imp.FSigmoid
  | Texpr.Erf -> f1 Imp.FErf
  | Texpr.Cos -> f1 Imp.FCos
  | Texpr.Sin -> f1 Imp.FSin

(* Select is lazy (like the interpreter's [if truth c then eval a
   else eval b]): the unselected arm must not execute, so it lowers to
   branches. Index-expression memo entries created inside an arm are
   discarded afterwards — their instructions are conditionally
   skipped, so later code cannot rely on those registers. *)
and comp_select ctx ec ea eb : rcode =
  let t = truth_reg ctx (comp_texpr ctx ec) in
  let lelse = new_lbl ctx in
  let lend = new_lbl ctx in
  let isf = is_float_expr ea || is_float_expr eb in
  let snap = Hashtbl.copy (cur ctx).imemo in
  emit ctx (Imp.Jifnot { c = t; target = lelse });
  let res =
    if isf then begin
      let d = new_freg ctx in
      let ra = to_f ctx (comp_texpr ctx ea) in
      emit ctx (Imp.Fmov { dst = d; src = ra });
      emit ctx (Imp.Jmp { target = lend });
      (cur ctx).imemo <- Hashtbl.copy snap;
      emit_lbl ctx lelse;
      let rb = to_f ctx (comp_texpr ctx eb) in
      emit ctx (Imp.Fmov { dst = d; src = rb });
      Rf d
    end
    else begin
      let d = new_ireg ctx in
      let ra = to_i "select" (comp_texpr ctx ea) in
      emit ctx (Imp.Imov { dst = d; src = ra });
      emit ctx (Imp.Jmp { target = lend });
      (cur ctx).imemo <- Hashtbl.copy snap;
      emit_lbl ctx lelse;
      let rb = to_i "select" (comp_texpr ctx eb) in
      emit ctx (Imp.Imov { dst = d; src = rb });
      Ri d
    end
  in
  (cur ctx).imemo <- snap;
  emit_lbl ctx lend;
  res

(* ---------- statement lowering ---------- *)

let rec single_store = function
  | Stmt.Store (b, idxs, v) -> Some (b, idxs, v)
  | Stmt.Seq [ s ] -> single_store s
  | _ -> None

(* ---------- fused innermost loops (Imp.Floop) ---------- *)

(* Linear decomposition of an index expression with respect to the
   innermost loop variable: [lin ctx v e = Some (base, stride)] when
   [e = base + v * stride] with [base] free of [v] and [stride] a
   per-signature constant (shape variables resolve through [lookup]).
   The base keeps the original subterm structure wherever possible so
   [comp_arith]'s memo shares registers with the generic lowering. *)
let rec lin lookup (var : Arith.Var.t) (e : Arith.Expr.t) :
    (Arith.Expr.t * int) option =
  if not (Arith.Var.Set.mem var (Arith.Expr.free_vars e)) then Some (e, 0)
  else
    match e with
    | Arith.Expr.Var x when x.Arith.Var.id = var.Arith.Var.id ->
        Some (Arith.Expr.const 0, 1)
    | Arith.Expr.Add (a, b) -> (
        match (lin lookup var a, lin lookup var b) with
        | Some (ba, sa), Some (bb, sb) -> Some (Arith.Expr.add ba bb, sa + sb)
        | _ -> None)
    | Arith.Expr.Sub (a, b) -> (
        match (lin lookup var a, lin lookup var b) with
        | Some (ba, sa), Some (bb, sb) -> Some (Arith.Expr.sub ba bb, sa - sb)
        | _ -> None)
    | Arith.Expr.Mul (a, b) -> (
        match (lin lookup var a, lin lookup var b) with
        | Some (ba, 0), Some (bb, sb) -> (
            match Arith.Expr.eval_opt lookup ba with
            | Some c -> Some (Arith.Expr.mul ba bb, c * sb)
            | None -> None)
        | Some (ba, sa), Some (bb, 0) -> (
            match Arith.Expr.eval_opt lookup bb with
            | Some c -> Some (Arith.Expr.mul ba bb, sa * c)
            | None -> None)
        | _ -> None)
    | _ -> None

let rec texpr_uses_var (var : Arith.Var.t) (e : Texpr.t) =
  match e with
  | Texpr.Imm_int _ | Texpr.Imm_float _ -> false
  | Texpr.Idx ie -> Arith.Var.Set.mem var (Arith.Expr.free_vars ie)
  | Texpr.Load (_, idxs) -> List.exists (texpr_uses_var var) idxs
  | Texpr.Binop (_, a, b) -> texpr_uses_var var a || texpr_uses_var var b
  | Texpr.Unop (_, a) | Texpr.Cast (_, a) -> texpr_uses_var var a
  | Texpr.Select (c, a, b) ->
      texpr_uses_var var c || texpr_uses_var var a || texpr_uses_var var b

let fbin_of_texpr_binop = function
  | Texpr.Add -> Some Imp.FAdd
  | Texpr.Sub -> Some Imp.FSub
  | Texpr.Mul -> Some Imp.FMul
  | Texpr.Div -> Some Imp.FDiv
  | Texpr.Min -> Some Imp.FMin
  | Texpr.Max -> Some Imp.FMax
  | Texpr.Pow -> Some Imp.FPow
  | _ -> None

let funop_of_texpr_unop = function
  | Texpr.Neg -> Some Imp.FNeg
  | Texpr.Abs -> Some Imp.FAbs
  | Texpr.Exp -> Some Imp.FExp
  | Texpr.Log -> Some Imp.FLog
  | Texpr.Sqrt -> Some Imp.FSqrt
  | Texpr.Rsqrt -> Some Imp.FRsqrt
  | Texpr.Tanh -> Some Imp.FTanh
  | Texpr.Sigmoid -> Some Imp.FSigmoid
  | Texpr.Erf -> Some Imp.FErf
  | Texpr.Cos -> Some Imp.FCos
  | Texpr.Sin -> Some Imp.FSin
  | Texpr.Not -> None

(* Try to fuse an innermost single-store loop into one {!Imp.Floop}
   superinstruction whose trip loop runs natively. Returns [false]
   (emitting nothing at the loop's level) when no template matches; the
   caller then falls back to the generic unrolled lowering.

   Operands are classified relative to the loop variable [var] and the
   store buffer:
   - a *stream* is a float load from a different buffer whose flat
     address is linear in [var] with a constant stride — its base
     address is hoisted integer arithmetic;
   - an *invariant* is any float-kind expression that mentions neither
     [var] nor the store buffer — it is compiled once, before the
     trip loop, and memoized by structural equality so repeats of the
     same subterm (softmax's [Load mx] in both passes of a value)
     share one register.

   Hoisting an invariant out of the loop is value-preserving because
   no store in the fused region can change what it reads: reductions
   defer their only store to the post-loop accumulator writeback, and
   maps reject values that load the destination buffer (the same
   restrict-style contract as register promotion in
   {!comp_unrolled}). The only observable shift — as with the
   unrolled pre-header — is the raise *site* of an out-of-bounds
   invariant load on an invalid program, and a zero-trip guard keeps
   even that from firing when the rolled loop would not have run. *)
let comp_floop ctx (var : Arith.Var.t) n_reg (b : Buffer.t) idxs v : bool =
  let s = slot_of ctx b in
  let lin = lin (sym_lookup ctx) in
  match (if s.is_float then flat_expr s.strides idxs else None) with
  | None -> false
  | Some store_flat -> (
      match lin var store_flat with
      | None -> false
      | Some (store_base, store_stride) ->
          let loads_store_buf e =
            List.exists
              (fun ((b' : Buffer.t), _) -> b'.Buffer.id = b.Buffer.id)
              (Texpr.loads e)
          in
          let invariant e =
            (not (texpr_uses_var var e)) && not (loads_store_buf e)
          in
          (* matching is pure: streams are described as (slot, base,
             stride) and invariants kept as Texpr; nothing is emitted
             until a template has matched *)
          let as_stream e =
            match e with
            | Texpr.Load (b', li) when b'.Buffer.id <> b.Buffer.id -> (
                let sl = slot_of ctx b' in
                if not sl.is_float then None
                else
                  match flat_expr sl.strides li with
                  | None -> None
                  | Some fe -> lin var fe |> Option.map (fun (be, st) -> (sl, be, st)))
            | _ -> None
          in
          let inv_memo = ref [] in
          let comp_inv e =
            match List.assoc_opt e !inv_memo with
            | Some r -> r
            | None ->
                let r = to_f ctx (comp_texpr ctx e) in
                inv_memo := (e, r) :: !inv_memo;
                r
          in
          let mk_stream (sl, base_e, stride) =
            {
              Imp.sbuf = sl.index;
              sbase = comp_arith ctx base_e;
              sstride = stride;
            }
          in
          let operand e =
            match as_stream e with
            | Some st -> Some (fun () -> Imp.Sstream (mk_stream st))
            | None ->
                if invariant e then Some (fun () -> Imp.Sreg (comp_inv e))
                else None
          in
          let is_self_load = function
            | Texpr.Load (b', li) -> b'.Buffer.id = b.Buffer.id && li = idxs
            | _ -> false
          in
          (* reductions: destination address invariant in [var], value
             [self `op` rhs] with the self-load on the left like the
             kernel zoo emits; rhs templates keep the interpreter's
             per-element association and rounding order *)
          let red_plan =
            if store_stride <> 0 then None
            else
              match v with
              | Texpr.Binop (Texpr.Add, sl, rhs) when is_self_load sl -> (
                  match rhs with
                  | Texpr.Binop (Texpr.Mul, x, y) when x = y -> (
                      (* both factors are the same term, so evaluating
                         it once feeds both IEEE-identically *)
                      match x with
                      | Texpr.Binop (Texpr.Sub, xs, c) when invariant c -> (
                          match as_stream xs with
                          | Some st ->
                              Some
                                (fun () ->
                                  Imp.Lsum_sq_sub (mk_stream st, comp_inv c))
                          | None -> None)
                      | _ -> (
                          match as_stream x with
                          | Some st ->
                              Some
                                (fun () ->
                                  let t = mk_stream st in
                                  Imp.Ldot (t, t))
                          | None -> None))
                  | Texpr.Binop (Texpr.Mul, x, y) -> (
                      match (as_stream x, as_stream y) with
                      | Some sx, Some sy ->
                          Some
                            (fun () ->
                              Imp.Ldot (mk_stream sx, mk_stream sy))
                      | _ -> None)
                  | Texpr.Unop (Texpr.Exp, Texpr.Binop (Texpr.Sub, xs, c))
                    when invariant c -> (
                      match as_stream xs with
                      | Some st ->
                          Some
                            (fun () ->
                              Imp.Lsum_exp_sub (mk_stream st, comp_inv c))
                      | None -> None)
                  | _ -> (
                      match as_stream rhs with
                      | Some st -> Some (fun () -> Imp.Lsum (mk_stream st))
                      | None -> None))
              | Texpr.Binop (Texpr.Max, sl, rhs) when is_self_load sl -> (
                  match as_stream rhs with
                  | Some st -> Some (fun () -> Imp.Lmax (mk_stream st))
                  | None -> None)
              | Texpr.Binop (Texpr.Min, sl, rhs) when is_self_load sl -> (
                  match as_stream rhs with
                  | Some st -> Some (fun () -> Imp.Lmin (mk_stream st))
                  | None -> None)
              | _ -> None
          in
          (* maps: destination address strides with [var]; the value
             must not read the destination buffer at all *)
          let map_plan =
            if store_stride = 0 || loads_store_buf v then None
            else if invariant v then
              Some (fun dst -> Imp.Lmap_copy { src = Imp.Sreg (comp_inv v); dst })
            else
              match v with
              | Texpr.Binop
                  ( Texpr.Div,
                    Texpr.Unop (Texpr.Exp, Texpr.Binop (Texpr.Sub, xs, c1)),
                    c2 )
                when invariant c1 && invariant c2 -> (
                  match as_stream xs with
                  | Some st ->
                      Some
                        (fun dst ->
                          Imp.Lmap_exp_sub_div
                            {
                              src = mk_stream st;
                              c1 = comp_inv c1;
                              c2 = comp_inv c2;
                              dst;
                            })
                  | None -> None)
              | Texpr.Binop
                  ( Texpr.Add,
                    Texpr.Binop
                      ( Texpr.Mul,
                        Texpr.Binop
                          (Texpr.Mul, Texpr.Binop (Texpr.Sub, xs, c1), c2),
                        g ),
                    bb )
                when invariant c1 && invariant c2 -> (
                  match (as_stream xs, as_stream g, as_stream bb) with
                  | Some sx, Some sg, Some sb ->
                      Some
                        (fun dst ->
                          Imp.Lmap_norm
                            {
                              src = mk_stream sx;
                              c1 = comp_inv c1;
                              c2 = comp_inv c2;
                              g = mk_stream sg;
                              b = mk_stream sb;
                              dst;
                            })
                  | _ -> None)
              | Texpr.Load _ -> (
                  match as_stream v with
                  | Some st ->
                      Some
                        (fun dst ->
                          Imp.Lmap_copy { src = Imp.Sstream (mk_stream st); dst })
                  | None -> None)
              | Texpr.Binop (op, ea, eb) when is_float_expr v -> (
                  match fbin_of_texpr_binop op with
                  | Some fop -> (
                      match (operand ea, operand eb) with
                      | Some ba, Some bb ->
                          Some
                            (fun dst ->
                              Imp.Lmap_bin { op = fop; a = ba (); b = bb (); dst })
                      | _ -> None)
                  | None -> None)
              | Texpr.Unop (op, x) -> (
                  match funop_of_texpr_unop op with
                  | Some fop -> (
                      match as_stream x with
                      | Some st ->
                          Some
                            (fun dst ->
                              Imp.Lmap_unop { op = fop; src = mk_stream st; dst })
                      | None -> None)
                  | None -> None)
              | _ -> None
          in
          (* emission: the zero-trip guard precedes everything emitted
             at this level (invariant loads, the accumulator
             load/store) so a loop the rolled lowering would skip
             raises nothing here either; hoisted integer base/address
             arithmetic lands at parent levels, before the guard,
             where it is pure and memo-safe *)
          let emit_guarded emit_body =
            push_level ctx;
            let l_done = new_lbl ctx in
            emit ctx (Imp.Jge { a = iconst ctx 0; b = n_reg; target = l_done });
            emit_body ();
            emit_lbl ctx l_done;
            let items = pop_level ctx in
            splice ctx items;
            true
          in
          (match (red_plan, map_plan) with
          | Some build, _ ->
              emit_guarded (fun () ->
                  let op = build () in
                  let out_addr = comp_arith ctx store_base in
                  let acc = new_freg ctx in
                  emit ctx
                    (if ctx.elide then
                       Imp.Fload_u
                         { dst = acc; buf = s.index; addr = out_addr; off = 0 }
                     else
                       Imp.Fload
                         { dst = acc; buf = s.index; addr = out_addr; off = 0 });
                  emit ctx
                    (Imp.Floop { n = n_reg; acc; op; unsafe = ctx.elide });
                  emit ctx
                    (if ctx.elide then
                       Imp.Fstore_u
                         { buf = s.index; addr = out_addr; off = 0; src = acc }
                     else
                       Imp.Fstore
                         { buf = s.index; addr = out_addr; off = 0; src = acc }))
          | None, Some build ->
              emit_guarded (fun () ->
                  let dst =
                    {
                      Imp.sbuf = s.index;
                      sbase = comp_arith ctx store_base;
                      sstride = store_stride;
                    }
                  in
                  let op = build dst in
                  emit ctx
                    (Imp.Floop { n = n_reg; acc = 0; op; unsafe = ctx.elide }))
          | None, None -> false))

(* ---------- row-stream reduction nests (Imp.Frow) ---------- *)

(* A loop over [j] whose body is

     Y[..j..] = c; for k: Y[..j..] = Y[..j..] + a(k) * W[..k..j..]

   (matmul's row, attention's value loop) qualifies for k-outer,
   j-inner execution when [c] is a float constant, [Y] and [W] are
   float buffers with stride 1 in [j], [a(k)] is a float load linear
   in [k] and free of [j] — optionally multiplied or divided by an
   expression free of both [j] and [k] — and no operand loads [Y]. The
   [k] extent must not depend on [j]. *)
type row_stream = {
  y : Buffer.t;
  y_base : Arith.Expr.t;
  init : float;
  k_extent : Arith.Expr.t;
  a : Buffer.t;
  a_base : Arith.Expr.t;
  a_stride : int;
  scale : (Texpr.binop * Texpr.t) option;  (* [Mul] or [Div] *)
  w : Buffer.t;
  w_base : Arith.Expr.t;
  w_stride : int;
}

let match_row_stream ~lookup ~strides (j : Arith.Var.t) (body : Stmt.t) :
    row_stream option =
  let is_float_buf (b : Buffer.t) = Base.Dtype.is_float b.Buffer.dtype in
  match body with
  | Stmt.Seq
      [ Stmt.Store (y, yi, Texpr.Imm_float init);
        Stmt.For { var = k; extent = k_extent; body = kbody; _ } ]
    when is_float_buf y
         && not (Arith.Var.Set.mem j (Arith.Expr.free_vars k_extent)) -> (
      let is_y (b : Buffer.t) = b.Buffer.id = y.Buffer.id in
      let operand_buf b = is_float_buf b && not (is_y b) in
      (* [(base, j-stride, k-stride)] of an access's flat offset *)
      let lin2 (b : Buffer.t) il =
        match flat_expr (strides b) il with
        | None -> None
        | Some fe -> (
            match lin lookup j fe with
            | None -> None
            | Some (bj, sj) ->
                lin lookup k bj |> Option.map (fun (base, sk) -> (base, sj, sk)))
      in
      match single_store kbody with
      | Some
          ( y',
            yi',
            Texpr.Binop
              ( Texpr.Add,
                Texpr.Load (y'', yi''),
                Texpr.Binop (Texpr.Mul, ea, Texpr.Load (w, wi)) ) )
        when is_y y' && is_y y'' && yi' = yi && yi'' = yi && operand_buf w -> (
          let a_load, scale =
            match ea with
            | Texpr.Binop (((Texpr.Mul | Texpr.Div) as op), (Texpr.Load _ as l), inv)
              when not
                     (texpr_uses_var j inv || texpr_uses_var k inv
                     || List.exists (fun (b, _) -> is_y b) (Texpr.loads inv)) ->
                (l, Some (op, inv))
            | _ -> (ea, None)
          in
          match a_load with
          | Texpr.Load (a, ai) when operand_buf a -> (
              match (lin2 y yi, lin2 a ai, lin2 w wi) with
              | ( Some (y_base, 1, 0),
                  Some (a_base, 0, a_stride),
                  Some (w_base, 1, w_stride) ) ->
                  Some
                    {
                      y;
                      y_base;
                      init;
                      k_extent;
                      a;
                      a_base;
                      a_stride;
                      scale;
                      w;
                      w_base;
                      w_stride;
                    }
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let row_stream_extent ~lookup ~shape j body =
  match_row_stream ~lookup ~strides:(fun b -> const_strides (shape b)) j body
  |> Option.map (fun m -> m.k_extent)

(* Lower a matching nest to one {!Imp.Frow}. Like [comp_floop], the
   instruction is guarded by a zero-trip jump on [j], and the
   invariant scale factor is evaluated once, only when the [k] loop
   runs (the j-outer nest evaluates it at [j = 0, k = 0] first).
   Reading [a] and [W] across the whole row before [Y] is final is the
   restrict-style no-aliasing assumption register promotion already
   makes. *)
let comp_row ctx (j : Arith.Var.t) nj_reg (body : Stmt.t) : bool =
  match
    match_row_stream ~lookup:(sym_lookup ctx)
      ~strides:(fun b -> (slot_of ctx b).strides)
      j body
  with
  | None -> false
  | Some m ->
      let stream (b : Buffer.t) base stride =
        {
          Imp.sbuf = (slot_of ctx b).index;
          sbase = comp_arith ctx base;
          sstride = stride;
        }
      in
      push_level ctx;
      let l_done = new_lbl ctx in
      emit ctx (Imp.Jge { a = iconst ctx 0; b = nj_reg; target = l_done });
      let nk = comp_arith ctx m.k_extent in
      let y = stream m.y m.y_base 1 in
      let a = stream m.a m.a_base m.a_stride in
      let w = stream m.w m.w_base m.w_stride in
      let scale =
        match m.scale with
        | None -> Imp.Unscaled
        | Some (op, inv) ->
            let l_inv = new_lbl ctx in
            emit ctx (Imp.Jge { a = iconst ctx 0; b = nk; target = l_inv });
            let r = to_f ctx (comp_texpr ctx inv) in
            emit_lbl ctx l_inv;
            if op = Texpr.Div then Imp.Div_by r else Imp.Mul_by r
      in
      emit ctx
        (Imp.Frow
           {
             nj = nj_reg;
             nk;
             init = fconst ctx m.init;
             y;
             a;
             scale;
             w;
             unsafe = ctx.elide;
           });
      emit_lbl ctx l_done;
      splice ctx (pop_level ctx);
      true

let rec comp_stmt ctx (s : Stmt.t) : unit =
  match s with
  | Stmt.Seq ss -> List.iter (comp_stmt ctx) ss
  | Stmt.For { var; extent; kind = _; body } -> comp_for ctx var extent body
  | Stmt.Store (b, idxs, v) -> comp_store ctx b idxs v
  | Stmt.If (c, t, e) -> (
      let creg = truth_reg ctx (comp_texpr ctx c) in
      let lend = new_lbl ctx in
      let snap = Hashtbl.copy (cur ctx).imemo in
      match e with
      | None ->
          emit ctx (Imp.Jifnot { c = creg; target = lend });
          comp_stmt ctx t;
          (cur ctx).imemo <- snap;
          emit_lbl ctx lend
      | Some e ->
          let lelse = new_lbl ctx in
          emit ctx (Imp.Jifnot { c = creg; target = lelse });
          comp_stmt ctx t;
          emit ctx (Imp.Jmp { target = lend });
          (cur ctx).imemo <- Hashtbl.copy snap;
          emit_lbl ctx lelse;
          comp_stmt ctx e;
          (cur ctx).imemo <- snap;
          emit_lbl ctx lend)
  | Stmt.Alloc (b, body) ->
      (* a dimension over register-held symbolic arguments sizes the
         buffer at run time, and its strides then live in registers *)
      let bound (v : Arith.Var.t) =
        sym_lookup ctx v <> None
        || Option.map snd (Hashtbl.find_opt ctx.var_reg v.Arith.Var.id)
           = Some 0
      in
      let dims =
        Array.of_list
          (List.map
             (fun dim ->
               match Arith.Expr.eval_opt (sym_lookup ctx) dim with
               | Some c -> Arith.Expr.const c
               | None
                 when Arith.Var.Set.for_all bound (Arith.Expr.free_vars dim) ->
                   dim
               | None ->
                   fail "alloc of %s: dimension %s is not shape-static"
                     b.Buffer.name (Arith.Expr.to_string dim))
             b.Buffer.shape)
      in
      let numel =
        comp_arith ctx
          (Array.fold_left Arith.Expr.mul (Arith.Expr.const 1) dims)
      in
      let is_float = Base.Dtype.is_float b.Buffer.dtype in
      let index = new_buf ctx in
      Hashtbl.replace ctx.bufs b.Buffer.id
        { index; is_float; strides = strides_of dims };
      emit ctx
        (if is_float then Imp.Alloc_f { buf = index; numel }
         else Imp.Alloc_i { buf = index; numel });
      comp_stmt ctx body;
      emit ctx
        (if is_float then Imp.Free_f { buf = index }
         else Imp.Free_i { buf = index })
  | Stmt.Assert (c, msg) ->
      let creg = truth_reg ctx (comp_texpr ctx c) in
      let lok = new_lbl ctx in
      emit ctx (Imp.Jif { c = creg; target = lok });
      emit ctx (Imp.Fail { msg = "assertion failed: " ^ msg });
      emit_lbl ctx lok
  | Stmt.Evaluate e -> ignore (comp_texpr ctx e)

and comp_store ctx b idxs v =
  let s = slot_of ctx b in
  let addr = flat_addr ctx "store index" s idxs in
  if s.is_float then begin
    let r = to_f ctx (comp_texpr ctx v) in
    emit ctx
      (if ctx.elide then Imp.Fstore_u { buf = s.index; addr; off = 0; src = r }
       else Imp.Fstore { buf = s.index; addr; off = 0; src = r })
  end
  else begin
    let r = to_i "store value" (comp_texpr ctx v) in
    emit ctx
      (if ctx.elide then Imp.Istore_u { buf = s.index; addr; off = 0; src = r }
       else Imp.Istore { buf = s.index; addr; off = 0; src = r })
  end

and comp_for ctx var extent body =
  let n_reg = comp_arith ctx extent in
  let d = depth ctx + 1 in
  let vreg = new_ireg ctx in
  let saved = Hashtbl.find_opt ctx.var_reg var.Arith.Var.id in
  Hashtbl.replace ctx.var_reg var.Arith.Var.id (vreg, d);
  (match single_store body with
   | Some (b, idxs, v) ->
       if not (comp_floop ctx var n_reg b idxs v) then
         comp_unrolled ctx var vreg n_reg b idxs v
   | None when comp_row ctx var n_reg body -> ()
   | None ->
       push_level ctx;
       comp_stmt ctx body;
       let items = pop_level ctx in
       let ltop = new_lbl ctx in
       let lend = new_lbl ctx in
       emit ctx (Imp.Iconst { dst = vreg; v = 0 });
       emit_lbl ctx ltop;
       emit ctx (Imp.Jge { a = vreg; b = n_reg; target = lend });
       splice ctx items;
       emit ctx (Imp.Iaddi { dst = vreg; a = vreg; imm = 1 });
       emit ctx (Imp.Jmp { target = ltop });
       emit_lbl ctx lend);
  (match saved with
   | Some x -> Hashtbl.replace ctx.var_reg var.Arith.Var.id x
   | None -> Hashtbl.remove ctx.var_reg var.Arith.Var.id)

(* Innermost loops whose body is a single store unroll by 4 (main loop
   on [n land -4], then a remainder loop). Emitting the copies
   sequentially preserves the exact store/load order of the rolled
   loop, so results stay bit-identical.

   When the store is a float reduction whose destination address is
   invariant in the loop variable and every load of the destination
   buffer uses exactly the store's indices, the accumulator is
   promoted to a register: loaded once before the loop, updated per
   element (with [Imp.Fma] for the canonical [acc + a*b] form), and
   stored once after. OCaml float registers and float arrays both hold
   full doubles, so promotion is bit-identical to the memory
   round-trip. *)
and comp_unrolled ctx var vreg n_reg b idxs v =
  let s = slot_of ctx b in
  let d = depth ctx + 1 in
  let promote =
    s.is_float
    && (let as_idx = List.map Texpr.as_index idxs in
        List.for_all Option.is_some as_idx
        && List.for_all
             (fun ie ->
               not
                 (Arith.Var.Set.mem var
                    (Arith.Expr.free_vars (Option.get ie))))
             as_idx)
    &&
    let self_loads =
      List.filter (fun ((b' : Buffer.t), _) -> b'.Buffer.id = b.Buffer.id)
        (Texpr.loads v)
    in
    self_loads <> [] && List.for_all (fun (_, li) -> li = idxs) self_loads
  in
  push_level ctx;
  let lv = cur ctx in
  let l_main = new_lbl ctx in
  let l_rem = new_lbl ctx in
  let l_exit = new_lbl ctx in
  let bind r = Hashtbl.replace ctx.var_reg var.Arith.Var.id (r, d) in
  let copy_var c =
    Hashtbl.reset lv.imemo;
    if c = 0 then bind vreg
    else begin
      let tc = new_ireg ctx in
      emit ctx (Imp.Iaddi { dst = tc; a = vreg; imm = c });
      bind tc
    end
  in
  let unroll_skeleton gen_body =
    let nu = new_ireg ctx in
    emit ctx (Imp.Ibin { op = Imp.And_; dst = nu; a = n_reg; b = iconst ctx (-4) });
    emit ctx (Imp.Iconst { dst = vreg; v = 0 });
    emit_lbl ctx l_main;
    emit ctx (Imp.Jge { a = vreg; b = nu; target = l_rem });
    for c = 0 to 3 do
      copy_var c;
      gen_body ()
    done;
    emit ctx (Imp.Iaddi { dst = vreg; a = vreg; imm = 4 });
    emit ctx (Imp.Jmp { target = l_main });
    emit_lbl ctx l_rem;
    emit ctx (Imp.Jge { a = vreg; b = n_reg; target = l_exit });
    copy_var 0;
    gen_body ();
    emit ctx (Imp.Iaddi { dst = vreg; a = vreg; imm = 1 });
    emit ctx (Imp.Jmp { target = l_rem });
    emit_lbl ctx l_exit
  in
  if promote then begin
    let l_done = new_lbl ctx in
    (* skip everything (including the accumulator load/store) when the
       loop runs zero times, like the rolled loop would *)
    emit ctx (Imp.Jge { a = iconst ctx 0; b = n_reg; target = l_done });
    let out_addr = flat_addr ctx "store index" s idxs in
    let acc = new_freg ctx in
    emit ctx
      (if ctx.elide then
         Imp.Fload_u { dst = acc; buf = s.index; addr = out_addr; off = 0 }
       else Imp.Fload { dst = acc; buf = s.index; addr = out_addr; off = 0 });
    let is_self_load = function
      | Texpr.Load (b', li) -> b'.Buffer.id = b.Buffer.id && li = idxs
      | _ -> false
    in
    let gen_body () =
      ctx.acc <- Some (b.Buffer.id, idxs, acc);
      (match v with
       | Texpr.Binop (Texpr.Add, sl, Texpr.Binop (Texpr.Mul, x, y))
         when is_self_load sl ->
           (* acc +. (x *. y): dispatch-fused, two roundings *)
           let rx = to_f ctx (comp_texpr ctx x) in
           let ry = to_f ctx (comp_texpr ctx y) in
           emit ctx (Imp.Fma { acc; a = rx; b = ry })
       | Texpr.Binop (Texpr.Add, Texpr.Binop (Texpr.Mul, x, y), sl)
         when is_self_load sl ->
           (* (x *. y) +. acc: keep the interpreter's operand order *)
           let rx = to_f ctx (comp_texpr ctx x) in
           let ry = to_f ctx (comp_texpr ctx y) in
           let m = new_freg ctx in
           emit ctx (Imp.Fbin { op = Imp.FMul; dst = m; a = rx; b = ry });
           emit ctx (Imp.Fbin { op = Imp.FAdd; dst = acc; a = m; b = acc })
       | _ ->
           let r = to_f ctx (comp_texpr ctx v) in
           emit ctx (Imp.Fmov { dst = acc; src = r }));
      ctx.acc <- None
    in
    unroll_skeleton gen_body;
    emit ctx
      (if ctx.elide then
         Imp.Fstore_u { buf = s.index; addr = out_addr; off = 0; src = acc }
       else Imp.Fstore { buf = s.index; addr = out_addr; off = 0; src = acc });
    emit_lbl ctx l_done
  end
  else unroll_skeleton (fun () -> comp_store ctx b idxs v);
  let items = pop_level ctx in
  splice ctx items

(* ---------- symbolic arguments held in registers ---------- *)

(* Loop variables the fused templates linearize addresses over: the
   variable of every loop whose body is a single store ([comp_floop])
   and both variables of every nest shaped like a row stream
   ([match_row_stream]). *)
let rec linearized acc (s : Stmt.t) =
  match s with
  | Stmt.Seq ss -> List.fold_left linearized acc ss
  | Stmt.For { var; body; _ } ->
      let acc =
        match body with
        | Stmt.Seq [ Stmt.Store _; Stmt.For { var = k; _ } ] ->
            Arith.Var.Set.add var (Arith.Var.Set.add k acc)
        | _ when single_store body <> None -> Arith.Var.Set.add var acc
        | _ -> acc
      in
      linearized acc body
  | Stmt.If (_, t, e) ->
      let acc = linearized acc t in
      Option.fold ~none:acc ~some:(linearized acc) e
  | Stmt.Alloc (_, body) -> linearized acc body
  | Stmt.Store _ | Stmt.Assert _ | Stmt.Evaluate _ -> acc

(* The variables of [cands] that some product in [e] multiplies by a
   term over a variable of [lvars]: [lin] needs that factor constant. *)
let rec coefficient_vars ~lvars ~cands acc (e : Arith.Expr.t) =
  let go = coefficient_vars ~lvars ~cands in
  match e with
  | Arith.Expr.Const _ | Arith.Expr.Var _ -> acc
  | Arith.Expr.Mul (a, b) ->
      let pair x y acc =
        let meets vs z =
          not (Arith.Var.Set.disjoint vs (Arith.Expr.free_vars z))
        in
        if meets lvars x && meets cands y then
          Arith.Var.Set.union acc
            (Arith.Var.Set.inter cands (Arith.Expr.free_vars y))
        else acc
      in
      go (go (pair a b (pair b a acc)) a) b
  | Arith.Expr.Add (a, b)
  | Arith.Expr.Sub (a, b)
  | Arith.Expr.Floor_div (a, b)
  | Arith.Expr.Floor_mod (a, b)
  | Arith.Expr.Min (a, b)
  | Arith.Expr.Max (a, b) ->
      go (go acc a) b

let register_vars (f : Prim_func.t) =
  let in_params =
    List.fold_left
      (fun acc b -> Arith.Var.Set.union acc (Buffer.free_sym_vars b))
      Arith.Var.Set.empty f.Prim_func.params
  in
  let cands =
    Arith.Var.Set.diff (Arith.Var.Set.of_list f.Prim_func.sym_params) in_params
  in
  if Arith.Var.Set.is_empty cands then []
  else
    let lvars = linearized Arith.Var.Set.empty f.Prim_func.body in
    let strides (b : Buffer.t) = strides_of (Array.of_list b.Buffer.shape) in
    let pinned =
      List.fold_left
        (fun acc (b, il) ->
          match flat_expr (strides b) il with
          | Some flat -> coefficient_vars ~lvars ~cands acc flat
          | None -> acc)
        Arith.Var.Set.empty
        (Stmt.loads f.Prim_func.body @ Stmt.stores f.Prim_func.body)
    in
    List.filter
      (fun v -> Arith.Var.Set.mem v cands && not (Arith.Var.Set.mem v pinned))
      f.Prim_func.sym_params

(* ---------- entry points ---------- *)

type compiled = (Arith.Var.t * int) list -> Base.Ndarray.t list -> unit

let rec sym_value name (v : Arith.Var.t) = function
  | [] -> fail "%s: unbound symbolic variable %s" name (Arith.Var.name v)
  | (v', x) :: rest -> if Arith.Var.equal v' v then x else sym_value name v rest

let lower_internal ?(sym_args = []) ?(elide_bounds = false) (f : Prim_func.t)
    (arg_shapes : int array list) =
  if List.length arg_shapes <> List.length f.Prim_func.params then
    fail "%s: expected %d buffer arguments, got %d" f.Prim_func.name
      (List.length f.Prim_func.params)
      (List.length arg_shapes);
  let regs = register_vars f in
  let specialised =
    List.filter
      (fun (v, _) -> not (List.exists (Arith.Var.equal v) regs))
      sym_args
  in
  let sym = Hashtbl.create 16 in
  List.iter
    (fun ((v : Arith.Var.t), x) -> Hashtbl.replace sym v.Arith.Var.id x)
    specialised;
  Interp.unify_shapes sym f arg_shapes;
  let ctx =
    {
      sym;
      var_reg = Hashtbl.create 16;
      bufs = Hashtbl.create 16;
      levels = [ fresh_level () ];
      n_ireg = 0;
      n_freg = 0;
      n_buf = 0;
      n_lbl = 0;
      ipool = Hashtbl.create 16;
      fpool = Hashtbl.create 16;
      elide = elide_bounds;
      acc = None;
    }
  in
  let reg_slots =
    List.map
      (fun (v : Arith.Var.t) ->
        let r = new_ireg ctx in
        Hashtbl.replace ctx.var_reg v.Arith.Var.id (r, 0);
        (v, r))
      regs
  in
  let param_slots =
    List.map2
      (fun (b : Buffer.t) shape ->
        let s =
          {
            index = new_buf ctx;
            is_float = Base.Dtype.is_float b.Buffer.dtype;
            strides = const_strides shape;
          }
        in
        Hashtbl.replace ctx.bufs b.Buffer.id s;
        (s, shape))
      f.Prim_func.params arg_shapes
  in
  comp_stmt ctx f.Prim_func.body;
  let items = pop_level ctx in
  (* two-pass label resolution: count instruction pcs, then rewrite
     jump targets from label ids to absolute indices *)
  let lbl_pc = Array.make (max 1 ctx.n_lbl) 0 in
  let n_ins =
    List.fold_left
      (fun pc it ->
        match it with
        | Lbl l ->
            lbl_pc.(l) <- pc;
            pc
        | Ins _ -> pc + 1)
      0 items
  in
  let code = Array.make (max 1 n_ins) (Imp.Jmp { target = max 1 n_ins }) in
  ignore
    (List.fold_left
       (fun pc it ->
         match it with
         | Lbl _ -> pc
         | Ins ins ->
             code.(pc) <-
               (match ins with
               | Imp.Jmp { target } -> Imp.Jmp { target = lbl_pc.(target) }
               | Imp.Jif { c; target } ->
                   Imp.Jif { c; target = lbl_pc.(target) }
               | Imp.Jifnot { c; target } ->
                   Imp.Jifnot { c; target = lbl_pc.(target) }
               | Imp.Jge { a; b; target } ->
                   Imp.Jge { a; b; target = lbl_pc.(target) }
               | ins -> ins);
             pc + 1)
       0 items);
  let program =
    {
      Imp.code;
      n_iregs = max 1 ctx.n_ireg;
      n_fregs = max 1 ctx.n_freg;
      n_bufs = max 1 ctx.n_buf;
    }
  in
  (program, param_slots, reg_slots, specialised)

let lower ?sym_args ?elide_bounds f arg_shapes =
  let program, _, _, _ = lower_internal ?sym_args ?elide_bounds f arg_shapes in
  program

let compile ?sym_args ?elide_bounds (f : Prim_func.t)
    (arg_shapes : int array list) : compiled =
  let program, param_slots, reg_slots, specialised =
    lower_internal ?sym_args ?elide_bounds f arg_shapes
  in
  let iregs = Array.make program.Imp.n_iregs 0 in
  let fregs = Array.make program.Imp.n_fregs 0.0 in
  let fbufs = Array.make program.Imp.n_bufs [||] in
  let ibufs = Array.make program.Imp.n_bufs [||] in
  let name = f.Prim_func.name in
  let nparams = List.length param_slots in
  fun sym_args args ->
    if List.length args <> nparams then
      fail "%s: expected %d buffer arguments, got %d" name nparams
        (List.length args);
    List.iter
      (fun ((v : Arith.Var.t), x) ->
        if sym_value name v sym_args <> x then
          fail "%s: symbolic argument %s changed since compilation" name
            (Arith.Var.name v))
      specialised;
    List.iter (fun (v, r) -> iregs.(r) <- sym_value name v sym_args) reg_slots;
    List.iter2
      (fun ((s : bslot), shape) (nd : Base.Ndarray.t) ->
        if nd.Base.Ndarray.shape <> shape then
          fail "%s: argument shape changed since compilation" name;
        match nd.Base.Ndarray.data with
        | Base.Ndarray.Float_data a when s.is_float -> fbufs.(s.index) <- a
        | Base.Ndarray.Int_data a when not s.is_float -> ibufs.(s.index) <- a
        | Base.Ndarray.Float_data _ | Base.Ndarray.Int_data _ ->
            fail "%s: argument storage kind does not match declared dtype" name)
      param_slots args;
    Imp.exec program ~iregs ~fregs ~fbufs ~ibufs

let run ?(sym_args = []) ?elide_bounds (f : Prim_func.t)
    (args : Base.Ndarray.t list) =
  let c =
    compile ~sym_args ?elide_bounds f
      (List.map (fun nd -> nd.Base.Ndarray.shape) args)
  in
  c sym_args args
