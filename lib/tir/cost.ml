type t = {
  flops : Arith.Expr.t;
  bytes_read : Arith.Expr.t;
  bytes_written : Arith.Expr.t;
  transcendentals : Arith.Expr.t;
}

(* Arithmetic work: per-expression op counts of each store/evaluate,
   multiplied by the extents of enclosing loops. Both branches of an
   [If] are counted — a small overestimate for init guards, dominated
   by the loop body. Parameterized over the per-expression counter so
   flops and transcendental-call counts share one walk structure. *)
let rec ops_of_stmt count (s : Stmt.t) : Arith.Expr.t =
  match s with
  | Stmt.Seq ss ->
      List.fold_left
        (fun acc s -> Arith.Expr.add acc (ops_of_stmt count s))
        (Arith.Expr.const 0) ss
  | Stmt.For { extent; body; _ } ->
      Arith.Expr.mul extent (ops_of_stmt count body)
  | Stmt.Store (_, idxs, v) ->
      Arith.Expr.const
        (count v + List.fold_left (fun acc i -> acc + count i) 0 idxs)
  | Stmt.If (c, t, e) ->
      Arith.Expr.add
        (Arith.Expr.const (count c))
        (Arith.Expr.add (ops_of_stmt count t)
           (match e with
           | Some e -> ops_of_stmt count e
           | None -> Arith.Expr.const 0))
  | Stmt.Alloc (_, body) -> ops_of_stmt count body
  | Stmt.Assert _ -> Arith.Expr.const 0
  | Stmt.Evaluate e -> Arith.Expr.const (count e)

let flops_of_stmt = ops_of_stmt Texpr.count_flops

(* Transcendental library calls (exp, log, tanh, ... and pow): an
   order of magnitude slower than an add or multiply in the fused imp
   loops, so the time model charges them separately. Sqrt/rsqrt/abs
   are hardware-cheap and excluded. *)
let rec count_transcendentals (e : Texpr.t) : int =
  match e with
  | Texpr.Imm_int _ | Texpr.Imm_float _ | Texpr.Idx _ -> 0
  | Texpr.Load (_, idxs) ->
      List.fold_left (fun acc i -> acc + count_transcendentals i) 0 idxs
  | Texpr.Binop (op, a, b) ->
      (match op with Texpr.Pow -> 1 | _ -> 0)
      + count_transcendentals a + count_transcendentals b
  | Texpr.Unop (op, a) ->
      (match op with
      | Texpr.Exp | Texpr.Log | Texpr.Tanh | Texpr.Sigmoid | Texpr.Erf
      | Texpr.Cos | Texpr.Sin ->
          1
      | Texpr.Neg | Texpr.Abs | Texpr.Not | Texpr.Sqrt | Texpr.Rsqrt -> 0)
      + count_transcendentals a
  | Texpr.Cast (_, a) -> count_transcendentals a
  | Texpr.Select (c, a, b) ->
      count_transcendentals c + count_transcendentals a
      + count_transcendentals b

let trans_of_stmt = ops_of_stmt count_transcendentals

let is_global (b : Buffer.t) =
  match b.Buffer.scope with
  | Buffer.Global -> true
  | Buffer.Shared | Buffer.Local -> false

(* Global-memory traffic per buffer: the smaller of its footprint
   (ideal on-chip reuse — the matmul/attention regime) and the number
   of accesses actually executed (the gather/copy regime, where a
   kernel touches far less than the whole buffer, e.g. an embedding
   lookup into a large table). *)
let accumulate add_access stmt =
  let rec walk mult (s : Stmt.t) =
    match s with
    | Stmt.Seq ss -> List.iter (walk mult) ss
    | Stmt.For { extent; body; _ } -> walk (Arith.Expr.mul mult extent) body
    | Stmt.Store (b, idxs, v) ->
        add_access `Write b mult;
        List.iter
          (fun (lb, _) -> add_access `Read lb mult)
          (List.concat_map Texpr.loads idxs @ Texpr.loads v)
    | Stmt.If (c, t, e) ->
        List.iter (fun (lb, _) -> add_access `Read lb mult) (Texpr.loads c);
        walk mult t;
        (match e with Some e -> walk mult e | None -> ())
    | Stmt.Alloc (_, body) -> walk mult body
    | Stmt.Assert (c, _) ->
        List.iter (fun (lb, _) -> add_access `Read lb mult) (Texpr.loads c)
    | Stmt.Evaluate e ->
        List.iter (fun (lb, _) -> add_access `Read lb mult) (Texpr.loads e)
  in
  walk (Arith.Expr.const 1) stmt

let analyze (f : Prim_func.t) : t =
  let body = f.Prim_func.body in
  let reads : (int, Buffer.t * Arith.Expr.t) Hashtbl.t = Hashtbl.create 8 in
  let writes : (int, Buffer.t * Arith.Expr.t) Hashtbl.t = Hashtbl.create 8 in
  let add_access kind (b : Buffer.t) mult =
    if is_global b then begin
      let table = match kind with `Read -> reads | `Write -> writes in
      let prev =
        match Hashtbl.find_opt table b.Buffer.id with
        | Some (_, e) -> e
        | None -> Arith.Expr.const 0
      in
      Hashtbl.replace table b.Buffer.id (b, Arith.Expr.add prev mult)
    end
  in
  accumulate add_access body;
  let traffic table =
    Hashtbl.fold
      (fun _ ((b : Buffer.t), accesses) acc ->
        let elem = Arith.Expr.const (Base.Dtype.size_in_bytes b.Buffer.dtype) in
        let by_access = Arith.Expr.mul accesses elem in
        Arith.Expr.add acc (Arith.Expr.min_ (Buffer.size_in_bytes b) by_access))
      table (Arith.Expr.const 0)
  in
  {
    flops = Arith.Simplify.simplify (flops_of_stmt body);
    bytes_read = Arith.Simplify.simplify (traffic reads);
    bytes_written = Arith.Simplify.simplify (traffic writes);
    transcendentals = Arith.Simplify.simplify (trans_of_stmt body);
  }

let total_bytes t = Arith.Expr.add t.bytes_read t.bytes_written

(* Per-flop costs of the imp backend's loop forms, calibrated against
   BENCH_kernels.json (matmul 128³ for the row rate, layer_norm and
   softmax 256×1024 for the others). The discriminators are the ones
   {!Imp_compile} uses: an innermost loop whose body is a single store
   fuses into a native trip loop — cheapest when it is a reduction
   (the accumulator lives in a register), a little more per element
   for streaming maps (a load/store pair per element). A loop whose
   body is a row-stream nest (matmul's row, attention's value loop;
   {!Imp_compile.row_stream_extent} is the lowering's own predicate)
   runs k-outer over unit-stride rows and is priced per multiply-add
   at its own rate. Any other statement pays per-instruction
   register-machine dispatch. Transcendental library calls carry a
   flat surcharge regardless of loop shape. A row-stream nest big
   enough for {!Imp.splits_row} runs split across {!Imp.split_width}
   domains (assuming the kernel is proved, as every zoo kernel is):
   it costs its longest range plus the measured cost of publishing and
   joining an empty split on the 2-vCPU bench host (0.6-0.9 us over six
   runs). matmul 128³ sits below {!Imp.split_min_nj} and is priced
   serially, as it runs. Over six kernel-bench runs it took
   0.46-1.29x (median 0.85x) as long as layer_norm 256×1024; the row
   rate is set to that median ratio against layer_norm's estimate,
   whose own rates were calibrated in an earlier, faster host phase.
   The absolute numbers only need to be right relative to each other:
   rankings compare estimates against estimates. *)
let imp_reduction_ns_per_flop = 0.55
let imp_map_ns_per_flop = 0.65
let imp_row_ns_per_flop = 0.35
let imp_dispatch_ns_per_flop = 3.0
let imp_transcendental_ns = 16.0
let imp_split_overhead_ns = 800.0

let est_imp_ns (f : Prim_func.t) lookup : float =
  let ev e = float_of_int (Arith.Expr.eval lookup e) in
  (* the row-stream predicate resolves shape variables only; loop
     variables must stay symbolic, as they are in the lowering *)
  let loop_vars = Hashtbl.create 16 in
  let rec collect (s : Stmt.t) =
    match s with
    | Stmt.Seq ss -> List.iter collect ss
    | Stmt.For { var; body; _ } ->
        Hashtbl.replace loop_vars var.Arith.Var.id ();
        collect body
    | Stmt.If (_, t, e) ->
        collect t;
        Option.iter collect e
    | Stmt.Alloc (_, body) -> collect body
    | Stmt.Store _ | Stmt.Assert _ | Stmt.Evaluate _ -> ()
  in
  collect f.Prim_func.body;
  let sym_lookup (v : Arith.Var.t) =
    if Hashtbl.mem loop_vars v.Arith.Var.id then None else Some (lookup v)
  in
  let shape (b : Buffer.t) =
    Array.of_list (List.map (Arith.Expr.eval lookup) b.Buffer.shape)
  in
  let rec single_store = function
    | Stmt.Store (b, idxs, v) -> Some (b, idxs, v)
    | Stmt.Seq [ s ] -> single_store s
    | _ -> None
  in
  let store_cost ~fused (b : Buffer.t) idxs v =
    let flops =
      float_of_int
        (Texpr.count_flops v
        + List.fold_left (fun acc i -> acc + Texpr.count_flops i) 0 idxs)
    in
    let trans = float_of_int (count_transcendentals v) in
    let self_load =
      List.exists
        (fun ((b' : Buffer.t), li) -> b'.Buffer.id = b.Buffer.id && li = idxs)
        (Texpr.loads v)
    in
    let rate =
      if not fused then imp_dispatch_ns_per_flop
      else if self_load then imp_reduction_ns_per_flop
      else imp_map_ns_per_flop
    in
    (* a data-movement store (zero flops) still costs one element step *)
    let units = Float.max flops 1.0 in
    ((units -. trans) *. rate) +. (trans *. imp_transcendental_ns)
  in
  let rec walk mult (s : Stmt.t) : float =
    match s with
    | Stmt.Seq ss -> List.fold_left (fun acc s -> acc +. walk mult s) 0.0 ss
    | Stmt.For { var; extent; body; _ } -> (
        let n = Float.max (ev extent) 0.0 in
        match single_store body with
        | Some (b, idxs, v) -> mult *. n *. store_cost ~fused:true b idxs v
        | None -> (
            match
              Imp_compile.row_stream_extent
                ~lookup:sym_lookup ~shape var body
            with
            | Some nk ->
                (* one streamed init per row element, then one
                   multiply-add per (j, k) *)
                let nk = max (Arith.Expr.eval lookup nk) 0 in
                let per_j =
                  imp_map_ns_per_flop
                  +. (float_of_int nk *. 2.0 *. imp_row_ns_per_flop)
                in
                let nj = int_of_float n in
                if Imp.splits_row ~nj ~nk then begin
                  let b = Imp.split_bounds ~width:Imp.split_width nj in
                  let longest = ref 0 in
                  for r = 0 to Array.length b - 2 do
                    longest := max !longest (b.(r + 1) - b.(r))
                  done;
                  mult
                  *. ((float_of_int !longest *. per_j) +. imp_split_overhead_ns)
                end
                else mult *. n *. per_j
            | None -> walk (mult *. n) body))
    | Stmt.Store (b, idxs, v) -> mult *. store_cost ~fused:false b idxs v
    | Stmt.If (c, t, e) ->
        (mult *. float_of_int (Texpr.count_flops c)
        *. imp_dispatch_ns_per_flop)
        +. walk mult t
        +. (match e with Some e -> walk mult e | None -> 0.0)
    | Stmt.Alloc (_, body) -> walk mult body
    | Stmt.Assert _ -> 0.0
    | Stmt.Evaluate e ->
        mult
        *. float_of_int (Texpr.count_flops e)
        *. imp_dispatch_ns_per_flop
  in
  walk 1.0 f.Prim_func.body

let eval lookup t ~flops ~bytes =
  flops := !flops + Arith.Expr.eval lookup t.flops;
  bytes :=
    !bytes
    + Arith.Expr.eval lookup t.bytes_read
    + Arith.Expr.eval lookup t.bytes_written
