type instr =
  | Match_shape of { src : int; dims : Arith.Expr.t array }
  | Alloc_storage of { dst : int; bytes : Arith.Expr.t }
  | Alloc_tensor of {
      dst : int;
      storage : int option;
      dims : Arith.Expr.t array;
      dtype : Base.Dtype.t;
    }
  | Kill of int array
  | Call_kernel of {
      kernel : string;
      args : int array;
      sym_args : Arith.Expr.t array;
    }
  | Call_extern of { func : string; args : int array }
  | Call_func of { dst : int; func : string; args : int array }
  | Call_captured of { dst : int; func : string; args : int array; capture_id : int }
  | Make_tuple of { dst : int; srcs : int array }
  | Get_tuple of { dst : int; src : int; index : int }
  | Make_shape of { dst : int; dims : Arith.Expr.t array }
  | Cond of {
      cond : int;
      then_code : instr array;
      then_reg : int;
      else_code : instr array;
      else_reg : int;
      dst : int;
    }
  | Load_const of { dst : int; tensor : Base.Ndarray.t }
  | Ret of int

type vm_func = {
  fname : string;
  nparams : int;
  nregs : int;
  instrs : instr array;
  prov : string option array;
      (* originating Relax binding per instruction, for traces *)
}

type program = {
  funcs : (string * vm_func) list;
  mod_ : Relax_core.Ir_module.t;
}

type value =
  | Tensor of Base.Ndarray.t
  | Shadow of { shape : int array; dtype : Base.Dtype.t }
  | Storage_val of { id : int; bytes : int }
  | Shape_val of int array
  | Tuple_val of value list
  | Unit_val

type mode = [ `Numeric | `Timed of Device.t ]

type stats = {
  mutable elapsed_us : float;
  mutable kernel_launches : int;
  mutable lib_calls : int;
  mutable collective_calls : int;
  mutable graph_replays : int;
}

exception Vm_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Vm_error s)) fmt

type t = {
  mode : mode;
  program : program;
  alloc : Allocator.t;
  st : stats;
  trace : Trace.sink option;
  fault : Fault.t option;
  captured : (int, unit) Hashtbl.t;
  cost_cache : (string, Tir.Cost.t) Hashtbl.t;
  kernel_cache : Tir.Exec.Cache.t;
      (* (kernel name, shape signature) -> compiled kernels: a decode
         loop compiles each kernel once and replays thereafter. The
         backend (interp/imp) is fixed at VM creation; the imp backend
         elides bounds checks for kernels Analysis.Tir_safety proves
         memory-safe. *)
  storage_cache : (string * int, int * int) Hashtbl.t;
      (* (func, pc) -> (bytes, allocator id): planned storages are
         allocated once and reused across invocations *)
}

let create ?allocator ?trace ?fault ?(backend = Tir.Exec.default) mode program
    =
  let alloc =
    match allocator with Some a -> a | None -> Allocator.create `Pooling
  in
  {
    mode;
    program;
    alloc;
    st =
      {
        elapsed_us = 0.0;
        kernel_launches = 0;
        lib_calls = 0;
        collective_calls = 0;
        graph_replays = 0;
      };
    trace;
    fault;
    captured = Hashtbl.create 8;
    cost_cache = Hashtbl.create 64;
    kernel_cache = Tir.Exec.Cache.create ~prove:(Analysis.Proof.prover ()) backend;
    storage_cache = Hashtbl.create 32;
  }

let emit t ev = match t.trace with Some sink -> sink ev | None -> ()

(* Allocate and report whether the allocator recycled a pooled block. *)
let alloc_traced t kind bytes =
  let before = Allocator.alloc_count t.alloc in
  let id = Allocator.alloc t.alloc bytes in
  emit t
    (Trace.Alloc
       {
         kind;
         id;
         bytes;
         reused = Allocator.alloc_count t.alloc = before;
         live = Allocator.live_bytes t.alloc;
       });
  id

let instr_op = function
  | Match_shape _ -> "match_shape"
  | Alloc_storage _ -> "alloc_storage"
  | Alloc_tensor _ -> "alloc_tensor"
  | Kill _ -> "kill"
  | Call_kernel _ -> "call_kernel"
  | Call_extern _ -> "call_extern"
  | Call_func _ -> "call_func"
  | Call_captured _ -> "call_captured"
  | Make_tuple _ -> "make_tuple"
  | Get_tuple _ -> "get_tuple"
  | Make_shape _ -> "make_shape"
  | Cond _ -> "cond"
  | Load_const _ -> "load_const"
  | Ret _ -> "ret"

let stats t = t.st
let kernel_cache t = t.kernel_cache
let allocator t = t.alloc
let device t = match t.mode with `Timed d -> Some d | `Numeric -> None

let shadow_of_shape dtype dims =
  Shadow { shape = Array.of_list dims; dtype }

let tensor nd = Tensor nd

let value_shape = function
  | Tensor nd -> nd.Base.Ndarray.shape
  | Shadow { shape; _ } -> shape
  | Shape_val dims -> dims
  | Storage_val _ | Tuple_val _ | Unit_val ->
      fail "expected a tensor or shape value"

let value_dtype = function
  | Tensor nd -> nd.Base.Ndarray.dtype
  | Shadow { dtype; _ } -> dtype
  | Storage_val _ | Shape_val _ | Tuple_val _ | Unit_val ->
      fail "expected a tensor value"

let value_tensor = function
  | Tensor nd -> nd
  | Shadow _ -> fail "shadow tensors carry no data (timed mode)"
  | Storage_val _ | Shape_val _ | Tuple_val _ | Unit_val ->
      fail "expected a tensor value"

(* Per-invocation frame. *)
type frame = {
  regs : value option array;
  owned : int option array;  (** allocator storage owned by this register *)
  sym : (int, int) Hashtbl.t;  (** Arith var id -> runtime value *)
}

let reg frame i =
  match frame.regs.(i) with
  | Some v -> v
  | None -> fail "register %d read before write" i

let sym_lookup frame (v : Arith.Var.t) =
  match Hashtbl.find_opt frame.sym v.Arith.Var.id with
  | Some x -> x
  | None -> fail "unbound symbolic variable %s at runtime" (Arith.Var.name v)

let eval_dim frame e = Arith.Expr.eval (sym_lookup frame) e

(* Bind-or-check one declared dimension against an actual extent. *)
let match_dim t frame (declared : Arith.Expr.t) actual =
  match declared with
  | Arith.Expr.Var v -> (
      match Hashtbl.find_opt frame.sym v.Arith.Var.id with
      | Some bound ->
          if bound <> actual then
            fail "shape check failed: %s = %d but tensor has extent %d"
              (Arith.Var.name v) bound actual
          else
            emit t
              (Trace.Check_shape { expr = Arith.Var.name v; value = actual })
      | None ->
          Hashtbl.replace frame.sym v.Arith.Var.id actual;
          emit t (Trace.Bind_shape { var = Arith.Var.name v; value = actual }))
  | _ ->
      let expected = eval_dim frame declared in
      if expected <> actual then
        fail "shape check failed: expected extent %s = %d, got %d"
          (Arith.Expr.to_string declared)
          expected actual
      else
        emit t
          (Trace.Check_shape
             { expr = Arith.Expr.to_string declared; value = actual })

(* Unify a kernel's declared buffer shapes with actual argument shapes
   to recover its symbolic environment (same discipline as the TIR
   interpreter, but shape-only so it works on shadows). *)
let kernel_sym_env (kernel : Tir.Prim_func.t) (arg_shapes : int array list)
    (sym_args : (Arith.Var.t * int) list) =
  let env = Hashtbl.create 8 in
  List.iter (fun ((v : Arith.Var.t), x) -> Hashtbl.replace env v.Arith.Var.id x) sym_args;
  let deferred = ref [] in
  (try
     List.iter2
       (fun (b : Tir.Buffer.t) shape ->
         if List.length b.Tir.Buffer.shape <> Array.length shape then
           fail "kernel %s: rank mismatch on buffer %s" kernel.Tir.Prim_func.name
             b.Tir.Buffer.name;
         List.iteri
           (fun d dim ->
             match dim with
             | Arith.Expr.Var v -> (
                 match Hashtbl.find_opt env v.Arith.Var.id with
                 | Some bound ->
                     if bound <> shape.(d) then
                       fail "kernel %s: inconsistent binding of %s"
                         kernel.Tir.Prim_func.name (Arith.Var.name v)
                 | None -> Hashtbl.replace env v.Arith.Var.id shape.(d))
             | Arith.Expr.Const c ->
                 if c <> shape.(d) then
                   fail "kernel %s: buffer %s dim %d expected %d, got %d"
                     kernel.Tir.Prim_func.name b.Tir.Buffer.name d c shape.(d)
             | dim -> deferred := (dim, shape.(d)) :: !deferred)
           b.Tir.Buffer.shape)
       kernel.Tir.Prim_func.params arg_shapes
   with Invalid_argument _ ->
     fail "kernel %s: argument count mismatch" kernel.Tir.Prim_func.name);
  let lookup (v : Arith.Var.t) =
    match Hashtbl.find_opt env v.Arith.Var.id with
    | Some x -> x
    | None ->
        fail "kernel %s: symbolic variable %s not bound"
          kernel.Tir.Prim_func.name (Arith.Var.name v)
  in
  List.iter
    (fun (dim, actual) ->
      let v = Arith.Expr.eval lookup dim in
      if v <> actual then
        fail "kernel %s: dim %s = %d but argument has %d"
          kernel.Tir.Prim_func.name (Arith.Expr.to_string dim) v actual)
    !deferred;
  lookup

let kernel_cost t name kernel =
  match Hashtbl.find_opt t.cost_cache name with
  | Some c -> c
  | None ->
      let c = Tir.Cost.analyze kernel in
      Hashtbl.replace t.cost_cache name c;
      c

(* Charge simulated time for one generated-kernel launch; returns the
   microseconds charged (0 in numeric mode). *)
let charge_kernel t ~in_replay name kernel lookup dtype =
  t.st.kernel_launches <- t.st.kernel_launches + 1;
  match t.mode with
  | `Numeric -> 0.0
  | `Timed dev ->
      let cost = kernel_cost t name kernel in
      let flops = float_of_int (Arith.Expr.eval lookup cost.Tir.Cost.flops) in
      let bytes =
        float_of_int
          (Arith.Expr.eval lookup cost.Tir.Cost.bytes_read
          + Arith.Expr.eval lookup cost.Tir.Cost.bytes_written)
      in
      (* High-intensity matmul-like generated kernels re-read operands
         that a vendor library would stream once; matrix-vector shapes
         (low intensity) stream trivially and pay no penalty. *)
      let traffic_factor =
        match Tir.Pattern.kind_of kernel with
        | Tir.Pattern.Output_ewise_fusible
          when bytes > 0.0 && flops /. bytes > 12.0 ->
            dev.Device.gen_gemm_traffic
        | _ -> 1.0
      in
      let compute_us =
        flops /. (Device.peak_gflops dev dtype *. dev.Device.gen_eff *. 1e3)
      in
      let memory_us =
        bytes *. traffic_factor
        /. (dev.Device.mem_bw_gbps *. dev.Device.mem_eff *. 1e3)
      in
      let time = Float.max compute_us memory_us in
      let time =
        (* Injected device stall: this launch runs [stall_factor]x
           slower on the simulated clock. *)
        match t.fault with
        | Some inj -> (
            match Fault.device_stall inj ~site:name with
            | Some (ev, factor) ->
                emit t (Trace.Fault_injected ev);
                time *. factor
            | None -> time)
        | None -> time
      in
      let overhead = if in_replay then 0.0 else dev.Device.launch_overhead_us in
      t.st.elapsed_us <- t.st.elapsed_us +. time +. overhead;
      time +. overhead

let charge_extern t ~in_replay (impl : Library.impl) shapes dtype =
  t.st.lib_calls <- t.st.lib_calls + 1;
  match t.mode with
  | `Numeric -> 0.0
  | `Timed dev ->
      let cost = impl.Library.cost_fn shapes dtype in
      let lib_eff =
        if dev.Device.lib_gemm_eff > 0.0 then dev.Device.lib_gemm_eff else 0.3
      in
      let mem_factor = if cost.Library.small_batch then 0.7 else 1.0 in
      let compute_us =
        cost.Library.flops /. (Device.peak_gflops dev dtype *. lib_eff *. 1e3)
      in
      let memory_us =
        cost.Library.bytes
        /. (dev.Device.mem_bw_gbps *. dev.Device.mem_eff *. mem_factor *. 1e3)
      in
      let time = Float.max compute_us memory_us in
      let time =
        match t.fault with
        | Some inj -> (
            match Fault.device_stall inj ~site:impl.Library.name with
            | Some (ev, factor) ->
                emit t (Trace.Fault_injected ev);
                time *. factor
            | None -> time)
        | None -> time
      in
      let overhead = if in_replay then 0.0 else dev.Device.launch_overhead_us in
      let charged = time +. overhead in
      t.st.elapsed_us <- t.st.elapsed_us +. charged;
      charged

(* Charge a ccl.* collective from the device interconnect link model
   rather than the memory roofline: ring all-reduce moves 2(w-1)/w of
   the tensor, all-gather (w-1)/w, plus per-hop latencies
   (Device.all_reduce_us / all_gather_us).  Returns (charged, wire
   bytes). *)
let charge_collective t ~in_replay func ~world ~bytes =
  t.st.collective_calls <- t.st.collective_calls + 1;
  let op =
    if func = "ccl.all_reduce" then `All_reduce
    else if func = "ccl.all_gather" then `All_gather
    else fail "unknown collective %s" func
  in
  let wire = Device.collective_wire_bytes ~op ~world ~bytes in
  match t.mode with
  | `Numeric -> (0.0, wire)
  | `Timed dev ->
      let link = dev.Device.link in
      let time =
        match op with
        | `All_reduce -> Device.all_reduce_us link ~world ~bytes
        | `All_gather -> Device.all_gather_us link ~world ~bytes
      in
      let time =
        match t.fault with
        | Some inj -> (
            match Fault.device_stall inj ~site:func with
            | Some (ev, factor) ->
                emit t (Trace.Fault_injected ev);
                time *. factor
            | None -> time)
        | None -> time
      in
      let overhead = if in_replay then 0.0 else dev.Device.launch_overhead_us in
      let charged = time +. overhead in
      t.st.elapsed_us <- t.st.elapsed_us +. charged;
      (charged, wire)

let find_func t name =
  match List.assoc_opt name t.program.funcs with
  | Some f -> f
  | None -> fail "VM function %s not found" name

exception Return of value

let rec exec_func t ~in_replay ?(top = false) ?(overhead_us = 0.0)
    (f : vm_func) (args : value list) : value =
  if List.length args <> f.nparams then
    fail "%s: expected %d arguments, got %d" f.fname f.nparams
      (List.length args);
  let frame =
    {
      regs = Array.make f.nregs None;
      owned = Array.make f.nregs None;
      sym = Hashtbl.create 16;
    }
  in
  List.iteri (fun i v -> frame.regs.(i) <- Some v) args;
  emit t (Trace.Enter { func = f.fname; top; overhead_us });
  let step pc i =
    match t.trace with
    | None -> exec_instr t ~in_replay ~fname:f.fname ~pc ~prov:None frame i
    | Some sink ->
        let prov = if pc < Array.length f.prov then f.prov.(pc) else None in
        sink
          (Trace.Instr_begin { func = f.fname; pc; op = instr_op i; prov });
        let t0 = t.st.elapsed_us in
        exec_instr t ~in_replay ~fname:f.fname ~pc ~prov frame i;
        sink
          (Trace.Instr_end
             { func = f.fname; pc; elapsed_us = t.st.elapsed_us -. t0 })
  in
  match Array.iteri step f.instrs with
  | () -> fail "%s: function ended without Ret" f.fname
  | exception Return v ->
      (match t.trace with
      | None -> ()
      | Some sink ->
          (* Registers still owning storage at frame exit: their last
             possible use has passed (trace-only; nothing is freed). *)
          Array.iter
            (function
              | Some id ->
                  let bytes =
                    Option.value ~default:0 (Allocator.size_of t.alloc id)
                  in
                  sink (Trace.End_of_life { id; bytes })
              | None -> ())
            frame.owned;
          sink (Trace.Exit { func = f.fname }));
      v

and exec_instr t ~in_replay ~fname ~pc ~prov frame (i : instr) : unit =
  match i with
  | Match_shape { src; dims } ->
      let actual = value_shape (reg frame src) in
      if Array.length actual <> Array.length dims then
        fail "shape check failed: rank %d vs declared %d" (Array.length actual)
          (Array.length dims);
      Array.iteri (fun d declared -> match_dim t frame declared actual.(d)) dims
  | Alloc_storage { dst; bytes } ->
      (* Planned storages persist across invocations: the static plan
         allocates once; a changed symbolic size forces reallocation. *)
      let b = eval_dim frame bytes in
      let key = (fname, pc) in
      let id =
        match Hashtbl.find_opt t.storage_cache key with
        | Some (prev_bytes, prev_id) when prev_bytes = b ->
            emit t
              (Trace.Alloc
                 {
                   kind = `Storage;
                   id = prev_id;
                   bytes = b;
                   reused = true;
                   live = Allocator.live_bytes t.alloc;
                 });
            prev_id
        | Some (prev_bytes, prev_id) ->
            Allocator.free t.alloc prev_id;
            emit t
              (Trace.Free
                 {
                   id = prev_id;
                   bytes = prev_bytes;
                   live = Allocator.live_bytes t.alloc;
                 });
            let id = alloc_traced t `Storage b in
            Hashtbl.replace t.storage_cache key (b, id);
            id
        | None ->
            let id = alloc_traced t `Storage b in
            Hashtbl.replace t.storage_cache key (b, id);
            id
      in
      frame.regs.(dst) <- Some (Storage_val { id; bytes = b })
  | Alloc_tensor { dst; storage; dims; dtype } ->
      let shape = Array.map (eval_dim frame) dims in
      (match storage with
      | Some s ->
          (* Instantiate inside planned storage: check capacity. *)
          let needed =
            Array.fold_left ( * ) 1 shape * Base.Dtype.size_in_bytes dtype
          in
          (match reg frame s with
          | Storage_val { bytes; id } ->
              if needed > bytes then
                fail "tensor of %d bytes does not fit storage of %d bytes"
                  needed bytes
              else
                emit t
                  (Trace.Tensor_in_storage { storage_id = id; bytes = needed })
          | _ -> fail "Alloc_tensor: register %d is not a storage" s)
      | None ->
          let bytes =
            Array.fold_left ( * ) 1 shape * Base.Dtype.size_in_bytes dtype
          in
          frame.owned.(dst) <- Some (alloc_traced t `Tensor bytes));
      let v =
        match t.mode with
        | `Numeric -> Tensor (Base.Ndarray.create dtype shape)
        | `Timed _ -> Shadow { shape; dtype }
      in
      frame.regs.(dst) <- Some v
  | Kill regs ->
      Array.iter
        (fun r ->
          (match frame.owned.(r) with
          | Some id ->
              let bytes =
                Option.value ~default:0 (Allocator.size_of t.alloc id)
              in
              Allocator.free t.alloc id;
              emit t
                (Trace.Free { id; bytes; live = Allocator.live_bytes t.alloc })
          | None -> ());
          frame.owned.(r) <- None)
        regs
  | Call_kernel { kernel; args; sym_args } ->
      let kf =
        match Relax_core.Ir_module.find_tir t.program.mod_ kernel with
        | Some kf -> kf
        | None -> fail "kernel %s not found in module" kernel
      in
      let arg_vals = Array.to_list (Array.map (reg frame) args) in
      let shapes = List.map value_shape arg_vals in
      let sym_bindings =
        List.map2
          (fun v e -> (v, eval_dim frame e))
          kf.Tir.Prim_func.sym_params
          (Array.to_list sym_args)
      in
      let lookup = kernel_sym_env kf shapes sym_bindings in
      let dtype =
        (* Compute throughput follows the output's dtype: quantized
           kernels lead with packed integer inputs but do f16 math. *)
        match List.rev kf.Tir.Prim_func.params with
        | out :: _ -> out.Tir.Buffer.dtype
        | [] -> Base.Dtype.F32
      in
      (* Injected transient kernel failure: the launch never happens —
         no time is charged, no trace launch event is emitted — and
         the typed error surfaces to the caller's retry policy. *)
      (match t.fault with
      | Some inj -> (
          match Fault.kernel_failure inj ~site:kernel with
          | Some ev ->
              emit t (Trace.Fault_injected ev);
              raise
                (Fault.Error
                   ( Fault.Transient,
                     Printf.sprintf "injected transient failure in kernel %s"
                       kernel ))
          | None -> ())
      | None -> ());
      let charged = charge_kernel t ~in_replay kernel kf lookup dtype in
      (match t.trace with
      | Some sink ->
          let cost = kernel_cost t kernel kf in
          let flops = Arith.Expr.eval lookup cost.Tir.Cost.flops in
          let bytes_moved =
            Arith.Expr.eval lookup cost.Tir.Cost.bytes_read
            + Arith.Expr.eval lookup cost.Tir.Cost.bytes_written
          in
          sink
            (Trace.Kernel_launch
               {
                 kernel;
                 prov;
                 replay = in_replay;
                 shapes = Array.of_list shapes;
                 flops;
                 bytes_moved;
                 elapsed_us = charged;
                 backend =
                   Tir.Exec.backend_name
                     (Tir.Exec.Cache.backend t.kernel_cache);
               })
      | None -> ());
      (match t.mode with
      | `Numeric ->
          Tir.Exec.Cache.run t.kernel_cache ~sym_args:sym_bindings kf
            (List.map value_tensor arg_vals)
      | `Timed _ -> ())
  | Call_extern { func; args } ->
      let impl =
        match Library.find func with
        | Some impl -> impl
        | None -> fail "external function %s not registered" func
      in
      let arg_vals = Array.map (reg frame) args in
      let shapes = Array.map value_shape arg_vals in
      let dtype = value_dtype arg_vals.(Array.length arg_vals - 1) in
      if Library.is_collective func then begin
        (* Shard inputs x_0..x_{w-1} then output: world = nargs - 1.
           [bytes] is the full (unsharded) tensor: the output. *)
        let world = Array.length arg_vals - 1 in
        let out_shape = shapes.(Array.length shapes - 1) in
        let bytes =
          float_of_int
            (Array.fold_left ( * ) 1 out_shape * Base.Dtype.size_in_bytes dtype)
        in
        let charged, wire =
          charge_collective t ~in_replay func ~world ~bytes
        in
        match t.trace with
        | Some sink ->
            sink
              (Trace.Collective
                 {
                   op = func;
                   prov;
                   replay = in_replay;
                   world;
                   shapes;
                   bytes_wire = wire;
                   elapsed_us = charged;
                 })
        | None -> ()
      end
      else begin
        let charged = charge_extern t ~in_replay impl shapes dtype in
        match t.trace with
        | Some sink ->
            let cost = impl.Library.cost_fn shapes dtype in
            sink
              (Trace.Extern_call
                 {
                   func;
                   prov;
                   replay = in_replay;
                   shapes;
                   flops = cost.Library.flops;
                   bytes_moved = cost.Library.bytes;
                   elapsed_us = charged;
                 })
        | None -> ()
      end;
      (match t.mode with
      | `Numeric -> impl.Library.compute (Array.map value_tensor arg_vals)
      | `Timed _ -> ());
      (* Injected library corruption: the routine "succeeded" but its
         output (destination-passing: last argument) carries NaN. *)
      (match t.fault with
      | Some inj -> (
          match Fault.nan_corruption inj ~site:func with
          | Some ev ->
              emit t (Trace.Fault_injected ev);
              (match t.mode with
              | `Numeric ->
                  Library.poison
                    (value_tensor arg_vals.(Array.length arg_vals - 1))
              | `Timed _ -> ())
          | None -> ())
      | None -> ())
  | Call_func { dst; func; args } ->
      let callee = find_func t func in
      let v =
        exec_func t ~in_replay callee
          (Array.to_list (Array.map (reg frame) args))
      in
      frame.regs.(dst) <- Some v
  | Call_captured { dst; func; args; capture_id } ->
      let callee = find_func t func in
      let first = not (Hashtbl.mem t.captured capture_id) in
      let replay = not first in
      if replay then begin
        t.st.graph_replays <- t.st.graph_replays + 1;
        let overhead_us =
          match t.mode with
          | `Timed dev ->
              t.st.elapsed_us <-
                t.st.elapsed_us +. dev.Device.graph_replay_overhead_us;
              dev.Device.graph_replay_overhead_us
          | `Numeric -> 0.0
        in
        emit t (Trace.Capture_replay { capture_id; func; overhead_us })
      end
      else begin
        Hashtbl.replace t.captured capture_id ();
        emit t (Trace.Capture_begin { capture_id; func })
      end;
      let v =
        exec_func t ~in_replay:replay callee
          (Array.to_list (Array.map (reg frame) args))
      in
      frame.regs.(dst) <- Some v
  | Make_tuple { dst; srcs } ->
      frame.regs.(dst) <-
        Some (Tuple_val (Array.to_list (Array.map (reg frame) srcs)))
  | Get_tuple { dst; src; index } -> (
      match reg frame src with
      | Tuple_val vs -> (
          match List.nth_opt vs index with
          | Some v -> frame.regs.(dst) <- Some v
          | None -> fail "tuple index %d out of bounds" index)
      | _ -> fail "Get_tuple on non-tuple register %d" src)
  | Make_shape { dst; dims } ->
      frame.regs.(dst) <- Some (Shape_val (Array.map (eval_dim frame) dims))
  | Cond { cond; then_code; then_reg; else_code; else_reg; dst } ->
      let truthy =
        match reg frame cond with
        | Tensor nd ->
            Base.Ndarray.numel nd > 0 && Base.Ndarray.get_flat_float nd 0 <> 0.0
        | Shape_val [| x |] -> x <> 0
        | Shape_val _ -> true
        | Shadow _ -> true (* timed mode: branch statically *)
        | Storage_val _ | Tuple_val _ | Unit_val ->
            fail "Cond: register %d is not a scalar condition" cond
      in
      let code, res = if truthy then (then_code, then_reg) else (else_code, else_reg) in
      Array.iteri
        (fun pc i ->
          exec_instr t ~in_replay ~fname ~pc:(-pc - 1) ~prov:None frame i)
        code;
      frame.regs.(dst) <- Some (reg frame res)
  | Load_const { dst; tensor } ->
      let v =
        match t.mode with
        | `Numeric -> Tensor tensor
        | `Timed _ ->
            Shadow
              { shape = tensor.Base.Ndarray.shape;
                dtype = tensor.Base.Ndarray.dtype }
      in
      frame.regs.(dst) <- Some v
  | Ret r -> raise (Return (reg frame r))

let run t name args =
  let f = find_func t name in
  let overhead_us =
    match t.mode with
    | `Timed dev ->
        t.st.elapsed_us <- t.st.elapsed_us +. dev.Device.step_overhead_us;
        dev.Device.step_overhead_us
    | `Numeric -> 0.0
  in
  exec_func t ~in_replay:false ~top:true ~overhead_us f args
