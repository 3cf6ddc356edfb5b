(* Flat imperative IR ("Imp") and its register-machine evaluator.

   The reference interpreter ({!Interp}) walks the AST per element,
   boxing every value and looking variables up in hashtables. This IR
   removes that dispatch: a kernel lowers (see {!Imp_compile}) to a
   single flat [instr array] executed by a program-counter loop over
   unboxed int/float register files, with buffer accesses as flat
   offsets into the raw storage arrays.

   Design notes:
   - Registers are indices into two flat arrays ([int array] /
     [float array]) owned by the compiled kernel and reused across
     calls; the lowering is SSA-like (each value register is written
     before any read), so no clearing between runs is needed. The
     int registers of register-held symbolic arguments are written
     when a call binds the kernel, before [exec].
   - Loads and stores come in checked and unsafe variants. The checked
     forms use OCaml's bounds-checked array access; the unsafe forms
     ([Array.unsafe_get]/[unsafe_set]) are emitted only when
     {!Analysis.Tir_safety} proved every access of the kernel
     in-bounds (see the proof-elision contract in DESIGN.md §12).
   - [Fma] is fused at the *dispatch* level only: it computes
     [acc +. (a *. b)] with two IEEE roundings, exactly like the
     interpreter, so the two backends stay bit-identical.
   - [Frow] runs a whole reduction nest (matmul's row) k-outer and
     j-inner, so both its operand rows stream with unit stride. It
     keeps each output element's operation sequence, and also the
     operand order of every add and multiply: the running value is
     let-bound before each update so the native code keeps it as the
     first operand of the add; with two NaN operands x86 returns the
     first, so NaN signs and payloads come out as in the interpreter
     (the special-value differential in test_compile pins this).
     [Fma] let-binds its accumulator for the same reason.
   - A proved [Frow] with enough work splits its [j] range across a
     small pool of domains ([Pool] below); each output element is
     still computed by one domain in the serial order.
   - Jump targets are absolute instruction indices. {!Imp_compile}
     emits symbolic label ids and resolves them when flattening. *)

(* Integer binary ops. Division/modulo keep the interpreter's two
   failure behaviors: [Div]/[Fdiv]/[Fmod] are the Texpr-level ops
   raising {!Interp.Runtime_error} on a zero divisor, while
   [Fdivx]/[Fmodx] are the Arith-index-level ops raising
   [Division_by_zero] (what {!Arith.Expr.eval} does on the
   interpreter's index path). *)
type ibin =
  | Add
  | Sub
  | Mul
  | Div  (** truncating; fails "integer division by zero" *)
  | Fdiv  (** floor division; fails "floordiv by zero" *)
  | Fmod  (** floor modulo; fails "floormod by zero" *)
  | Fdivx  (** floor division; raises [Division_by_zero] *)
  | Fmodx  (** floor modulo; raises [Division_by_zero] *)
  | Min
  | Max
  | And_
  | Or_
  | Xor
  | Shl
  | Shr  (** arithmetic shift right, matching the interpreter's [asr] *)

type icmp = Eq | Ne | Lt | Le | Gt | Ge

type fbin = FAdd | FSub | FMul | FDiv | FRem | FMin | FMax | FPow

type funop =
  | FNeg
  | FExp
  | FLog
  | FSqrt
  | FRsqrt
  | FTanh
  | FSigmoid
  | FErf
  | FAbs
  | FCos
  | FSin
  | FFloor  (** used to build float floor-division as [floor (a /. b)] *)

(* A strided element stream for fused loops: element [i] lives at flat
   offset [iregs.(sbase) + i * sstride] of float buffer [sbuf]. The
   base register is loop-invariant address arithmetic hoisted by
   {!Imp_compile}; the stride is a per-signature constant. *)
type stream = { sbuf : int; sbase : int; sstride : int }

(* A float operand of a fused map loop: either a loop-invariant
   register or a strided stream. *)
type fsrc = Sreg of int | Sstream of stream

(* Fused innermost-loop forms ("superinstructions"). Per-element
   instruction dispatch costs more than the arithmetic it drives, so
   the lowering pattern-matches the innermost loops the kernel zoo
   and the scheduler actually emit — strided reductions and streaming
   maps — into single instructions whose trip loop runs natively.
   Each form performs exactly the per-element operations (same
   association, same rounding order) as the generic lowering, so
   bit-identity with the interpreter is preserved. Loops that match
   no form take the generic unrolled path. *)
type floop_op =
  | Lsum of stream  (** acc <- acc +. s[i] *)
  | Lmax of stream  (** acc <- Float.max acc s[i] *)
  | Lmin of stream  (** acc <- Float.min acc s[i] *)
  | Ldot of stream * stream  (** acc <- acc +. (a[i] *. b[i]) *)
  | Lsum_exp_sub of stream * int
      (** acc <- acc +. exp (s[i] -. fregs.(c)): softmax denominators *)
  | Lsum_sq_sub of stream * int
      (** acc <- acc +. ((s[i] -. c) *. (s[i] -. c)): variance passes *)
  | Lmap_copy of { src : fsrc; dst : stream }
  | Lmap_unop of { op : funop; src : stream; dst : stream }
  | Lmap_bin of { op : fbin; a : fsrc; b : fsrc; dst : stream }
  | Lmap_exp_sub_div of { src : stream; c1 : int; c2 : int; dst : stream }
      (** dst[i] = exp (src[i] -. c1) /. c2: softmax normalize *)
  | Lmap_norm of { src : stream; c1 : int; c2 : int; g : stream; b : stream; dst : stream }
      (** dst[i] = ((src[i] -. c1) *. c2 *. g[i]) +. b[i]: layer_norm *)

(* The k-stream scaling of a row-stream nest: [a_k] as loaded, or
   combined once per [k] with a register that depends on neither loop
   variable (attention's [s[k] /. sm]). *)
type kscale = Unscaled | Mul_by of int | Div_by of int

type instr =
  (* integer registers *)
  | Iconst of { dst : int; v : int }
  | Imov of { dst : int; src : int }
  | Ibin of { op : ibin; dst : int; a : int; b : int }
  | Iaddi of { dst : int; a : int; imm : int }
  | Imuli of { dst : int; a : int; imm : int }
  | Icmp of { op : icmp; dst : int; a : int; b : int }
  | Itruth of { dst : int; a : int }  (** dst = (a <> 0) *)
  | Inot of { dst : int; a : int }  (** dst = logical not of a's truth *)
  | Ineg of { dst : int; a : int }
  | Iabs of { dst : int; a : int }
  (* float registers *)
  | Fconst of { dst : int; v : float }
  | Fmov of { dst : int; src : int }
  | Fbin of { op : fbin; dst : int; a : int; b : int }
  | Funop of { op : funop; dst : int; a : int }
  | Fcmp of { op : icmp; dst : int; a : int; b : int }  (** int dst *)
  | Ftruth of { dst : int; a : int }  (** int dst = (a <> 0.0) *)
  | Fma of { acc : int; a : int; b : int }  (** acc <- acc +. (a *. b) *)
  | Ffloat_of_int of { dst : int; src : int }
  | Fint_of_float of { dst : int; src : int }
  (* memory: effective index is iregs.(addr) + off *)
  | Fload of { dst : int; buf : int; addr : int; off : int }
  | Fload_u of { dst : int; buf : int; addr : int; off : int }
  | Fstore of { buf : int; addr : int; off : int; src : int }
  | Fstore_u of { buf : int; addr : int; off : int; src : int }
  | Iload of { dst : int; buf : int; addr : int; off : int }
  | Iload_u of { dst : int; buf : int; addr : int; off : int }
  | Istore of { buf : int; addr : int; off : int; src : int }
  | Istore_u of { buf : int; addr : int; off : int; src : int }
  (* control flow *)
  | Jmp of { target : int }
  | Jif of { c : int; target : int }  (** jump when iregs.(c) <> 0 *)
  | Jifnot of { c : int; target : int }
  | Jge of { a : int; b : int; target : int }
      (** jump when iregs.(a) >= iregs.(b): the loop guard *)
  (* scoped scratch buffers: a fresh zeroed array of [iregs.(numel)]
     elements per scope entry, released (reset to [||]) at scope exit,
     like the interpreter's per-scope Ndarray *)
  | Alloc_f of { buf : int; numel : int }
  | Alloc_i of { buf : int; numel : int }
  | Free_f of { buf : int }
  | Free_i of { buf : int }
  | Floop of { n : int; acc : int; op : floop_op; unsafe : bool }
      (** fused innermost loop: [n] is the trip-count ireg, [acc] the
          reduction freg (ignored by map forms), [unsafe] selects
          unchecked element access under the proof-elision contract *)
  | Frow of {
      nj : int;
      nk : int;
      init : int;
      y : stream;
      a : stream;
      scale : kscale;
      w : stream;
      unsafe : bool;
    }
      (** row-stream reduction nest, k-outer and j-inner:
          [for j < nj: y[j] = c; for k < nk: y[j] = y[j] +. (a_k *. w[k, j])]
          with [c = fregs.(init)], [y[j]] at [y.sbase + j], [a_k] at
          [a.sbase + k * a.sstride] (then scaled), [w[k, j]] at
          [w.sbase + k * w.sstride + j]. [nj]/[nk] are trip-count
          iregs; [unsafe] as for [Floop]. Every [y[j]] sees the
          initial value and then the same two-rounding updates in the
          same [k] order as the j-outer nest, so results are
          bit-identical to it. *)
  | Fail of { msg : string }

type program = {
  code : instr array;
  n_iregs : int;
  n_fregs : int;
  n_bufs : int;
}

let fail msg = raise (Interp.Runtime_error msg)

(* ---------- split row streams on a Domain pool ---------- *)

(* A proved [Frow] (the [unsafe] form) with enough work runs as
   contiguous, disjoint [j] ranges on a small pool of stdlib domains.
   Each [y[j]] is written by exactly one domain, with the same init
   and the same k-ordered updates as the serial nest, so results stay
   bit-identical for any width. The [Frow] match already proves the
   [j] iterations independent (no operand loads [Y]; restrict
   contract), and only kernels the prover certified in-bounds split,
   so a bounds exception cannot start in a helper. See DESIGN.md §12,
   step 5.

   The threshold is the measured serial/split crossover of matmul rows
   on the 2-vCPU bench host, for single rows whose weights stream from
   memory (decode) and for 16- and 128-row matmuls whose weights stay
   in cache (prefill, the kernel bench). Cold rows ran 1.1-1.7x as fast
   split from 64 outputs up, but cache-resident rows of 64 or 128
   outputs ran 0.5-1.0x (matmul 128^3: 0.52-0.98x) and only rows of 256
   outputs or more gained (mostly 1.15-1.7x) once a row holds 16384
   multiply-adds; below that they ran 0.6-1.1x. Rows of 16 or 32
   outputs lost at every depth. An empty publish-and-join costs
   0.6-0.9 us. *)
let split_min_nj = 256
let split_min_work = 16384

(* Pool width: the caller plus [split_width - 1] helpers. Capped at 2,
   the only width the threshold, the spin window below and the cost
   model's split overhead were measured at; a wider pool needs its own
   measurement on a host with more cores. *)
let split_width = max 1 (min 2 (Domain.recommended_domain_count ()))

let splits_row ~nj ~nk =
  split_width > 1 && nj >= split_min_nj && nj * nk >= split_min_work

(* [split_bounds ~width nj] cuts [\[0, nj)] into at most [width]
   non-empty contiguous ranges of whole 8-float blocks (one cache
   line), so no two domains write the same line; range [r] is
   [\[b.(r), b.(r+1))] and every boundary but [nj] is a multiple of 8.
   [nj = 0] gives the single empty range. *)
let split_bounds ~width nj =
  let blocks = (nj + 7) / 8 in
  let parts = max 1 (min width blocks) in
  Array.init (parts + 1) (fun r -> min nj (8 * (r * blocks / parts)))

module Pool = struct
  type job = {
    body : int -> int -> unit;
    bounds : int array;
    next : int Atomic.t;  (** next unclaimed range *)
    left : int Atomic.t;  (** ranges past 0 not finished yet *)
    failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  (* An idle helper polls for a new job for this many
     [Domain.cpu_relax] rounds (about 30 ns each, so about 1 ms, on
     the bench host), then blocks on [wake]. In OCaml 5 every minor
     collection stops all domains, and a domain blocked in a system
     call takes part through a backup thread that must be woken each
     time: with one blocked helper and no split at all,
     generate-small's decode ran 19% slower (183 -> 148 tok/s). A
     polling helper costs a collection almost nothing, so the window
     is long enough to span the gaps between the rows of one request:
     raw decode ran 1.2-1.5x the parent's with it, 1.1-1.3x with a
     60 us window. *)
  let spin_rounds = 30000

  let busy = Atomic.make false
  let current : job option Atomic.t = Atomic.make None
  let generation = Atomic.make 0
  let stopping = Atomic.make false
  let lock = Mutex.create ()
  let wake = Condition.create ()
  let sleepers = Atomic.make 0
  let wakeups = Atomic.make 0
  let helpers : unit Domain.t list ref = ref []
  let starts = Atomic.make 0
  let splits = Atomic.make 0

  let record job e =
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set job.failed None (Some (e, bt)))

  (* Claim and run ranges until none is left unclaimed. Like the rest
     of a helper's loop it allocates nothing, so a helper never starts
     a minor collection of its own. *)
  let rec work job =
    let r = Atomic.fetch_and_add job.next 1 in
    if r < Array.length job.bounds - 1 then begin
      (try job.body job.bounds.(r) job.bounds.(r + 1) with e -> record job e);
      Atomic.decr job.left;
      work job
    end

  let fresh seen = Atomic.get generation <> seen || Atomic.get stopping

  (* Wait for a generation other than [seen]: poll first, then block.
     A blocking helper counts itself in [sleepers] and re-reads the
     generation under [lock] before every wait; a publisher bumps the
     generation first, then reads [sleepers] and, if any, takes and
     drops [lock] before it broadcasts. Either the helper sees the new
     generation or the publisher sees the sleeper, so no wake-up is
     lost, and a polling pool costs the publisher no syscall. *)
  let rec await seen i =
    if fresh seen then ()
    else if i < spin_rounds then begin
      Domain.cpu_relax ();
      await seen (i + 1)
    end
    else begin
      Mutex.lock lock;
      Atomic.incr sleepers;
      while not (fresh seen) do
        Condition.wait wake lock
      done;
      Atomic.decr sleepers;
      Atomic.incr wakeups;
      Mutex.unlock lock
    end

  (* Called after the generation or [stopping] changed. The broadcast
     comes after the unlock, so a woken helper never finds [lock]
     still held by the publisher. *)
  let wake_sleepers () =
    if Atomic.get sleepers > 0 then begin
      Mutex.lock lock;
      Mutex.unlock lock;
      Condition.broadcast wake
    end

  let rec helper seen =
    await seen 0;
    if not (Atomic.get stopping) then begin
      let g = Atomic.get generation in
      (match Atomic.get current with Some job -> work job | None -> ());
      helper g
    end

  let stop () =
    Atomic.set stopping true;
    wake_sleepers ();
    List.iter Domain.join !helpers;
    helpers := []

  let () = at_exit stop

  (* Started on the first split only, so programs that never run a
     large proved row never pay for a second domain in every minor
     collection. A new helper first looks for the job after generation
     [seen], the one being published. A host that refuses a domain
     stops the pool for good, so it stays serial. *)
  let ensure seen =
    if Atomic.get starts = 0 then
      for _ = 2 to split_width do
        match Domain.spawn (fun () -> helper seen) with
        | d ->
            Atomic.incr starts;
            helpers := d :: !helpers
        | exception _ -> Atomic.set stopping true
      done

  (* Run [body lo hi] over every range of [split_bounds nj]: the caller
     runs range 0, then claims what the helpers have not started yet,
     then waits for the rest, and re-raises the first exception any
     range raised. The caller never depends on a helper for progress:
     one that is slow to wake costs at most a serial row. A call with a
     single range, or one that finds the pool busy (from inside a
     range, or from another domain), runs [body 0 nj] serially. *)
  let run nj body =
    let bounds = split_bounds ~width:split_width nj in
    let n = Array.length bounds - 1 in
    if n < 2 || Atomic.get stopping
       || not (Atomic.compare_and_set busy false true)
    then body 0 nj
    else begin
      let job =
        {
          body;
          bounds;
          next = Atomic.make 1;
          left = Atomic.make (n - 1);
          failed = Atomic.make None;
        }
      in
      let seen = Atomic.get generation in
      Atomic.set current (Some job);
      Atomic.incr generation;
      ensure seen;
      wake_sleepers ();
      (try body bounds.(0) bounds.(1) with e -> record job e);
      work job;
      while Atomic.get job.left > 0 do
        Domain.cpu_relax ()
      done;
      Atomic.set current None;
      Atomic.incr splits;
      Atomic.set busy false;
      match Atomic.get job.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
end

(* Observability for tests and benches: how many rows ran split, how
   many helper domains have been started (0 until the first split), how
   many are blocked now, and how many times a blocked one was woken. *)
let split_count () = Atomic.get Pool.splits
let helper_starts () = Atomic.get Pool.starts
let helpers_sleeping () = Atomic.get Pool.sleepers
let helper_wakeups () = Atomic.get Pool.wakeups

(* The hot loop. All register and code accesses are unsafe: indices
   are produced by the compiler, never by data. Buffer *element*
   accesses are checked or unsafe according to the emitted opcode. *)
let exec (p : program) ~(iregs : int array) ~(fregs : float array)
    ~(fbufs : float array array) ~(ibufs : int array array) =
  let code = p.code in
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    (match Array.unsafe_get code !pc with
    | Iconst { dst; v } -> Array.unsafe_set iregs dst v
    | Imov { dst; src } -> Array.unsafe_set iregs dst (Array.unsafe_get iregs src)
    | Ibin { op; dst; a; b } ->
        let x = Array.unsafe_get iregs a and y = Array.unsafe_get iregs b in
        let v =
          match op with
          | Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div -> if y = 0 then fail "integer division by zero" else x / y
          | Fdiv -> if y = 0 then fail "floordiv by zero" else Arith.Expr.fdiv x y
          | Fmod -> if y = 0 then fail "floormod by zero" else Arith.Expr.fmod x y
          | Fdivx -> if y = 0 then raise Division_by_zero else Arith.Expr.fdiv x y
          | Fmodx -> if y = 0 then raise Division_by_zero else Arith.Expr.fmod x y
          | Min -> if x <= y then x else y
          | Max -> if x >= y then x else y
          | And_ -> x land y
          | Or_ -> x lor y
          | Xor -> x lxor y
          | Shl -> x lsl y
          | Shr -> x asr y
        in
        Array.unsafe_set iregs dst v
    | Iaddi { dst; a; imm } ->
        Array.unsafe_set iregs dst (Array.unsafe_get iregs a + imm)
    | Imuli { dst; a; imm } ->
        Array.unsafe_set iregs dst (Array.unsafe_get iregs a * imm)
    | Icmp { op; dst; a; b } ->
        let x = Array.unsafe_get iregs a and y = Array.unsafe_get iregs b in
        let v =
          match op with
          | Eq -> x = y
          | Ne -> x <> y
          | Lt -> x < y
          | Le -> x <= y
          | Gt -> x > y
          | Ge -> x >= y
        in
        Array.unsafe_set iregs dst (if v then 1 else 0)
    | Itruth { dst; a } ->
        Array.unsafe_set iregs dst (if Array.unsafe_get iregs a <> 0 then 1 else 0)
    | Inot { dst; a } ->
        Array.unsafe_set iregs dst (if Array.unsafe_get iregs a <> 0 then 0 else 1)
    | Ineg { dst; a } -> Array.unsafe_set iregs dst (-Array.unsafe_get iregs a)
    | Iabs { dst; a } -> Array.unsafe_set iregs dst (abs (Array.unsafe_get iregs a))
    | Fconst { dst; v } -> Array.unsafe_set fregs dst v
    | Fmov { dst; src } -> Array.unsafe_set fregs dst (Array.unsafe_get fregs src)
    | Fbin { op; dst; a; b } ->
        let x = Array.unsafe_get fregs a and y = Array.unsafe_get fregs b in
        let v =
          match op with
          | FAdd -> x +. y
          | FSub -> x -. y
          | FMul -> x *. y
          | FDiv -> x /. y
          | FRem -> Float.rem x y
          | FMin -> Float.min x y
          | FMax -> Float.max x y
          | FPow -> Float.pow x y
        in
        Array.unsafe_set fregs dst v
    | Funop { op; dst; a } ->
        let x = Array.unsafe_get fregs a in
        let v =
          match op with
          | FNeg -> -.x
          | FExp -> exp x
          | FLog -> log x
          | FSqrt -> sqrt x
          | FRsqrt -> 1.0 /. sqrt x
          | FTanh -> tanh x
          | FSigmoid -> 1.0 /. (1.0 +. exp (-.x))
          | FErf -> Interp.erf x
          | FAbs -> abs_float x
          | FCos -> cos x
          | FSin -> sin x
          | FFloor -> floor x
        in
        Array.unsafe_set fregs dst v
    | Fcmp { op; dst; a; b } ->
        let x = Array.unsafe_get fregs a and y = Array.unsafe_get fregs b in
        let v =
          match op with
          | Eq -> x = y
          | Ne -> x <> y
          | Lt -> x < y
          | Le -> x <= y
          | Gt -> x > y
          | Ge -> x >= y
        in
        Array.unsafe_set iregs dst (if v then 1 else 0)
    | Ftruth { dst; a } ->
        Array.unsafe_set iregs dst
          (if Array.unsafe_get fregs a <> 0.0 then 1 else 0)
    | Fma { acc; a; b } ->
        (* let-bound like [Frow]'s running value: a direct load as the
           first operand would become the memory operand of the add,
           which swaps the NaN x86 returns *)
        let v = Array.unsafe_get fregs acc in
        Array.unsafe_set fregs acc
          (v +. (Array.unsafe_get fregs a *. Array.unsafe_get fregs b))
    | Ffloat_of_int { dst; src } ->
        Array.unsafe_set fregs dst (float_of_int (Array.unsafe_get iregs src))
    | Fint_of_float { dst; src } ->
        Array.unsafe_set iregs dst (int_of_float (Array.unsafe_get fregs src))
    | Fload { dst; buf; addr; off } ->
        Array.unsafe_set fregs dst
          (Array.unsafe_get fbufs buf).(Array.unsafe_get iregs addr + off)
    | Fload_u { dst; buf; addr; off } ->
        Array.unsafe_set fregs dst
          (Array.unsafe_get
             (Array.unsafe_get fbufs buf)
             (Array.unsafe_get iregs addr + off))
    | Fstore { buf; addr; off; src } ->
        (Array.unsafe_get fbufs buf).(Array.unsafe_get iregs addr + off) <-
          Array.unsafe_get fregs src
    | Fstore_u { buf; addr; off; src } ->
        Array.unsafe_set
          (Array.unsafe_get fbufs buf)
          (Array.unsafe_get iregs addr + off)
          (Array.unsafe_get fregs src)
    | Iload { dst; buf; addr; off } ->
        Array.unsafe_set iregs dst
          (Array.unsafe_get ibufs buf).(Array.unsafe_get iregs addr + off)
    | Iload_u { dst; buf; addr; off } ->
        Array.unsafe_set iregs dst
          (Array.unsafe_get
             (Array.unsafe_get ibufs buf)
             (Array.unsafe_get iregs addr + off))
    | Istore { buf; addr; off; src } ->
        (Array.unsafe_get ibufs buf).(Array.unsafe_get iregs addr + off) <-
          Array.unsafe_get iregs src
    | Istore_u { buf; addr; off; src } ->
        Array.unsafe_set
          (Array.unsafe_get ibufs buf)
          (Array.unsafe_get iregs addr + off)
          (Array.unsafe_get iregs src)
    | Jmp { target } -> pc := target - 1
    | Jif { c; target } ->
        if Array.unsafe_get iregs c <> 0 then pc := target - 1
    | Jifnot { c; target } ->
        if Array.unsafe_get iregs c = 0 then pc := target - 1
    | Jge { a; b; target } ->
        if Array.unsafe_get iregs a >= Array.unsafe_get iregs b then
          pc := target - 1
    | Alloc_f { buf; numel } ->
        fbufs.(buf) <- Array.make (Array.unsafe_get iregs numel) 0.0
    | Alloc_i { buf; numel } ->
        ibufs.(buf) <- Array.make (Array.unsafe_get iregs numel) 0
    | Free_f { buf } -> fbufs.(buf) <- [||]
    | Free_i { buf } -> ibufs.(buf) <- [||]
    | Floop { n; acc; op; unsafe } -> (
        let n = Array.unsafe_get iregs n in
        let arr (s : stream) = Array.unsafe_get fbufs s.sbuf in
        let base (s : stream) = Array.unsafe_get iregs s.sbase in
        match op with
        | Lsum s ->
            let a = arr s and a0 = base s and sa = s.sstride in
            let r = ref (Array.unsafe_get fregs acc) in
            if unsafe then
              for i = 0 to n - 1 do
                r := !r +. Array.unsafe_get a (a0 + (i * sa))
              done
            else
              for i = 0 to n - 1 do
                r := !r +. a.(a0 + (i * sa))
              done;
            Array.unsafe_set fregs acc !r
        | Lmax s ->
            let a = arr s and a0 = base s and sa = s.sstride in
            let r = ref (Array.unsafe_get fregs acc) in
            if unsafe then
              for i = 0 to n - 1 do
                r := Float.max !r (Array.unsafe_get a (a0 + (i * sa)))
              done
            else
              for i = 0 to n - 1 do
                r := Float.max !r a.(a0 + (i * sa))
              done;
            Array.unsafe_set fregs acc !r
        | Lmin s ->
            let a = arr s and a0 = base s and sa = s.sstride in
            let r = ref (Array.unsafe_get fregs acc) in
            if unsafe then
              for i = 0 to n - 1 do
                r := Float.min !r (Array.unsafe_get a (a0 + (i * sa)))
              done
            else
              for i = 0 to n - 1 do
                r := Float.min !r a.(a0 + (i * sa))
              done;
            Array.unsafe_set fregs acc !r
        | Ldot (sa_, sb_) ->
            let a = arr sa_ and a0 = base sa_ and sa = sa_.sstride in
            let b = arr sb_ and b0 = base sb_ and sb = sb_.sstride in
            let r = ref (Array.unsafe_get fregs acc) in
            if unsafe then
              for i = 0 to n - 1 do
                r :=
                  !r
                  +. Array.unsafe_get a (a0 + (i * sa))
                     *. Array.unsafe_get b (b0 + (i * sb))
              done
            else
              for i = 0 to n - 1 do
                r := !r +. (a.(a0 + (i * sa)) *. b.(b0 + (i * sb)))
              done;
            Array.unsafe_set fregs acc !r
        | Lsum_exp_sub (s, c) ->
            let a = arr s and a0 = base s and sa = s.sstride in
            let c = Array.unsafe_get fregs c in
            let r = ref (Array.unsafe_get fregs acc) in
            if unsafe then
              for i = 0 to n - 1 do
                r := !r +. exp (Array.unsafe_get a (a0 + (i * sa)) -. c)
              done
            else
              for i = 0 to n - 1 do
                r := !r +. exp (a.(a0 + (i * sa)) -. c)
              done;
            Array.unsafe_set fregs acc !r
        | Lsum_sq_sub (s, c) ->
            let a = arr s and a0 = base s and sa = s.sstride in
            let c = Array.unsafe_get fregs c in
            let r = ref (Array.unsafe_get fregs acc) in
            if unsafe then
              for i = 0 to n - 1 do
                let d = Array.unsafe_get a (a0 + (i * sa)) -. c in
                r := !r +. (d *. d)
              done
            else
              for i = 0 to n - 1 do
                let d = a.(a0 + (i * sa)) -. c in
                r := !r +. (d *. d)
              done;
            Array.unsafe_set fregs acc !r
        | Lmap_copy { src; dst } -> (
            let d = arr dst and d0 = base dst and sd = dst.sstride in
            match src with
            | Sreg c ->
                let v = Array.unsafe_get fregs c in
                if unsafe then
                  for i = 0 to n - 1 do
                    Array.unsafe_set d (d0 + (i * sd)) v
                  done
                else
                  for i = 0 to n - 1 do
                    d.(d0 + (i * sd)) <- v
                  done
            | Sstream s ->
                let a = arr s and a0 = base s and sa = s.sstride in
                if unsafe then
                  for i = 0 to n - 1 do
                    Array.unsafe_set d (d0 + (i * sd))
                      (Array.unsafe_get a (a0 + (i * sa)))
                  done
                else
                  for i = 0 to n - 1 do
                    d.(d0 + (i * sd)) <- a.(a0 + (i * sa))
                  done)
        | Lmap_unop { op; src; dst } ->
            let a = arr src and a0 = base src and sa = src.sstride in
            let d = arr dst and d0 = base dst and sd = dst.sstride in
            let f =
              match op with
              | FNeg -> ( ~-. )
              | FExp -> exp
              | FLog -> log
              | FSqrt -> sqrt
              | FRsqrt -> fun x -> 1.0 /. sqrt x
              | FTanh -> tanh
              | FSigmoid -> fun x -> 1.0 /. (1.0 +. exp (-.x))
              | FErf -> Interp.erf
              | FAbs -> abs_float
              | FCos -> cos
              | FSin -> sin
              | FFloor -> floor
            in
            if unsafe then
              for i = 0 to n - 1 do
                Array.unsafe_set d (d0 + (i * sd))
                  (f (Array.unsafe_get a (a0 + (i * sa))))
              done
            else
              for i = 0 to n - 1 do
                d.(d0 + (i * sd)) <- f a.(a0 + (i * sa))
              done
        | Lmap_bin { op; a; b; dst } ->
            let d = arr dst and d0 = base dst and sd = dst.sstride in
            let get (src : fsrc) : int -> float =
              (* operand fetcher: the closure-per-operand cost is paid
                 once per operand kind, not per element, because the
                 two hot all-stream / stream-scalar cases below bypass
                 it entirely *)
              match src with
              | Sreg c ->
                  let v = Array.unsafe_get fregs c in
                  fun _ -> v
              | Sstream s ->
                  let a = arr s and a0 = base s and sa = s.sstride in
                  if unsafe then fun i -> Array.unsafe_get a (a0 + (i * sa))
                  else fun i -> a.(a0 + (i * sa))
            in
            let fop =
              match op with
              | FAdd -> ( +. )
              | FSub -> ( -. )
              | FMul -> ( *. )
              | FDiv -> ( /. )
              | FRem -> Float.rem
              | FMin -> Float.min
              | FMax -> Float.max
              | FPow -> Float.pow
            in
            (match (a, b) with
            | Sstream sa_, Sstream sb_ ->
                let a = arr sa_ and a0 = base sa_ and sa = sa_.sstride in
                let b = arr sb_ and b0 = base sb_ and sb = sb_.sstride in
                if unsafe then
                  for i = 0 to n - 1 do
                    Array.unsafe_set d (d0 + (i * sd))
                      (fop
                         (Array.unsafe_get a (a0 + (i * sa)))
                         (Array.unsafe_get b (b0 + (i * sb))))
                  done
                else
                  for i = 0 to n - 1 do
                    d.(d0 + (i * sd)) <- fop a.(a0 + (i * sa)) b.(b0 + (i * sb))
                  done
            | Sstream sa_, Sreg c ->
                let a = arr sa_ and a0 = base sa_ and sa = sa_.sstride in
                let v = Array.unsafe_get fregs c in
                if unsafe then
                  for i = 0 to n - 1 do
                    Array.unsafe_set d (d0 + (i * sd))
                      (fop (Array.unsafe_get a (a0 + (i * sa))) v)
                  done
                else
                  for i = 0 to n - 1 do
                    d.(d0 + (i * sd)) <- fop a.(a0 + (i * sa)) v
                  done
            | _ ->
                let ga = get a and gb = get b in
                if unsafe then
                  for i = 0 to n - 1 do
                    Array.unsafe_set d (d0 + (i * sd)) (fop (ga i) (gb i))
                  done
                else
                  for i = 0 to n - 1 do
                    d.(d0 + (i * sd)) <- fop (ga i) (gb i)
                  done)
        | Lmap_exp_sub_div { src; c1; c2; dst } ->
            let a = arr src and a0 = base src and sa = src.sstride in
            let d = arr dst and d0 = base dst and sd = dst.sstride in
            let c1 = Array.unsafe_get fregs c1
            and c2 = Array.unsafe_get fregs c2 in
            if unsafe then
              for i = 0 to n - 1 do
                Array.unsafe_set d (d0 + (i * sd))
                  (exp (Array.unsafe_get a (a0 + (i * sa)) -. c1) /. c2)
              done
            else
              for i = 0 to n - 1 do
                d.(d0 + (i * sd)) <- exp (a.(a0 + (i * sa)) -. c1) /. c2
              done
        | Lmap_norm { src; c1; c2; g; b; dst } ->
            let x = arr src and x0 = base src and sx = src.sstride in
            let gg = arr g and g0 = base g and sg = g.sstride in
            let bb = arr b and b0 = base b and sb = b.sstride in
            let d = arr dst and d0 = base dst and sd = dst.sstride in
            let c1 = Array.unsafe_get fregs c1
            and c2 = Array.unsafe_get fregs c2 in
            if unsafe then
              for i = 0 to n - 1 do
                Array.unsafe_set d (d0 + (i * sd))
                  ((Array.unsafe_get x (x0 + (i * sx)) -. c1)
                   *. c2
                   *. Array.unsafe_get gg (g0 + (i * sg))
                  +. Array.unsafe_get bb (b0 + (i * sb)))
              done
            else
              for i = 0 to n - 1 do
                d.(d0 + (i * sd)) <-
                  ((x.(x0 + (i * sx)) -. c1) *. c2 *. gg.(g0 + (i * sg)))
                  +. bb.(b0 + (i * sb))
              done)
    | Frow { nj; nk; init; y; a; scale; w; unsafe } ->
        let nj = Array.unsafe_get iregs nj
        and nk = Array.unsafe_get iregs nk in
        let yv = Array.unsafe_get fbufs y.sbuf
        and y0 = Array.unsafe_get iregs y.sbase in
        let av = Array.unsafe_get fbufs a.sbuf
        and a0 = Array.unsafe_get iregs a.sbase
        and sa = a.sstride in
        let wv = Array.unsafe_get fbufs w.sbuf
        and w0 = Array.unsafe_get iregs w.sbase
        and sw = w.sstride in
        let c = Array.unsafe_get fregs init in
        (* inlined so [a_k] stays unboxed: a row allocates nothing
           per [k], in the caller or in a helper domain *)
        let[@inline] ak k =
          let x =
            if unsafe then Array.unsafe_get av (a0 + (k * sa))
            else av.(a0 + (k * sa))
          in
          match scale with
          | Unscaled -> x
          | Mul_by r -> x *. Array.unsafe_get fregs r
          | Div_by r -> x /. Array.unsafe_get fregs r
        in
        (* k steps by 4: each y[j] is loaded once, takes four
           consecutive updates and is stored once; the remainder
           steps one k at a time. [row jl jh] computes y[jl..jh), the
           whole row serially or one range of a split. *)
        let k4 = nk land -4 in
        let row jl jh =
          if unsafe then begin
            for j = jl to jh - 1 do
              Array.unsafe_set yv (y0 + j) c
            done;
            let k = ref 0 in
            while !k < k4 do
              let k0 = !k in
              let x0 = ak k0 and x1 = ak (k0 + 1) in
              let x2 = ak (k0 + 2) and x3 = ak (k0 + 3) in
              let r0 = w0 + (k0 * sw) in
              let r1 = r0 + sw in
              let r2 = r1 + sw in
              let r3 = r2 + sw in
              for j = jl to jh - 1 do
                let v = Array.unsafe_get yv (y0 + j) in
                let v = v +. (x0 *. Array.unsafe_get wv (r0 + j)) in
                let v = v +. (x1 *. Array.unsafe_get wv (r1 + j)) in
                let v = v +. (x2 *. Array.unsafe_get wv (r2 + j)) in
                let v = v +. (x3 *. Array.unsafe_get wv (r3 + j)) in
                Array.unsafe_set yv (y0 + j) v
              done;
              k := k0 + 4
            done;
            while !k < nk do
              let x = ak !k and r = w0 + (!k * sw) in
              for j = jl to jh - 1 do
                let v = Array.unsafe_get yv (y0 + j) in
                Array.unsafe_set yv (y0 + j) (v +. (x *. Array.unsafe_get wv (r + j)))
              done;
              incr k
            done
          end
          else begin
            for j = jl to jh - 1 do
              yv.(y0 + j) <- c
            done;
            let k = ref 0 in
            while !k < k4 do
              let k0 = !k in
              let x0 = ak k0 and x1 = ak (k0 + 1) in
              let x2 = ak (k0 + 2) and x3 = ak (k0 + 3) in
              let r0 = w0 + (k0 * sw) in
              let r1 = r0 + sw in
              let r2 = r1 + sw in
              let r3 = r2 + sw in
              for j = jl to jh - 1 do
                let v = yv.(y0 + j) in
                let v = v +. (x0 *. wv.(r0 + j)) in
                let v = v +. (x1 *. wv.(r1 + j)) in
                let v = v +. (x2 *. wv.(r2 + j)) in
                let v = v +. (x3 *. wv.(r3 + j)) in
                yv.(y0 + j) <- v
              done;
              k := k0 + 4
            done;
            while !k < nk do
              let x = ak !k and r = w0 + (!k * sw) in
              for j = jl to jh - 1 do
                let v = yv.(y0 + j) in
                yv.(y0 + j) <- v +. (x *. wv.(r + j))
              done;
              incr k
            done
          end
        in
        if unsafe && splits_row ~nj ~nk then Pool.run nj row else row 0 nj
    | Fail { msg } -> fail msg);
    incr pc
  done

(* ---------- pretty printing (debugging, DESIGN.md examples) ---------- *)

let ibin_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Fdiv -> "fdiv"
  | Fmod -> "fmod"
  | Fdivx -> "fdivx"
  | Fmodx -> "fmodx"
  | Min -> "min"
  | Max -> "max"
  | And_ -> "and"
  | Or_ -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let fbin_name = function
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"
  | FRem -> "frem"
  | FMin -> "fmin"
  | FMax -> "fmax"
  | FPow -> "fpow"

let funop_name = function
  | FNeg -> "fneg"
  | FExp -> "fexp"
  | FLog -> "flog"
  | FSqrt -> "fsqrt"
  | FRsqrt -> "frsqrt"
  | FTanh -> "ftanh"
  | FSigmoid -> "fsigmoid"
  | FErf -> "ferf"
  | FAbs -> "fabs"
  | FCos -> "fcos"
  | FSin -> "fsin"
  | FFloor -> "ffloor"

let icmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let stream_str (s : stream) =
  Printf.sprintf "b%d[i%d + i*%d]" s.sbuf s.sbase s.sstride

let fsrc_str = function
  | Sreg r -> Printf.sprintf "f%d" r
  | Sstream s -> stream_str s

let floop_str (op : floop_op) =
  match op with
  | Lsum s -> Printf.sprintf "sum %s" (stream_str s)
  | Lmax s -> Printf.sprintf "max %s" (stream_str s)
  | Lmin s -> Printf.sprintf "min %s" (stream_str s)
  | Ldot (a, b) -> Printf.sprintf "dot %s, %s" (stream_str a) (stream_str b)
  | Lsum_exp_sub (s, c) ->
      Printf.sprintf "sum_exp_sub %s, f%d" (stream_str s) c
  | Lsum_sq_sub (s, c) -> Printf.sprintf "sum_sq_sub %s, f%d" (stream_str s) c
  | Lmap_copy { src; dst } ->
      Printf.sprintf "copy %s <- %s" (stream_str dst) (fsrc_str src)
  | Lmap_unop { op; src; dst } ->
      Printf.sprintf "map.%s %s <- %s" (funop_name op) (stream_str dst)
        (stream_str src)
  | Lmap_bin { op; a; b; dst } ->
      Printf.sprintf "map.%s %s <- %s, %s" (fbin_name op) (stream_str dst)
        (fsrc_str a) (fsrc_str b)
  | Lmap_exp_sub_div { src; c1; c2; dst } ->
      Printf.sprintf "map.exp_sub_div %s <- %s, f%d, f%d" (stream_str dst)
        (stream_str src) c1 c2
  | Lmap_norm { src; c1; c2; g; b; dst } ->
      Printf.sprintf "map.norm %s <- %s, f%d, f%d, %s, %s" (stream_str dst)
        (stream_str src) c1 c2 (stream_str g) (stream_str b)

let kscale_str = function
  | Unscaled -> ""
  | Mul_by r -> Printf.sprintf " * f%d" r
  | Div_by r -> Printf.sprintf " / f%d" r

let mem_str op dst_or_src buf addr off =
  Printf.sprintf "%s r%d, b%d[i%d%s]" op dst_or_src buf addr
    (if off = 0 then "" else Printf.sprintf "+%d" off)

let instr_to_string = function
  | Iconst { dst; v } -> Printf.sprintf "iconst i%d, %d" dst v
  | Imov { dst; src } -> Printf.sprintf "imov i%d, i%d" dst src
  | Ibin { op; dst; a; b } ->
      Printf.sprintf "%s i%d, i%d, i%d" (ibin_name op) dst a b
  | Iaddi { dst; a; imm } -> Printf.sprintf "iaddi i%d, i%d, %d" dst a imm
  | Imuli { dst; a; imm } -> Printf.sprintf "imuli i%d, i%d, %d" dst a imm
  | Icmp { op; dst; a; b } ->
      Printf.sprintf "icmp.%s i%d, i%d, i%d" (icmp_name op) dst a b
  | Itruth { dst; a } -> Printf.sprintf "itruth i%d, i%d" dst a
  | Inot { dst; a } -> Printf.sprintf "inot i%d, i%d" dst a
  | Ineg { dst; a } -> Printf.sprintf "ineg i%d, i%d" dst a
  | Iabs { dst; a } -> Printf.sprintf "iabs i%d, i%d" dst a
  | Fconst { dst; v } -> Printf.sprintf "fconst f%d, %h" dst v
  | Fmov { dst; src } -> Printf.sprintf "fmov f%d, f%d" dst src
  | Fbin { op; dst; a; b } ->
      Printf.sprintf "%s f%d, f%d, f%d" (fbin_name op) dst a b
  | Funop { op; dst; a } -> Printf.sprintf "%s f%d, f%d" (funop_name op) dst a
  | Fcmp { op; dst; a; b } ->
      Printf.sprintf "fcmp.%s i%d, f%d, f%d" (icmp_name op) dst a b
  | Ftruth { dst; a } -> Printf.sprintf "ftruth i%d, f%d" dst a
  | Fma { acc; a; b } -> Printf.sprintf "fma f%d, f%d, f%d" acc a b
  | Ffloat_of_int { dst; src } -> Printf.sprintf "f_of_i f%d, i%d" dst src
  | Fint_of_float { dst; src } -> Printf.sprintf "i_of_f i%d, f%d" dst src
  | Fload { dst; buf; addr; off } -> mem_str "fload" dst buf addr off
  | Fload_u { dst; buf; addr; off } -> mem_str "fload.u" dst buf addr off
  | Fstore { buf; addr; off; src } -> mem_str "fstore" src buf addr off
  | Fstore_u { buf; addr; off; src } -> mem_str "fstore.u" src buf addr off
  | Iload { dst; buf; addr; off } -> mem_str "iload" dst buf addr off
  | Iload_u { dst; buf; addr; off } -> mem_str "iload.u" dst buf addr off
  | Istore { buf; addr; off; src } -> mem_str "istore" src buf addr off
  | Istore_u { buf; addr; off; src } -> mem_str "istore.u" src buf addr off
  | Jmp { target } -> Printf.sprintf "jmp @%d" target
  | Jif { c; target } -> Printf.sprintf "jif i%d, @%d" c target
  | Jifnot { c; target } -> Printf.sprintf "jifnot i%d, @%d" c target
  | Jge { a; b; target } -> Printf.sprintf "jge i%d, i%d, @%d" a b target
  | Alloc_f { buf; numel } -> Printf.sprintf "alloc.f b%d, i%d" buf numel
  | Alloc_i { buf; numel } -> Printf.sprintf "alloc.i b%d, i%d" buf numel
  | Free_f { buf } -> Printf.sprintf "free.f b%d" buf
  | Free_i { buf } -> Printf.sprintf "free.i b%d" buf
  | Floop { n; acc; op; unsafe } ->
      Printf.sprintf "floop%s i%d, f%d: %s"
        (if unsafe then ".u" else "")
        n acc (floop_str op)
  | Frow { nj; nk; init; y; a; scale; w; unsafe } ->
      Printf.sprintf
        "frow%s j<i%d, k<i%d: b%d[i%d + j] = f%d; += (b%d[i%d + k*%d]%s) * \
         b%d[i%d + k*%d + j]"
        (if unsafe then ".u" else "")
        nj nk y.sbuf y.sbase init a.sbuf a.sbase a.sstride (kscale_str scale)
        w.sbuf w.sbase w.sstride
  | Fail { msg } -> Printf.sprintf "fail %S" msg

let to_string (p : program) =
  let b = Stdlib.Buffer.create 256 in
  Stdlib.Buffer.add_string b
    (Printf.sprintf "; iregs=%d fregs=%d bufs=%d\n" p.n_iregs p.n_fregs p.n_bufs);
  Array.iteri
    (fun i ins ->
      Stdlib.Buffer.add_string b (Printf.sprintf "%4d: %s\n" i (instr_to_string ins)))
    p.code;
  Stdlib.Buffer.contents b

(* Counts used by tests and by {!Cost} calibration notes: how many
   unsafe vs checked memory instructions a lowered program contains. *)
let count_mem (p : program) =
  Array.fold_left
    (fun (unsafe, checked) ins ->
      match ins with
      | Fload_u _ | Fstore_u _ | Iload_u _ | Istore_u _ -> (unsafe + 1, checked)
      | Fload _ | Fstore _ | Iload _ | Istore _ -> (unsafe, checked + 1)
      | Floop { unsafe = u; _ } | Frow { unsafe = u; _ } ->
          (* a fused loop or row-stream nest is one memory-touching
             instruction whose element accesses are all checked or all
             unsafe *)
          if u then (unsafe + 1, checked) else (unsafe, checked + 1)
      | _ -> (unsafe, checked))
    (0, 0) p.code
