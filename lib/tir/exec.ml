(* Kernel execution backends and the kernel cache.

   Two ways to execute a prim func, bit-identical on valid programs
   (differential-tested in test/test_compile.ml):

   - [Interp]: the reference tree-walking interpreter, the semantics
     the other backend is checked against (no caching benefit beyond
     skipping re-unification);
   - [Imp]: {!Imp_compile}'s flat imperative register machine, the
     default. When a [prove] callback is installed (the VM injects
     [Analysis.Proof.prover], keeping this library independent of the
     analysis layer) and it vouches for a kernel, the imp backend
     elides runtime bounds checks (DESIGN.md §12).

   Each cache runs one backend, fixed at [create], so a [--backend]
   switch can never replay code compiled for another backend
   (test/test_compile.ml, group [backend]). *)

type backend = Interp | Imp

let default = Imp
let all = [ Interp; Imp ]

let backend_name = function Interp -> "interp" | Imp -> "imp"

let backend_of_string = function
  | "interp" -> Some Interp
  | "imp" -> Some Imp
  | _ -> None

module Cache = struct
  (* Reads the call's own [sym_args]: a runner is shared by every
     value of the register-held symbolic arguments. *)
  type runner = (Arith.Var.t * int) list -> Base.Ndarray.t list -> unit

  type entry = {
    func : Prim_func.t;
    elide : bool;  (* Imp only: bounds checks elided for this kernel *)
    registers : Arith.Var.t list;  (* bound per call, not keyed *)
    table : (string, runner) Hashtbl.t;
  }

  type t = {
    backend : backend;
    prove : Prim_func.t -> bool;
    entries : (string, entry) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let no_proof _ = false

  let create ?(prove = no_proof) backend =
    { backend; prove; entries = Hashtbl.create 32; hits = 0; misses = 0 }

  let backend t = t.backend
  let hits t = t.hits
  let misses t = t.misses

  let compiled_count t =
    Hashtbl.fold (fun _ e acc -> acc + Hashtbl.length e.table) t.entries 0

  let elision_of t name =
    Option.map (fun e -> e.elide) (Hashtbl.find_opt t.entries name)

  let register_vars_of t name =
    Option.map
      (fun e -> List.map Arith.Var.name e.registers)
      (Hashtbl.find_opt t.entries name)

  (* The argument shapes and the values of the specialised symbolic
     arguments; register-held ones are left out. *)
  let sig_key registers (shapes : int array list)
      (sym_args : (Arith.Var.t * int) list) =
    let b = Stdlib.Buffer.create 32 in
    List.iter
      (fun s ->
        Stdlib.Buffer.add_char b '[';
        Array.iter
          (fun d ->
            Stdlib.Buffer.add_string b (string_of_int d);
            Stdlib.Buffer.add_char b 'x')
          s;
        Stdlib.Buffer.add_char b ']')
      shapes;
    List.iter
      (fun (v, x) ->
        if not (List.exists (Arith.Var.equal v) registers) then begin
          Stdlib.Buffer.add_char b '/';
          Stdlib.Buffer.add_string b (string_of_int x)
        end)
      sym_args;
    Stdlib.Buffer.contents b

  let compile_for t (e : entry) ~sym_args shapes : runner =
    match t.backend with
    | Interp -> fun sym_args args -> Interp.run ~sym_args e.func args
    | Imp -> Imp_compile.compile ~sym_args ~elide_bounds:e.elide e.func shapes

  let run t ?(sym_args = []) (f : Prim_func.t) (args : Base.Ndarray.t list) =
    let shapes = List.map (fun nd -> nd.Base.Ndarray.shape) args in
    let entry =
      (* Keyed by name, validated by physical identity: a rebuilt
         same-named kernel recompiles (and re-proves) rather than
         reusing stale code. *)
      match Hashtbl.find_opt t.entries f.Prim_func.name with
      | Some e when e.func == f -> e
      | Some _ | None ->
          let elide = t.backend = Imp && t.prove f in
          let e =
            {
              func = f;
              elide;
              registers = Imp_compile.register_vars f;
              table = Hashtbl.create 4;
            }
          in
          Hashtbl.replace t.entries f.Prim_func.name e;
          e
    in
    let key = sig_key entry.registers shapes sym_args in
    let runner =
      match Hashtbl.find_opt entry.table key with
      | Some r ->
          t.hits <- t.hits + 1;
          r
      | None ->
          t.misses <- t.misses + 1;
          let r = compile_for t entry ~sym_args shapes in
          Hashtbl.replace entry.table key r;
          r
    in
    runner sym_args args
end
