(* Equality of two VM programs up to the names of generated functions
   and capture ids (graph-capture regions draw both from global
   counters, so two compiles of one module differ only there). *)

open Runtime.Vm

let canon (p : program) =
  let index = List.mapi (fun i (name, _) -> (name, Printf.sprintf "#%d" i)) p.funcs in
  let rn name = Option.value ~default:name (List.assoc_opt name index) in
  let ids = Hashtbl.create 8 in
  let cid id =
    match Hashtbl.find_opt ids id with
    | Some k -> k
    | None -> let k = Hashtbl.length ids in Hashtbl.add ids id k; k
  in
  let rec instr = function
    | Call_func r -> Call_func { r with func = rn r.func }
    | Call_captured r ->
        Call_captured { r with func = rn r.func; capture_id = cid r.capture_id }
    | Cond r ->
        Cond { r with then_code = Array.map instr r.then_code;
                      else_code = Array.map instr r.else_code }
    | i -> i
  in
  List.map (fun (name, f) -> (rn name, { f with fname = rn f.fname; instrs = Array.map instr f.instrs })) p.funcs

let same_program a b = canon a = canon b
