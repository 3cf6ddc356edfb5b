(* In-memory span recorder for the traced run. Spans are opened and
   closed around calls into a layer's public functions from the
   benchmark's own files (and, in generate-small, from a VM trace
   sink); they nest strictly because the benchmark is one thread.
   While recording is off, [with_] only calls its thunk. *)

let now_ns () = Monotonic_clock.now ()
let ms_of_ns ns = Int64.to_float ns /. 1e6

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  mutable layer : string;
  mutable name : string;
  req : int;  (* request id, -1 when the span serves no one request *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable child_ns : int64;  (* time covered by direct children *)
}

let on = ref false
let next_id = ref 0
let stack : t list ref = ref []
let finished : t list ref = ref []

let open_ ?(req = -1) ~layer name =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; parent; layer; name; req; start_ns = now_ns ();
      stop_ns = 0L; child_ns = 0L }
  in
  incr next_id;
  stack := s :: !stack;
  s

(* Close the innermost open span, which must be [s]. *)
let close s =
  s.stop_ns <- now_ns ();
  (match !stack with
  | top :: rest when top == s -> stack := rest
  | _ -> failwith ("Span.close: " ^ s.name ^ " is not the innermost span"));
  (match !stack with
  | p :: _ -> p.child_ns <- Int64.add p.child_ns (Int64.sub s.stop_ns s.start_ns)
  | [] -> ());
  finished := s :: !finished

let with_ ?req ~layer name f =
  if not !on then f ()
  else
    let s = open_ ?req ~layer name in
    Fun.protect ~finally:(fun () -> close s) f

let top () = match !stack with s :: _ -> Some s | [] -> None
let dur_ns s = Int64.sub s.stop_ns s.start_ns
let self_ns s = Int64.sub (dur_ns s) s.child_ns
let spans () = List.rev !finished

(* Self time per layer, in first-seen order. *)
let self_by_layer () =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.layer with
      | Some r -> r := Int64.add !r (self_ns s)
      | None ->
          Hashtbl.add tbl s.layer (ref (self_ns s));
          order := s.layer :: !order)
    (spans ());
  List.rev_map (fun l -> (l, ms_of_ns !(Hashtbl.find tbl l))) !order

(* Total time, in ms, of the spans matching [p]. *)
let sum_ms p =
  List.fold_left (fun acc s -> if p s then acc +. ms_of_ns (dur_ns s) else acc) 0.0 (spans ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (loads in Perfetto and chrome://tracing):
   one complete ("X") event per span, one track (tid) per layer. *)
let write_chrome path =
  let spans = spans () in
  let t0 = match spans with [] -> 0L | _ -> List.fold_left (fun m s -> min m s.start_ns) Int64.max_int spans in
  let layers = List.map fst (self_by_layer ()) in
  let tid l =
    let rec go i = function [] -> 0 | x :: r -> if x = l then i + 1 else go (i + 1) r in
    go 0 layers
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i l ->
      Printf.fprintf oc
        "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}"
        (if i = 0 then "" else ",\n") (tid l) (json_string l))
    layers;
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":%s,\"name\":%s,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        (tid s.layer) (json_string s.layer) (json_string s.name)
        (Int64.to_float (Int64.sub s.start_ns t0) /. 1e3)
        (Int64.to_float (dur_ns s) /. 1e3)
        s.id s.parent s.req)
    spans;
  output_string oc "\n]}\n";
  close_out oc

(* Record [f] under one root span when [enabled]; recording is off
   again afterwards. *)
let root ~enabled name f =
  if not enabled then f ()
  else begin
    on := true;
    let s = open_ ~layer:"bench" name in
    Fun.protect ~finally:(fun () -> close s; on := false) f
  end
