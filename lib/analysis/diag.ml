type severity = Error | Warning

type t = {
  severity : severity;
  code : string;
  func : string;
  path : string list;
  message : string;
  pass : string option;
  key : string;
  data : (string * string) list;
}

let make severity ~code ~func ?(path = []) ?key ?(data = []) message =
  let key = match key with Some k -> k | None -> code ^ "|" ^ message in
  { severity; code; func; path; message; pass = None; key; data }

let error ~code ~func ?path ?key ?data message =
  make Error ~code ~func ?path ?key ?data message

let warning ~code ~func ?path ?key ?data message =
  make Warning ~code ~func ?path ?key ?data message

let with_pass t pass = { t with pass = Some pass }
let is_error t = t.severity = Error
let errors ts = List.filter is_error ts
let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string t =
  Printf.sprintf "%s[%s] %s%s: %s%s"
    (severity_to_string t.severity)
    t.code t.func
    (match t.path with [] -> "" | p -> " @ " ^ String.concat "/" p)
    t.message
    (match t.pass with
    | Some p -> Printf.sprintf " (introduced by %s)" p
    | None -> "")

let sorted ts =
  List.stable_sort
    (fun a b ->
      compare
        (match a.severity with Error -> 0 | Warning -> 1)
        (match b.severity with Error -> 0 | Warning -> 1))
    ts

let render ts = String.concat "\n" (List.map to_string (sorted ts))

(* Version history of the machine-readable rendering:
   1 — bare JSON array of diagnostic objects (PR 5);
   2 — object wrapper {schema_version, diagnostics}, diagnostic
       objects gain a string-valued "data" payload (error-bound
       provenance for fp-* codes). *)
let schema_version = 2

let render_json ts =
  let str s = Base.Json.String s in
  let diag t =
    Base.Json.Object
      [ ("severity", str (severity_to_string t.severity));
        ("code", str t.code); ("func", str t.func);
        ("path", List (List.map str t.path)); ("message", str t.message);
        ("pass", match t.pass with Some p -> str p | None -> Null);
        ("data", Object (List.map (fun (k, v) -> (k, str v)) t.data)) ]
  in
  Base.Json.to_string
    (Object
       [ ("schema_version", Int schema_version);
         ("diagnostics", List (List.map diag (sorted ts))) ])

let dedup ts =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      if Hashtbl.mem seen t.key then false
      else (
        Hashtbl.add seen t.key ();
        true))
    ts

let tally ts =
  List.fold_left
    (fun acc t ->
      match List.assoc_opt t.key acc with
      | Some n -> (t.key, n + 1) :: List.remove_assoc t.key acc
      | None -> (t.key, 1) :: acc)
    [] ts
