type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Object of (string * t) list

let quote buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [opening], then the items separated by [sep], then [closing]. *)
let wrap buf opening sep closing f xs =
  Buffer.add_string buf opening;
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; f x) xs;
  Buffer.add_string buf closing

(* One item per line, two spaces deeper than [indent]; the closing
   bracket on its own line at [indent]. *)
let lines buf indent (opening, closing) f xs =
  let pad = "\n" ^ String.make (indent + 2) ' ' in
  wrap buf (opening ^ pad) ("," ^ pad)
    ("\n" ^ String.make indent ' ' ^ closing)
    f xs

(* [indent] is the indent of the line being written. *)
let rec add buf indent = function
  | Float (d, x) when Float.is_finite x -> Printf.bprintf buf "%.*f" d x
  | Null | Float _ -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | String s -> quote buf s
  | List (Object _ :: _ as xs)
    when List.for_all (function Object _ -> true | _ -> false) xs ->
      lines buf indent ("[", "]") (add buf (indent + 2)) xs
  | List xs -> wrap buf "[" ", " "]" (add buf indent) xs
  | Object [] -> Buffer.add_string buf "{}"
  | Object ms -> wrap buf "{ " ", " " }" (member buf indent) ms

and member buf indent (k, v) =
  quote buf k;
  Buffer.add_string buf ": ";
  add buf indent v

let to_string v =
  let buf = Buffer.create 1024 in
  (match v with
  | Object (_ :: _ as ms) -> lines buf 0 ("{", "}") (member buf 2) ms
  | v -> add buf 0 v);
  Buffer.contents buf
