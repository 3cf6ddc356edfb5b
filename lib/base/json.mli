(** The one JSON emitter: the [BENCH_*.json] files and
    [relax_compile --json] build a {!t} and print it with {!to_string},
    so this module alone decides the format. One layout rule:
    - a non-empty top-level object prints one member per line,
      indented two spaces;
    - a non-empty array whose elements are all objects prints one
      element per line, two spaces deeper than the line that opened
      it, and closes on its own line at that line's indent;
    - every other object or array prints on one line:
      [{ "k": v, "k2": v2 }], [[a, b]], [{}], [[]]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
      (** [Float (d, x)] prints [x] with exactly [d] decimals; a nan or
          infinite [x], which JSON cannot express, prints [null]. *)
  | String of string
      (** Escapes double quote, backslash, newline and tab, and every
          other byte below 0x20 as [\u00XX]. *)
  | List of t list
  | Object of (string * t) list

val to_string : t -> string
(** The document, without a trailing newline. *)
