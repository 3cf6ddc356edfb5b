(** Structured compiler diagnostics.

    Every static analysis in this library — and the graph-level
    {!Relax_core.Well_formed} checker — reports through this one type,
    so drivers can render uniformly (pretty text for humans, JSON for
    tooling), count severities, and attribute diagnostics to the
    compiler pass that introduced them. *)

type severity = Error | Warning

type t = {
  severity : severity;
  code : string;  (** stable diagnostic class, e.g. ["oob-store"] *)
  func : string;  (** enclosing function or kernel name *)
  path : string list;
      (** location inside the function: loop vars, statement kind *)
  message : string;
  pass : string option;  (** provenance: the pass that introduced it *)
  key : string;
      (** stable identity used to diff diagnostics across passes; by
          construction independent of kernel renaming, so fusion
          producing [fused_foo] does not re-count [foo]'s findings *)
  data : (string * string) list;
      (** structured machine-readable payload rendered into the JSON
          ["data"] object (e.g. the fp-* error-bound provenance:
          bound, budget, output interval); empty for most codes and
          excluded from {!field-key} so numeric payloads never break
          cross-pass diffing *)
}

val make :
  severity ->
  code:string ->
  func:string ->
  ?path:string list ->
  ?key:string ->
  ?data:(string * string) list ->
  string ->
  t
(** [make sev ~code ~func msg]. [key] defaults to [code ^ "|" ^ msg];
    [data] defaults to empty. *)

val error :
  code:string ->
  func:string ->
  ?path:string list ->
  ?key:string ->
  ?data:(string * string) list ->
  string ->
  t

val warning :
  code:string ->
  func:string ->
  ?path:string list ->
  ?key:string ->
  ?data:(string * string) list ->
  string ->
  t

val with_pass : t -> string -> t
val is_error : t -> bool
val errors : t list -> t list
val severity_to_string : severity -> string

val to_string : t -> string
(** One-line pretty rendering:
    [error[oob-store] softmax @ i0/store Y: message (introduced by X)]. *)

val render : t list -> string
(** Pretty rendering of a list, one diagnostic per line, errors
    first. *)

val schema_version : int
(** Version of the JSON rendering emitted by {!render_json}; bumped
    whenever the object shape changes. *)

val render_json : t list -> string
(** Versioned JSON object, errors first, printed by {!Base.Json}:
{v
{
  "schema_version": 2,
  "diagnostics": [
    { "severity": "error", "code": "oob-store", "func": "softmax", "path": ["i0", "store Y"], "message": "...", "pass": "fuse", "data": {} }
  ]
}
v}
    One diagnostic object per line; ["pass"] is [null] when
    unattributed. A driver renders every check it ran as one document:
    [--lint --verify-passes --json] holds the lint diagnostics, any
    error already in the input module, then each stage's new ones.

    Exit-code contract for drivers consuming this (the single source
    of truth, mirrored by [bin/relax_compile.ml --json]): exit 0 when
    no diagnostic has severity [Error] (warnings included in the
    payload are tolerated), exit 1 when at least one [Error] is
    present, exit 2 for usage errors — in which case no JSON is
    emitted at all. *)

val dedup : t list -> t list
(** Drop diagnostics whose {!field-key} already appeared earlier in
    the list (within-function noise reduction; keys are not unique
    across functions). *)

val tally : t list -> (string * int) list
(** Occurrence count per {!field-key}, for cross-pass diffing. *)
