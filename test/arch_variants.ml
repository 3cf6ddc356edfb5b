(* Tiny configurations that together take every architecture branch of
   the transformer builder: grouped-query attention, Qwen2-style
   projection biases, and LayerNorm with GELU in a plain (ungated) MLP
   as in RedPajama. Each is small enough to run numerically. *)

let tiny = Frontend.Configs.tiny

let all =
  [ ("tiny", tiny);
    ("tiny-gqa", Frontend.Configs.tiny_gqa);
    ("qkv-bias", { tiny with Frontend.Configs.qkv_bias = true });
    ( "ln-gelu-plain",
      Frontend.Configs.{ tiny with norm = Layer; act = Gelu; mlp = Plain } ) ]

(* One test case per variant; the base [tiny] case keeps [name]. *)
let cases name speed f =
  List.map
    (fun (label, cfg) ->
      let name = if label = "tiny" then name else Printf.sprintf "%s (%s)" name label in
      Alcotest.test_case name speed (fun () -> f cfg))
    all
