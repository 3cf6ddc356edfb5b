(* Seeded input generators. Everything a workload feeds the program is
   drawn here from the benchmark's [--seed]; the program receives only
   the generated configs, token ids and request streams. *)

(* The [small] synthetic decoder: big enough that kernels, not VM
   bookkeeping, dominate a numeric step; small enough that a step on
   the imp backend takes milliseconds. Weights come from
   [Llm.args_for ~seed]. *)
let small : Frontend.Configs.t =
  {
    name = "small";
    hidden = 256;
    inter = 512;
    layers = 4;
    heads = 4;
    kv_heads = 2;
    head_dim = 64;
    vocab = 2048;
    norm = Rms;
    act = Silu;
    mlp = Gated;
    qkv_bias = false;
    max_context = 256;
  }

let rng seed tag = Random.State.make [| seed; tag |]
let uniform st lo hi = lo + Random.State.int st (hi - lo + 1)

(* generate-small: a closed-loop request list. Lengths are stratified
   (request i takes stratum i mod 4, jittered) so that every seed mixes
   short and long prompts with short and long outputs in the same
   proportions. *)
type gen_request = { gid : int; prompt : int list; max_new : int }

let prompt_strata = [| (8, 11); (56, 59); (16, 19); (32, 35) |]
let output_strata = [| (48, 51); (8, 11); (24, 27); (12, 15) |]

let gen_requests ~seed ~vocab n =
  let st = rng seed 1 in
  List.init n (fun i ->
      let plo, phi = prompt_strata.(i mod 4) and olo, ohi = output_strata.(i mod 4) in
      let plen = uniform st plo phi in
      let prompt = List.init plen (fun _ -> Random.State.int st vocab) in
      { gid = i; prompt; max_new = uniform st olo ohi })

(* The warm-up request: cache lengths 4..7, below every measured one. *)
let warmup_request ~seed ~vocab =
  let st = rng seed 2 in
  { gid = -1; prompt = List.init 4 (fun _ -> Random.State.int st vocab); max_new = 4 }

(* Poisson arrivals: exponential inter-arrival times at [rate_per_s]. *)
let next_arrival st t rate_per_s =
  t +. (-.log (1.0 -. Random.State.float st 1.0) /. rate_per_s *. 1e6)

let request ~id ~arrival_us ~prompt_len ~output_len ?prompt_tokens () :
    Serve.Workload.request =
  { id; arrival_us; prompt_len; output_len; deadline_us = None; prompt_tokens;
    fork_of = None }

(* serve-steady: independent requests, prompts 64-512, outputs 32-256. *)
let poisson ~seed ~rate_per_s ~num_requests : Serve.Workload.t =
  let st = rng seed 3 in
  let t = ref 0.0 in
  List.init num_requests (fun id ->
      t := next_arrival st !t rate_per_s;
      let prompt_len = uniform st 64 512 in
      let output_len = uniform st 32 256 in
      request ~id ~arrival_us:!t ~prompt_len ~output_len ())

(* serve-overload: multi-turn chat sessions over one shared system
   prompt. Sessions start as a Poisson process; turn k's prompt is the
   whole conversation so far (previous prompt, a synthetic reply as
   long as the engine will generate, a fresh user message), so turns
   share a growing prefix and every session shares the system prompt. *)
let chat ~seed ~rate_per_s ~sessions ~turns ~max_total : Serve.Workload.t =
  let st = rng seed 4 in
  let vocab = 32000 in
  let toks n = List.init n (fun _ -> Random.State.int st vocab) in
  let system = toks 48 in
  let t = ref 0.0 in
  let reqs = ref [] in
  for _ = 1 to sessions do
    t := next_arrival st !t rate_per_s;
    let at = ref !t and ctx = ref system in
    (try
       for _ = 1 to turns do
         let user = toks (uniform st 16 96) and output_len = uniform st 32 128 in
         let prompt = !ctx @ user in
         let prompt_len = List.length prompt in
         if prompt_len + output_len > max_total then raise Exit;
         reqs := (!at, prompt, output_len) :: !reqs;
         ctx := prompt @ toks output_len;
         (* think time, mean 2 s *)
         at := !at +. (-.log (1.0 -. Random.State.float st 1.0) *. 2e6)
       done
     with Exit -> ())
  done;
  List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !reqs)
  |> List.mapi (fun id (arrival_us, prompt, output_len) ->
         request ~id ~arrival_us ~prompt_len:(List.length prompt) ~output_len
           ~prompt_tokens:prompt ())
