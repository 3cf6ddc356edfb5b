type alloc_kind = [ `Storage | `Tensor ]

type event =
  | Enter of { func : string; top : bool; overhead_us : float }
  | Exit of { func : string }
  | Instr_begin of { func : string; pc : int; op : string; prov : string option }
  | Instr_end of { func : string; pc : int; elapsed_us : float }
  | Bind_shape of { var : string; value : int }
  | Check_shape of { expr : string; value : int }
  | Alloc of {
      kind : alloc_kind;
      id : int;
      bytes : int;
      reused : bool;
      live : int;
    }
  | Tensor_in_storage of { storage_id : int; bytes : int }
  | Free of { id : int; bytes : int; live : int }
  | End_of_life of { id : int; bytes : int }
  | Kernel_launch of {
      kernel : string;
      prov : string option;
      replay : bool;
      shapes : int array array;
      flops : int;
      bytes_moved : int;
      elapsed_us : float;
      backend : string;
          (* which execution backend ran (or, in timed mode, would
             run) the kernel: "interp" | "imp" *)
    }
  | Extern_call of {
      func : string;
      prov : string option;
      replay : bool;
      shapes : int array array;
      flops : float;
      bytes_moved : float;
      elapsed_us : float;
    }
  | Collective of {
      op : string;  (* "ccl.all_reduce" | "ccl.all_gather" *)
      prov : string option;
      replay : bool;
      world : int;
      shapes : int array array;
      bytes_wire : float;  (* bytes the interconnect actually carried *)
      elapsed_us : float;
    }
  | Capture_begin of { capture_id : int; func : string }
  | Capture_replay of { capture_id : int; func : string; overhead_us : float }
  | Serve of {
      tag : serve_tag;
      id : int;
      t_us : float;
      batch : int;
      tokens : int;
    }
  | Fault_injected of Fault.event

and serve_tag =
  [ `Request_arrive
  | `Prefill
  | `Decode_step
  | `Preempt
  | `Finish
  | `Shed
  | `Timeout
  | `Retry
  | `Abort
  | `Degrade
  | `Prefix_hit
  | `Cow_copy
  | `Evict
  | `Failover
  | `Hedge
  | `Hedge_win
  | `Replica_down
  | `Replica_up ]

type sink = event -> unit

let serve_tag_name = function
  | `Request_arrive -> "arrive"
  | `Prefill -> "prefill"
  | `Decode_step -> "decode_step"
  | `Preempt -> "preempt"
  | `Finish -> "finish"
  | `Shed -> "shed"
  | `Timeout -> "timeout"
  | `Retry -> "retry"
  | `Abort -> "abort"
  | `Degrade -> "degrade"
  | `Prefix_hit -> "prefix_hit"
  | `Cow_copy -> "cow_copy"
  | `Evict -> "evict"
  | `Failover -> "failover"
  | `Hedge -> "hedge"
  | `Hedge_win -> "hedge_win"
  | `Replica_down -> "replica_down"
  | `Replica_up -> "replica_up"

let shapes_str shapes =
  shapes |> Array.to_list
  |> List.map (fun s ->
         s |> Array.to_list |> List.map string_of_int |> String.concat "x")
  |> String.concat ","

let prov_str = function None -> "" | Some p -> " @" ^ p

let render ~times ev =
  let us u = if times then Printf.sprintf " us=%.3f" u else "" in
  match ev with
  | Enter { func; top; overhead_us } ->
      Printf.sprintf "enter %s%s%s" func
        (if top then " (step)" else "")
        (us overhead_us)
  | Exit { func } -> Printf.sprintf "exit %s" func
  | Instr_begin { func; pc; op; prov } ->
      Printf.sprintf "instr %s#%d %s%s" func pc op (prov_str prov)
  | Instr_end { func; pc; elapsed_us } ->
      Printf.sprintf "end %s#%d%s" func pc (us elapsed_us)
  | Bind_shape { var; value } -> Printf.sprintf "bind %s=%d" var value
  | Check_shape { expr; value } -> Printf.sprintf "check %s=%d" expr value
  | Alloc { kind; id; bytes; reused; live } ->
      Printf.sprintf "alloc %s#%d %dB%s live=%d"
        (match kind with `Storage -> "storage" | `Tensor -> "tensor")
        id bytes
        (if reused then " reused" else "")
        live
  | Tensor_in_storage { storage_id; bytes } ->
      Printf.sprintf "tensor_in storage#%d %dB" storage_id bytes
  | Free { id; bytes; live } ->
      Printf.sprintf "free #%d %dB live=%d" id bytes live
  | End_of_life { id; bytes } -> Printf.sprintf "eol #%d %dB" id bytes
  (* [backend] is deliberately not rendered: golden traces pin this
     format, and backend attribution belongs to the profiler. *)
  | Kernel_launch
      { kernel; prov; replay; shapes; flops; bytes_moved; elapsed_us; _ } ->
      Printf.sprintf "kernel %s%s [%s] flops=%d bytes=%d%s%s" kernel
        (prov_str prov) (shapes_str shapes) flops bytes_moved
        (if replay then " replay" else "")
        (us elapsed_us)
  | Extern_call { func; prov; replay; shapes; flops; bytes_moved; elapsed_us } ->
      Printf.sprintf "extern %s%s [%s] flops=%.0f bytes=%.0f%s%s" func
        (prov_str prov) (shapes_str shapes) flops bytes_moved
        (if replay then " replay" else "")
        (us elapsed_us)
  | Collective { op; prov; replay; world; shapes; bytes_wire; elapsed_us } ->
      Printf.sprintf "collective %s%s [%s] world=%d wire=%.0f%s%s" op
        (prov_str prov) (shapes_str shapes) world bytes_wire
        (if replay then " replay" else "")
        (us elapsed_us)
  | Capture_begin { capture_id; func } ->
      Printf.sprintf "capture #%d %s" capture_id func
  | Capture_replay { capture_id; func; overhead_us } ->
      Printf.sprintf "replay #%d %s%s" capture_id func (us overhead_us)
  | Serve { tag; id; t_us; batch; tokens } ->
      Printf.sprintf "serve %s%s b=%d tokens=%d%s" (serve_tag_name tag)
        (if id >= 0 then Printf.sprintf " #%d" id else "")
        batch tokens
        (if times then Printf.sprintf " t=%.3f" t_us else "")
  | Fault_injected { Fault.seq; site; kind } ->
      Printf.sprintf "fault #%d %s @%s" seq (Fault.kind_name kind) site

let to_string ev = render ~times:true ev
let shape_of ev = render ~times:false ev

(* ---------- recording sink ---------- *)

type recorder = { mutable rev_events : event list }

let recorder () = { rev_events = [] }
let record r ev = r.rev_events <- ev :: r.rev_events
let sink r = record r
let events r = List.rev r.rev_events
let clear r = r.rev_events <- []

let tee a b ev =
  a ev;
  b ev

(* ---------- classification helpers (used by tests/tools) ---------- *)

let is_launch ?(include_replays = true) ev =
  match ev with
  | Kernel_launch { replay; _ } -> include_replays || not replay
  | _ -> false

let is_extern ?(include_replays = true) ev =
  match ev with
  | Extern_call { replay; _ } -> include_replays || not replay
  | _ -> false

let elapsed_us_of = function
  | Enter { overhead_us; _ } | Capture_replay { overhead_us; _ } -> overhead_us
  | Kernel_launch { elapsed_us; _ }
  | Extern_call { elapsed_us; _ }
  | Collective { elapsed_us; _ } ->
      elapsed_us
  | Exit _ | Instr_begin _ | Instr_end _ | Bind_shape _ | Check_shape _
  | Alloc _ | Tensor_in_storage _ | Free _ | End_of_life _ | Capture_begin _
  | Serve _ | Fault_injected _ ->
      (* Serving/fault events are markers on the engine's simulated
         clock; the time they bracket (or inflate) is charged by the
         underlying VM runs. *)
      0.0

let is_collective ?(include_replays = true) ev =
  match ev with
  | Collective { replay; _ } -> include_replays || not replay
  | _ -> false

let is_fault = function Fault_injected _ -> true | _ -> false
