(* The domain pool behind split row streams (Tir.Imp.Pool).

   Lifecycle: compiling, linting, modeled steps and the simulated
   cluster run no large proved row, so they must leave the pool
   unstarted (those workloads never pay for a second domain's share
   of every minor collection); the first split starts it. This test
   runs first, in its own process, so nothing before it has split.
   An idle helper polls for a bounded window and then blocks, and the
   next split wakes it.

   Robustness: an exception raised in any range is re-raised in the
   caller after the join and leaves the pool usable; a call that
   finds the pool busy (from inside a range, or from another domain)
   runs serially instead of deadlocking. The helpers are stopped and
   joined by an [at_exit] hook, so this executable exiting at all is
   part of the check. *)

let device = Runtime.Device.rtx4090
let width = Tir.Imp.split_width

(* Split [0, nj) on the pool and check every index ran exactly once. *)
let run_covering nj =
  let hits = Array.make nj 0 in
  Tir.Imp.Pool.run nj (fun lo hi ->
      for j = lo to hi - 1 do
        hits.(j) <- hits.(j) + 1
      done);
  Alcotest.(check bool) "every index run once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_unspawned_by_non_numeric_work () =
  let cfg = Frontend.Configs.llama3_8b in
  let b = Frontend.Llm.decode cfg ~batch:1 Frontend.Llm.F16 in
  let options =
    {
      Relax_passes.Pipeline.default_options with
      upper_bounds = Frontend.Llm.upper_bound_hints b;
    }
  in
  let prog =
    Relax_passes.Pipeline.compile ~options ~device b.Frontend.Llm.mod_
  in
  ignore
    (Relax_passes.Verify.check_module ~bounds:options.upper_bounds
       prog.Runtime.Vm.mod_);
  let vm = Runtime.Vm.create (`Timed device) prog in
  let args = Frontend.Llm.args_for b ~ctx:1024 ~mode:`Shadow () in
  ignore (Runtime.Vm.run vm b.Frontend.Llm.entry args);
  let tiny = Frontend.Configs.tiny in
  let model =
    Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device
  in
  let w =
    Serve.Workload.generate ~seed:3 ~rate_per_s:400.0 ~num_requests:12
      ~max_total:tiny.Frontend.Configs.max_context
      ~prompt:(Serve.Workload.Uniform (2, 6))
      ~output:(Serve.Workload.Uniform (2, 5))
      ()
  in
  let r =
    Dist.Cluster.run ~exec:`Sim ~model
      { Dist.Cluster.default_opts with Dist.Cluster.replicas = 2 }
      w
  in
  Alcotest.(check int) "cluster completed" 12
    r.Dist.Cluster.summary.Serve.Metrics.completed;
  Alcotest.(check int) "no row ran split" 0 (Tir.Imp.split_count ());
  Alcotest.(check int) "pool not started" 0 (Tir.Imp.helper_starts ());
  (* the first split starts it *)
  run_covering 64;
  Alcotest.(check bool) "split starts the pool" (width >= 2)
    (Tir.Imp.helper_starts () > 0)

(* Poll until [cond] holds, for at most [rounds] relax rounds. *)
let wait_until rounds cond =
  let rec go i =
    if cond () then true
    else if i >= rounds then false
    else begin
      Domain.cpu_relax ();
      go (i + 1)
    end
  in
  go 0

(* The window is 30000 rounds; these waits allow a thousand times
   that. *)
let test_idle_helpers_block_and_wake () =
  if width >= 2 then begin
    run_covering 128;
    Alcotest.(check bool) "idle helpers block" true
      (wait_until 30_000_000 (fun () ->
           Tir.Imp.helpers_sleeping () = width - 1));
    let wakeups = Tir.Imp.helper_wakeups () in
    run_covering 128;
    Alcotest.(check bool) "a split wakes them" true
      (wait_until 30_000_000 (fun () ->
           Tir.Imp.helper_wakeups () >= wakeups + width - 1));
    Alcotest.(check int) "no helper restarted" (width - 1)
      (Tir.Imp.helper_starts ())
  end

exception Boom of int

let test_helper_exception () =
  let nj = 8 * width in
  let before = Tir.Imp.split_count () in
  (match
     Tir.Imp.Pool.run nj (fun lo _ -> if lo > 0 || width = 1 then raise (Boom lo))
   with
  | () -> Alcotest.fail "exception lost"
  | exception Boom _ -> ());
  if width >= 2 then
    Alcotest.(check int) "the failed run was a split" (before + 1)
      (Tir.Imp.split_count ());
  (* the pool is free again and still computes every range *)
  run_covering nj

(* A call that finds the pool busy runs [body 0 nj] itself, in one
   piece. *)
let test_busy_runs_serially () =
  let inner_calls = ref [] in
  let other_calls = Atomic.make [] in
  Tir.Imp.Pool.run 256 (fun lo _ ->
      if lo = 0 then begin
        Tir.Imp.Pool.run 128 (fun a b -> inner_calls := (a, b) :: !inner_calls);
        let d =
          Domain.spawn (fun () ->
              Tir.Imp.Pool.run 96 (fun a b ->
                  let l = Atomic.get other_calls in
                  Atomic.set other_calls ((a, b) :: l)))
        in
        Domain.join d
      end);
  Alcotest.(check (list (pair int int))) "re-entrant call serial"
    [ (0, 128) ] !inner_calls;
  Alcotest.(check (list (pair int int))) "other-domain call serial"
    [ (0, 96) ] (Atomic.get other_calls)

let () =
  Alcotest.run "pool"
    [ ( "lifecycle",
        [ Alcotest.test_case "compile, lint and sim leave it unstarted" `Quick
            test_unspawned_by_non_numeric_work;
          Alcotest.test_case "idle helpers block, a split wakes them"
            `Quick test_idle_helpers_block_and_wake ] );
      ( "robustness",
        [ Alcotest.test_case "helper exception re-raised after join" `Quick
            test_helper_exception;
          Alcotest.test_case "busy pool runs the call serially" `Quick
            test_busy_runs_serially ] ) ]
