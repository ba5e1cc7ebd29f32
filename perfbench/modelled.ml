(* Modelled figures of a workload run, in simulated ARM1136 cycles from
   lib/hw.  They are deterministic for a seed, so two runs of the same
   code and seed must agree exactly; a change that only speeds up the
   host must leave them identical.  The cycle model has not been
   validated against silicon. *)

type t = {
  bound : int;  (** kernel_entry / improved / L2 off interrupt-response bound *)
  p99 : int;
  max : int;
}

(* The bound EXPERIMENTS.md and DESIGN.md record for kernel_entry /
   improved / L2 off / no pinning. *)
let expected_bound = 69_892

(* The soak's improved build without pinning is gated against exactly
   [expected_bound]; the tail is that of its worst scenario. *)
let improved_label = "benno_bitmap"

(* [None] when the report has no improved-build run. *)
let of_soak (r : Sim.report) =
  let runs =
    List.filter (fun rr -> rr.Sim.rr_build = improved_label) r.Sim.rp_runs
  in
  let worst f = List.fold_left (fun a rr -> Int.max a (f rr)) 0 runs in
  if runs = [] then None
  else
    Some
      {
        bound = worst (fun rr -> rr.Sim.rr_bound);
        p99 = worst (fun rr -> rr.Sim.rr_latency.Sim.ls_p99);
        max = worst (fun rr -> rr.Sim.rr_latency.Sim.ls_max);
      }

(* The analyse workload observes nothing; its interrupt latency is the
   computed one: the kernel_entry bounds over the query matrix. *)
let of_bounds ~bound kernel_entry_bounds =
  let xs = List.map float_of_int kernel_entry_bounds in
  {
    bound;
    p99 = int_of_float (Stats.percentile 99.0 xs);
    max = List.fold_left Int.max 0 kernel_entry_bounds;
  }
