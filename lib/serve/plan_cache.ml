module Backend = Cortex_backend.Backend
module Lower = Cortex_lower.Lower
module Runtime = Cortex_runtime.Runtime
module Tuner = Cortex_runtime.Tuner
module Linearizer = Cortex_linearizer.Linearizer
module Schedule = Cortex_ilir.Schedule
module Stats = Cortex_util.Stats
module Obs = Cortex_obs.Obs

(* A per-shape-class cache of tuned loop-schedule plans.

   The serving engine compiles a model once, but the best loop schedule
   depends on the backend it lands on and on how much parallelism the
   linearized batch exposes — a size-class worth of shape information.
   The first window of a class pays for a loop-schedule search
   (Tuner.tune_loops, a candidate-count budget, so the search is a
   deterministic function of the compiled artifact and the
   linearization); every later window of the class reuses the applied
   artifact.  The tuning wall clock is host time spent once per class at
   first contact — the moral equivalent of a JIT warmup — and is
   recorded in the stats and through Obs, never charged to the
   simulated device clock (which never reads the host clock). *)

type entry = {
  pe_backend : string;  (* Backend.short *)
  pe_bucket : int;  (* Dispatch.size_bucket of the window's node count *)
  pe_packed : bool;  (* tuned on a packed multi-session window *)
  pe_plan : Schedule.plan;
  pe_compiled : Lower.compiled;  (* the plan applied to the engine's artifact *)
  pe_default_us : float;
  pe_tuned_us : float;
  pe_tune_ms : float;  (* host wall time of the search *)
}

type stats = {
  pc_entries : int;
  pc_hits : int;
  pc_misses : int;
  pc_tune_ms : float;
}

type t = {
  budget : int;
  table : (string * int * bool, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable tune_ms : float;
}

let create ?(budget = 16) () =
  if budget < 1 then invalid_arg "Plan_cache.create: budget must be >= 1";
  { budget; table = Hashtbl.create 8; hits = 0; misses = 0; tune_ms = 0.0 }

let find_or_tune ?obs ?(packed = false) t ~(compiled : Lower.compiled)
    ~(backend : Backend.t) ~(lin : Linearizer.t) ~nodes =
  (* Packed multi-session windows tune in their own key space: their
     batch tables are level-merged session deltas, shaped nothing like
     a regular forest window of the same node count, so sharing a plan
     across the two would let whichever shape tuned first dictate the
     other's schedule. *)
  let bucket = Dispatch.size_bucket nodes in
  let key = (backend.Backend.short, bucket, packed) in
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    Obs.incr obs "plan_cache.hits";
    (e, true)
  | None ->
    t.misses <- t.misses + 1;
    let ranked, wall_us =
      Stats.time_us (fun () -> Tuner.tune_loops ~budget:t.budget compiled ~backend lin)
    in
    (* tune_loops always includes the empty plan, so both the winner and
       the default baseline are present. *)
    let best_plan, best_report = List.hd ranked in
    let _, default_report = List.find (fun (p, _) -> p = []) ranked in
    let applied =
      if best_plan = [] then compiled else Lower.apply_plan best_plan compiled
    in
    let tune_ms = wall_us /. 1000.0 in
    let e =
      {
        pe_backend = backend.Backend.short;
        pe_bucket = bucket;
        pe_packed = packed;
        pe_plan = best_plan;
        pe_compiled = applied;
        pe_default_us =
          default_report.Runtime.latency.Backend.total_us;
        pe_tuned_us = best_report.Runtime.latency.Backend.total_us;
        pe_tune_ms = tune_ms;
      }
    in
    Hashtbl.replace t.table key e;
    t.tune_ms <- t.tune_ms +. tune_ms;
    Obs.incr obs "plan_cache.misses";
    Obs.observe obs "plan_cache.tune_ms" tune_ms;
    (e, false)

(* Seed the cache with a plan tuned ahead of time (a bundle's tuned
   plans): the applied artifact is ready before the first window, so
   first contact with the class is a hit and costs no tuning wall
   time. *)
let preload t ~(backend_short : string) ~bucket ~plan ~(compiled : Lower.compiled)
    ~default_us ~tuned_us =
  let applied = if plan = [] then compiled else Lower.apply_plan plan compiled in
  (* Bundles only carry regular-window plans; packed classes re-tune at
     first contact. *)
  Hashtbl.replace t.table (backend_short, bucket, false)
    {
      pe_backend = backend_short;
      pe_bucket = bucket;
      pe_packed = false;
      pe_plan = plan;
      pe_compiled = applied;
      pe_default_us = default_us;
      pe_tuned_us = tuned_us;
      pe_tune_ms = 0.0;
    }

let stats t =
  {
    pc_entries = Hashtbl.length t.table;
    pc_hits = t.hits;
    pc_misses = t.misses;
    pc_tune_ms = t.tune_ms;
  }

let hit_rate s =
  let total = s.pc_hits + s.pc_misses in
  if total = 0 then 0.0 else float_of_int s.pc_hits /. float_of_int total

let entries t =
  List.sort
    (fun a b ->
      compare
        (a.pe_backend, a.pe_bucket, a.pe_packed)
        (b.pe_backend, b.pe_bucket, b.pe_packed))
    (Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
