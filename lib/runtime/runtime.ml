open Cortex_ilir
module Lower = Cortex_lower.Lower
module Linearizer = Cortex_linearizer.Linearizer
module Backend = Cortex_backend.Backend
module Tensor = Cortex_tensor.Tensor
module M = Cortex_models.Models_common

type compiled = Lower.compiled

let compile ?obs ?options ra = Lower.lower ?obs ?options ra

let options_for ?(base = Lower.default) (_ : M.t) = base

type execution = { exec_compiled : compiled; exec_bound : Lower.bound }

let execute_lin ?preload compiled ~params lin =
  let bound = Lower.bind compiled lin in
  List.iter
    (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
    compiled.Lower.param_tensors;
  (* Sessions pre-seed persistent hidden states into the fresh context
     (after parameters, before the kernels) so a delta run over a grown
     tail reads the conversation's existing rows instead of zeros. *)
  (match preload with None -> () | Some f -> f bound);
  Interp.run_program bound.Lower.ctx compiled.Lower.prog;
  { exec_compiled = compiled; exec_bound = bound }

let execute compiled ~params structure =
  execute_lin compiled ~params
    (Linearizer.run ~max_children:compiled.Lower.ra.Cortex_ra.Ra.max_children structure)

let state e st node = Lower.state_value e.exec_bound e.exec_compiled st node

type report = {
  latency : Backend.latency;
  cost : Cost.t;
  linearize_us : float;
  device_memory_bytes : float;
  num_nodes : int;
  occupancy : float;
}

(* Bytes of the device-resident tensors: parameters, plus every
   Global-space tensor of the program (states and, without fusion,
   materialized temporaries), plus the linearizer's arrays. *)
let device_memory compiled (ufs : Lower.uf_table) lin =
  let tensor_bytes (t : Ir.tensor) =
    match Mem_plan.static_bytes ~uf:ufs.Lower.uf_resolver ~bytes_per_elem:Cost.bytes_per_elem t with
    | Some b -> float_of_int b
    | None -> failwith "Runtime.device_memory: unexpected extent"
  in
  let prog = compiled.Lower.prog in
  let globals =
    List.filter (fun (t : Ir.tensor) -> t.Ir.space = Ir.Global) prog.Ir.temporaries
  in
  List.fold_left (fun acc t -> acc +. tensor_bytes t) 0.0 prog.Ir.params
  +. List.fold_left (fun acc t -> acc +. tensor_bytes t) 0.0 prog.Ir.outputs
  +. List.fold_left (fun acc t -> acc +. tensor_bytes t) 0.0 globals
  +. float_of_int (Linearizer.memory_bytes lin)

let simulate_lin ?(lock_free = false) ?(linearize_us = 0.0) compiled ~backend lin =
  let ufs = Lower.bind_ufs compiled lin in
  let cost =
    Cost.analyze ~uf:ufs.Lower.uf_resolver ~num_internal_batches:ufs.Lower.num_batch_launches
      compiled.Lower.prog
  in
  let latency =
    Backend.simulate backend ~persist:compiled.Lower.options.Lower.persist ~lock_free cost
  in
  {
    latency;
    cost;
    linearize_us;
    device_memory_bytes = device_memory compiled ufs lin;
    num_nodes = lin.Linearizer.num_nodes;
    occupancy = Backend.mean_occupancy backend cost;
  }

let simulate ?lock_free compiled ~backend structure =
  let lin =
    Linearizer.run ~max_children:compiled.Lower.ra.Cortex_ra.Ra.max_children structure
  in
  simulate_lin ?lock_free ~linearize_us:(Linearizer.priced_us lin) compiled ~backend lin

let total_ms r = (r.latency.Backend.total_us +. r.linearize_us) /. 1000.0

let scale_report r factor = { r with latency = Backend.scale_latency r.latency factor }

module Schedule_check = struct
  type verdict = Valid | Invalid of string

  (* Whether the schedule's variable-bound loops are peeled (we peel by
     default whenever dynamic batching is on). *)
  let peeling (options : Lower.options) = options.Lower.dynamic_batch

  let check ~backend ~hidden ~states (options : Lower.options) ~(cost : Cost.t) =
    if not options.Lower.persist then Valid
    else begin
      let persisted = Backend.persisted_bytes backend cost in
      if persisted = 0.0 then Valid
      else begin
        (* Registers also hold the live states of the unrolled group
           (child + parent per lane) and the peeled loop bodies roughly
           double the live range of the persisted weights. *)
        let state_bytes =
          float_of_int (states * hidden * Cost.bytes_per_elem) *. backend.Backend.width
        in
        let demand = persisted +. (if options.Lower.unroll then 2.0 *. state_bytes else 0.0) in
        let demand = if peeling options then demand *. 1.25 else demand in
        if options.Lower.unroll && demand > backend.Backend.persist_budget_bytes then
          Invalid "persistence + unrolling exceeds the register budget (App. D)"
        else if
          peeling options && demand > backend.Backend.persist_budget_bytes
        then Invalid "persistence + loop peeling exceeds the register budget (App. D)"
        else Valid
      end
    end

  (* On-chip capacity feasibility: persisted weights plus the
     Shared/Register temporaries (caches, staging buffers,
     accumulators) must fit the backend's on-chip storage.  The
     temporaries are charged at their liveness-planned footprint
     ([Cost.onchip_planned_bytes], the Mem_plan arena high-water mark),
     not the sum-of-buffers worst case: buffers whose live ranges never
     intersect share arena space, so only the planned peak must be
     resident at once.  Planned <= worst always, so the switch only
     admits schedules. *)
  let check_capacity ~backend (options : Lower.options) ~(cost : Cost.t) =
    let persisted =
      if options.Lower.persist then Backend.persisted_bytes backend cost else 0.0
    in
    let demand = persisted +. cost.Cost.onchip_planned_bytes in
    if demand > backend.Backend.onchip_capacity_bytes then
      Invalid
        (Printf.sprintf "on-chip demand %.0f bytes exceeds capacity %.0f bytes"
           demand backend.Backend.onchip_capacity_bytes)
    else Valid
end
