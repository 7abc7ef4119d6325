module Lower = Cortex_lower.Lower
module Backend = Cortex_backend.Backend
module M = Cortex_models.Models_common
module Ra = Cortex_ra.Ra
module Structure = Cortex_ds.Structure
module Ir = Cortex_ilir.Ir
module Schedule = Cortex_ilir.Schedule
module Cost = Cortex_ilir.Cost
module Roofline = Cortex_roofline.Roofline
module Linearizer = Cortex_linearizer.Linearizer

let label_of (o : Lower.options) =
  let tag cond name = if cond then [ name ] else [] in
  let tags =
    tag o.Lower.fuse "fuse" @ tag o.Lower.specialize "spec"
    @ tag o.Lower.dynamic_batch "batch"
    @ tag o.Lower.persist "persist" @ tag o.Lower.unroll "unroll"
    @ tag o.Lower.refactor "refactor"
  in
  if tags = [] then "plain" else String.concat "+" tags

(* The valid schedule lattice for this model (structurally valid; the
   App. D check is applied during [tune2] because it needs the cost). *)
let candidates (spec : M.t) =
  let program = spec.M.program in
  let tree_like = program.Ra.kind <> Structure.Dag in
  let bools = [ false; true ] in
  let combos =
    List.concat_map
      (fun fuse ->
        List.concat_map
          (fun specialize ->
            List.concat_map
              (fun persist ->
                List.concat_map
                  (fun unroll ->
                    List.map
                      (fun refactor ->
                        {
                          Lower.default with
                          Lower.fuse;
                          specialize;
                          persist;
                          unroll;
                          refactor;
                        })
                      bools)
                  bools)
              bools)
          bools)
      bools
  in
  combos
  |> List.filter (fun (o : Lower.options) ->
         (* Structural validity: same restrictions the lowerer enforces. *)
         ((not o.Lower.unroll)
          || (tree_like && o.Lower.specialize && o.Lower.fuse && o.Lower.dynamic_batch))
         && ((not o.Lower.refactor)
             || (tree_like && Ra.num_phases program.Ra.rec_ops >= 2))
         && not (o.Lower.unroll && o.Lower.refactor))
  |> List.map (fun o -> (label_of o, o))

(* Widest output axis of the state ops stands in for the hidden size
   (what the App. D register check needs). *)
let hidden_of_ra (ra : Ra.t) =
  List.fold_left
    (fun acc (st : Ra.state) ->
      let o = Ra.find_op ra.Ra.rec_ops st.Ra.st_op in
      List.fold_left max acc (Ra.op_dims o))
    1 ra.Ra.states

(* ---------- level 2: loop-schedule plans ---------- *)

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

(* Serial constant-extent loops that can be bound onto the backend's
   vector lanes: reductions and small feature loops the lowerer left
   serial.  Copy-in loops from earlier staging are already vectorized
   and excluded by the Serial test. *)
let bind_targets (prog : Ir.program) =
  List.concat_map
    (fun (k : Ir.kernel) ->
      List.rev
        (Ir.fold_stmt
           ~expr:(fun acc _ -> acc)
           ~stmt:(fun acc s ->
             match s with
             | Ir.For { v; extent = Ir.Int n; kind = Ir.Serial; _ }
               when n >= 2 && n <= 512 ->
               Ir.Var.name v :: acc
             | _ -> acc)
           [] k.Ir.body))
    prog.Ir.kernels

(* Directly nested constant-extent loop pairs: the 2-D tiling sites. *)
let tile_targets (prog : Ir.program) =
  List.concat_map
    (fun (k : Ir.kernel) ->
      List.rev
        (Ir.fold_stmt
           ~expr:(fun acc _ -> acc)
           ~stmt:(fun acc s ->
             match s with
             | Ir.For
                 {
                   v;
                   extent = Ir.Int no;
                   body = Ir.For { v = vi; extent = Ir.Int ni; _ };
                   _;
                 }
               when no >= 8 && ni >= 8 ->
               (Ir.Var.name v, Ir.Var.name vi, no, ni) :: acc
             | _ -> acc)
           [] k.Ir.body))
    prog.Ir.kernels

(* Constant-extent parameter tensors read under a loop, attributed to
   their outermost enclosing loop: the staging candidates, with their
   on-chip footprint in bytes. *)
let stage_targets (prog : Ir.program) =
  let acc = ref [] in
  let add loop (t : Ir.tensor) =
    let bytes =
      List.fold_left
        (fun a e ->
          match (a, e) with
          | Some a, Ir.Int n when n > 0 -> Some (a *. float_of_int n)
          | _ -> None)
        (Some (float_of_int Cost.bytes_per_elem))
        t.Ir.extents
    in
    match bytes with
    | Some b ->
      if not (List.exists (fun (l, n, _) -> l = loop && n = t.Ir.tname) !acc) then
        acc := (loop, t.Ir.tname, b) :: !acc
    | None -> ()
  in
  let visit_expr loop e =
    match loop with
    | None -> ()
    | Some l ->
      Ir.fold_expr
        (fun () e ->
          match e with
          | Ir.Load (t, _) when t.Ir.space = Ir.Param -> add l t
          | _ -> ())
        () e
  in
  let rec go loop s =
    match s with
    | Ir.For { v; extent; body; _ } ->
      visit_expr loop extent;
      let loop = match loop with None -> Some (Ir.Var.name v) | some -> some in
      go loop body
    | Ir.Seq ss -> List.iter (go loop) ss
    | Ir.Let (_, e, body) ->
      visit_expr loop e;
      go loop body
    | Ir.If (c, a, b) ->
      visit_expr loop c;
      go loop a;
      Option.iter (go loop) b
    | Ir.Store (_, idx, v) ->
      List.iter (visit_expr loop) idx;
      visit_expr loop v
    | Ir.Barrier | Ir.Nop -> ()
  in
  List.iter (fun (k : Ir.kernel) -> go None k.Ir.body) prog.Ir.kernels;
  List.rev !acc

(* The loop-parameter lattice for one compiled artifact, most promising
   first (the tuning budget truncates the tail): lane bindings, staged
   parameter regions, power-of-two tile sizes, and their combinations. *)
let loop_plans (compiled : Lower.compiled) =
  let prog = compiled.Lower.prog in
  let binds = take 12 (bind_targets prog) in
  let stages =
    take 3 (List.filter (fun (_, _, b) -> b <= 8.0e6) (stage_targets prog))
  in
  let tiles = take 1 (tile_targets prog) in
  let bind_all =
    List.map (fun l -> Schedule.Bind { loop = l; kind = Ir.Vectorized }) binds
  in
  let stage_of (l, t, _) = Schedule.Stage { loop = l; tensor = t } in
  let tile_plans =
    List.concat_map
      (fun (o, i, no, ni) ->
        List.filter_map
          (fun f ->
            if no mod f = 0 && ni mod f = 0 then
              Some
                [
                  Schedule.Tile
                    { outer = o; inner = i; factor_outer = f; factor_inner = f };
                ]
            else None)
          [ 8; 16 ])
      tiles
  in
  let plans =
    [ [] ]
    @ (if bind_all = [] then [] else [ bind_all ])
    @ (if List.length binds > 1 then
         List.map (fun l -> [ Schedule.Bind { loop = l; kind = Ir.Vectorized } ]) binds
       else [])
    @ List.map (fun s -> bind_all @ [ stage_of s ]) stages
    @ (if List.length stages > 1 then [ bind_all @ List.map stage_of stages ] else [])
    @ List.map (fun s -> [ stage_of s ]) stages
    @ List.map (fun tp -> bind_all @ tp) tile_plans
    @ tile_plans
  in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let key = Schedule.plan_to_string p in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    plans

let tensor_bytes (prog : Ir.program) name =
  let find = List.find_opt (fun (t : Ir.tensor) -> t.Ir.tname = name) in
  match (find prog.Ir.params, find prog.Ir.temporaries) with
  | Some t, _ | None, Some t ->
    List.fold_left
      (fun a e ->
        match (a, e) with
        | Some a, Ir.Int n when n > 0 -> Some (a *. float_of_int n)
        | _ -> None)
      (Some (float_of_int Cost.bytes_per_elem))
      t.Ir.extents
  | None, None -> None

let plan_staged_bytes prog plan =
  List.fold_left
    (fun acc d ->
      match d with
      | Schedule.Stage { tensor; _ } -> (
        match tensor_bytes prog tensor with Some b -> acc +. b | None -> acc)
      | _ -> acc)
    0.0 plan

let feasible ~backend ~hidden ~states options (report : Runtime.report) =
  (match
     Runtime.Schedule_check.check ~backend ~hidden ~states options
       ~cost:report.Runtime.cost
   with
   | Runtime.Schedule_check.Valid -> true
   | Runtime.Schedule_check.Invalid _ -> false)
  &&
  match
    Runtime.Schedule_check.check_capacity ~backend options ~cost:report.Runtime.cost
  with
  | Runtime.Schedule_check.Valid -> true
  | Runtime.Schedule_check.Invalid _ -> false

let total_us (r : Runtime.report) = r.Runtime.latency.Backend.total_us

let tune_loops ?(budget = 16) ?(linearize_us = 0.0) (compiled : Lower.compiled)
    ~backend lin =
  let hidden = hidden_of_ra compiled.Lower.ra in
  let states = List.length compiled.Lower.ra.Ra.states in
  let options = compiled.Lower.options in
  let base = Runtime.simulate_lin ~linearize_us compiled ~backend lin in
  let prog = compiled.Lower.prog in
  let cap = backend.Backend.onchip_capacity_bytes in
  let base_onchip = base.Runtime.cost.Cost.onchip_peak_bytes in
  let plans = List.filter (fun p -> p <> []) (take budget (loop_plans compiled)) in
  let scheduled =
    List.filter_map
      (fun plan ->
        (* static capacity pre-prune: staged bytes only ever add *)
        if base_onchip +. plan_staged_bytes prog plan > cap then None
        else
          match Lower.apply_plan plan compiled with
          | exception Schedule.Schedule_error _ -> None
          | applied ->
            let report = Runtime.simulate_lin ~linearize_us applied ~backend lin in
            if feasible ~backend ~hidden ~states options report then
              Some (plan, report)
            else None)
      plans
  in
  (* The empty plan (the artifact as compiled) is always a candidate;
     stable sort keeps it ahead of plans that merely tie it. *)
  List.stable_sort
    (fun (_, a) (_, b) -> Float.compare (total_us a) (total_us b))
    (([], base) :: scheduled)

(* ---------- two-level search: options lattice x loop plans ---------- *)

type plan_candidate = {
  pc_options : Lower.options;
  pc_label : string;  (** options label, e.g. "fuse+spec+batch+persist" *)
  pc_plan : Schedule.plan;
  pc_report : Runtime.report;
}

let pc_full_label c =
  c.pc_label ^ " | " ^ Schedule.plan_to_string c.pc_plan

let tune2 ?(plan_budget = 16) (spec : M.t) ~backend structure =
  let hidden = hidden_of_ra spec.M.program in
  let states = List.length spec.M.program.Ra.states in
  let lin = Linearizer.run structure in
  let linearize_us = Linearizer.priced_us lin in
  let eff =
    Float.max backend.Backend.roofline_efficiency backend.Backend.gemm_efficiency
  in
  let best_us = ref infinity in
  let results = ref [] in
  List.iter
    (fun (label, options) ->
      let compiled = Runtime.compile ~options spec.M.program in
      let base = Runtime.simulate_lin ~linearize_us compiled ~backend lin in
      let base_ok = feasible ~backend ~hidden ~states options base in
      if base_ok then begin
        results :=
          { pc_options = options; pc_label = label; pc_plan = []; pc_report = base }
          :: !results;
        best_us := Float.min !best_us (total_us base)
      end;
      (* Roofline prune: plans change neither FLOPs nor barrier/launch
         counts, so no plan of this options point can beat this bound.
         Only sweep when the bound still beats the best found so far. *)
      let bound =
        Roofline.lower_bound_us
          ~flops:(Cost.total_flops base.Runtime.cost)
          ~bytes:0.0
          ~peak_flops:(backend.Backend.peak_flops *. eff)
          ~mem_bw:backend.Backend.mem_bw
        +. base.Runtime.latency.Backend.barrier_us
        +. base.Runtime.latency.Backend.launch_us
      in
      if base_ok && bound < !best_us then
        List.iter
          (fun (plan, report) ->
            if plan <> [] then begin
              results :=
                { pc_options = options; pc_label = label; pc_plan = plan; pc_report = report }
                :: !results;
              best_us := Float.min !best_us (total_us report)
            end)
          (tune_loops ~budget:plan_budget ~linearize_us compiled ~backend lin))
    (candidates spec);
  List.stable_sort
    (fun a b -> Float.compare (total_us a.pc_report) (total_us b.pc_report))
    (List.rev !results)

let best2 ?plan_budget spec ~backend structure =
  match tune2 ?plan_budget spec ~backend structure with
  | [] -> invalid_arg "Tuner.best2: no valid schedule"
  | c :: _ -> c

(* Re-check a (possibly plan-applied) artifact's feasibility from
   scratch — what `cortex tune` prints and CI asserts. *)
let plan_feasible ~backend (compiled : Lower.compiled) (report : Runtime.report) =
  feasible ~backend
    ~hidden:(hidden_of_ra compiled.Lower.ra)
    ~states:(List.length compiled.Lower.ra.Ra.states)
    compiled.Lower.options report
