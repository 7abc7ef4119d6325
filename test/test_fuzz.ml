(* Pipeline fuzzing: generate random-but-valid RA programs (random
   operator DAGs with reductions, child-sums, fixed-child references,
   payload gathers and multiple states) over random structures, and
   check that the compiled loop-based execution matches direct recursive
   evaluation under several schedules.  This covers corners no
   hand-written model reaches. *)

module Rng = Cortex_util.Rng
module Tensor = Cortex_tensor.Tensor
module Gen = Cortex_ds.Gen
module Structure = Cortex_ds.Structure
module Linearizer = Cortex_linearizer.Linearizer
module Interp = Cortex_ilir.Interp
module Ra = Cortex_ra.Ra
module Ra_eval = Cortex_ra.Ra_eval
module Lower = Cortex_lower.Lower
module Nonlinear = Cortex_tensor.Nonlinear

let hidden = 4
let vocab = 12

(* ---------- random program generation ---------- *)

type gctx = {
  rng : Rng.t;
  states : string list;  (* state names, bound to the final ops *)
  mutable temps : string list;  (* ops defined so far *)
  max_children : int;
  allow_children : bool;
}

let pick ctx l = List.nth l (Rng.int ctx.rng (List.length l))

let idx_i = [ Ra.IAxis "i" ]

(* Atoms usable at the output axis [i]. *)
let atom ctx =
  let choices =
    [
      (fun () -> Ra.Const (Rng.float ctx.rng 2.0 -. 1.0));
      (fun () -> Ra.Param ("vec", idx_i));
      (fun () -> Ra.Param ("emb", [ Ra.IPayload; Ra.IAxis "i" ]));
    ]
    @ (if ctx.temps = [] then []
       else [ (fun () -> Ra.Temp (pick ctx ctx.temps, idx_i)) ])
    @
    if ctx.allow_children then
      [
        (fun () ->
          Ra.ChildState (pick ctx ctx.states, Ra.Child (Rng.int ctx.rng ctx.max_children), idx_i));
      ]
    else []
  in
  (pick ctx choices) ()

(* An expression in a reduction axis [j] (no nested reductions). *)
let atom_j ctx ~in_childsum =
  let choices =
    [
      (fun () -> Ra.Param ("vec", [ Ra.IAxis "j" ]));
      (fun () -> Ra.Param ("emb", [ Ra.IPayload; Ra.IAxis "j" ]));
    ]
    @ (if ctx.temps = [] then []
       else [ (fun () -> Ra.Temp (pick ctx ctx.temps, [ Ra.IAxis "j" ])) ])
    @
    if in_childsum then
      [ (fun () -> Ra.ChildState (pick ctx ctx.states, Ra.Current, [ Ra.IAxis "j" ])) ]
    else if ctx.allow_children then
      [
        (fun () ->
          Ra.ChildState
            (pick ctx ctx.states, Ra.Child (Rng.int ctx.rng ctx.max_children), [ Ra.IAxis "j" ]));
      ]
    else []
  in
  (pick ctx choices) ()

let matvec ctx ~in_childsum =
  Ra.Sum ("j", hidden, Ra.Binop (Ra.Mul, Ra.Param ("mat", [ Ra.IAxis "i"; Ra.IAxis "j" ]), atom_j ctx ~in_childsum))

let rec expr ctx ~depth ~in_childsum =
  if depth = 0 then atom ctx
  else
    match Rng.int ctx.rng 8 with
    | 0 | 1 ->
      Ra.Binop
        ( pick ctx [ Ra.Add; Ra.Sub; Ra.Mul ],
          expr ctx ~depth:(depth - 1) ~in_childsum,
          expr ctx ~depth:(depth - 1) ~in_childsum )
    | 2 ->
      Ra.Math
        (pick ctx [ Nonlinear.Tanh; Nonlinear.Sigmoid; Nonlinear.Relu ],
         expr ctx ~depth:(depth - 1) ~in_childsum)
    | 3 -> matvec ctx ~in_childsum
    | 4 when in_childsum -> Ra.ChildState (pick ctx ctx.states, Ra.Current, idx_i)
    | 4 | 5 when ctx.allow_children && not in_childsum ->
      (* ChildSum: body may reference the current child and contain one
         reduction level. *)
      Ra.ChildSum (expr ctx ~depth:(depth - 1) ~in_childsum:true)
    | _ -> atom ctx

let random_program seed =
  let rng = Rng.create seed in
  let kind, max_children =
    match Rng.int rng 3 with
    | 0 -> (Structure.Tree, 1 + Rng.int rng 3)
    | 1 -> (Structure.Dag, 1 + Rng.int rng 2)
    | _ -> (Structure.Sequence, 1)
  in
  let num_states = 1 + Rng.int rng 2 in
  let states = List.init num_states (fun i -> Printf.sprintf "s%d" i) in
  let num_aux = Rng.int rng 3 in
  let ctx = { rng; states; temps = []; max_children; allow_children = true } in
  let two_phase = Rng.bool rng in
  let ops = ref [] in
  for i = 0 to num_aux - 1 do
    let name = Printf.sprintf "aux%d" i in
    let body = expr ctx ~depth:2 ~in_childsum:false in
    ops := Ra.op name ~axes:[ ("i", hidden) ] body :: !ops;
    ctx.temps <- name :: ctx.temps
  done;
  List.iteri
    (fun i st ->
      let body =
        Ra.Math (Nonlinear.Tanh, expr ctx ~depth:2 ~in_childsum:false)
      in
      let phase =
        (* The last state op may sit in a second phase, but only when a
           phase-0 op exists (phases must be dense from 0). *)
        if two_phase && i = num_states - 1 && num_aux + num_states > 1 then 1 else 0
      in
      ops := Ra.op ~phase (st ^ "_op") ~axes:[ ("i", hidden) ] body :: !ops;
      ctx.temps <- (st ^ "_op") :: ctx.temps)
    states;
  let program =
    {
      Ra.name = Printf.sprintf "fuzz_%d" seed;
      kind;
      max_children;
      params =
        [
          ("vec", [ hidden ]);
          ("mat", [ hidden; hidden ]);
          ("emb", [ vocab + 1; hidden ]);
        ];
      rec_ops = List.rev !ops;
      leaf_ops = None;
      states =
        List.map
          (fun st -> { Ra.st_name = st; st_op = st ^ "_op"; st_init = Ra.Zero })
          states;
      outputs = states;
      facts = Ra.no_facts;
    }
  in
  Ra.validate program;
  program

let random_structure rng (program : Ra.t) =
  match program.Ra.kind with
  | Structure.Tree ->
    Structure.merge
      (List.init (1 + Rng.int rng 3) (fun _ ->
           Gen.random_tree rng ~max_nodes:12 ~max_children:program.Ra.max_children))
  | Structure.Dag -> Gen.random_dag rng ~max_nodes:15 ~max_children:program.Ra.max_children
  | Structure.Sequence -> Gen.sequence rng ~vocab ~len:(1 + Rng.int rng 12) ()

(* Structures carry payloads up to the generators' vocabulary; clamp to
   the program's embedding rows through the parameter table instead of
   regenerating: use a payload-safe embedding by taking ids modulo the
   table. We instead rebuild structures with payloads in range via the
   generators' ~vocab arguments where available; random_tree/dag payloads
   are full-range, so remap them here. *)
let clamp_payloads (s : Structure.t) =
  let b = Cortex_ds.Node.builder () in
  let memo = Hashtbl.create 32 in
  let rec copy (n : Cortex_ds.Node.t) =
    match Hashtbl.find_opt memo n.Cortex_ds.Node.id with
    | Some n' -> n'
    | None ->
      let children = Array.to_list (Array.map copy n.Cortex_ds.Node.children) in
      let payload = n.Cortex_ds.Node.payload mod (vocab + 1) in
      let n' = Cortex_ds.Node.make b ~payload children in
      Hashtbl.add memo n.Cortex_ds.Node.id n';
      n'
  in
  let roots = List.map copy s.Structure.roots in
  Structure.create ~kind:s.Structure.kind ~max_children:s.Structure.max_children roots

let schedules (program : Ra.t) =
  [
    Lower.default;
    Lower.baseline;
    { Lower.default with Lower.specialize = false };
    { Lower.default with Lower.dynamic_batch = false };
  ]
  @
  match program.Ra.kind with
  | Structure.Dag -> []
  | Structure.Tree | Structure.Sequence -> [ { Lower.default with Lower.unroll = true } ]

let check_seed seed =
  let program = random_program seed in
  let rng = Rng.create (seed + 7919) in
  let structure = clamp_payloads (random_structure rng program) in
  let params_table =
    List.map
      (fun (name, dims) ->
        (name, Tensor.rand_uniform rng (Array.of_list dims) ~lo:(-0.4) ~hi:0.4))
      program.Ra.params
  in
  let params name = List.assoc name params_table in
  let reference = Ra_eval.run program ~params structure in
  List.for_all
    (fun options ->
      let compiled = Lower.lower ~options program in
      let lin = Linearizer.run structure in
      let bound = Lower.bind ~count:true compiled lin in
      List.iter
        (fun (name, t) -> Interp.bind_tensor bound.Lower.ctx t (params name))
        compiled.Lower.param_tensors;
      Interp.run_program bound.Lower.ctx compiled.Lower.prog;
      let values_agree =
        Array.for_all
          (fun node ->
            List.for_all
              (fun st ->
                Tensor.approx_equal ~tol:1e-8
                  (Ra_eval.state reference st.Ra.st_name node)
                  (Lower.state_value bound compiled st.Ra.st_name node))
              program.Ra.states)
          structure.Structure.nodes
      in
      (* The static cost walker must reproduce the interpreter's exact
         dynamic FLOP / load / store counts. *)
      let dynamic = Interp.counters bound.Lower.ctx in
      let cost =
        Cortex_ilir.Cost.analyze ~uf:bound.Lower.uf_resolver
          ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog
      in
      let total field =
        List.fold_left
          (fun acc (k : Cortex_ilir.Cost.kernel_cost) ->
            List.fold_left (fun acc s -> acc +. field s) acc k.Cortex_ilir.Cost.segments)
          0.0 cost.Cortex_ilir.Cost.kernels
      in
      let sum_spaces a = Array.fold_left ( +. ) 0.0 a /. 4.0 in
      let counts_agree =
        int_of_float (total (fun s -> s.Cortex_ilir.Cost.flops)) = dynamic.Interp.flops
        && int_of_float (total (fun s -> sum_spaces s.Cortex_ilir.Cost.reads))
           = dynamic.Interp.loads
        && int_of_float (total (fun s -> sum_spaces s.Cortex_ilir.Cost.writes))
           = dynamic.Interp.stores
      in
      values_agree && counts_agree)
    (schedules program)

let fuzz_test =
  QCheck.Test.make ~name:"random programs: compiled == recursive" ~count:150
    QCheck.(int_range 0 1_000_000)
    check_seed

let () =
  Alcotest.run "fuzz" [ ("pipeline", [ QCheck_alcotest.to_alcotest fuzz_test ]) ]
