(* Quickstart: express a recursive model in the Recursive API, compile
   it, run it on a parse tree, and compare against direct recursive
   evaluation.

     dune exec examples/quickstart.exe

   The model is a tiny child-sum TreeRNN:
     h(n) = tanh(Emb[word(n)] + U . sum_k h(child_k) + b)           *)

open Cortex

let hidden = 16
let vocab = 100

(* 1. The model, written against the Recursive API (§3 of the paper):
   a DAG of per-node operators over feature axes. *)
let model =
  let open Ra in
  {
    name = "quickstart_treernn";
    kind = Structure.Tree;
    max_children = 2;
    params =
      [ ("Emb", [ Stdlib.( + ) vocab 1; hidden ]); ("U", [ hidden; hidden ]); ("b", [ hidden ]) ];
    rec_ops =
      [
        (* sum of the children's hidden states (zero at the leaves) *)
        op "cs" ~axes:[ ("i", hidden) ]
          (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
        (* the cell *)
        op "h" ~axes:[ ("i", hidden) ]
          (tanh_
             (Param ("Emb", [ IPayload; IAxis "i" ])
             + Sum ("j", hidden, Param ("U", [ IAxis "i"; IAxis "j" ]) * Temp ("cs", [ IAxis "j" ]))
             + Param ("b", [ IAxis "i" ])));
      ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts = no_facts;
  }

let () =
  (* 2. An engine owns the compiled model (recursion -> linearized
     loops, with dynamic batching, specialization, fusion and
     persistence all on) plus a target backend. *)
  let engine = Engine.create ~model ~backend:Backend.gpu () in
  let compiled = Engine.compiled engine in
  Printf.printf "Compiled %s: %d kernel(s), %d phase(s)\n" model.Ra.name
    (List.length compiled.Lower.prog.Ir.kernels)
    compiled.Lower.phases;

  (* 3. Build inputs: three random parse trees, served together.  The
     engine merges them into one linearized forest, so every level runs
     as a single batched kernel launch across all three requests. *)
  let rng = Rng.create 42 in
  let trees = List.init 3 (fun _ -> Gen.sst_tree rng ~vocab ~len:6 ()) in

  (* 4. Random parameters and execution. *)
  let prng = Rng.create 7 in
  let table = Hashtbl.create 4 in
  (* memoized so both consumers see the same values *)
  let params name =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None ->
      let dims = List.assoc name model.Ra.params in
      let t = Tensor.rand_uniform prng (Array.of_list dims) ~lo:(-0.3) ~hi:0.3 in
      Hashtbl.add table name t;
      t
  in
  let fx = Engine.execute engine ~params trees in

  (* 5. Read the root states out per request and check them against the
     direct recursive evaluation of the same program. *)
  List.iteri
    (fun request tree ->
      let reference = Ra_eval.run model ~params tree in
      List.iter
        (fun root ->
          let compiled_h = Engine.state fx ~request "h" root in
          let reference_h = Ra_eval.state reference "h" root in
          Printf.printf
            "request %d: compiled h[0..3] = %s  (max |diff| vs recursion: %g)\n"
            request
            (Tensor.to_string ~max_elems:4 compiled_h)
            (Tensor.max_abs_diff compiled_h reference_h))
        tree.Structure.roots)
    trees;

  (* 6. And estimate what one of these inferences costs on a V100. *)
  let report = Engine.run_one engine (List.hd trees) in
  Printf.printf
    "simulated V100 latency: %.1f us (%d kernel launch(es), %d barrier(s); linearization %.1f us)\n"
    report.Runtime.latency.Backend.total_us
    report.Runtime.latency.Backend.kernel_launches
    report.Runtime.latency.Backend.barriers report.Runtime.linearize_us
