(* Writing your own recursive model and exploring its schedules.

     dune exec examples/custom_model.exe

   The model is an attention-flavoured tree cell not in the paper's
   zoo: every node gates each child's state by a learned scalar score
   before summing —

     g_k = sigmoid(sum_j v[j] * h_k[j])          (per-child gate)
     a   = sum_k g_k * h_k                       (gated child-sum)
     h   = tanh(Emb[word] + U.a + b)

   which exercises ChildSum with a nested reduction, exactly the shape
   TreeLSTM's forget gates have.  We then run the §6-style grid search
   over schedules and print what the compiler chose. *)

open Cortex

let hidden = 16
let vocab = 200

let model =
  let open Ra in
  {
    name = "gated_treesum";
    kind = Structure.Tree;
    max_children = 2;
    params =
      [
        ("Emb", [ Stdlib.( + ) vocab 1; hidden ]);
        ("v", [ hidden ]);
        ("U", [ hidden; hidden ]);
        ("b", [ hidden ]);
      ];
    rec_ops =
      [
        op "a" ~axes:[ ("i", hidden) ]
          (ChildSum
             (Math
                ( Nonlinear.Sigmoid,
                  Sum ("j", hidden, Param ("v", [ IAxis "j" ]) * ChildState ("h", Current, [ IAxis "j" ]))
                )
             * ChildState ("h", Current, [ IAxis "i" ])));
        op "h" ~axes:[ ("i", hidden) ]
          (tanh_
             (Param ("Emb", [ IPayload; IAxis "i" ])
             + Sum ("j", hidden, Param ("U", [ IAxis "i"; IAxis "j" ]) * Temp ("a", [ IAxis "j" ]))
             + Param ("b", [ IAxis "i" ])));
      ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts = no_facts;
  }

let () =
  Ra.validate model;
  print_string (Ra.to_string model);

  let rng = Rng.create 99 in
  let structure = Structure.merge (List.init 4 (fun _ -> Gen.sst_tree rng ~vocab ())) in
  let table = Hashtbl.create 4 in
  let params name =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None ->
      let dims = List.assoc name model.Ra.params in
      let t = Tensor.rand_uniform rng (Array.of_list dims) ~lo:(-0.3) ~hi:0.3 in
      Hashtbl.add table name t;
      t
  in

  (* Correctness first: compiled == recursive evaluation, under several
     schedules. *)
  let reference = Ra_eval.run model ~params structure in
  let check options label =
    let engine = Engine.create ~config:(Engine.Config.make ~options ()) ~model ~backend:Backend.gpu () in
    let fx = Engine.execute_one engine ~params structure in
    let worst =
      List.fold_left
        (fun acc root ->
          Float.max acc
            (Tensor.max_abs_diff
               (Engine.state fx "h" root)
               (Ra_eval.state reference "h" root)))
        0.0 structure.Structure.roots
    in
    Printf.printf "schedule %-12s max |diff| vs recursion = %g\n" label worst
  in
  check Lower.default "default";
  check Lower.baseline "baseline";
  check { Lower.default with Lower.unroll = true } "unrolled";

  (* §6-style schedule search: evaluate candidates on the simulated
     backend and keep the fastest. *)
  let candidates =
    [
      Lower.baseline;
      { Lower.default with Lower.persist = false };
      Lower.default;
      { Lower.default with Lower.unroll = true; persist = false };
      { Lower.default with Lower.dynamic_batch = false };
    ]
  in
  let eval options =
    let engine = Engine.create ~config:(Engine.Config.make ~options ()) ~model ~backend:Backend.gpu () in
    Runtime.total_ms (Engine.run_one engine structure)
  in
  let best, best_ms =
    List.fold_left
      (fun (best, best_ms) options ->
        let ms = eval options in
        if ms < best_ms then (options, ms) else (best, best_ms))
      (List.hd candidates, eval (List.hd candidates))
      (List.tl candidates)
  in
  Printf.printf
    "\ngrid search over %d schedules picked: fuse=%b specialize=%b persist=%b unroll=%b dynamic_batch=%b (%.3f ms simulated)\n"
    (List.length candidates) best.Lower.fuse best.Lower.specialize best.Lower.persist
    best.Lower.unroll best.Lower.dynamic_batch best_ms
