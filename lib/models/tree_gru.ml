open Cortex_ra
open Ra

(* [open Ra] shadows arithmetic with rexpr builders; restore the integer
   operators for shape bookkeeping. *)
let ( +! ) = Stdlib.( + )
let ( *! ) = Stdlib.( * )
let _ = ( +! )
let _ = ( *! )
module C = Models_common
module Gen = Cortex_ds.Gen
module Nonlinear = Cortex_tensor.Nonlinear

let program ~hidden ~vocab ~kind ~max_children ~simple ~(variant : C.variant) =
  let gs = [ "z"; "r"; "h" ] in
  let x_ops =
    match variant with
    | C.Full ->
      List.map
        (fun g ->
          op ("x" ^ g) ~precompute:true
            ~axes:[ ("i", hidden) ]
            (C.matvec ~w:("Wx" ^ g) ~x:(C.emb_x ~emb:"Emb") ~hidden))
        gs
    | C.Recursive_only -> []
  in
  let xref g =
    match variant with
    | C.Full -> Some (Temp ("x" ^ g, [ IAxis "i" ]))
    | C.Recursive_only -> None
  in
  let x_params =
    match variant with
    | C.Full ->
      ("Emb", [ vocab +! 1; hidden ]) :: List.map (fun g -> ("Wx" ^ g, [ hidden; hidden ])) gs
    | C.Recursive_only -> []
  in
  let combine =
    if simple then
      (Const 1.0 - Temp ("z", [ IAxis "i" ])) * Temp ("hc", [ IAxis "i" ])
    else
      (Temp ("z", [ IAxis "i" ]) * Temp ("hsum", [ IAxis "i" ]))
      + ((Const 1.0 - Temp ("z", [ IAxis "i" ])) * Temp ("hc", [ IAxis "i" ]))
  in
  {
    name = (if simple then "simpletreegru" else "treegru");
    kind;
    max_children;
    params =
      x_params
      @ [
          ("Uz", [ hidden; hidden ]);
          ("bz", [ hidden ]);
          ("Ur", [ hidden; hidden ]);
          ("br", [ hidden ]);
          ("Uh", [ hidden; hidden ]);
          ("bh", [ hidden ]);
        ];
    rec_ops =
      x_ops
      @ [
          op "hsum"
            ~axes:[ ("i", hidden) ]
            (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
          op "z"
            ~axes:[ ("i", hidden) ]
            (C.gate ?x:(xref "z") ~u:"Uz"
               ~over:(fun idx -> Temp ("hsum", idx))
               ~bias:"bz" ~hidden Nonlinear.Sigmoid);
          op "rh"
            ~axes:[ ("i", hidden) ]
            (ChildSum
               (C.gate ?x:(xref "r") ~u:"Ur"
                  ~over:(fun idx -> ChildState ("h", Current, idx))
                  ~bias:"br" ~hidden Nonlinear.Sigmoid
               * ChildState ("h", Current, [ IAxis "i" ])));
          op "hc" ~phase:1
            ~axes:[ ("i", hidden) ]
            (C.gate ?x:(xref "h") ~u:"Uh"
               ~over:(fun idx -> Temp ("rh", idx))
               ~bias:"bh" ~hidden Nonlinear.Tanh);
          op "h" ~phase:1 ~axes:[ ("i", hidden) ] combine;
        ];
    leaf_ops = None;
    states = [ { st_name = "h"; st_op = "h"; st_init = Zero } ];
    outputs = [ "h" ];
    facts =
      {
        (* The deferred combine needs the child's z (and for the full
           cell also its child-sum) in addition to the candidate state
           hc, which replaces h as a published vector. *)
        refactor_publish = (if simple then [ "z" ] else [ "z"; "hsum" ]);
        (* §7.4: the full cell's deferred combine feeds the candidate
           state's synchronized matrix-vector stage, so the backedge
           change does not eliminate the barrier; the simplified cell's
           does. *)
        refactor_removes_barrier = simple;
        block_local_unroll = false;
      };
  }

let spec ?(vocab = Gen.vocab_size) ?(variant = C.Full) ?(simple = false) ?(sequence = false)
    ?(seq_len = 100) ~hidden () =
  let kind, max_children =
    if sequence then (Cortex_ds.Structure.Sequence, 1) else (Cortex_ds.Structure.Tree, 2)
  in
  let program = program ~hidden ~vocab ~kind ~max_children ~simple ~variant in
  let program =
    if sequence then { program with name = (if simple then "simplegru" else "gru") }
    else program
  in
  let name =
    match (sequence, simple) with
    | true, false -> "GRU"
    | true, true -> "SimpleGRU"
    | false, false -> "TreeGRU"
    | false, true -> "SimpleTreeGRU"
  in
  {
    C.name = name;
    program;
    init_params =
      (fun rng ->
        C.make_params ~specs:program.params
          ~zero_rows:(if variant = C.Full then [ ("Emb", vocab) ] else [])
          rng);
    dataset =
      (fun rng ~batch ->
        if sequence then
          Cortex_ds.Structure.merge
            (List.init batch (fun _ -> Gen.sequence rng ~vocab ~len:seq_len ()))
        else Gen.sst_batch rng ~vocab ~batch ());
  }
