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

let gates = [ "i"; "o"; "u"; "f" ]

let program ~hidden ~vocab ~kind ~max_children ~(variant : C.variant) =
  let x_ops =
    match variant with
    | C.Full ->
      List.map
        (fun g ->
          op ("x" ^ g) ~precompute:true
            ~axes:[ ("i", hidden) ]
            (C.matvec ~w:("Wx" ^ g) ~x:(C.emb_x ~emb:"Emb") ~hidden))
        gates
    | C.Recursive_only -> []
  in
  let xref g =
    match variant with
    | C.Full -> Some (Temp ("x" ^ g, [ IAxis "i" ]))
    | C.Recursive_only -> None
  in
  let hsum_over idx = Temp ("hsum", idx) in
  let gate_op name nl =
    op name
      ~axes:[ ("i", hidden) ]
      (C.gate ?x:(xref name) ~u:("U" ^ name) ~over:hsum_over ~bias:("b" ^ name) ~hidden nl)
  in
  let x_params =
    match variant with
    | C.Full ->
      ("Emb", [ vocab +! 1; hidden ])
      :: List.map (fun g -> ("Wx" ^ g, [ hidden; hidden ])) gates
    | C.Recursive_only -> []
  in
  {
    name = "treelstm";
    kind;
    max_children;
    params =
      x_params
      @ List.concat_map
          (fun g -> [ ("U" ^ g, [ hidden; hidden ]); ("b" ^ g, [ hidden ]) ])
          gates;
    rec_ops =
      x_ops
      @ [
          op "hsum"
            ~axes:[ ("i", hidden) ]
            (ChildSum (ChildState ("h", Current, [ IAxis "i" ])));
          gate_op "i" Nonlinear.Sigmoid;
          gate_op "o" Nonlinear.Sigmoid;
          gate_op "u" Nonlinear.Tanh;
          op "fc"
            ~axes:[ ("i", hidden) ]
            (ChildSum
               (C.gate ?x:(xref "f") ~u:"Uf"
                  ~over:(fun idx -> ChildState ("h", Current, idx))
                  ~bias:"bf" ~hidden Nonlinear.Sigmoid
               * ChildState ("c", Current, [ IAxis "i" ])));
          op "c" ~axes:[ ("i", hidden) ]
            ((Temp ("i", [ IAxis "i" ]) * Temp ("u", [ IAxis "i" ])) + Temp ("fc", [ IAxis "i" ]));
          op "h" ~axes:[ ("i", hidden) ]
            (Temp ("o", [ IAxis "i" ]) * tanh_ (Temp ("c", [ IAxis "i" ])));
        ];
    leaf_ops = None;
    states =
      [
        { st_name = "h"; st_op = "h"; st_init = Zero };
        { st_name = "c"; st_op = "c"; st_init = Zero };
      ];
    outputs = [ "h" ];
    facts = no_facts;
  }

(* The N-ary TreeLSTM of Tai et al. §3.2 (binary form): separate U
   matrices per child position for each gate, and a per-position forget
   gate f_k = sigmoid(x_f + U_f_k . h_k + b_f).  Exercises fixed-child
   references where the child-sum variant exercises ChildSum. *)
let nary_program ~hidden ~vocab ~(variant : C.variant) =
  let x_ops =
    match variant with
    | C.Full ->
      List.map
        (fun g ->
          op ("x" ^ g) ~precompute:true
            ~axes:[ ("i", hidden) ]
            (C.matvec ~w:("Wx" ^ g) ~x:(C.emb_x ~emb:"Emb") ~hidden))
        gates
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
      ("Emb", [ vocab +! 1; hidden ])
      :: List.map (fun g -> ("Wx" ^ g, [ hidden; hidden ])) gates
    | C.Recursive_only -> []
  in
  let child_mv g k st =
    Sum
      ( "j",
        hidden,
        Param (Printf.sprintf "U%s%d" g k, [ IAxis "i"; IAxis "j" ])
        * ChildState (st, Child k, [ IAxis "j" ]) )
  in
  let gate_op name nl =
    let linear =
      child_mv name 0 "h" + child_mv name 1 "h" + Param ("b" ^ name, [ IAxis "i" ])
    in
    let linear = match xref name with Some x -> x + linear | None -> linear in
    op name ~axes:[ ("i", hidden) ] (Math (nl, linear))
  in
  let forget k =
    let linear = child_mv "f" k "h" + Param ("bf", [ IAxis "i" ]) in
    let linear = match xref "f" with Some x -> x + linear | None -> linear in
    Math (Nonlinear.Sigmoid, linear) * ChildState ("c", Child k, [ IAxis "i" ])
  in
  {
    name = "narytreelstm";
    kind = Cortex_ds.Structure.Tree;
    max_children = 2;
    params =
      x_params
      @ List.concat_map
          (fun g ->
            [ ("U" ^ g ^ "0", [ hidden; hidden ]); ("U" ^ g ^ "1", [ hidden; hidden ]);
              ("b" ^ g, [ hidden ]) ])
          [ "i"; "o"; "u"; "f" ];
    rec_ops =
      x_ops
      @ [
          gate_op "i" Nonlinear.Sigmoid;
          gate_op "o" Nonlinear.Sigmoid;
          gate_op "u" Nonlinear.Tanh;
          op "fc" ~axes:[ ("i", hidden) ] (forget 0 + forget 1);
          op "c" ~axes:[ ("i", hidden) ]
            ((Temp ("i", [ IAxis "i" ]) * Temp ("u", [ IAxis "i" ])) + Temp ("fc", [ IAxis "i" ]));
          op "h" ~axes:[ ("i", hidden) ]
            (Temp ("o", [ IAxis "i" ]) * tanh_ (Temp ("c", [ IAxis "i" ])));
        ];
    leaf_ops = None;
    states =
      [
        { st_name = "h"; st_op = "h"; st_init = Zero };
        { st_name = "c"; st_op = "c"; st_init = Zero };
      ];
    outputs = [ "h" ];
    facts = no_facts;
  }

let nary_spec ?(vocab = Gen.vocab_size) ?(variant = C.Full) ~hidden () =
  let program = nary_program ~hidden ~vocab ~variant in
  {
    C.name = "NaryTreeLSTM";
    program;
    init_params =
      (fun rng ->
        C.make_params ~specs:program.params
          ~zero_rows:(if variant = C.Full then [ ("Emb", vocab) ] else [])
          rng);
    dataset = (fun rng ~batch -> Gen.sst_batch rng ~vocab ~batch ());
  }

let spec ?(vocab = Gen.vocab_size) ?(variant = C.Full) ?(sequence = false) ?(seq_len = 100)
    ~hidden () =
  let kind, max_children =
    if sequence then (Cortex_ds.Structure.Sequence, 1) else (Cortex_ds.Structure.Tree, 2)
  in
  let program = program ~hidden ~vocab ~kind ~max_children ~variant in
  let program = { program with name = (if sequence then "lstm" else "treelstm") } in
  {
    C.name = (if sequence then "LSTM" else "TreeLSTM");
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
