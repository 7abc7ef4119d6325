module Structure = Cortex_ds.Structure
module Linearizer = Cortex_linearizer.Linearizer
module Obs = Cortex_obs.Obs
module Chrome_trace = Cortex_obs.Chrome_trace

type stats = { hits : int; misses : int; entries : int }

type t = {
  capacity : int;
  table : (string, Linearizer.forest) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Shape_cache.create: capacity must be >= 0";
  { capacity; table = Hashtbl.create (min 64 (max 1 capacity)); hits = 0; misses = 0 }

let find_or_linearize ?obs t ~max_children structures =
  (* The inspector track: a hit's payload re-bind and a miss's full
     linearizer pass both appear as wall-clock spans, with the request
     count as an arg.  The spans are host time only: the engine charges
     the simulated clock nothing for them, so observed and unobserved
     drains price identically. *)
  let span name f =
    Obs.wall_span obs ~track:"inspector"
      ~args:[ ("requests", Chrome_trace.Int (List.length structures)) ]
      name f
  in
  let key = Linearizer.shape_key ~max_children structures in
  match Hashtbl.find_opt t.table key with
  | Some cached ->
    let f = span "rebind" (fun () -> Linearizer.rebind_forest cached structures) in
    t.hits <- t.hits + 1;
    Obs.incr obs "cache.hits";
    (f, true)
  | None ->
    let f = span "linearize" (fun () -> Linearizer.run_forest ~max_children structures) in
    (* Count the miss only after a successful linearization: a rejected
       request is not inspector work the cache could have saved. *)
    t.misses <- t.misses + 1;
    Obs.incr obs "cache.misses";
    if t.capacity > 0 then begin
      (* Epoch eviction: when the table fills, drop it wholesale.  The
         serving workloads this cache targets have a few hot shapes that
         are re-inserted within a window or two of the flush; tracking
         recency per entry costs more than re-running the inspector once
         per epoch per hot shape. *)
      if Hashtbl.length t.table >= t.capacity then Hashtbl.reset t.table;
      Hashtbl.add t.table key f
    end;
    (f, false)

let stats t = { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let clear t =
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0
