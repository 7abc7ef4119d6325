(* The four benchmark workloads.  Each one is a fixed request stream made
   from the seed, served through the public [Engine] API on a fresh engine
   per round.  Every engine runs with a fault spec installed (an empty one
   where no fault is wanted): that puts [Engine.drain] in chaos mode, which
   charges no measured host time to the simulated clock, so every
   simulated-clock number is a pure function of (seed, code). *)

open Cortex
module M = Models.Common

type scale = Full | Tiny

let names = [ "sst-priced"; "dag-faults"; "chat-packed"; "chat-evict" ]

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let faults text =
  match Fault.parse text with Ok f -> f | Error e -> invalid_arg ("fault spec: " ^ e)

let with_obs config obs =
  { config with Engine.Config.observability = { Engine.Config.obs } }

(* Forces a lazily built parameter table, so set-up pays for it. *)
let materialize (spec : M.t) params =
  List.iter (fun (name, _) -> ignore (params name)) spec.M.program.Ra.params;
  params

type drain = {
  summary : Engine.summary;
  wall_s : float;  (** host seconds of this drain's submits and drain *)
  submitted : int;
  inputs : (int * Structure.t) list;  (** request id -> structure *)
  base : bool;
      (** p50, p99, goodput and device time are read over base drains *)
  rung_rps : float;  (** offered rate of a capacity-ladder rung, else 0 *)
  span_us : float;  (** last arrival - first arrival, of a Poisson trace *)
}

type round = {
  drains : drain list;
  engines : Engine.t list;
  handles : Obs.t list;
      (** traced rounds only; the first one also receives the benchmark's
          own replay spans *)
  spill_dir : string option;
}

type t = {
  spec : M.t;
  params : (string -> Tensor.t) option;
  reference : (Structure.t -> Tensor.t) option;
      (** the request's output from [Models.Reference], for numeric
          workloads *)
  setup_reps : int;
  setup : unit -> unit;  (** one cold set-up, timed by the caller *)
  serve : traced:bool -> round;
  bundle : string option;
  conversations : Structure.t array array;
      (** session workloads: each conversation's structure per token *)
}

let span_of arrivals =
  match arrivals with
  | [] -> 0.0
  | a :: rest ->
    let lo, hi = List.fold_left (fun (l, h) x -> (Float.min l x, Float.max h x)) (a, a) rest in
    hi -. lo

(* Submits timed arrivals and drains once; the host clock covers both. *)
let serve_trace eng (trace : Trace.t) ~base ~rung_rps =
  let (inputs, summary), wall_s =
    timed (fun () ->
        let inputs =
          List.filter_map
            (fun (e : Trace.event) ->
              match
                Engine.submit eng ~arrival_us:e.Trace.at_us ?deadline_us:e.Trace.deadline_us
                  e.Trace.structure
              with
              | Ok id -> Some (id, e.Trace.structure)
              | Error _ -> None)
            trace
        in
        (inputs, Engine.drain eng))
  in
  {
    summary;
    wall_s;
    submitted = List.length trace;
    inputs;
    base;
    rung_rps;
    span_us = span_of (List.map (fun (e : Trace.event) -> e.Trace.at_us) trace);
  }

(* ---------- sst-priced ---------- *)

(* TreeLSTM at the paper's hidden size, served priced-only from an AOT
   bundle (weights plus a tuned plan) on a ladder of Poisson rates. *)
let ladder_rps = [ 50_000.0; 60_000.0; 70_000.0; 80_000.0 ]
let sst_deadline_us = 1000.0

let sst ~scale ~seed ~tmp =
  let spec = Models.Catalog.get "TreeLSTM" Models.Catalog.Small in
  let options = Runtime.options_for spec in
  let backend = Backend.gpu in
  let config =
    Engine.Config.make
      ~policy:{ Engine.max_batch = 8; max_wait_us = 200.0; bucketing = Engine.Fifo }
      ~dispatch:Dispatch.Least_loaded ~devices:[ backend; backend ] ~faults:(faults "")
      ~seed ~autotune:true ()
  in
  let path = Filename.concat tmp "sst-priced.cbz" in
  (* What [cortex build --tune] writes: the compiled program, the plan
     tuned on a sample batch and the seeded weights.  Untimed, and built
     in a child process as [cortex build] would be, so the build's copies
     of the weights do not count toward this process's peak heap. *)
  let build () =
    let compiled = Runtime.compile ~options spec.M.program in
    let lin = Linearizer.run (spec.M.dataset (Rng.create seed) ~batch:8) in
    let plans =
      match Tuner.tune_loops ~budget:16 compiled ~backend lin with
      | [] -> []
      | (plan, best) :: _ as ranked ->
        let us (r : Runtime.report) = r.Runtime.latency.Backend.total_us in
        let default_us =
          match List.find_opt (fun (p, _) -> p = []) ranked with
          | Some (_, r) -> us r
          | None -> us best
        in
        [
          {
            Bundle.bp_backend = backend.Backend.short;
            bp_bucket = Dispatch.size_bucket lin.Linearizer.num_nodes;
            bp_plan = plan;
            bp_default_us = default_us;
            bp_tuned_us = us best;
          };
        ]
    in
    Bundle.save path
      (Bundle.create ~plans ~weights:(Checkpoint.of_spec spec ~seed) ~model:"TreeLSTM"
         ~size:"small" ~backend:backend.Backend.short compiled)
  in
  flush_all ();
  (match Unix.fork () with
   | 0 -> Unix._exit (match build () with () -> 0 | exception _ -> 1)
   | pid -> (
     match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _ -> failwith "building the sst-priced bundle failed"));
  let duration_ms = match scale with Full -> 50.0 | Tiny -> 2.0 in
  let rng = Rng.create seed in
  let traces =
    List.map
      (fun rate ->
        let r = Rng.split rng in
        ( rate,
          Trace.poisson ~deadline_us:sst_deadline_us r ~rate_rps:rate ~duration_ms
            ~gen:(fun g -> Gen.sst_tree g ()) ))
      ladder_rps
  in
  let loaded = ref None in
  let setup () =
    let b = Bundle.load path in
    ignore (Engine.of_bundle ~config b ~backend);
    loaded := Some b
  in
  let serve ~traced =
    let b = match !loaded with Some b -> b | None -> Bundle.load path in
    let runs =
      List.mapi
        (fun i (rate, trace) ->
          let obs = if traced then Some (Obs.create ()) else None in
          let eng = Engine.of_bundle ~config:(with_obs config obs) b ~backend in
          (serve_trace eng trace ~base:(i = 0) ~rung_rps:rate, eng, obs))
        traces
    in
    {
      drains = List.map (fun (d, _, _) -> d) runs;
      engines = List.map (fun (_, e, _) -> e) runs;
      handles = List.filter_map (fun (_, _, o) -> o) runs;
      spill_dir = None;
    }
  in
  {
    spec;
    params = None;
    reference = None;
    setup_reps = (match scale with Full -> 3 | Tiny -> 1);
    setup;
    serve;
    bundle = Some path;
    conversations = [||];
  }

(* ---------- dag-faults ---------- *)

(* A DAG-RNN grid whose cells carry seeded pixel indices, so every
   request has the same shape but its own inputs. *)
let grid rng ~rows ~cols =
  let b = Node.builder () in
  let g = Array.make_matrix rows cols None in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let dep r c = if r < 0 || c < 0 then None else g.(r).(c) in
      let children = List.filter_map Fun.id [ dep (i - 1) j; dep i (j - 1) ] in
      g.(i).(j) <- Some (Node.make b ~payload:(Rng.int rng (rows * cols)) children)
    done
  done;
  Structure.create ~kind:Structure.Dag ~max_children:2
    [ Option.get g.(rows - 1).(cols - 1) ]

let dag_faults = "straggler@0:4,0,1e9;transient@*:0.05,0,1e9"

let dag ~scale ~seed =
  let hidden = 2 and rows = 10 in
  let spec = Models.Dag_rnn.spec ~rows ~cols:rows ~hidden () in
  let backend = Backend.gpu in
  let params () = materialize spec (spec.M.init_params (Rng.create seed)) in
  let p = params () in
  let requests = match scale with Full -> 4000 | Tiny -> 60 in
  let rate = 20_000.0 in
  (* The first [requests] arrivals of an open-loop Poisson stream. *)
  let trace =
    List.filteri
      (fun i _ -> i < requests)
      (Trace.poisson ~deadline_us:600.0 (Rng.create seed) ~rate_rps:rate
         ~duration_ms:(2000.0 *. float_of_int requests /. rate)
         ~gen:(fun g -> grid g ~rows ~cols:rows))
  in
  let config ?params spec_text =
    Engine.Config.make ~dispatch:Dispatch.Least_loaded ~devices:[ backend; backend; backend ]
      ~faults:(faults spec_text) ~seed ?params ()
  in
  (* Device 2 fail-stops halfway through a window it runs near the middle
     of the trace.  A priced pass without the fail-stop finds the window:
     chaos-mode drains are deterministic and the fail-stop changes nothing
     before it fires, so the real run has the same window in flight then.
     The drain plays windows in ready order, and a retried window can
     reach past the fail-stop early; so every window played before the
     chosen one must have been dispatched before the fail-stop. *)
  let fail_at =
    let eng = Engine.of_spec ~config:(config dag_faults) spec ~backend in
    let d = serve_trace eng trace ~base:true ~rung_rps:0.0 in
    let half = 0.5 *. d.span_us in
    let windows =
      List.sort
        (fun (a : Engine.window_report) b -> compare a.Engine.wr_index b.Engine.wr_index)
        d.summary.Engine.windows
    in
    let best, _ =
      List.fold_left
        (fun (best, played) (w : Engine.window_report) ->
          let mid =
            w.Engine.wr_dispatch_us +. (0.5 *. w.Engine.wr_report.Runtime.latency.Backend.total_us)
          in
          let best =
            if
              w.Engine.wr_device = 2 && w.Engine.wr_attempts = 1 && played < mid
              && Float.abs (mid -. half) < Float.abs (best -. half)
            then mid
            else best
          in
          (best, Float.max played w.Engine.wr_dispatch_us))
        (infinity, neg_infinity) windows
    in
    if best = infinity then half else best
  in
  let spec_text = Printf.sprintf "%s;failstop@2:%.17g" dag_faults fail_at in
  let serve ~traced =
    let obs = if traced then Some (Obs.create ()) else None in
    let eng = Engine.of_spec ~config:(with_obs (config ~params:p spec_text) obs) spec ~backend in
    {
      drains = [ serve_trace eng trace ~base:true ~rung_rps:0.0 ];
      engines = [ eng ];
      handles = Option.to_list obs;
      spill_dir = None;
    }
  in
  {
    spec;
    params = Some p;
    reference =
      Some
        (fun s ->
          Models.Reference.dag_rnn ~params:p ~hidden ~with_x:true s
            (List.hd s.Structure.roots));
    setup_reps = (match scale with Full -> 200 | Tiny -> 5);
    setup =
      (fun () ->
        ignore (Engine.of_spec ~config:(config ~params:(params ()) spec_text) spec ~backend));
    serve;
    bundle = None;
    conversations = [||];
  }

(* ---------- chat-packed / chat-evict ---------- *)

(* One conversation turn: a one- or two-word phrase grafted under a new
   root over [old root; phrase], so the structure grows by appending and
   keeps its prefix nodes physically shared. *)
let grow rng ~vocab (s : Structure.t) =
  let b = Node.builder_from (Structure.num_nodes s) in
  let added = ref [] in
  let make ?payload children =
    let n = Node.make b ?payload children in
    added := n :: !added;
    n
  in
  let leaf () = make ~payload:(Rng.int rng vocab) [] in
  let phrase =
    if Rng.bool rng then leaf ()
    else
      let l = leaf () in
      let r = leaf () in
      make ~payload:vocab [ l; r ]
  in
  let top = make ~payload:vocab [ List.hd s.Structure.roots; phrase ] in
  Structure.append s ~roots:[ top ] ~added:(Array.of_list (List.rev !added))

(* A conversation: a short seeded opening sentence, then one turn per
   further token. *)
let conversation rng ~vocab ~tokens =
  let c = Array.make tokens (Gen.sst_tree rng ~vocab ~len:(1 + Rng.int rng 4) ()) in
  for j = 1 to tokens - 1 do
    c.(j) <- grow rng ~vocab c.(j - 1)
  done;
  c

(* Session budgets (accounted bytes), about a quarter of what the
   conversations pin when nothing is evicted. *)
let evict_budget = function Full -> 77_000 | Tiny -> 1_900

let chat ~packed ~scale ~seed ~tmp =
  let hidden = 4 and vocab = 50 in
  let spec = Models.Tree_lstm.spec ~vocab ~hidden () in
  let backend = Backend.gpu in
  let sessions, tokens =
    match (packed, scale) with
    | true, Full -> (96, 12)
    | false, Full -> (40, 25)
    | _, Tiny -> (4, 6)
  in
  let interval_us, stagger_us = if packed then (1000.0, 3.0) else (400.0, 7.0) in
  (* Conversations join over the first [joins] waves, so cold first
     tokens do not all queue behind each other in one wave. *)
  let joins = match scale with Full -> 8 | Tiny -> 2 in
  let joined i = i mod joins and all = List.init sessions Fun.id in
  let deadline_us = 500.0 in
  let params () = materialize spec (spec.M.init_params (Rng.create seed)) in
  let p = params () in
  let rng = Rng.create seed in
  let convs = Array.init sessions (fun _ -> conversation (Rng.split rng) ~vocab ~tokens) in
  let config ~params ?obs spill_dir =
    if packed then
      Engine.Config.make ~faults:(faults "") ~seed ~params ?obs ~session_pack_window:64
        ~session_pack_wait_us:500.0 ()
    else
      Engine.Config.make ~faults:(faults "") ~seed ~params ?obs
        ~session_budget_bytes:(evict_budget scale) ~session_spill_dir:spill_dir ()
  in
  let rounds = ref 0 in
  let serve ~traced =
    incr rounds;
    let spill_dir = Filename.concat tmp (Printf.sprintf "spill-%d" !rounds) in
    let obs = if traced then Some (Obs.create ()) else None in
    let eng = Engine.of_spec ~config:(config ~params:p ?obs spill_dir) spec ~backend in
    let release = ref 0.0 in
    let drains = ref [] in
    for wave_index = 0 to tokens + joins - 2 do
      let at i = !release +. (stagger_us *. float_of_int i) in
      let active =
        List.filter (fun i -> joined i <= wave_index && wave_index < joined i + tokens) all
      in
      let wave () =
        let inputs = ref [] in
        List.iter
          (fun i ->
            let s = convs.(i).(wave_index - joined i) in
            match
              Engine.submit eng ~arrival_us:(at i) ~deadline_us:(at i +. deadline_us)
                ~session:(Printf.sprintf "chat-%d" i) s
            with
            | Ok id -> inputs := (id, s) :: !inputs
            | Error _ -> ())
          active;
        (List.rev !inputs, Engine.drain eng)
      in
      let (inputs, summary), wall_s =
        timed (fun () -> Obs.wall_span obs ~track:"bench.sessions" "wave" wave)
      in
      (* Users wait for their replies: the next wave is released one
         interval later, or once this wave has completed if that is later.
         Device clocks restart at every drain, so an earlier release would
         let two drains book the same device at once. *)
      let last =
        List.fold_left
          (fun m (r : Engine.request_report) ->
            Float.max m (r.Engine.rr_arrival_us +. r.Engine.rr_total_us))
          !release summary.Engine.requests
      in
      drains :=
        {
          summary;
          wall_s;
          submitted = List.length active;
          inputs;
          base = true;
          rung_rps = 0.0;
          span_us = 0.0;
        }
        :: !drains;
      release := Float.max (!release +. interval_us) last
    done;
    {
      drains = List.rev !drains;
      engines = [ eng ];
      handles = Option.to_list obs;
      spill_dir = (if packed then None else Some spill_dir);
    }
  in
  {
    spec;
    params = Some p;
    reference =
      Some
        (fun s ->
          fst
            (Models.Reference.tree_lstm ~params:p ~hidden ~with_x:true s
               (List.hd s.Structure.roots)));
    setup_reps = (match scale with Full -> 200 | Tiny -> 5);
    setup =
      (fun () ->
        ignore (Engine.of_spec ~config:(config ~params:(params ()) tmp) spec ~backend));
    serve;
    bundle = None;
    conversations = convs;
  }

let make name ~scale ~seed ~tmp =
  match name with
  | "sst-priced" -> sst ~scale ~seed ~tmp
  | "dag-faults" -> dag ~scale ~seed
  | "chat-packed" -> chat ~packed:true ~scale ~seed ~tmp
  | "chat-evict" -> chat ~packed:false ~scale ~seed ~tmp
  | other -> invalid_arg ("unknown workload " ^ other)
