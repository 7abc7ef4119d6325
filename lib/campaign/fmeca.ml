module Rng = Cortex_util.Rng
module Table = Cortex_util.Table
module Json = Cortex_util.Json
module Gen = Cortex_ds.Gen
module Structure = Cortex_ds.Structure
module Backend = Cortex_backend.Backend
module Engine = Cortex_serve.Engine
module Fault = Cortex_serve.Fault
module Dispatch = Cortex_serve.Dispatch
module Trace = Cortex_serve.Trace
module Obs = Cortex_obs.Obs
module Scan = Cortex_obs.Scan
module CT = Cortex_obs.Chrome_trace

type mode = {
  fm_id : string;
  fm_family : string;
  fm_desc : string;
  fm_grammar : string;
  fm_rate : float;
}

type score = {
  sc_mode : mode;
  sc_severity : int;
  sc_occurrence : int;
  sc_detectability : int;
  sc_rpn : int;
  sc_completed : int;
  sc_lost : int;
  sc_shed : int;
  sc_miss_delta : float;
  sc_goodput_loss : float;
  sc_damage_us : float option;
  sc_detection : Scan.detection;
}

type result = { res_seed : int; res_rows : score list }

(* ---------- the mode grid ---------- *)

(* One grid entry: the mode's identity plus the engine knobs that
   realize it.  Every entry installs a fault spec ([] for pure
   configuration pressure) on a 2-device fleet over the same workload,
   so severity deltas are apples-to-apples. *)
type setup = {
  su_mode : mode;
  su_faults : Fault.spec;
  su_queue_cap : int option;
  su_watermark : int option;
  su_cache : int option;
  su_sessions : bool;
}

let spec_of_grammar id grammar =
  match Fault.parse grammar with
  | Ok s -> s
  | Error e -> invalid_arg (Printf.sprintf "Fmeca grid %s: %s" id e)

let entry ?queue_cap ?watermark ?cache ?(sessions = false) ~family ~rate ~desc id
    grammar =
  {
    su_mode =
      { fm_id = id; fm_family = family; fm_desc = desc; fm_grammar = grammar;
        fm_rate = rate };
    su_faults = spec_of_grammar id grammar;
    su_queue_cap = queue_cap;
    su_watermark = watermark;
    su_cache = cache;
    su_sessions = sessions;
  }

(* 7 families, 22 modes.  Occurrence rates are declared per mode: a
   transient's rate is its abort probability; rarer events (a whole
   fleet dying) get smaller declared rates; configuration-pressure
   modes declare how often that pressure plausibly arises. *)
let grid =
  [
    (* device: fail-stop coverage per device, at start, and fleet-wide *)
    entry ~family:"device" ~rate:0.02 ~desc:"device 0 fail-stops mid-run"
      "failstop-d0-mid" "failstop@0:2500";
    entry ~family:"device" ~rate:0.02 ~desc:"device 1 fail-stops mid-run"
      "failstop-d1-mid" "failstop@1:2500";
    entry ~family:"device" ~rate:0.01 ~desc:"device 0 dead from the start"
      "failstop-d0-start" "failstop@0:0";
    entry ~family:"device" ~rate:0.005 ~desc:"the whole fleet dies mid-run"
      "failstop-fleet" "failstop@*:2500";
    (* transient: kernel-abort probability sweep *)
    entry ~family:"transient" ~rate:0.02 ~desc:"2% kernel aborts, retried"
      "transient-0.02" "transient@*:0.02,0,1e9";
    entry ~family:"transient" ~rate:0.05 ~desc:"5% kernel aborts, retried"
      "transient-0.05" "transient@*:0.05,0,1e9";
    entry ~family:"transient" ~rate:0.1 ~desc:"10% kernel aborts, retried"
      "transient-0.1" "transient@*:0.1,0,1e9";
    entry ~family:"transient" ~rate:0.3 ~desc:"30% kernel aborts, retried"
      "transient-0.3" "transient@*:0.3,0,1e9";
    (* straggler: magnitude sweep plus a bounded burst *)
    entry ~family:"straggler" ~rate:0.1 ~desc:"device 0 runs 2x slow"
      "straggler-2x" "straggler@0:2,0,1e9";
    entry ~family:"straggler" ~rate:0.1 ~desc:"device 0 runs 4x slow"
      "straggler-4x" "straggler@0:4,0,1e9";
    entry ~family:"straggler" ~rate:0.1 ~desc:"device 0 runs 8x slow"
      "straggler-8x" "straggler@0:8,0,1e9";
    entry ~family:"straggler" ~rate:0.05 ~desc:"fleet-wide 4x burst [1ms,3ms)"
      "straggler-burst" "straggler@*:4,1000,3000";
    (* queue: load-shedding pressure at descending caps *)
    entry ~family:"queue" ~rate:0.3 ~queue_cap:4 ~desc:"queue capped at 4"
      "queue-cap-4" "";
    entry ~family:"queue" ~rate:0.2 ~queue_cap:16 ~desc:"queue capped at 16"
      "queue-cap-16" "";
    entry ~family:"queue" ~rate:0.1 ~queue_cap:64 ~desc:"queue capped at 64"
      "queue-cap-64" "";
    (* degrade: the watermark that halves batches under depth *)
    entry ~family:"degrade" ~rate:0.3 ~watermark:8
      ~desc:"degraded batching past depth 8" "degrade-wm-8" "";
    entry ~family:"degrade" ~rate:0.15 ~watermark:32
      ~desc:"degraded batching past depth 32" "degrade-wm-32" "";
    (* cache: shape-cache epoch thrash and a disabled cache *)
    entry ~family:"cache" ~rate:0.1 ~cache:1
      ~desc:"shape cache capacity 1 (epoch thrash)" "cache-thrash" "";
    entry ~family:"cache" ~rate:0.02 ~cache:0 ~desc:"shape cache disabled"
      "cache-off" "";
    (* session: pinned growing conversations under faults *)
    entry ~family:"session" ~rate:0.02 ~sessions:true
      ~desc:"pinned device dies; sessions re-pin" "session-repin"
      "failstop@0:2500";
    entry ~family:"session" ~rate:0.1 ~sessions:true
      ~desc:"10% aborts under session traffic" "session-transient"
      "transient@*:0.1,0,1e9";
    entry ~family:"session" ~rate:0.1 ~sessions:true
      ~desc:"fleet 3x slow under session traffic" "session-straggler"
      "straggler@*:3,0,1e9";
  ]

let families () =
  List.sort_uniq compare (List.map (fun su -> su.su_mode.fm_family) grid)

let grid_filter = function
  | None -> grid
  | Some fams -> List.filter (fun su -> List.mem su.su_mode.fm_family fams) grid

let modes ?families () = List.map (fun su -> su.su_mode) (grid_filter families)

(* ---------- the shared workload ---------- *)

let model = lazy (Cortex_models.Tree_lstm.spec ~vocab:50 ~hidden:8 ())

(* The shared workload runs the fleet near saturation with a deadline
   only a little above the fault-free tail: headroom small enough that
   losing a device, a retry storm or a straggler detour turns into
   deadline misses the severity score can see, instead of vanishing
   into slack. *)
let deadline_us = 450.0

let trace_of ~seed =
  Trace.poisson ~deadline_us (Rng.create (seed + 1)) ~rate_rps:35000.0
    ~duration_ms:5.0
    ~gen:(fun rng -> Gen.sst_tree rng ~vocab:50 ())

let engine_of ~seed ~obs su =
  let policy =
    { Engine.max_batch = 8; max_wait_us = 300.0; bucketing = Engine.Fifo }
  in
  Engine.of_spec
    ~config:
      (Engine.Config.make ~policy ~dispatch:Dispatch.Least_loaded
         ~devices:[ Backend.gpu; Backend.gpu ] ?queue_cap:su.su_queue_cap
         ?degrade_watermark:su.su_watermark ?cache_capacity:su.su_cache
         ~faults:su.su_faults ~seed ~obs ())
    (Lazy.force model) ~backend:Backend.gpu

let submit_workload engine ~seed ~sessions =
  let ok = function
    | Ok _ | Error (Engine.Shed _) -> ()
    | Error err ->
      invalid_arg ("Fmeca: workload rejected: " ^ Engine.error_to_string err)
  in
  List.iter
    (fun (e : Trace.event) ->
      ok
        (Engine.submit engine ~arrival_us:e.Trace.at_us
           ?deadline_us:e.Trace.deadline_us e.Trace.structure))
    (trace_of ~seed);
  if sessions then
    (* Three growing conversations ride along with the open-loop load:
       token j of conversation i arrives at 450j + 130i us, pinned to
       its session so the delta path and device re-pins are on the
       fault's critical path. *)
    List.iter
      (fun i ->
        let rng = Rng.create (seed + 100 + i) in
        let name = Printf.sprintf "conv%d" i in
        let tokens = Gen.conversation rng ~vocab:50 ~kind:Structure.Tree ~tokens:7 () in
        List.iteri
          (fun j s ->
            let at = (450.0 *. float_of_int j) +. (130.0 *. float_of_int i) in
            ok
              (Engine.submit engine ~arrival_us:at
                 ~deadline_us:(at +. deadline_us) ~session:name s))
          tokens)
      [ 0; 1; 2 ]

let run_setup ~seed su =
  let obs = Obs.create ~clock:Obs.Logical () in
  let engine = engine_of ~seed ~obs su in
  submit_workload engine ~seed ~sessions:su.su_sessions;
  let summary = Engine.drain engine in
  (summary, Obs.events obs)

let baseline_setup ~sessions =
  {
    su_mode =
      { fm_id = "baseline"; fm_family = "baseline"; fm_desc = "fault-free";
        fm_grammar = ""; fm_rate = 0.0 };
    su_faults = [];
    su_queue_cap = None;
    su_watermark = None;
    su_cache = None;
    su_sessions = sessions;
  }

(* ---------- scoring ---------- *)

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)
let scale10 x = 1 + int_of_float (Float.round (9.0 *. clamp01 x))

(* The trace signals that count as early warning: the fault spans the
   engine records when a device aborts in flight or a kernel draws a
   transient, plus the [queue_pressure] instant the engine stamps when
   the admission queue crosses 80% of its cap — the leading indicator
   for the configuration-pressure modes (shedding fires only after the
   queue is already full, so pressure leads damage).  Degraded-batching
   damage still has no signal — that mode scoring Undetected is the
   campaign's finding, not a scanner gap. *)
let warning_signals = [ "abort"; "transient"; "queue_pressure" ]

let severity ~(baseline : Engine.summary) (s : Engine.summary) =
  let subs (m : Engine.summary) =
    let slo = m.Engine.slo in
    max 1
      (slo.Engine.slo_completed + slo.Engine.slo_lost + slo.Engine.slo_shed
      + slo.Engine.slo_rejected)
  in
  let miss_frac (m : Engine.summary) =
    float_of_int m.Engine.slo.Engine.slo_deadline_misses
    /. float_of_int (max 1 m.Engine.slo.Engine.slo_completed)
  in
  let slo = s.Engine.slo in
  let n = float_of_int (subs s) in
  let lost_frac = float_of_int slo.Engine.slo_lost /. n in
  let shed_frac = float_of_int slo.Engine.slo_shed /. n in
  let miss_delta = Float.max 0.0 (miss_frac s -. miss_frac baseline) in
  let gb = baseline.Engine.slo.Engine.slo_goodput_rps in
  let goodput_loss =
    if gb > 0.0 then clamp01 (1.0 -. (slo.Engine.slo_goodput_rps /. gb))
    else 0.0
  in
  (* Weights chosen so each damage channel alone can reach mid-scale:
     total loss of half the submissions, an 0.55 miss-rate delta, or a
     total goodput collapse each score about 5; stacked channels
     saturate at 10 via the clamp.  Documented in DESIGN.md — change
     them there and here together. *)
  let sev =
    scale10
      ((0.50 *. (lost_frac +. shed_frac))
      +. (0.80 *. miss_delta)
      +. (0.30 *. goodput_loss))
  in
  (sev, miss_delta, goodput_loss)

let occurrence rate = scale10 (sqrt (clamp01 rate))

let detectability = function
  | Scan.No_damage -> 1
  | Scan.Lead us when us >= 1000.0 -> 2
  | Scan.Lead us when us >= 100.0 -> 3
  | Scan.Lead _ -> 4
  | Scan.Lagged _ -> 7
  | Scan.Undetected -> 10

let score_of ~baseline su (summary : Engine.summary) events =
  let slo = summary.Engine.slo in
  let sev, miss_delta, goodput_loss = severity ~baseline summary in
  let detection =
    Scan.detect ~signals:warning_signals
      ~damage:slo.Engine.slo_first_damage_us events
  in
  let det = detectability detection in
  let occ = occurrence su.su_mode.fm_rate in
  {
    sc_mode = su.su_mode;
    sc_severity = sev;
    sc_occurrence = occ;
    sc_detectability = det;
    sc_rpn = sev * occ * det;
    sc_completed = slo.Engine.slo_completed;
    sc_lost = slo.Engine.slo_lost;
    sc_shed = slo.Engine.slo_shed;
    sc_miss_delta = miss_delta;
    sc_goodput_loss = goodput_loss;
    sc_damage_us = slo.Engine.slo_first_damage_us;
    sc_detection = detection;
  }

let rank_order a b =
  (* Highest RPN first; ties broken by severity, then by the stable
     (family, id) key so the table is deterministic. *)
  match compare b.sc_rpn a.sc_rpn with
  | 0 -> (
    match compare b.sc_severity a.sc_severity with
    | 0 ->
      compare
        (a.sc_mode.fm_family, a.sc_mode.fm_id)
        (b.sc_mode.fm_family, b.sc_mode.fm_id)
    | c -> c)
  | c -> c

let run ?families ~seed () =
  let setups = grid_filter families in
  let base_plain = lazy (fst (run_setup ~seed (baseline_setup ~sessions:false))) in
  let base_sess = lazy (fst (run_setup ~seed (baseline_setup ~sessions:true))) in
  let rows =
    List.map
      (fun su ->
        let summary, events = run_setup ~seed su in
        let baseline =
          Lazy.force (if su.su_sessions then base_sess else base_plain)
        in
        score_of ~baseline su summary events)
      setups
  in
  { res_seed = seed; res_rows = List.sort rank_order rows }

let run_mode ~seed (m : mode) =
  match List.find_opt (fun su -> su.su_mode.fm_id = m.fm_id) grid with
  | Some su -> run_setup ~seed su
  | None -> invalid_arg ("Fmeca.run_mode: unknown mode " ^ m.fm_id)

(* ---------- rendering ---------- *)

let damage_cell = function
  | None -> "-"
  | Some us -> Printf.sprintf "%.1f" us

let table r =
  let rows =
    List.mapi
      (fun i sc ->
        [
          string_of_int (i + 1);
          sc.sc_mode.fm_id;
          sc.sc_mode.fm_family;
          string_of_int sc.sc_severity;
          string_of_int sc.sc_occurrence;
          string_of_int sc.sc_detectability;
          string_of_int sc.sc_rpn;
          string_of_int sc.sc_lost;
          string_of_int sc.sc_shed;
          Printf.sprintf "%.4f" sc.sc_miss_delta;
          Printf.sprintf "%.4f" sc.sc_goodput_loss;
          Scan.detection_to_string sc.sc_detection;
          damage_cell sc.sc_damage_us;
        ])
      r.res_rows
  in
  Table.render
    ~title:
      (Printf.sprintf "FMECA criticality ranking (seed %d, %d modes)" r.res_seed
         (List.length r.res_rows))
    ~align:[ Table.Right; Table.Left; Table.Left ]
    ~header:
      [ "rank"; "mode"; "family"; "S"; "O"; "D"; "RPN"; "lost"; "shed";
        "miss_delta"; "goodput_loss"; "detection"; "damage_us" ]
    rows

let json_lines r =
  Json.lines
    (List.mapi
       (fun i sc ->
         Printf.sprintf
           "{\"rank\": %d, \"mode\": \"%s\", \"family\": \"%s\", \"sev\": %d, \
            \"occ\": %d, \"det\": %d, \"rpn\": %d, \"completed\": %d, \
            \"lost\": %d, \"shed\": %d, \"miss_delta\": %.4f, \
            \"goodput_loss\": %.4f, \"damage_us\": %s, \"detect\": \"%s\", \
            \"rate\": %g, \"grammar\": \"%s\"}"
           (i + 1) (Json.escape sc.sc_mode.fm_id) (Json.escape sc.sc_mode.fm_family)
           sc.sc_severity sc.sc_occurrence sc.sc_detectability sc.sc_rpn sc.sc_completed
           sc.sc_lost sc.sc_shed sc.sc_miss_delta sc.sc_goodput_loss
           (damage_cell sc.sc_damage_us
           |> fun s -> if s = "-" then "null" else s)
           (Json.escape (Scan.detection_to_string sc.sc_detection))
           sc.sc_mode.fm_rate (Json.escape sc.sc_mode.fm_grammar))
       r.res_rows)

(* ---------- ranking persistence (the --baseline-diff side) ---------- *)

(* Each row must be an object with a string [mode] and a positive
   integer [rank]; every other member is ignored. *)
let ranking_row i = function
  | Json.Obj fields -> (
    match (List.assoc_opt "mode" fields, List.assoc_opt "rank" fields) with
    | Some (Json.Str id), Some (Json.Num r)
      when Float.is_integer r && r >= 1.0 && r <= 1e15 ->
      Ok (id, int_of_float r)
    | Some (Json.Str _), _ ->
      Error (Printf.sprintf "row %d: \"rank\" is not a positive integer" i)
    | _ -> Error (Printf.sprintf "row %d: no \"mode\" string" i))
  | _ -> Error (Printf.sprintf "row %d: not an object" i)

let load_ranking text =
  let rec rows acc i = function
    | [] -> Ok (List.rev acc)
    | row :: rest -> (
      match ranking_row i row with
      | Ok entry -> rows (entry :: acc) (i + 1) rest
      | Error e -> Error e)
  in
  match Json.of_string text with
  | exception Json.Parse_error reason -> Error reason
  | Json.Arr [] -> Error "no criticality rows found"
  | Json.Arr items -> rows [] 1 items
  | _ -> Error "not a JSON array of criticality rows"

let diff_ranking ~baseline r =
  let changes = ref [] in
  List.iteri
    (fun i sc ->
      let rank = i + 1 in
      let id = sc.sc_mode.fm_id in
      match List.assoc_opt id baseline with
      | None -> changes := Printf.sprintf "mode %s: new at rank %d" id rank :: !changes
      | Some old when old <> rank ->
        changes := Printf.sprintf "mode %s: rank %d -> %d" id old rank :: !changes
      | Some _ -> ())
    r.res_rows;
  List.iter
    (fun (id, old) ->
      if not (List.exists (fun sc -> sc.sc_mode.fm_id = id) r.res_rows) then
        changes := Printf.sprintf "mode %s: dropped (was rank %d)" id old :: !changes)
    baseline;
  List.rev !changes
