module Structure = Cortex_ds.Structure
module Node = Cortex_ds.Node
module Linearizer = Cortex_linearizer.Linearizer
module Ra = Cortex_ra.Ra
module Lower = Cortex_lower.Lower
module Backend = Cortex_backend.Backend
module Runtime = Cortex_runtime.Runtime
module Stats = Cortex_util.Stats
module Tensor = Cortex_tensor.Tensor
module M = Cortex_models.Models_common
module Obs = Cortex_obs.Obs
module Metrics = Cortex_obs.Metrics
module CT = Cortex_obs.Chrome_trace
module Bundle = Cortex_bundle.Bundle

(* ---------- policies ---------- *)

type bucketing = Fifo | By_size

type policy = { max_batch : int; max_wait_us : float; bucketing : bucketing }

let default_policy = { max_batch = 8; max_wait_us = 200.0; bucketing = Fifo }

(* ---------- errors ---------- *)

type error =
  | Kind_mismatch of { expected : Structure.kind; got : Structure.kind }
  | Rejected of Linearizer.rejection
  | Shed of { cap : int }
  | Unsorted_trace of { index : int; at_us : float; prev_us : float }
  | No_session_deltas

exception Error of error

let kind_name = function
  | Structure.Sequence -> "sequence"
  | Structure.Tree -> "tree"
  | Structure.Dag -> "dag"

let error_to_string = function
  | Kind_mismatch { expected; got } ->
    Printf.sprintf "structure kind mismatch: the model expects a %s, the request is a %s"
      (kind_name expected) (kind_name got)
  | Rejected r -> Linearizer.rejection_to_string r
  | Shed { cap } ->
    Printf.sprintf "request shed: the queue is at its cap of %d" cap
  | Unsorted_trace { index; at_us; prev_us } ->
    Printf.sprintf
      "unsorted trace: event %d arrives at %g us after an event at %g us" index
      at_us prev_us
  | No_session_deltas ->
    "sessions need a schedule that serves deltas: dynamic batching, specialization \
     and fusion on, unrolling and refactoring off"

(* ---------- configuration ---------- *)

module Config = struct
  (* Everything [create] is configured by, grouped by concern.
     [default] is the all-defaults engine; [make] overrides a base
     record field by field.  Runtime objects ([obs], [params]) live in
     the record but are not serialized. *)

  type compile = {
    options : Lower.options option;  (* None = Lower.default *)
    lock_free : bool;
    params : (string -> Tensor.t) option;  (* enables numeric serving *)
  }

  type dispatch = {
    batching : policy;
    selection : Dispatch.policy;  (* which device a window lands on *)
    devices : Backend.t list option;  (* None = [backend] at create *)
    cache_capacity : int option;  (* shape-cache entries; None = unbounded *)
  }

  type reliability = {
    queue_cap : int option;
    degrade_watermark : int option;
    faults : Fault.spec option;
    seed : int;
  }

  type observability = { obs : Obs.t option }
  type tuning = { autotune : bool; tune_budget : int option }

  type t = {
    compile : compile;
    dispatch : dispatch;
    reliability : reliability;
    observability : observability;
    tuning : tuning;
    sessions : Session_store.config;  (* bounded session table *)
  }

  let default =
    {
      compile = { options = None; lock_free = false; params = None };
      dispatch =
        {
          batching = default_policy;
          selection = Dispatch.Round_robin;
          devices = None;
          cache_capacity = None;
        };
      reliability = { queue_cap = None; degrade_watermark = None; faults = None; seed = 0 };
      observability = { obs = None };
      tuning = { autotune = false; tune_budget = None };
      sessions = Session_store.default_config;
    }

  let make ?(base = default) ?policy ?options ?lock_free ?dispatch ?devices
      ?cache_capacity ?queue_cap ?degrade_watermark ?faults ?seed ?params ?obs
      ?autotune ?tune_budget ?session_budget_bytes ?session_ttl_us
      ?session_spill_dir ?session_pack_window ?session_pack_wait_us () =
    let keep opt prev = match opt with Some _ -> opt | None -> prev in
    {
      compile =
        {
          options = keep options base.compile.options;
          lock_free = Option.value lock_free ~default:base.compile.lock_free;
          params = keep params base.compile.params;
        };
      dispatch =
        {
          batching = Option.value policy ~default:base.dispatch.batching;
          selection = Option.value dispatch ~default:base.dispatch.selection;
          devices = keep devices base.dispatch.devices;
          cache_capacity = keep cache_capacity base.dispatch.cache_capacity;
        };
      reliability =
        {
          queue_cap = keep queue_cap base.reliability.queue_cap;
          degrade_watermark = keep degrade_watermark base.reliability.degrade_watermark;
          faults = keep faults base.reliability.faults;
          seed = Option.value seed ~default:base.reliability.seed;
        };
      observability = { obs = keep obs base.observability.obs };
      tuning =
        {
          autotune = Option.value autotune ~default:base.tuning.autotune;
          tune_budget = keep tune_budget base.tuning.tune_budget;
        };
      sessions =
        {
          Session_store.budget_bytes =
            keep session_budget_bytes base.sessions.Session_store.budget_bytes;
          ttl_us = keep session_ttl_us base.sessions.Session_store.ttl_us;
          spill_dir = keep session_spill_dir base.sessions.Session_store.spill_dir;
          pack_window =
            Option.value session_pack_window
              ~default:base.sessions.Session_store.pack_window;
          pack_wait_us =
            Option.value session_pack_wait_us
              ~default:base.sessions.Session_store.pack_wait_us;
        };
    }

  (* Textual form: key=value lines in [keys] order, each key declared
     once below with its printer and its parser.  [obs] and [params]
     are runtime objects and are not serialized; parsing never sets
     them.  Bundles store this text on a single manifest line with tabs
     for newlines — [of_string] accepts both separators (no legitimate
     value contains a tab; fault specs contain ';' and publication
     lists '|', so neither of those can separate). *)

  let err fmt = Printf.ksprintf (fun s -> Stdlib.Error s) fmt

  (* How one type of value prints and parses; [read] names [key] in its
     error message. *)
  type 'a codec = { show : 'a -> string; read : key:string -> string -> ('a, string) result }

  let scalar wants of_string show =
    {
      show;
      read =
        (fun ~key v ->
          match of_string v with
          | Some x -> Ok x
          | None -> err "config: %s wants %s, got %S" key wants v);
    }

  let integer = scalar "an integer" int_of_string_opt string_of_int
  let number = scalar "a number" float_of_string_opt (Printf.sprintf "%g")
  let boolean = scalar "true/false" bool_of_string_opt string_of_bool

  (* A value whose error message names what was wrong, not the key. *)
  let named what of_string show =
    {
      show;
      read =
        (fun ~key:_ v ->
          match of_string v with Some x -> Ok x | None -> err "config: %s %S" what v);
    }

  let bucketing =
    named "unknown bucketing"
      (function "fifo" -> Some Fifo | "by_size" -> Some By_size | _ -> None)
      (function Fifo -> "fifo" | By_size -> "by_size")

  let devices =
    named "unknown backend in devices"
      (fun v ->
        let shorts =
          String.split_on_char ',' v |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        let resolved =
          List.filter_map
            (fun s ->
              List.find_opt
                (fun (b : Backend.t) ->
                  String.lowercase_ascii b.Backend.short = String.lowercase_ascii s)
                Backend.all)
            shorts
        in
        if List.length resolved = List.length shorts then Some resolved else None)
      (fun ds -> String.concat "," (List.map (fun (b : Backend.t) -> b.Backend.short) ds))

  let faults =
    {
      show = Fault.to_string;
      read = (fun ~key:_ v -> Result.map_error (fun e -> "config: " ^ e) (Fault.parse v));
    }

  type key = {
    name : string;
    print : t -> string option;  (* None = the line is omitted *)
    parse : t -> string -> (t, string) result;
  }

  (* [get] is [None] where the key's line is omitted. *)
  let key name codec get set =
    {
      name;
      print = (fun c -> Option.map codec.show (get c));
      parse = (fun c v -> Result.map (set c) (codec.read ~key:name v));
    }

  let keys =
    let batching c = c.dispatch.batching in
    let unless_at d x = if x = d then None else Some x in
    [
      key "max_batch" integer
        (fun c -> Some (batching c).max_batch)
        (fun c n -> make ~base:c ~policy:{ (batching c) with max_batch = n } ());
      key "max_wait_us" number
        (fun c -> Some (batching c).max_wait_us)
        (fun c x -> make ~base:c ~policy:{ (batching c) with max_wait_us = x } ());
      key "bucketing" bucketing
        (fun c -> Some (batching c).bucketing)
        (fun c b -> make ~base:c ~policy:{ (batching c) with bucketing = b } ());
      key "selection"
        (named "unknown selection policy" Dispatch.policy_of_string
           Dispatch.policy_to_string)
        (fun c -> Some c.dispatch.selection)
        (fun c p -> make ~base:c ~dispatch:p ());
      key "devices" devices
        (fun c -> c.dispatch.devices)
        (fun c ds -> make ~base:c ~devices:ds ());
      key "cache_capacity" integer
        (fun c -> c.dispatch.cache_capacity)
        (fun c n -> make ~base:c ~cache_capacity:n ());
      key "lock_free" boolean
        (fun c -> Some c.compile.lock_free)
        (fun c b -> make ~base:c ~lock_free:b ());
      key "options"
        (named "malformed options" Lower.options_of_string Lower.options_to_string)
        (fun c -> c.compile.options)
        (fun c o -> make ~base:c ~options:o ());
      key "queue_cap" integer
        (fun c -> c.reliability.queue_cap)
        (fun c n -> make ~base:c ~queue_cap:n ());
      key "degrade_watermark" integer
        (fun c -> c.reliability.degrade_watermark)
        (fun c n -> make ~base:c ~degrade_watermark:n ());
      key "faults" faults
        (fun c -> c.reliability.faults)
        (fun c f -> make ~base:c ~faults:f ());
      key "seed" integer
        (fun c -> Some c.reliability.seed)
        (fun c n -> make ~base:c ~seed:n ());
      key "autotune" boolean
        (fun c -> Some c.tuning.autotune)
        (fun c b -> make ~base:c ~autotune:b ());
      key "tune_budget" integer
        (fun c -> c.tuning.tune_budget)
        (fun c n -> make ~base:c ~tune_budget:n ());
      key "sessions.budget_bytes" integer
        (fun c -> c.sessions.Session_store.budget_bytes)
        (fun c n -> make ~base:c ~session_budget_bytes:n ());
      key "sessions.ttl_us" number
        (fun c -> c.sessions.Session_store.ttl_us)
        (fun c x -> make ~base:c ~session_ttl_us:x ());
      key "sessions.spill_dir"
        { show = Fun.id; read = (fun ~key:_ v -> Ok v) }
        (fun c -> c.sessions.Session_store.spill_dir)
        (fun c d -> make ~base:c ~session_spill_dir:d ());
      (* Printed only when set, so pre-packing bundles stay byte-identical. *)
      key "sessions.pack_window" integer
        (fun c -> unless_at 1 c.sessions.Session_store.pack_window)
        (fun c n -> make ~base:c ~session_pack_window:n ());
      key "sessions.pack_wait_us" number
        (fun c -> unless_at 0.0 c.sessions.Session_store.pack_wait_us)
        (fun c x -> make ~base:c ~session_pack_wait_us:x ());
    ]

  let to_string c =
    List.filter_map
      (fun k -> Option.map (fun v -> k.name ^ "=" ^ v ^ "\n") (k.print c))
      keys
    |> String.concat ""

  (* The lines of [text] that bind a key: newline- or tab-separated,
     trimmed, [#] comments and blank lines dropped. *)
  let lines text =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char '\t')
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')

  (* One line's key, looked up in [keys], and its unparsed value. *)
  let binding line =
    match String.index_opt line '=' with
    | None -> err "config: missing '=' in %S" line
    | Some i -> (
      let name = String.trim (String.sub line 0 i) in
      let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      match List.find_opt (fun k -> k.name = name) keys with
      | Some k -> Ok (k, v)
      | None -> err "config: unknown key %S" name)

  let of_string text =
    List.fold_left
      (fun acc line ->
        Result.bind acc (fun c -> Result.bind (binding line) (fun (k, v) -> k.parse c v)))
      (Ok default) (lines text)
end

(* ---------- engine state ---------- *)

type pending = {
  p_id : int;
  p_arrival : float;
  p_deadline : float;  (* absolute; [infinity] when none *)
  p_structure : Structure.t;
  p_nodes : int;
  p_session : string option;  (* pinned-conversation serving *)
}

type t = {
  model : Ra.t;
  eng_backend : Backend.t;
  eng_policy : policy;
  lock_free : bool;
  eng_compiled : Lower.compiled;
  eng_dispatch : Dispatch.policy;
  eng_devices : Backend.t list;
  eng_cache : Shape_cache.t;
  eng_queue_cap : int option;
  eng_watermark : int option;
  eng_faults : Fault.spec;  (* no spec plays the empty one *)
  eng_seed : int;
  eng_params : (string -> Tensor.t) option;
  eng_obs : Obs.t option;
  eng_plans : Plan_cache.t option;  (* Some = plan cache active *)
  eng_store : Session_store.t;  (* the session table: sessions, rows, spills *)
  eng_config : Config.t;
  mutable eng_clock_us : float;
      (* monotone simulated clock across drains: the LRU/TTL "now",
         and the timestamp eviction/restore trace instants stamp so
         the "sessions" track stays monotone *)
  mutable next_id : int;
  mutable queue : pending list;  (* newest first *)
  mutable queued : int;
  mutable n_shed : int;
  mutable n_rejected : int;
  mutable first_shed_us : float;
      (* earliest shed arrival since the last drain: sheds happen at
         submit time, before the drain can see them, so the drain's
         first-damage clock needs the time carried over *)
}

(* Shared construction: validate the config, then obtain the compiled
   artifact — a thunk, so [of_bundle] installs a deserialized artifact
   without ever invoking the compiler, and [create] does not pay for
   lowering when validation is going to reject the config anyway. *)
let build ~(config : Config.t) ~model ~backend ~compiled =
  let policy = config.Config.dispatch.Config.batching in
  if policy.max_batch < 1 then invalid_arg "Engine.create: max_batch must be >= 1";
  if not (policy.max_wait_us >= 0.0) then invalid_arg "Engine.create: max_wait_us must be >= 0";
  (match config.Config.reliability.Config.queue_cap with
   | Some c when c < 0 -> invalid_arg "Engine.create: queue_cap must be >= 0"
   | _ -> ());
  (match config.Config.reliability.Config.degrade_watermark with
   | Some w when w < 0 -> invalid_arg "Engine.create: degrade_watermark must be >= 0"
   | _ -> ());
  if config.Config.sessions.Session_store.pack_window < 1 then
    invalid_arg "Engine.create: sessions.pack_window must be >= 1";
  if not (config.Config.sessions.Session_store.pack_wait_us >= 0.0) then
    invalid_arg "Engine.create: sessions.pack_wait_us must be >= 0";
  let devices =
    Option.value config.Config.dispatch.Config.devices ~default:[ backend ]
  in
  if devices = [] then invalid_arg "Engine.create: empty device list";
  let seed = config.Config.reliability.Config.seed in
  (* Validate the fault spec against the device count up front, not at
     the first drain. *)
  let faults = Option.value config.Config.reliability.Config.faults ~default:[] in
  ignore (Fault.create ~seed ~devices:(List.length devices) faults);
  let compiled = compiled () in
  let params = config.Config.compile.Config.params in
  {
    model;
    eng_backend = backend;
    eng_policy = policy;
    lock_free = config.Config.compile.Config.lock_free;
    eng_compiled = compiled;
    eng_dispatch = config.Config.dispatch.Config.selection;
    eng_devices = devices;
    eng_cache =
      Shape_cache.create ?capacity:config.Config.dispatch.Config.cache_capacity ();
    eng_queue_cap = config.Config.reliability.Config.queue_cap;
    eng_watermark = config.Config.reliability.Config.degrade_watermark;
    eng_faults = faults;
    eng_seed = seed;
    eng_params = params;
    eng_obs = config.Config.observability.Config.obs;
    eng_plans =
      (if config.Config.tuning.Config.autotune then
         Some (Plan_cache.create ?budget:config.Config.tuning.Config.tune_budget ())
       else None);
    (* The session table is part of [build], so engines stood up from a
       bundle ([of_bundle]) serve sessions exactly like compiled ones —
       and a file-backed store finds the spill files its predecessor
       wrote, which is how a conversation survives a full restart. *)
    eng_store =
      Session_store.create ~config:config.Config.sessions ~model:model.Ra.name
        ~max_children:model.Ra.max_children
        ~states:(if params = None then [] else Lower.state_dims compiled)
        ();
    eng_config = config;
    eng_clock_us = 0.0;
    next_id = 0;
    queue = [];
    queued = 0;
    n_shed = 0;
    n_rejected = 0;
    first_shed_us = infinity;
  }

let create ?(config = Config.default) ~model ~backend () =
  build ~config ~model ~backend ~compiled:(fun () ->
      Runtime.compile
        ?obs:config.Config.observability.Config.obs
        ?options:config.Config.compile.Config.options model)

let of_spec ?config (spec : M.t) ~backend = create ?config ~model:spec.M.program ~backend ()

let of_bundle ?config ?expect_model (b : Bundle.t) ~backend =
  if b.Bundle.b_backend <> backend.Backend.short then
    raise
      (Bundle.Error
         (Bundle.Backend_mismatch
            { bundle = b.Bundle.b_backend; requested = backend.Backend.short }));
  (match expect_model with
   | Some m when m <> b.Bundle.b_model ->
     raise
       (Bundle.Error (Bundle.Model_mismatch { bundle = b.Bundle.b_model; requested = m }))
   | _ -> ());
  let config =
    match config with
    | Some c -> c
    | None -> (
      match Config.of_string b.Bundle.b_config with
      | Ok c -> c
      | Stdlib.Error reason ->
        (* The section passed the digest check, so the writer produced
           garbage — surface it rather than silently serving defaults. *)
        raise (Bundle.Error (Bundle.Corrupt_section { section = "config"; reason })))
  in
  (* The bundle IS the compiled artifact: the thunk returns it as-is,
     so serving from a bundle runs zero lowering passes (the Obs test
     pins this by counting "lower" wall spans). *)
  let t =
    build ~config ~model:b.Bundle.b_compiled.Lower.ra ~backend ~compiled:(fun () ->
        b.Bundle.b_compiled)
  in
  if b.Bundle.b_plans = [] then t
  else begin
    (* Tuned plans ride along: seed the plan cache so first contact
       with each (backend, size-class) is a hit.  Plans tuned for
       backends not in this engine's device list are skipped. *)
    let pc =
      match t.eng_plans with
      | Some pc -> pc
      | None -> Plan_cache.create ?budget:config.Config.tuning.Config.tune_budget ()
    in
    List.iter
      (fun (e : Bundle.plan_entry) ->
        if
          List.exists
            (fun (d : Backend.t) -> d.Backend.short = e.Bundle.bp_backend)
            t.eng_devices
        then
          Plan_cache.preload pc ~backend_short:e.Bundle.bp_backend
            ~bucket:e.Bundle.bp_bucket ~plan:e.Bundle.bp_plan
            ~compiled:b.Bundle.b_compiled ~default_us:e.Bundle.bp_default_us
            ~tuned_us:e.Bundle.bp_tuned_us)
      b.Bundle.b_plans;
    { t with eng_plans = Some pc }
  end

let compiled t = t.eng_compiled
let backend t = t.eng_backend
let cache_stats t = Shape_cache.stats t.eng_cache
let pending t = t.queued
let plan_cache_stats t = Option.map Plan_cache.stats t.eng_plans
let config t = t.eng_config

(* ---------- validation ---------- *)

(* Reject what would crash — or worse, silently mis-number — the
   compiled kernels: a structure of the wrong kind (a DAG's shared
   subtrees re-enter a tree model's traversal, the moral equivalent of a
   cycle) or a node whose arity exceeds the child-table width the model
   was compiled for.  A session token also needs a schedule that serves
   deltas: every token is a step of its session's layout, and only those
   kernels run a step over a pre-seeded prefix. *)
let validate t ?session (s : Structure.t) =
  if session <> None && not (Lower.delta_compatible t.eng_compiled.Lower.options) then
    Some No_session_deltas
  else if Structure.num_nodes s = 0 then Some (Rejected Linearizer.Empty_structure)
  else if s.Structure.kind <> t.model.Ra.kind then
    Some (Kind_mismatch { expected = t.model.Ra.kind; got = s.Structure.kind })
  else begin
    let mc = t.model.Ra.max_children in
    let bad = ref None in
    Array.iter
      (fun (node : Node.t) ->
        let arity = Array.length node.Node.children in
        if arity > mc && !bad = None then
          bad :=
            Some
              (Rejected
                 (Linearizer.Fanout_exceeded
                    { node = node.Node.id; arity; max_children = mc })))
      s.Structure.nodes;
    !bad
  end

let validate_exn t s =
  match validate t s with Some e -> raise (Error e) | None -> ()

(* ---------- serving simulation ---------- *)

let submit t ?(arrival_us = 0.0) ?deadline_us ?session structure =
  (* The queue cap is the front door: load shedding happens before
     validation, the way a real server drops on the floor before it
     parses.  A shed is typed [Shed] and counted separately from
     validation rejections. *)
  match t.eng_queue_cap with
  | Some cap when t.queued >= cap ->
    t.n_shed <- t.n_shed + 1;
    t.first_shed_us <- Float.min t.first_shed_us arrival_us;
    Stdlib.Error (Shed { cap })
  | _ -> (
    match validate t ?session structure with
    | Some e ->
      t.n_rejected <- t.n_rejected + 1;
      Stdlib.Error e
    | None ->
      (* Early warning ahead of the cap: the instant the queue crosses
         80% of [queue_cap], stamp a [queue_pressure] instant on the slo
         track.  Sheds damage the SLO at submit time, before the drain
         can see anything, so this is the only signal that can lead them
         — the FMECA campaign counts it as a warning signal.  Fires once
         per fill (depth resets at drain). *)
      (match t.eng_queue_cap with
       | Some cap when t.queued + 1 = max 1 (((4 * cap) + 4) / 5) ->
         (match t.eng_obs with
          | None -> ()
          | Some _ ->
            Obs.sim_instant t.eng_obs ~track:"slo" ~name:"queue_pressure"
              ~args:[ ("depth", CT.Int (t.queued + 1)); ("cap", CT.Int cap) ]
              ~ts_us:arrival_us ())
       | _ -> ());
      let id = t.next_id in
      t.next_id <- id + 1;
      t.queue <-
        {
          p_id = id;
          p_arrival = arrival_us;
          p_deadline = Option.value deadline_us ~default:infinity;
          p_structure = structure;
          p_nodes = Structure.num_nodes structure;
          p_session = session;
        }
        :: t.queue;
      t.queued <- t.queued + 1;
      Ok id)

let submit_exn t ?arrival_us ?deadline_us ?session structure =
  match submit t ?arrival_us ?deadline_us ?session structure with
  | Ok id -> id
  | Stdlib.Error e -> raise (Error e)

(* ---------- sessions ---------- *)

(* The prefix size [s] grows from, when it is a pure-growth candidate
   over the session's last structure [prev]: longer, same kind, and
   physically sharing the prefix at both endpoints.  A restored session
   has no [prev]; its spilled prefix was validated against [s] by
   content digest (physical identity cannot survive an eviction, let
   alone an engine restart) and the layout was reseeded over nodes
   [0, restored).  Both the drain's grouping-time prediction and the
   play-time delta check ask this one question, so they cannot drift
   apart. *)
let growth_base ~prev ~restored (s : Structure.t) =
  let n = Structure.num_nodes s in
  match prev with
  | Some (p : Structure.t) ->
    let b = Structure.num_nodes p in
    if
      n > b && b > 0
      && s.Structure.kind = p.Structure.kind
      && s.Structure.nodes.(0) == p.Structure.nodes.(0)
      && s.Structure.nodes.(b - 1) == p.Structure.nodes.(b - 1)
    then Some b
    else None
  | None -> (
    match restored with Some b when n > b && b > 0 -> Some b | _ -> None)

(* ---------- bounded session table ---------- *)

let bump_clock t at = if at > t.eng_clock_us then t.eng_clock_us <- at

(* Evict one session now: the store spills its rows and takes it out of
   the table.  The trace instant stamps the monotone engine clock so the
   "sessions" track validates. *)
let evict_session_now t (sx : Session_store.session) ~reason =
  let spill_us = Session_store.evict t.eng_store sx ~expired:(reason = `Ttl) in
  Obs.incr t.eng_obs "sessions.evictions";
  match t.eng_obs with
  | None -> ()
  | Some _ ->
    Obs.sim_instant t.eng_obs ~track:"sessions" ~name:"evict"
      ~args:
        [ ("session", CT.Str sx.sx_name);
          ("reason",
           CT.Str
             (match reason with
              | `Ttl -> "ttl"
              | `Budget -> "budget"
              | `Explicit -> "explicit"));
          ("spill_us", CT.Float spill_us) ]
      ~ts_us:t.eng_clock_us ()

(* The eviction pass: every session idle past its TTL, then — if the
   survivors still bust the budget — sessions in policy order until
   the table fits.  Runs after every session item and at the end of
   each drain, so the accounted-bytes invariant holds at both points. *)
let enforce_sessions t =
  List.iter
    (fun (sx, reason) -> evict_session_now t sx ~reason)
    (Session_store.victims t.eng_store ~now_us:t.eng_clock_us)

type request_report = {
  rr_id : int;
  rr_nodes : int;
  rr_window : int;
  rr_window_size : int;
  rr_device : int;
  rr_arrival_us : float;
  rr_deadline_us : float;
  rr_queue_us : float;
  rr_linearize_us : float;
  rr_device_us : float;
  rr_total_us : float;
  rr_on_time : bool;
}

type window_report = {
  wr_index : int;
  wr_size : int;
  wr_nodes : int;
  wr_device : int;
  wr_cache_hit : bool;
  wr_attempts : int;
  wr_dispatch_us : float;
  wr_report : Runtime.report;
  wr_session : string option;  (* Some = a session's per-token window *)
  wr_packed : string list;
      (* member session names of a packed multi-session window, in pack
         order; [] for regular and size-1 session windows *)
}

type device_report = {
  dr_index : int;
  dr_backend : Backend.t;
  dr_failed : bool;
  dr_windows : int;
  dr_requests : int;
  dr_nodes : int;
  dr_busy_us : float;
  dr_utilization : float;
  dr_occupancy : float;
}

type aggregate = {
  num_requests : int;
  num_windows : int;
  mean_window : float;
  throughput_rps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  makespan_us : float;
}

type slo = {
  slo_seed : int;
  slo_degraded : bool;
  slo_completed : int;
  slo_lost : int;
  slo_shed : int;
  slo_rejected : int;
  slo_transients : int;
  slo_retries : int;
  slo_failovers : int;
  slo_deadline_misses : int;
  slo_on_time : int;
  slo_goodput_rps : float;
  slo_first_damage_us : float option;
      (* earliest SLO-visible damage on the simulated clock: the first
         shed arrival, lost window, or completion past its deadline —
         what the FMECA campaign measures detectability lead against *)
}

type plan_report = {
  pr_backend : string;
  pr_bucket : int;
  pr_plan : string;  (* serialized; "default" when the empty plan won *)
  pr_default_us : float;
  pr_tuned_us : float;
}

type session_report = {
  sn_name : string;
  sn_nodes : int;  (* current conversation size *)
  sn_windows : int;
  sn_delta_nodes : int;  (* nodes served via layout steps *)
  sn_extends : int;  (* windows served from a layout step *)
  sn_cold : int;  (* tokens served cold, as one base-0 step *)
  sn_materializations : int;  (* doubling regrowths of the session's layout *)
  sn_rebinds : int;  (* re-pins of a previously pinned session *)
  sn_packed : int;  (* tokens served inside packed multi-session windows *)
  sn_deadline_misses : int;  (* tokens completed past their deadline *)
  sn_device : int;  (* pinned device; -1 before the first window *)
  sn_bytes : int;  (* accounted bytes (layout + pinned state rows) *)
  sn_evictions : int;  (* times evicted, surviving restore cycles *)
  sn_restores : int;  (* times restored from a spill *)
  sn_spilled : bool;  (* evicted, its spill held: no layout, no device *)
}

type summary = {
  aggregate : aggregate;
  requests : request_report list;
  windows : window_report list;
  device_reports : device_report list;
  cache : Shape_cache.stats;
  slo : slo;
  results : (int * Tensor.t) list;
  sessions : session_report list;  (* by name; empty without sessions *)
  session_table : Session_store.stats;  (* bounded-table accounting *)
  packed_windows : int;  (* multi-session packed windows this drain *)
  packed_tokens : int;  (* session tokens those windows carried *)
  metrics : Metrics.snapshot option;
  plans : plan_report list;  (* per (backend, size-class), autotune only *)
  plan_cache : Plan_cache.stats option;
}

(* A spilled name's report: its counters and its spill's node count. *)
let spilled_report (name, nodes, (c : Session_store.counters)) =
  {
    sn_name = name;
    sn_nodes = nodes;
    sn_windows = c.c_extends + c.c_cold;
    sn_delta_nodes = c.c_delta_nodes;
    sn_extends = c.c_extends;
    sn_cold = c.c_cold;
    sn_materializations = 0;
    sn_rebinds = c.c_rebinds;
    sn_packed = c.c_packed;
    sn_deadline_misses = c.c_deadline_misses;
    sn_device = -1;
    sn_bytes = 0;
    sn_evictions = c.c_evictions;
    sn_restores = c.c_restores;
    sn_spilled = true;
  }

let live_report (sx : Session_store.session) =
  let nodes = match sx.sx_structure with Some s -> Structure.num_nodes s | None -> 0 in
  {
    (spilled_report (sx.sx_name, nodes, sx.sx_counters)) with
    sn_materializations = Linearizer.regrowths sx.sx_layout;
    sn_device = Option.value sx.sx_device ~default:(-1);
    sn_bytes = sx.sx_bytes;
    sn_spilled = false;
  }

let sessions t =
  List.map live_report (Session_store.sessions t.eng_store)
  @ List.map spilled_report (Session_store.held_spills t.eng_store)
  |> List.sort (fun a b -> compare a.sn_name b.sn_name)

let session_state t name st (node : Node.t) =
  Option.bind (Session_store.find t.eng_store name) (fun sx ->
      Session_store.row t.eng_store sx st node.Node.id)

let close_session t name = Session_store.forget t.eng_store name

let session_table_stats t = Session_store.stats t.eng_store

let set_session_budget t budget = Session_store.set_budget t.eng_store budget

let evict_session t name =
  match Session_store.find t.eng_store name with
  | None -> false
  | Some sx ->
    evict_session_now t sx ~reason:`Explicit;
    true

(* Cut an arrival-ordered run of requests into windows: a window closes
   when it reaches [max_batch] members or when the next arrival falls
   past the oldest member's [max_wait_us] deadline.  Each window carries
   its ready time: a full window is ready when its last member arrives,
   a timer-closed partial one when the batching timer fires — and the
   trailing partial window when its last member arrives, because an
   explicit [drain] is a flush: nothing else is coming, so making the
   tail wait out the timer would charge queueing delay no real server
   would incur. *)
let form_windows policy pendings =
  let close ~flush first window_rev size =
    let members = List.rev window_rev in
    let last_arrival =
      (* neg_infinity, not 0: a 0 init would mask negative arrival
         clocks (a trace whose origin predates the simulation start). *)
      List.fold_left (fun m p -> Float.max m p.p_arrival) Float.neg_infinity members
    in
    let ready =
      if size >= policy.max_batch || flush then last_arrival
      else first +. policy.max_wait_us
    in
    (ready, members)
  in
  let rec go acc window size first = function
    | [] ->
      List.rev (if window = [] then acc else close ~flush:true first window size :: acc)
    | p :: rest ->
      if window = [] then go acc [ p ] 1 p.p_arrival rest
      else if size >= policy.max_batch || p.p_arrival > first +. policy.max_wait_us
      then go (close ~flush:false first window size :: acc) [ p ] 1 p.p_arrival rest
      else go acc (p :: window) (size + 1) first rest
  in
  go [] [] 0 0.0 pendings

let form_windows_bucketed policy pendings =
  let buckets = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let key = Dispatch.size_bucket p.p_nodes in
      let prev = Option.value (Hashtbl.find_opt buckets key) ~default:[] in
      Hashtbl.replace buckets key (p :: prev))
    pendings;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) buckets []) in
  List.concat_map
    (fun k -> form_windows policy (List.rev (Hashtbl.find buckets k)))
    keys

let empty_aggregate =
  {
    num_requests = 0;
    num_windows = 0;
    mean_window = 0.0;
    throughput_rps = 0.0;
    mean_us = 0.0;
    p50_us = 0.0;
    p99_us = 0.0;
    makespan_us = 0.0;
  }

let aggregate_of requests ~num_windows =
  match requests with
  | [] -> empty_aggregate
  | _ ->
    let n = List.length requests in
    let totals = List.map (fun r -> r.rr_total_us) requests in
    let first_arrival =
      List.fold_left (fun m r -> Float.min m r.rr_arrival_us) infinity requests
    in
    let last_completion =
      List.fold_left
        (fun m r -> Float.max m (r.rr_arrival_us +. r.rr_total_us))
        0.0 requests
    in
    let makespan_us = last_completion -. first_arrival in
    {
      num_requests = n;
      num_windows;
      mean_window = float_of_int n /. float_of_int (max 1 num_windows);
      throughput_rps =
        (if makespan_us > 0.0 then float_of_int n /. makespan_us *. 1.0e6 else 0.0);
      mean_us = Stats.mean totals;
      p50_us = Stats.p50 totals;
      p99_us = Stats.p99 totals;
      makespan_us;
    }

(* One playable drain item: a batched window of stranger requests, or a
   pack of session tokens — a single token, or several sessions' ready
   tokens to merge into one forest launch. *)
type drain_item = I_regular of pending list | I_session of pending list

(* A session member's state traffic: before the run, the persisted rows
   of [sm_nodes]' children below [sm_base] are preloaded; after it, the
   rows of [sm_nodes] are persisted.  Both come from the token's step: a
   delta stores its appended nodes over its old prefix; a cold token has
   base 0 (nothing to preload) and stores every node. *)
type session_member = {
  sm_sx : Session_store.session;
  sm_nodes : Node.t array;
  sm_base : int;
}

(* One request inside a window.  [m_id] maps its request-local node ids
   into the window's numbering: a forest span's [span_ids], the rows of
   a session step's view ([Linearizer.view_id] over the layout ids), or
   those composed with [Linearizer.pack_id] in a packed window.
   [m_lin_us] is its [rr_linearize_us] charge: 0 for a regular member,
   its token's priced restore for a session one. *)
type member = {
  m_p : pending;
  m_lin_us : float;
  m_id : int -> int;
  m_session : session_member option;
}

(* A session token after its inspector work, before it plays: its step
   of the session's layout, from base 0 when it was served cold. *)
type token = {
  tk_p : pending;
  tk_sx : Session_store.session;
  tk_lin_us : float;  (* its priced restore, 0 unless it was spilled *)
  tk_step : Linearizer.step;
}

(* A window that ran to completion. *)
type completion = {
  ao_dev : Dispatch.device;
  ao_dispatch : float;
  ao_completion : float;
  ao_report : Runtime.report;
  ao_attempts : int;
  ao_compiled : Lower.compiled;  (* what actually ran (tuned or not) *)
}

(* The outcome of playing one window through the fault model. *)
type attempt_outcome =
  | Completed of completion
  | Lost_window of float  (* the sim instant the window was declared lost *)

(* What one drain plays with and what its windows accumulate: fresh
   device clocks and fault streams, the constants its summary reports,
   the fault counters and the reports.  It holds no window, token or id
   map, so nothing in it keeps a request's structure reachable. *)
type drain_state = {
  ds_disp : Dispatch.t;
  ds_faults : Fault.t;  (* an empty spec fails, slows and draws nothing *)
  ds_depth : int;  (* requests queued at the drain *)
  ds_degraded : bool;
  ds_shed : int;
  ds_rejected : int;
  mutable ds_transients : int;
  mutable ds_retries : int;
  mutable ds_failovers : int;
  mutable ds_lost : int;
  mutable ds_first_damage : float;
      (* the earliest shed arrival, lost window or missed deadline on the
         simulated clock ([infinity] while nothing was hurt): the FMECA
         campaign's detectability input *)
  mutable ds_windows : window_report list;  (* completed, newest first *)
  mutable ds_requests : request_report list;
  mutable ds_results : (int * Tensor.t) list;
}

let note_damage ds at = if at < ds.ds_first_damage then ds.ds_first_damage <- at
let device_track d = Printf.sprintf "device %d" d

(* Take the queue, in arrival order, and open the drain's state: the
   shed/rejected counters move into it, and an engine without a fault
   spec plays the empty one.  Past the watermark the drain degrades. *)
let open_drain t =
  let pendings =
    List.stable_sort
      (fun a b -> compare (a.p_arrival, a.p_id) (b.p_arrival, b.p_id))
      (List.rev t.queue)
  in
  let depth = List.length pendings in
  let ds =
    {
      ds_disp = Dispatch.create ~policy:t.eng_dispatch t.eng_devices;
      ds_faults =
        Fault.create ~seed:t.eng_seed ~devices:(List.length t.eng_devices) t.eng_faults;
      ds_depth = depth;
      ds_degraded = (match t.eng_watermark with Some w -> depth > w | None -> false);
      ds_shed = t.n_shed;
      ds_rejected = t.n_rejected;
      ds_transients = 0;
      ds_retries = 0;
      ds_failovers = 0;
      ds_lost = 0;
      ds_first_damage = infinity;
      ds_windows = [];
      ds_requests = [];
      ds_results = [];
    }
  in
  if ds.ds_shed > 0 then note_damage ds t.first_shed_us;
  t.queue <- [];
  t.queued <- 0;
  t.n_shed <- 0;
  t.n_rejected <- 0;
  t.first_shed_us <- infinity;
  (pendings, ds)

(* ---------- forming packs ---------- *)

(* A session item while packs form; [o_members] newest first. *)
type forming = {
  o_seq : int;  (* creation order *)
  o_dev : int;  (* predicted device; -1 = not yet pinned *)
  o_first : float;  (* its first member's arrival *)
  mutable o_members : pending list;
}

(* Multi-session packing: group ready session tokens by pinned device
   into packs of up to [pack_window] members, admitting a token only
   within [pack_wait_us] of the pack's first arrival (at a pack window
   of 1 every token is its own item, ready at arrival).  Only tokens
   predicted to serve as deltas pack (the authoritative delta check at
   serve time falls any mispredicted member back to its own size-1
   window); the prediction replays each session's structure evolution
   across the drain, so a conversation's second token can pack even
   when its first token of the same drain is what pins the session.
   Sessions not yet pinned group under a sentinel device (-1): playing
   their pack selects one device and pins every member to it, exactly
   as a size-1 window would pin its one session.  Two rules keep a
   session's own tokens in submission order: a token may only join a
   pack opened after the session's previous item, and an item's ready
   time is bumped to at least the ready time of every member session's
   previous item. *)
let form_packs t sessionp =
  let pack_w = t.eng_config.Config.sessions.Session_store.pack_window in
  let pack_wait = t.eng_config.Config.sessions.Session_store.pack_wait_us in
  let last_item = Hashtbl.create 16 in
  (* name -> (pinned device, structure as of the session's last token
     below, restored prefix) — the grouping-time mirror of what
     [serve_token] will see when the token is served. *)
  let pred = Hashtbl.create 16 in
  let predicted p =
    let name = Option.get p.p_session in
    let dev, prev, restored =
      match (Hashtbl.find_opt pred name, Session_store.find t.eng_store name) with
      | Some st, _ -> st
      | None, Some sx -> (sx.sx_device, sx.sx_structure, sx.sx_restored_base)
      | None, None -> (None, None, None)
    in
    let s = p.p_structure in
    let ok = growth_base ~prev ~restored s <> None in
    Hashtbl.replace pred name (dev, Some s, None);
    if ok then Some (Option.value dev ~default:(-1)) else None
  in
  (* [items] newest first; [opened] the joinable packs, oldest first and
     never full. *)
  let _, items, _ =
    List.fold_left
      (fun (seq, items, opened) p ->
        let name = Option.get p.p_session in
        let open_item dev =
          Hashtbl.replace last_item name (seq + 1);
          { o_seq = seq + 1; o_dev = dev; o_first = p.p_arrival; o_members = [ p ] }
        in
        match predicted p with
        | None -> (seq + 1, open_item (-1) :: items, opened)
        | Some d -> (
          let last = Option.value (Hashtbl.find_opt last_item name) ~default:0 in
          let joinable o =
            o.o_dev = d && p.p_arrival <= o.o_first +. pack_wait && o.o_seq > last
          in
          match List.find_opt joinable opened with
          | Some o ->
            o.o_members <- p :: o.o_members;
            Hashtbl.replace last_item name o.o_seq;
            let full = List.length o.o_members >= pack_w in
            (seq, items, if full then List.filter (fun x -> x != o) opened else opened)
          | None ->
            let o = open_item d in
            (seq + 1, o :: items, if pack_w > 1 then opened @ [ o ] else opened)))
      (0, [], []) sessionp
  in
  (* Materialize in creation order; a pack is ready when its last member
     arrives, and every item waits for its member sessions' previous
     items so no session's tokens can reorder. *)
  let prev_ready = Hashtbl.create 16 in
  List.rev_map
    (fun o ->
      let members = List.rev o.o_members in
      let names = List.map (fun p -> Option.get p.p_session) members in
      let ready =
        List.fold_left2
          (fun r p nm ->
            match Hashtbl.find_opt prev_ready nm with
            | Some pr -> Float.max (Float.max r p.p_arrival) pr
            | None -> Float.max r p.p_arrival)
          Float.neg_infinity members names
      in
      List.iter (fun nm -> Hashtbl.replace prev_ready nm ready) names;
      (ready, I_session members))
    (List.rev items)
  |> List.rev

(* Every item of the drain, in ready order.  Regular requests batch per
   the engine's policy — degraded, half the batch window and forced size
   bucketing: smaller, shape-homogeneous windows dispatch sooner,
   trading peak throughput for bounded latency.  Session submissions
   bypass batching: a token of a pinned conversation cannot share a
   forest with strangers — its layout and device are pinned — so
   session tokens form their own items. *)
let ready_items t ds pendings =
  let policy =
    if ds.ds_degraded then
      {
        t.eng_policy with
        max_batch = max 1 (t.eng_policy.max_batch / 2);
        bucketing = By_size;
      }
    else t.eng_policy
  in
  let sessionp, regular = List.partition (fun p -> p.p_session <> None) pendings in
  let windows =
    match policy.bucketing with
    | Fifo -> form_windows policy regular
    | By_size -> form_windows_bucketed policy regular
  in
  let packs = form_packs t sessionp in
  List.stable_sort
    (fun (ra, _) (rb, _) -> compare ra rb)
    (List.map (fun (r, ms) -> (r, I_regular ms)) windows @ packs)

(* ---------- serving a token ---------- *)

(* Re-admission: a spilled conversation coming back under its name
   restores its layout and persisted rows before the token is
   served; the priced restore cost is the token's whole linearization
   charge (0 when nothing was restored). *)
let restore_spilled t (sx : Session_store.session) (s : Structure.t) =
  match Session_store.restore t.eng_store sx s with
  | None -> 0.0
  | Some cost ->
    Obs.incr t.eng_obs "sessions.restores";
    (match t.eng_obs with
     | None -> ()
     | Some _ ->
       Obs.sim_instant t.eng_obs ~track:"sessions" ~name:"restore"
         ~args:
           [ ("session", CT.Str sx.sx_name); ("nodes", CT.Int (Structure.num_nodes s));
             ("restore_us", CT.Float cost) ]
         ~ts_us:t.eng_clock_us ());
    cost

(* One session token's inspector work, in order: restore a held spill;
   grow the session's layout by the token's delta (the prefix checked by
   [growth_base], every appended node by [Linearizer.grow]); failing
   that, serve it cold — a different conversation under the name drops
   the persisted state (its node identities no longer mean the same
   thing), and the whole structure is laid out as one step from base 0.
   A pack's members are all served, in pack order, before any of them
   plays.  The step runs in one wall-clock span: that is the per-token
   cost BENCH_incremental compares against a cold re-linearization.  It
   is host time, so the simulated clock never reads it. *)
let serve_token t p =
  let name = Option.get p.p_session in
  let s = p.p_structure in
  let sx = Session_store.session t.eng_store name in
  let restore_us = restore_spilled t sx s in
  let step =
    Obs.wall_span t.eng_obs ~track:"inspector" "token"
      ~args:[ ("session", CT.Str name); ("nodes", CT.Int (Structure.num_nodes s)) ]
      (fun () ->
        match
          Option.bind (growth_base ~prev:sx.sx_structure ~restored:sx.sx_restored_base s)
            (fun _ -> Linearizer.grow sx.sx_layout s)
        with
        | Some st ->
          let c = sx.sx_counters in
          c.c_extends <- c.c_extends + 1;
          c.c_delta_nodes <- c.c_delta_nodes + Array.length st.Linearizer.step_nodes;
          st
        | None ->
          (match sx.sx_structure with
           | Some prev when s.Structure.nodes.(0) != prev.Structure.nodes.(0) ->
             Session_store.reset sx
           | _ -> ());
          sx.sx_counters.c_cold <- sx.sx_counters.c_cold + 1;
          Linearizer.seed sx.sx_layout s)
  in
  sx.sx_structure <- Some s;
  sx.sx_restored_base <- None;
  { tk_p = p; tk_sx = sx; tk_lin_us = restore_us; tk_step = step }

(* ---------- pricing and dispatch ---------- *)

(* Price a window on [dev]: what actually runs there — the plan-tuned
   artifact when the window tunes ([tuning] = [Some packed], the plan
   cache's key space) — and its backend report. *)
let price_window t ~tuning ~lin ~nodes ~lin_us (dev : Dispatch.device) =
  let compiled =
    match (tuning, t.eng_plans) with
    | Some packed, Some pc ->
      let entry, _hit =
        Plan_cache.find_or_tune ?obs:t.eng_obs pc ~packed ~compiled:t.eng_compiled
          ~backend:dev.Dispatch.dev_backend ~lin ~nodes
      in
      entry.Plan_cache.pe_compiled
    | _ -> t.eng_compiled
  in
  ( compiled,
    Runtime.simulate_lin ~lock_free:t.lock_free ~linearize_us:lin_us compiled
      ~backend:dev.Dispatch.dev_backend lin )

(* Mark fail-stopped devices whose time has come, so dispatch avoids
   them; an in-flight abort is detected separately. *)
let mark_dead ds now =
  Array.iter
    (fun (d : Dispatch.device) ->
      if
        (not d.Dispatch.dev_failed)
        && Fault.fail_at ds.ds_faults d.Dispatch.dev_index <= now
      then Dispatch.fail d)
    (Dispatch.devices ds.ds_disp)

(* The device a window lands on: the first member session's pinned
   device, if it survives (a packed window's members share a pin by
   construction; they can only diverge when an earlier failover this
   drain re-pinned some of them), else — and for a regular window — the
   dispatch policy's pick.  Every member session pins to it; one whose
   pinned device died re-pins to the survivor.  A session's layout
   lives on the host, so a re-pin rebuilds nothing: the next token
   grows the same layout. *)
let pick_device ds ~sxs ~nodes =
  let devs = Dispatch.devices ds.ds_disp in
  let dev =
    match
      List.find_map
        (fun sx ->
          match sx.Session_store.sx_device with
          | Some di when not devs.(di).Dispatch.dev_failed -> Some devs.(di)
          | _ -> None)
        sxs
    with
    | Some d -> d
    | None -> Dispatch.select ds.ds_disp ~nodes
  in
  List.iter
    (fun sx ->
      match sx.Session_store.sx_device with
      | Some di when di = dev.Dispatch.dev_index -> ()
      | prev ->
        if prev <> None then sx.sx_counters.c_rebinds <- sx.sx_counters.c_rebinds + 1;
        sx.sx_device <- Some dev.Dispatch.dev_index)
    sxs;
  dev

(* Dispatch a window with attempts and retries.  [n] counts transient
   re-executions (the retry budget); failover re-dispatches after a
   fail-stop are free — the work was lost to the fleet, not to a flaky
   kernel.  A window's linearization is never redone on a retry or a
   failover: the forest (or layout step) is already built and is
   re-dispatched as it is.  [price dev] returns what runs on [dev] and
   its report. *)
let dispatch_window t ds ~sxs ~size ~nodes ~lin_us ~price ready0 =
  let obs = t.eng_obs in
  let rec attempt n ready =
    mark_dead ds ready;
    if Dispatch.alive ds.ds_disp = 0 then Lost_window ready
    else
      let dev = pick_device ds ~sxs ~nodes in
      let di = dev.Dispatch.dev_index in
      let dispatch = Float.max dev.Dispatch.dev_free_us ready in
      let ft = Fault.fail_at ds.ds_faults di in
      if ft <= dispatch then begin
        (* The device dies while the window waits in its queue slot:
           nothing was in flight, just pick another device. *)
        Dispatch.fail dev;
        attempt n ready
      end
      else
        let compiled, report = price dev in
        let factor = Fault.latency_factor ds.ds_faults ~device:di ~at_us:dispatch in
        let report =
          if factor = 1.0 then report else Runtime.scale_report report factor
        in
        let occupancy = report.Runtime.occupancy in
        (* The host-side linearization is charged once, on the first
           execution; a retry re-launches kernels, not the inspector. *)
        let lin_charge = if n = 0 then lin_us else 0.0 in
        let device_us = report.Runtime.latency.Backend.total_us in
        let completion = dispatch +. lin_charge +. device_us in
        if ft < completion then begin
          (* In-flight fail-stop: the window aborts at the instant the
             device dies and fails over to a survivor. *)
          Dispatch.commit dev ~dispatch_us:dispatch ~completion_us:ft ~requests:0 ~nodes:0
            ~occupancy;
          Dispatch.fail dev;
          ds.ds_failovers <- ds.ds_failovers + 1;
          Obs.incr obs "faults.failovers";
          (match obs with
           | None -> ()
           | Some _ ->
             Obs.sim_span obs ~track:(device_track di) ~name:"abort"
               ~args:[ ("fault", CT.Str "failstop"); ("size", CT.Int size);
                       ("nodes", CT.Int nodes) ]
               ~start_us:dispatch ~end_us:ft ());
          attempt n ft
        end
        else if Fault.draw_transient ds.ds_faults ~device:di ~at_us:dispatch then begin
          (* The kernel ran and the fault was detected at completion: the
             wasted execution still occupied the device. *)
          ds.ds_transients <- ds.ds_transients + 1;
          Obs.incr obs "faults.transients";
          Dispatch.commit dev ~dispatch_us:dispatch ~completion_us:completion ~requests:0
            ~nodes ~occupancy;
          (match obs with
           | None -> ()
           | Some _ ->
             Obs.sim_span obs ~track:(device_track di) ~name:"transient"
               ~args:[ ("attempt", CT.Int (n + 1)); ("size", CT.Int size);
                       ("nodes", CT.Int nodes) ]
               ~start_us:dispatch ~end_us:completion ());
          if n >= Fault.default_retry.Fault.max_retries then Lost_window completion
          else begin
            ds.ds_retries <- ds.ds_retries + 1;
            Obs.incr obs "faults.retries";
            let delay = Fault.backoff_us ds.ds_faults ~device:di ~attempt:n in
            attempt (n + 1) (completion +. delay)
          end
        end
        else begin
          Dispatch.commit dev ~dispatch_us:dispatch ~completion_us:completion
            ~requests:size ~nodes ~occupancy;
          Completed
            { ao_dev = dev; ao_dispatch = dispatch; ao_completion = completion;
              ao_report = report; ao_attempts = n + 1; ao_compiled = compiled }
        end
  in
  attempt 0 ready0

(* ---------- accounting a result ---------- *)

(* Numeric serving, one launch for every member: pre-seed each session
   member's boundary rows from its persisted states, execute the window
   once (retries and failovers re-dispatch the same linearization, so
   the numbers cannot depend on the fault history — the property the
   chaos tests pin bitwise), then persist session members' stored nodes
   and read every result back — bitwise identical to running each
   request cold. *)
let execute_window t ds ~lin ~ran members =
  match t.eng_params with
  | None -> ()
  | Some params ->
    let store = t.eng_store in
    (* Each state's bound storage, in the store's row format. *)
    let storage bound =
      Array.of_list
        (List.map
           (fun (st, _) -> Lower.state_rows bound ran st)
           t.eng_compiled.Lower.state_tensors)
    in
    let preload bound =
      let into = storage bound in
      List.iter
        (fun m ->
          Option.iter
            (fun { sm_sx = sx; sm_nodes; sm_base } ->
              Array.iter
                (fun (nd : Node.t) ->
                  Array.iter
                    (fun (c : Node.t) ->
                      if c.Node.id < sm_base then
                        Session_store.load_row store sx c.Node.id ~into ~at:(m.m_id c.Node.id))
                    nd.Node.children)
                sm_nodes)
            m.m_session)
        members
    in
    let ex = Runtime.execute_lin ~preload ran ~params lin in
    let from = storage ex.Runtime.exec_bound in
    let out = List.hd t.model.Ra.outputs in
    List.iter
      (fun m ->
        let result =
          match m.m_session with
          | None ->
            fun (root : Node.t) ->
              Some
                (Lower.state_value_lin ex.Runtime.exec_bound ex.Runtime.exec_compiled out
                   (m.m_id root.Node.id))
          | Some { sm_sx = sx; sm_nodes; _ } ->
            Array.iter
              (fun (nd : Node.t) ->
                Session_store.save_row store sx nd.Node.id ~from ~at:(m.m_id nd.Node.id))
              sm_nodes;
            (* A session's result is its persisted row. *)
            fun root -> Session_store.row store sx out root.Node.id
        in
        match m.m_p.p_structure.Structure.roots with
        | [] -> ()
        | root :: _ ->
          Option.iter
            (fun v -> ds.ds_results <- (m.m_p.p_id, v) :: ds.ds_results)
            (result root))
      members

(* Each member's request report.  A missed deadline hurts the SLO the
   instant the deadline passes without a completion, not when the late
   answer finally lands. *)
let record_requests t ds ~index ~size ~packed members c =
  let completion = c.ao_completion in
  bump_clock t completion;
  List.iter
    (fun m ->
      let p = m.m_p in
      ds.ds_requests <-
        {
          rr_id = p.p_id;
          rr_nodes = p.p_nodes;
          rr_window = index;
          rr_window_size = size;
          rr_device = c.ao_dev.Dispatch.dev_index;
          rr_arrival_us = p.p_arrival;
          rr_deadline_us = p.p_deadline;
          rr_queue_us = c.ao_dispatch -. p.p_arrival;
          rr_linearize_us = m.m_lin_us;
          rr_device_us = c.ao_report.Runtime.latency.Backend.total_us;
          rr_total_us = completion -. p.p_arrival;
          rr_on_time = completion <= p.p_deadline;
        }
        :: ds.ds_requests;
      if completion > p.p_deadline then note_damage ds p.p_deadline;
      Option.iter
        (fun { sm_sx = sx; _ } ->
          let c = sx.Session_store.sx_counters in
          if packed then c.c_packed <- c.c_packed + 1;
          if completion > p.p_deadline then c.c_deadline_misses <- c.c_deadline_misses + 1)
        m.m_session)
    members

(* A completed window: its report and "window" span, its numbers, its
   requests' reports. *)
let account_completed t ds ~lin ~nodes ~hit ~sxs ~size members c =
  let obs = t.eng_obs in
  let session, packed =
    match sxs with
    | [ sx ] -> (Some sx.Session_store.sx_name, [])
    | _ -> (None, List.map (fun sx -> sx.Session_store.sx_name) sxs)
  in
  let index = match ds.ds_windows with w :: _ -> w.wr_index + 1 | [] -> 0 in
  if packed <> [] then begin
    Obs.incr obs "sessions.packed_windows";
    Obs.incr obs ~by:size "sessions.packed_tokens"
  end;
  (match obs with
   | None -> ()
   | Some _ ->
     Obs.sim_span obs ~track:(device_track c.ao_dev.Dispatch.dev_index) ~name:"window"
       ~args:
         ([ ("index", CT.Int index); ("size", CT.Int size); ("nodes", CT.Int nodes);
            ("hit", CT.Bool hit); ("attempts", CT.Int c.ao_attempts) ]
         @ (match session with Some s -> [ ("session", CT.Str s) ] | None -> [])
         @ if packed = [] then [] else [ ("packed", CT.Str (String.concat "," packed)) ])
       ~start_us:c.ao_dispatch ~end_us:c.ao_completion ());
  ds.ds_windows <-
    {
      wr_index = index;
      wr_size = size;
      wr_nodes = nodes;
      wr_device = c.ao_dev.Dispatch.dev_index;
      wr_cache_hit = hit;
      wr_attempts = c.ao_attempts;
      wr_dispatch_us = c.ao_dispatch;
      wr_report = c.ao_report;
      wr_session = session;
      wr_packed = packed;
    }
    :: ds.ds_windows;
  execute_window t ds ~lin ~ran:c.ao_compiled members;
  record_requests t ds ~index ~size ~packed:(packed <> []) members c

(* Account one window's outcome, then re-account its member sessions at
   their new sizes.  A lost window stored no state row of its tokens'
   new nodes, so its member sessions reset: their next tokens are
   served cold. *)
let account_result t ds ~lin ~nodes ~hit ~sxs members outcome =
  let size = List.length members in
  (match outcome with
   | Lost_window at ->
     ds.ds_lost <- ds.ds_lost + size;
     note_damage ds at;
     bump_clock t at;
     List.iter Session_store.reset sxs
   | Completed c -> account_completed t ds ~lin ~nodes ~hit ~sxs ~size members c);
  List.iter (fun sx -> Session_store.touch t.eng_store sx ~now_us:t.eng_clock_us) sxs

(* ---------- playing windows ---------- *)

(* Play one window: [lin] is what runs, [members] the requests it
   serves.  The window's kind follows from its members — none in a
   session: a regular batch; one session token: a size-1 window;
   several: a packed window — and so does its plan-cache key space.
   Regular and packed windows tune (packed in their own key space:
   level-merged session batches are shaped nothing like a regular forest
   of the same size class).  Size-1 session windows run untuned: they are
   deliberately tiny, a token's delta, not the size classes the tuner
   buckets, and the pinned device would make the tuned artifact churn on
   every failover.  Plans preserve semantics bitwise, so retries and
   failovers across differently-tuned devices cannot change results.
   The window's host charge is its members' charges summed. *)
let play_window t ds ~ready ~lin ~nodes ~hit members =
  let lin_us = List.fold_left (fun acc m -> acc +. m.m_lin_us) 0.0 members in
  let sxs =
    List.filter_map (fun m -> Option.map (fun sm -> sm.sm_sx) m.m_session) members
  in
  let tuning = match sxs with [] -> Some false | [ _ ] -> None | _ -> Some true in
  let price = price_window t ~tuning ~lin ~nodes ~lin_us in
  dispatch_window t ds ~sxs ~size:(List.length members) ~nodes ~lin_us ~price ready
  |> account_result t ds ~lin ~nodes ~hit ~sxs members

(* A regular window: linearize exactly once and reuse the result — a
   cache hit is a payload re-bind, a miss the full inspector pass.
   Neither is charged to the simulated clock. *)
let play_regular t ds ~ready members =
  let fl, hit =
    Shape_cache.find_or_linearize ?obs:t.eng_obs t.eng_cache
      ~max_children:t.model.Ra.max_children
      (List.map (fun p -> p.p_structure) members)
  in
  play_window t ds ~ready ~lin:fl.Linearizer.lin
    ~nodes:fl.Linearizer.lin.Linearizer.num_nodes ~hit
    (List.mapi
       (fun k p ->
         let ids = fl.Linearizer.spans.(k).Linearizer.span_ids in
         { m_p = p; m_lin_us = 0.0; m_id = (fun id -> ids.(id)); m_session = None })
       members)

(* Play a pack of served session tokens at the pack's ready time.
   Members served cold (their steps start at base 0) play first, each as
   its own size-1 window.  The deltas then merge into one packed window;
   a lone delta runs its own view directly (no merge, so size-1 serving
   stays O(delta)). *)
let play_tokens t ds ~ready toks =
  (* [ids] is given the session, not the token: id maps that kept the
     tokens reachable while the window records raised the packed
     benchmark's peak heap by about 1 MB (a tenth). *)
  let member tk ~ids =
    let st = tk.tk_step in
    {
      m_p = tk.tk_p;
      m_lin_us = tk.tk_lin_us;
      m_id = ids tk.tk_sx;
      m_session =
        Some
          { sm_sx = tk.tk_sx; sm_nodes = st.Linearizer.step_nodes;
            sm_base = st.Linearizer.step_base };
    }
  in
  (* Request-local node id -> layout id -> row of the latest step's
     view, which is the token's step: a pack holds one token per
     session, and each window plays before its session's next token is
     served. *)
  let view_id sx id =
    let g = sx.Session_store.sx_layout in
    Linearizer.view_id g (Linearizer.layout_id g id)
  in
  let play_step tk =
    let st = tk.tk_step in
    play_window t ds ~ready ~lin:st.Linearizer.step_view
      ~nodes:(Array.length st.Linearizer.step_nodes) ~hit:false [ member tk ~ids:view_id ]
  in
  let colds, deltas = List.partition (fun tk -> tk.tk_step.Linearizer.step_base = 0) toks in
  List.iter play_step colds;
  match deltas with
  | [] -> ()
  | [ one ] -> play_step one
  | first :: rest ->
    let pk = Linearizer.pack first.tk_step (List.map (fun tk -> tk.tk_step) rest) in
    let view = pk.Linearizer.pk_view in
    (* The window's work is its step nodes; the boundary rows below
       [pk_base] only receive preloaded states and are never iterated
       by a batch. *)
    play_window t ds ~ready ~lin:view
      ~nodes:(view.Linearizer.num_nodes - pk.Linearizer.pk_base)
      ~hit:false
      (List.mapi
         (fun i tk ->
           member tk ~ids:(fun sx id -> Linearizer.pack_id pk ~member:i (view_id sx id)))
         deltas)

(* Play one item at its ready time, advancing the monotone engine clock
   item by item (items play in ready order): sessions age against the
   simulated time the drain has actually reached, so a conversation
   that went quiet early shows real idle time to the TTL pass instead of
   being backdated to the drain's newest arrival.  A session item runs
   one eviction pass once all its windows have played — the budget
   holds after every session item, not just at drain end, which is also
   what makes evict/restore churn observable inside a single drain.  A
   pass between two of a pack's windows could evict a member whose
   token is served but whose window has not played yet, and that window
   would then put the evicted name back in the store. *)
let play_item t ds (ready, item) =
  bump_clock t ready;
  match item with
  | I_regular members -> play_regular t ds ~ready members
  | I_session members ->
    play_tokens t ds ~ready (List.map (serve_token t) members);
    enforce_sessions t

(* ---------- the summary ---------- *)

let device_reports_of ds ~makespan_us =
  Array.to_list
    (Array.map
       (fun (d : Dispatch.device) ->
         {
           dr_index = d.Dispatch.dev_index;
           dr_backend = d.Dispatch.dev_backend;
           dr_failed = d.Dispatch.dev_failed;
           dr_windows = d.Dispatch.dev_windows;
           dr_requests = d.Dispatch.dev_requests;
           dr_nodes = d.Dispatch.dev_nodes;
           dr_busy_us = d.Dispatch.dev_busy_us;
           dr_utilization =
             (if makespan_us > 0.0 then d.Dispatch.dev_busy_us /. makespan_us else 0.0);
           dr_occupancy = Dispatch.mean_occupancy d;
         })
       (Dispatch.devices ds.ds_disp))

(* The drain's metrics and its enclosing span, recorded last so the span
   covers everything (lost-window activity included — [sim_bounds] is
   the recorded extent, not the completed makespan). *)
let record_drain t ds ~aggregate ~requests ~windows ~device_reports ~session_table =
  let obs = t.eng_obs in
  match obs with
  | None -> ()
  | Some o ->
    Obs.incr obs ~by:aggregate.num_requests "requests.completed";
    Obs.incr obs ~by:ds.ds_lost "requests.lost";
    Obs.incr obs ~by:ds.ds_shed "requests.shed";
    Obs.incr obs ~by:ds.ds_rejected "requests.rejected";
    Obs.incr obs ~by:(List.length windows) "windows.formed";
    Obs.set_gauge obs "queue.depth" (float_of_int ds.ds_depth);
    Obs.set_gauge obs "drain.degraded" (if ds.ds_degraded then 1.0 else 0.0);
    Obs.set_gauge obs "cache.hit_rate"
      (Shape_cache.hit_rate (Shape_cache.stats t.eng_cache));
    if
      session_table.Session_store.st_live > 0
      || session_table.Session_store.st_spilled > 0
      || session_table.Session_store.st_evictions > 0
    then begin
      Obs.set_gauge obs "sessions.live"
        (float_of_int session_table.Session_store.st_live);
      Obs.set_gauge obs "sessions.bytes"
        (float_of_int session_table.Session_store.st_bytes)
    end;
    List.iter
      (fun d ->
        Obs.set_gauge obs
          (Printf.sprintf "device%d.utilization" d.dr_index)
          d.dr_utilization)
      device_reports;
    List.iter
      (fun r ->
        Obs.observe obs "latency.total_us" r.rr_total_us;
        Obs.observe obs "latency.queue_us" r.rr_queue_us)
      requests;
    List.iter (fun w -> Obs.observe obs "window.size" (float_of_int w.wr_size)) windows;
    (* Stamped before the drain span so [sim_bounds] covers it: a trace
       scanner measuring detectability reads this instant as "the SLO was
       first hurt here". *)
    if ds.ds_first_damage < infinity then
      Obs.sim_instant obs ~track:"slo" ~name:"slo_damage"
        ~args:[ ("at_us", CT.Float ds.ds_first_damage) ]
        ~ts_us:ds.ds_first_damage ();
    (match Obs.sim_bounds o with
     | Some (lo, hi) ->
       Obs.sim_span obs ~track:"engine" ~name:"drain"
         ~args:[ ("requests", CT.Int aggregate.num_requests);
                 ("windows", CT.Int (List.length windows)); ("lost", CT.Int ds.ds_lost) ]
         ~start_us:lo ~end_us:hi ()
     | None -> ())

let plan_reports t =
  match t.eng_plans with
  | None -> []
  | Some pc ->
    List.map
      (fun (e : Plan_cache.entry) ->
        {
          pr_backend = e.Plan_cache.pe_backend;
          pr_bucket = e.Plan_cache.pe_bucket;
          pr_plan = Cortex_ilir.Schedule.plan_to_string e.Plan_cache.pe_plan;
          pr_default_us = e.Plan_cache.pe_default_us;
          pr_tuned_us = e.Plan_cache.pe_tuned_us;
        })
      (Plan_cache.entries pc)

(* The summary is a function of the drain's state and of the engine's
   cumulative caches and session table. *)
let summarize t ds =
  let requests = List.sort (fun a b -> compare a.rr_id b.rr_id) ds.ds_requests in
  let windows = List.rev ds.ds_windows in
  let aggregate = aggregate_of requests ~num_windows:(List.length windows) in
  let device_reports = device_reports_of ds ~makespan_us:aggregate.makespan_us in
  let session_table = Session_store.stats t.eng_store in
  record_drain t ds ~aggregate ~requests ~windows ~device_reports ~session_table;
  let plan_cache = Option.map Plan_cache.stats t.eng_plans in
  Option.iter
    (fun pc ->
      Obs.set_gauge t.eng_obs "plan_cache.hit_rate" (Plan_cache.hit_rate pc);
      Obs.set_gauge t.eng_obs "plan_cache.entries"
        (float_of_int pc.Plan_cache.pc_entries))
    plan_cache;
  let on_time = List.length (List.filter (fun r -> r.rr_on_time) requests) in
  let packed = List.filter (fun w -> w.wr_packed <> []) windows in
  {
    aggregate;
    requests;
    windows;
    device_reports;
    cache = Shape_cache.stats t.eng_cache;
    slo =
      {
        slo_seed = t.eng_seed;
        slo_degraded = ds.ds_degraded;
        slo_completed = aggregate.num_requests;
        slo_lost = ds.ds_lost;
        slo_shed = ds.ds_shed;
        slo_rejected = ds.ds_rejected;
        slo_transients = ds.ds_transients;
        slo_retries = ds.ds_retries;
        slo_failovers = ds.ds_failovers;
        slo_deadline_misses = aggregate.num_requests - on_time;
        slo_on_time = on_time;
        slo_goodput_rps =
          (if aggregate.makespan_us > 0.0 then
             float_of_int on_time /. aggregate.makespan_us *. 1.0e6
           else 0.0);
        slo_first_damage_us =
          (if ds.ds_first_damage < infinity then Some ds.ds_first_damage else None);
      };
    results = List.sort (fun (a, _) (b, _) -> compare a b) ds.ds_results;
    sessions = sessions t;
    session_table;
    packed_windows = List.length packed;
    packed_tokens = List.fold_left (fun acc w -> acc + w.wr_size) 0 packed;
    metrics = Obs.snapshot t.eng_obs;
    plans = plan_reports t;
    plan_cache;
  }

(* Form the drain's items, play them in ready order, and summarize.
   Device clocks are fresh per drain (the simulation's origin is the
   trace's arrival clock); the shape cache persists across drains.
   Observability is read-only: every span and metric copies a value the
   simulation already computed, and the [None] path allocates nothing
   (the guards keep even the args lists unbuilt). *)
let drain t =
  let pendings, ds = open_drain t in
  let items = ready_items t ds pendings in
  (match t.eng_obs with
   | None -> ()
   | Some _ ->
     List.iter
       (fun p ->
         Obs.sim_instant t.eng_obs ~track:"requests" ~name:"arrival"
           ~args:[ ("id", CT.Int p.p_id); ("nodes", CT.Int p.p_nodes) ]
           ~ts_us:p.p_arrival ())
       pendings);
  List.iter (play_item t ds) items;
  (* End-of-drain eviction pass at the drain's high-water simulated
     clock: TTL expiries age out here even when their session saw no
     traffic, and a mid-drain budget change (set_session_budget) takes
     effect.  Runs before the trace bounds are read so the eviction
     instants land inside the drain span. *)
  enforce_sessions t;
  summarize t ds

let run_trace t trace =
  (* The trace contract says sorted by arrival; silently windowing an
     unsorted one would interleave bursts that never coexisted.  Reject
     it with a typed error instead. *)
  ignore
    (List.fold_left
       (fun (i, prev) (e : Trace.event) ->
         if e.Trace.at_us < prev then
           raise
             (Error (Unsorted_trace { index = i; at_us = e.Trace.at_us; prev_us = prev }));
         (i + 1, e.Trace.at_us))
       (0, neg_infinity) trace);
  List.iter
    (fun (e : Trace.event) ->
      match
        submit t ~arrival_us:e.Trace.at_us ?deadline_us:e.Trace.deadline_us
          e.Trace.structure
      with
      | Ok _ -> ()
      (* Load shedding is the cap doing its job, not a caller error:
         the drop is counted in the summary's SLO block. *)
      | Stdlib.Error (Shed _) -> ()
      | Stdlib.Error err -> raise (Error err))
    trace;
  drain t

let run_one t structure =
  validate_exn t structure;
  let lin = Linearizer.run ~max_children:t.model.Ra.max_children structure in
  Runtime.simulate_lin ~lock_free:t.lock_free ~linearize_us:(Linearizer.priced_us lin)
    t.eng_compiled ~backend:t.eng_backend lin

(* ---------- numeric execution ---------- *)

type execution = { ex_forest : Linearizer.forest; ex_exec : Runtime.execution }

let execute t ~params structures =
  List.iter (validate_exn t) structures;
  (* The numeric path shares the drain's shape cache: a repeated shape
     skips the inspector here too, and the equivalence tests pin the
     rebound numbering bitwise to a cold linearization. *)
  let forest =
    try
      fst
        (Shape_cache.find_or_linearize ?obs:t.eng_obs t.eng_cache
           ~max_children:t.model.Ra.max_children structures)
    with Linearizer.Rejected r -> raise (Error (Rejected r))
  in
  let ex = Runtime.execute_lin t.eng_compiled ~params forest.Linearizer.lin in
  { ex_forest = forest; ex_exec = ex }

let execute_one t ~params structure = execute t ~params [ structure ]

let state e ?(request = 0) st_name (node : Node.t) =
  let spans = e.ex_forest.Linearizer.spans in
  if request < 0 || request >= Array.length spans then
    invalid_arg "Engine.state: no such request";
  let span = spans.(request) in
  Lower.state_value_lin e.ex_exec.Runtime.exec_bound e.ex_exec.Runtime.exec_compiled
    st_name
    span.Linearizer.span_ids.(node.Node.id)

let forest e = e.ex_forest
