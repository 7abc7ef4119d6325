module C = Chrome_trace

type clock = Measured | Logical

type domain = Wall | Sim

(* Spans are stored complete (both endpoints known) and compiled into
   balanced begin/end pairs at export time. *)
type span = {
  sp_track : string;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_args : (string * C.value) list;
  sp_seq : int;
}

type inst = {
  in_track : string;
  in_name : string;
  in_ts : float;
  in_args : (string * C.value) list;
  in_seq : int;
}

type t = {
  clk : clock;
  t0 : float;  (* wall origin, so Measured timestamps start near 0 *)
  mutable tick : float;
  mutable spans : span list;  (* reversed record order *)
  mutable instants : inst list;
  mutable tracks : (string * domain) list;  (* reversed first-use order *)
  mutable seq : int;
  mutable sim_lo : float;
  mutable sim_hi : float;
  m : Metrics.t;
}

let create ?(clock = Measured) () =
  {
    clk = clock;
    t0 = Unix.gettimeofday ();
    tick = 0.0;
    spans = [];
    instants = [];
    tracks = [];
    seq = 0;
    sim_lo = infinity;
    sim_hi = neg_infinity;
    m = Metrics.create ();
  }

let now_us t =
  match t.clk with
  | Measured -> (Unix.gettimeofday () -. t.t0) *. 1e6
  | Logical ->
    t.tick <- t.tick +. 1.0;
    t.tick

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let register_track t track domain =
  if not (List.mem_assoc track t.tracks) then t.tracks <- (track, domain) :: t.tracks

let add_span t ~domain ~track ~args name start_us end_us =
  register_track t track domain;
  if domain = Sim then begin
    t.sim_lo <- Float.min t.sim_lo start_us;
    t.sim_hi <- Float.max t.sim_hi end_us
  end;
  t.spans <-
    { sp_track = track; sp_name = name; sp_start = start_us; sp_end = end_us;
      sp_args = args; sp_seq = next_seq t }
    :: t.spans

let wall_span obs ~track ?(args = []) name f =
  match obs with
  | None -> f ()
  | Some t ->
    let start = now_us t in
    let r = f () in
    let finish = now_us t in
    add_span t ~domain:Wall ~track ~args name start finish;
    r

let sim_span obs ~track ?(args = []) ~name ~start_us ~end_us () =
  match obs with
  | None -> ()
  | Some t ->
    if end_us < start_us then invalid_arg "Obs.sim_span: end before start";
    add_span t ~domain:Sim ~track ~args name start_us end_us

let sim_instant obs ~track ?(args = []) ~name ~ts_us () =
  match obs with
  | None -> ()
  | Some t ->
    register_track t track Sim;
    t.sim_lo <- Float.min t.sim_lo ts_us;
    t.sim_hi <- Float.max t.sim_hi ts_us;
    t.instants <-
      { in_track = track; in_name = name; in_ts = ts_us; in_args = args;
        in_seq = next_seq t }
      :: t.instants

let incr obs ?by name = Option.iter (fun t -> Metrics.incr t.m ?by name) obs
let set_gauge obs name v = Option.iter (fun t -> Metrics.set t.m name v) obs
let observe obs name v = Option.iter (fun t -> Metrics.observe t.m name v) obs

let sim_bounds t =
  if t.sim_lo <= t.sim_hi then Some (t.sim_lo, t.sim_hi) else None

let snapshot obs = Option.map (fun t -> Metrics.snapshot t.m) obs

let wall_us t ~track ~name =
  List.fold_left
    (fun acc sp ->
      if sp.sp_track = track && sp.sp_name = name then acc +. (sp.sp_end -. sp.sp_start)
      else acc)
    0.0 t.spans

(* ---------- export ---------- *)

let wall_pid = 1
let sim_pid = 2

(* Compile one track's complete spans into balanced B/E pairs.  Spans
   are sorted outer-first ((start asc, end desc), ties broken by record
   order with the later-recorded — enclosing — span first, since a
   nested wall span returns before its parent) and emitted with a
   stack, so properly nested input yields a monotone, balanced event
   stream.  Improper overlap is a recording bug and is rejected. *)
let span_events ~cat ~pid ~tid spans =
  let spans =
    List.sort
      (fun a b ->
        match Float.compare a.sp_start b.sp_start with
        | 0 -> (
          match Float.compare b.sp_end a.sp_end with
          | 0 -> compare b.sp_seq a.sp_seq
          | c -> c)
        | c -> c)
      spans
  in
  let out = ref [] in
  let emit ph name ts args =
    out := C.event ~cat ~args ~name ~ph ~ts_us:ts ~pid ~tid () :: !out
  in
  let stack = ref [] in
  let pop_until limit =
    let rec go () =
      match !stack with
      | top :: rest when top.sp_end <= limit ->
        emit C.End top.sp_name top.sp_end [];
        stack := rest;
        go ()
      | _ -> ()
    in
    go ()
  in
  List.iter
    (fun s ->
      pop_until s.sp_start;
      (match !stack with
       | top :: _ when s.sp_end > top.sp_end ->
         invalid_arg
           (Printf.sprintf "Obs: spans %S and %S overlap without nesting"
              top.sp_name s.sp_name)
       | _ -> ());
      emit C.Begin s.sp_name s.sp_start s.sp_args;
      stack := s :: !stack)
    spans;
  pop_until infinity;
  List.rev !out

(* Merge a monotone event stream with instants sorted by timestamp,
   preserving monotonicity. *)
let merge_instants ~cat ~pid ~tid events instants =
  let instants =
    List.sort
      (fun a b ->
        match Float.compare a.in_ts b.in_ts with
        | 0 -> compare a.in_seq b.in_seq
        | c -> c)
      instants
  in
  let rec go acc evs ins =
    match (evs, ins) with
    | [], [] -> List.rev acc
    | [], i :: ins ->
      go (C.event ~cat ~args:i.in_args ~name:i.in_name ~ph:C.Instant ~ts_us:i.in_ts ~pid ~tid () :: acc) [] ins
    | e :: evs', _ when (match ins with [] -> true | i :: _ -> e.C.ev_ts_us <= i.in_ts) ->
      go (e :: acc) evs' ins
    | _, i :: ins ->
      go (C.event ~cat ~args:i.in_args ~name:i.in_name ~ph:C.Instant ~ts_us:i.in_ts ~pid ~tid () :: acc) evs ins
    | _ -> assert false
  in
  go [] events instants

let events t =
  let tracks = List.rev t.tracks in
  let domain_pid = function Wall -> wall_pid | Sim -> sim_pid in
  (* Stable per-process thread ids in first-use order. *)
  let tids = Hashtbl.create 8 in
  let next = Hashtbl.create 2 in
  List.iter
    (fun (name, dom) ->
      let pid = domain_pid dom in
      let n = Option.value (Hashtbl.find_opt next pid) ~default:1 in
      Hashtbl.replace next pid (n + 1);
      Hashtbl.replace tids name n)
    tracks;
  let has dom = List.exists (fun (_, d) -> d = dom) tracks in
  let meta =
    (if has Wall then [ C.process_name ~pid:wall_pid "compile (wall clock)" ] else [])
    @ (if has Sim then [ C.process_name ~pid:sim_pid "serve (simulated clock)" ] else [])
    @ List.map
        (fun (name, dom) ->
          C.thread_name ~pid:(domain_pid dom) ~tid:(Hashtbl.find tids name) name)
        tracks
  in
  let spans = List.rev t.spans in
  let instants = List.rev t.instants in
  let body =
    List.concat_map
      (fun (name, dom) ->
        let pid = domain_pid dom in
        let tid = Hashtbl.find tids name in
        let cat = match dom with Wall -> "wall" | Sim -> "sim" in
        let track_spans = List.filter (fun s -> s.sp_track = name) spans in
        let track_insts = List.filter (fun i -> i.in_track = name) instants in
        merge_instants ~cat ~pid ~tid (span_events ~cat ~pid ~tid track_spans) track_insts)
      tracks
  in
  meta @ body

let to_json t = C.to_json (events t)

let write_json t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_json t))

let reset t =
  t.tick <- 0.0;
  t.spans <- [];
  t.instants <- [];
  t.tracks <- [];
  t.seq <- 0;
  t.sim_lo <- infinity;
  t.sim_hi <- neg_infinity;
  Metrics.reset t.m
