(* The fleet driver behind the socket scale-out experiments (E18, E19,
   E20).  A cell starts one Server.start_group over a fleet of loopback
   endpoints, connects one client engine per load domain, releases every
   timed pass from one atomic barrier, records client domain 0 through
   Net.Record (recording every domain would serialize them on the
   record's lock and distort the measurement) and checks each recorded
   key's history with the paper's single-register checkers.  Each
   experiment keeps its own knobs, sweep, cell fields and verdicts. *)

type setup = {
  name : string;  (* experiment label, e.g. "E19": messages, tmpdirs *)
  transport : [ `Unix | `Tcp ];
  protocol : Net.Protocols.t;
  cfg : Quorum.Config.t;
  fleet : int;  (* server endpoints (>= cfg.s) *)
  domains : int;  (* server worker domains *)
  clients : int;  (* client load domains *)
  trials : int;  (* timed passes per cell; the best is reported *)
}

(* One timed pass over all client domains. *)
type trial = {
  ops : int;
  wall : float;  (* the slowest domain's *)
  rate : float;  (* ops/s *)
  lat : Stats.Summary.t;
  reads : int;
  fast : int;  (* reads decided in one round *)
  writes : int;
}

(* One cell: its best trial by ops/s, and what every trial and the
   recorded histories say. *)
type cell = {
  best : trial;
  failures : int;  (* over all trials *)
  mismatches : int;  (* reads not returning the seed, all trials *)
  histories : (int * string Histories.Op.t list) list;
  violations : int;  (* unsafe plus irregular key histories *)
  partition : int;
  keys_touched : int;
  metrics : Obs.Metrics.t;  (* servers' and clients' registries merged *)
}

let cores = Domain.recommended_domain_count ()

(* One measured pass: every client domain draws its ops (untimed), spins
   on the barrier, then drives them, domain 0 into [record] when given.
   The pass's wall-clock is the slowest domain's. *)
let timed_pass ?record clients draw =
  let n = Array.length clients in
  let barrier = Atomic.make 0 in
  let body c () =
    let ops = draw c in
    let on_event =
      match record with
      | Some r when c = 0 -> Some (Net.Record.tap r ops)
      | _ -> None
    in
    Atomic.incr barrier;
    while Atomic.get barrier < n do
      Domain.cpu_relax ()
    done;
    let t0 = Unix.gettimeofday () in
    let results = Net.Client.run_ops ?on_event clients.(c) ops in
    (Unix.gettimeofday () -. t0, results)
  in
  Array.map Domain.join (Array.init n (fun c -> Domain.spawn (body c)))

(* Run one cell.  [connect ~metrics ~now_us endpoints c] builds client
   domain [c]'s engine ([metrics] is a registry iff [observe]); [warm c]
   and [draw c] are its untimed warmup ops and each trial's ops.  With
   [seed], a writer first writes it (recorded) and every read must
   return it.  [sample] picks the recorded keys ({!Net.Record.create}). *)
let run_cell st ~label ?seed ?sample ~observe ~connect ~warm ~draw () =
  let loopback =
    Net.Endpoint.fleet ~transport:st.transport
      ~prefix:(String.lowercase_ascii st.name)
      st.fleet
  in
  let registries = Array.init st.fleet (fun _ -> Obs.Metrics.create ()) in
  let servers =
    Net.Server.start_group
      ~metrics:(fun i -> registries.(i))
      ~domains:st.domains ~protocol:st.protocol ~cfg:st.cfg
      loopback.endpoints
  in
  let endpoints = Array.map Net.Server.endpoint servers in
  (* One microsecond clock for every client: recorded stamps from the
     seeding writer and from client domain 0 must be mutually ordered. *)
  let origin = Unix.gettimeofday () in
  let now_us () = int_of_float ((Unix.gettimeofday () -. origin) *. 1e6) in
  let record = Net.Record.create ?sample () in
  Option.iter
    (fun value ->
      let writer =
        Net.Client.connect ~now_us ~protocol:st.protocol ~cfg:st.cfg
          ~role:`Writer endpoints
      in
      let ops = [| Net.Client.Write { key = 0; value } |] in
      let on_event = Net.Record.tap record ops in
      (match (Net.Client.run_ops ~on_event writer ops).(0) with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "%s: seed write failed: %s\n" st.name e;
          exit 1);
      Net.Client.close writer)
    seed;
  let client_regs =
    Array.init st.clients (fun _ ->
        if observe then Some (Obs.Metrics.create ()) else None)
  in
  let clients =
    Array.init st.clients (fun c ->
        connect ~metrics:client_regs.(c) ~now_us endpoints c)
  in
  (* untimed warmup: connections, hellos, first automaton steps *)
  ignore (timed_pass clients warm);
  let failures = ref 0 and mismatches = ref 0 and best = ref None in
  for trial = 1 to st.trials do
    let passes = timed_pass ~record clients draw in
    let wall = Array.fold_left (fun m (w, _) -> Float.max m w) 0. passes in
    let lat = Stats.Summary.create () in
    let ops = ref 0 and reads = ref 0 and fast = ref 0 and writes = ref 0 in
    Array.iter
      (fun (_, results) ->
        ops := !ops + Array.length results;
        Array.iter
          (function
            | Ok (o : Net.Client.outcome) -> (
                Stats.Summary.add_int lat o.latency_us;
                match o.value with
                | Some v -> (
                    incr reads;
                    if o.rounds <= 1 then incr fast;
                    match seed with
                    | Some s when not (Core.Value.equal v s) -> incr mismatches
                    | _ -> ())
                | None -> incr writes)
            | Error e ->
                incr failures;
                Printf.eprintf "%s: op failed: %s\n" st.name e)
          results)
      passes;
    let rate = float_of_int !ops /. wall in
    Exp_common.note
      "  %s trial=%d  %8.0f ops/s  p50=%.0fus p99=%.0fus  fast %d/%d reads"
      label trial rate
      (Stats.Summary.percentile lat 50.)
      (Stats.Summary.percentile lat 99.)
      !fast !reads;
    match !best with
    | Some b when b.rate >= rate -> ()
    | _ ->
        best :=
          Some
            {
              ops = !ops;
              wall;
              rate;
              lat;
              reads = !reads;
              fast = !fast;
              writes = !writes;
            }
  done;
  let keys_touched =
    Array.fold_left (fun acc c -> acc + Net.Client.keys_touched c) 0 clients
  in
  Array.iter Net.Client.close clients;
  Array.iter Net.Server.stop servers;
  Net.Endpoint.release loopback;
  let histories = Net.Record.histories record in
  let bad ok = if ok then 0 else 1 in
  let violations =
    List.fold_left
      (fun acc (_, h) ->
        acc
        + bad (Histories.Checks.is_safe ~equal:String.equal h)
        + bad (Histories.Checks.is_regular ~equal:String.equal h))
      0 histories
  in
  let metrics = Obs.Metrics.create () in
  let merge r = Obs.Metrics.merge_into ~dst:metrics r in
  Array.iter merge registries;
  Array.iter (Option.iter merge) client_regs;
  let none =
    {
      ops = 0;
      wall = 0.;
      rate = 0.;
      lat = Stats.Summary.create ();
      reads = 0;
      fast = 0;
      writes = 0;
    }
  in
  {
    best = Option.value !best ~default:none;
    failures = !failures;
    mismatches = !mismatches;
    histories;
    violations;
    partition = Net.Server.partition_violations servers.(0);
    keys_touched;
    metrics;
  }

(* E19's and E20's fleet, from the knobs <name>_CLIENTS (2), _FLEET (4),
   _DOMAINS (2), _TRIALS (2) and _TRANSPORT (unix): regular-gc at
   S = 3 = 2t+2b+1 (t=1, b=0), where the lower bound admits one-round
   reads, so the fast path should engage on every shard. *)
let keyed_setup name =
  let knob k = name ^ "_" ^ k in
  let clients = Exp_common.getenv_int (knob "CLIENTS") 2 in
  let cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0 in
  let st =
    {
      name;
      transport = Exp_common.transport (knob "TRANSPORT") `Unix;
      protocol = Net.Protocols.regular_gc ~readers:clients;
      cfg;
      fleet = Exp_common.getenv_int (knob "FLEET") 4;
      domains = Exp_common.getenv_int (knob "DOMAINS") 2;
      clients;
      trials = Exp_common.getenv_int (knob "TRIALS") 2;
    }
  in
  if st.fleet < cfg.Quorum.Config.s then begin
    Printf.eprintf "%s must be >= S = %d\n" (knob "FLEET") cfg.Quorum.Config.s;
    exit 2
  end;
  st

(* E19's and E20's keyspace cell: regular-gc keyed clients (reader id
   c+1, disjoint write ownership so every key stays SWMR) on a zipf op
   mix.  Client domain 0 records the keys IT OWNS (so every write to a
   recorded key is in its history) with ids below [sample_bound] (where
   zipf concentrates the traffic).  The warmup is reads only: a warmup
   write on a recorded key would be missing from its history. *)
let keyed_cell st ~label ~keys ~skew ~write_ratio ~sample_bound ~seed ~ops
    ~inflight ~coalesce =
  let map = Shard.Map.make_exn ~keys ~fleet:st.fleet ~cfg:st.cfg () in
  let owner k = Shard.Map.mix k mod st.clients in
  let gens write_ratio seed =
    Array.init st.clients (fun c ->
        Workload.Keyspace.make_exn ~skew ~write_ratio
          ~write_filter:(fun k -> owner k = c)
          ~keys ~seed:(seed + c) ())
  in
  let draw gens n c = Workload.Keyspace.ops gens.(c) n in
  let cell =
    run_cell st ~label
      ~sample:(fun k -> k < sample_bound && owner k = 0)
      ~observe:true
      ~connect:(fun ~metrics ~now_us endpoints c ->
        Net.Client.Keyed.connect ?metrics ~now_us ~max_inflight:inflight
          ~reader:(c + 1) ~coalesce ~protocol:st.protocol ~map endpoints)
      ~warm:(draw (gens 0.0 7) (Stdlib.min 200 ops))
      ~draw:(draw (gens write_ratio seed) ops)
      ()
  in
  (cell, map)

(* ----- BENCH JSON ----- *)

(* The document head up to the open cell array; [fields] are the
   experiment's own, each ending in ",\n  ". *)
let header_json buf st ~experiment fields =
  Printf.bprintf buf
    "{\n  \"experiment\": \"%s\",\n  \"transport\": \"%s\",\n  \
     \"protocol\": \"%s\",\n  \"s\": %d, \"t\": %d, \"b\": %d,\n  %s\"cores\": \
     %d,\n  \"clients\": %d,\n  \"trials\": %d,\n  \"cells\": [\n"
    experiment
    (Exp_common.transport_name st.transport)
    (Net.Protocols.name st.protocol)
    st.cfg.Quorum.Config.s st.cfg.Quorum.Config.t st.cfg.Quorum.Config.b
    fields cores st.clients st.trials

(* One cell object: the experiment's identifying fields [id], what
   every fleet cell measures, then [extra]'s fields. *)
let cell_json buf ~id ~last c extra =
  Printf.bprintf buf
    "    { %s, \"ops\": %d, \"wall_s\": %.4f, \"ops_per_s\": %.1f,\n      " id
    c.best.ops c.best.wall c.best.rate;
  Exp_common.summary_json buf "latency" c.best.lat;
  Printf.bprintf buf
    ",\n      \"failures\": %d, \"violations\": %d, \"partition_violations\": \
     %d"
    c.failures c.violations c.partition;
  extra buf;
  Printf.bprintf buf " }%s\n" (if last then "" else ",")

(* The keyspace fields E19 and E20 share; true iff the one-round path
   engaged on every shard that served reads (from the keyed clients'
   shard.<i>.* counters). *)
let keyed_json buf c map =
  let with_reads = ref 0 and fast = ref 0 in
  for sh = 0 to Shard.Map.shards map - 1 do
    let count what =
      Obs.Metrics.counter_value c.metrics (Printf.sprintf "shard.%d.%s" sh what)
    in
    if count "reads" > 0 then begin
      incr with_reads;
      if count "fast_reads" > 0 then incr fast
    end
  done;
  Printf.bprintf buf
    ",\n      \"reads\": %d, \"fast_reads\": %d, \"writes\": %d, \
     \"keys_touched\": %d, \"sampled_keys\": %d,\n      \
     \"shards_with_reads\": %d, \"shards_fast\": %d"
    c.best.reads c.best.fast c.best.writes c.keys_touched
    (List.length c.histories)
    !with_reads !fast;
  !with_reads > 0 && !fast = !with_reads

(* Close the cell array, append the experiment's verdict [fields] (each
   ending in ",\n  ") and the totals, and write the file. *)
let finish buf ~out cells fields =
  let total f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  Printf.bprintf buf
    "  ],\n  %s\"violations_total\": %d,\n  \"partition_violations_total\": \
     %d\n}\n"
    fields
    (total (fun c -> c.violations))
    (total (fun c -> c.partition));
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
