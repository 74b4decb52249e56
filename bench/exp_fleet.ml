(* The cell runner behind the socket scale-out experiments (E18, E19,
   E20).  A cell is one Net.Cluster: Cluster.run drives one client
   engine per load domain from one barrier and records client domain 0
   (recording every domain would serialize them on the record's lock
   and distort the measurement); this module tallies each timed pass
   and checks each recorded key's history with the paper's
   single-register checkers.  Each experiment keeps its own knobs,
   sweep, cell fields and verdicts. *)

type setup = {
  name : string;  (* experiment label, e.g. "E19": messages *)
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
  server_metrics : Obs.Metrics.t;  (* the servers' registries alone *)
}

let cores = Domain.recommended_domain_count ()

(* Run one cell on a cluster serving [map] (default: the single
   register).  [warm c] and [draw c] are client domain [c]'s untimed
   warmup ops and each trial's ops, run [inflight] deep with reads
   coalesced up to [coalesce].  With [seed], the cluster's writer first
   writes it (recorded) and every read must return it.  [sample] picks
   the recorded keys ({!Net.Cluster.start}).  A cell reads no span, and
   only a keyed cell reads client metrics (per-shard and coalescing
   counters), so a single-register cell's clients keep none: observing
   them costs rate. *)
let run_cell st ~label ?seed ?sample ?map ~inflight ~coalesce ~warm ~draw () =
  let cluster =
    Net.Cluster.start ~metrics:true
      ~observe_clients:(if map = None then `Off else `Metrics)
      ~transport:st.transport
      ~domains:st.domains ?sample ?map ~protocol:st.protocol ~cfg:st.cfg
      ~readers:0 ()
  in
  Option.iter
    (fun value ->
      match Net.Cluster.write cluster value with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "%s: seed write failed: %s\n" st.name e;
          exit 1)
    seed;
  let pass ops =
    Net.Cluster.run ~inflight ~coalesce cluster (Array.init st.clients ops)
  in
  (* untimed warmup: connections, hellos, first automaton steps *)
  ignore (pass warm);
  let failures = ref 0 and mismatches = ref 0 in
  let best =
    ref
      { ops = 0; wall = 0.; rate = 0.; lat = Stats.Summary.create ();
        reads = 0; fast = 0; writes = 0 }
  in
  for trial = 1 to st.trials do
    let passes = pass draw in
    let wall =
      Array.fold_left (fun m p -> Float.max m p.Net.Cluster.wall_s) 0. passes
    in
    let lat = Stats.Summary.create () in
    let ops = ref 0 and reads = ref 0 and fast = ref 0 and writes = ref 0 in
    Array.iter
      (fun (p : Net.Cluster.pass) ->
        ops := !ops + Array.length p.results;
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
          p.results)
      passes;
    let rate = float_of_int !ops /. wall in
    Exp_common.note
      "  %s trial=%d  %8.0f ops/s  p50=%.0fus p99=%.0fus  fast %d/%d reads"
      label trial rate
      (Stats.Summary.percentile lat 50.)
      (Stats.Summary.percentile lat 99.)
      !fast !reads;
    if rate > !best.rate then
      best :=
        { ops = !ops; wall; rate; lat; reads = !reads; fast = !fast;
          writes = !writes }
  done;
  Net.Cluster.stop cluster;
  let histories = Net.Cluster.histories cluster in
  let bad ok = if ok then 0 else 1 in
  let violations =
    List.fold_left
      (fun acc (_, h) ->
        acc
        + bad (Histories.Checks.is_safe ~equal:String.equal h)
        + bad (Histories.Checks.is_regular ~equal:String.equal h))
      0 histories
  in
  {
    best = !best;
    failures = !failures;
    mismatches = !mismatches;
    histories;
    violations;
    partition = Net.Cluster.partition_violations cluster;
    keys_touched = Net.Cluster.keys_touched cluster;
    metrics = Option.get (Net.Cluster.metrics cluster);
    server_metrics = Option.get (Net.Cluster.server_metrics cluster);
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

(* E19's and E20's keyspace cell: regular-gc keyed clients (disjoint
   write ownership, so every key stays SWMR) on a zipf op mix.  Client
   domain 0 records the keys IT OWNS (so every write to a recorded key
   is in its history) with ids below [sample_bound] (where zipf
   concentrates the traffic).  The warmup is reads only. *)
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
      ~map ~inflight ~coalesce
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
