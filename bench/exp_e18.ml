(* E18 -- multi-domain event-loop scale-out: ops/s vs worker domains.

   E15 established that a single poll domain saturates once enough
   operations are in flight; E18 measures what sharding the same server
   across N worker domains buys.  The server group (Server.start_group)
   partitions base objects -- and every connection accepted for them --
   across N domains (object i is owned by domain (i-1) mod N), so the
   read/decode/step/encode/flush path is domain-local and the only
   cross-domain traffic is the acceptor's connection handoff.

   Load comes from E18_CLIENTS in-process client domains, each driving
   its own pipelined mux (disjoint reader-id ranges, E18_INFLIGHT ops in
   flight) against the shared group, all through one Net.Cluster.run
   that starts them on one barrier.  Only the servers keep metrics
   registries: E18 reads no client metric, and observing the clients
   would cost rate.  For each domain count:

   1. throughput: total ops/s across client domains (the cell's wall is
      the slowest domain's) and per-op latency p50/p99;
   2. correctness: every op must return the seeded value; client domain
      0's operations plus the seeding write are recorded in a history
      and must pass the safety and regularity checkers (the sampled
      subset -- recording every domain would serialize them on the
      recorder lock and distort the measurement);
   3. wire efficiency: the servers' registries must show
      wire.batch_size p50 > 1 (scale-out must not destroy the sharded
      servers' frame coalescing; the clients' flushes are left out, so
      they cannot carry the verdict);
   4. partitioning: Server.partition_violations must stay 0 (no base
      object stepped outside its owning domain).

   Speedup verdicts compare the best trial at each domain count.  True
   parallel speedup needs real cores: the artifact records "cores"
   (Domain.recommended_domain_count) so a 1-core container's flat curve
   reads as what it is -- on such hosts the scaling booleans are
   expected false and the run is still a correctness pass.

   One JSON artifact: BENCH_e18.json.  Environment-tunable:
     E18_OPS       (2000)          reads per client domain per cell
     E18_DOMAINS   (1,2,4,8)       worker-domain sweep
     E18_CLIENTS   (4)             client load domains
     E18_INFLIGHT  (16)            operation window per client domain
     E18_TRIALS    (3)             trials per cell; best is reported
     E18_TRANSPORT (unix)          loopback transport: unix | tcp
     E18_OUT       (BENCH_e18.json) output path *)

let run () =
  let clients = Exp_common.getenv_int "E18_CLIENTS" 4 in
  let ops = Exp_common.getenv_int "E18_OPS" 2000 in
  let inflight = Exp_common.getenv_int "E18_INFLIGHT" 16 in
  let trials = Exp_common.getenv_int "E18_TRIALS" 3 in
  let out = Option.value (Sys.getenv_opt "E18_OUT") ~default:"BENCH_e18.json" in
  let levels =
    Exp_common.getenv_list "E18_DOMAINS" [ 1; 2; 4; 8 ]
      (Exp_common.int_at_least 1)
  in
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0 in
  let st =
    {
      Exp_fleet.name = "E18";
      transport = Exp_common.transport "E18_TRANSPORT" `Unix;
      protocol = Net.Protocols.safe;
      cfg;
      fleet = cfg.Quorum.Config.s;
      domains = 1;
      clients;
      trials;
    }
  in
  Exp_common.note
    "E18: multi-domain scale-out (%d cores; domains in {%s}; %d client \
     domains x window %d x %d ops; best of %d; %s loopback)"
    Exp_fleet.cores
    (String.concat "," (List.map string_of_int levels))
    clients inflight ops trials
    (Exp_common.transport_name st.transport);
  let buf = Buffer.create 4096 in
  Exp_fleet.header_json buf st ~experiment:"e18"
    (Printf.sprintf "\"inflight\": %d,\n  \"ops_per_client\": %d,\n  "
       inflight ops);
  let reads = Array.make ops (Net.Client.Read { key = 0 }) in
  let batch_ok_all = ref true in
  let cells =
    List.mapi
      (fun li nd ->
        (* One mux per client domain per cell, on disjoint reader-id
           ranges: base objects keep per-reader round state. *)
        let c =
          Exp_fleet.run_cell { st with domains = nd }
            ~label:(Printf.sprintf "domains=%-2d" nd)
            ~seed:(Core.Value.v "e18") ~inflight ~coalesce:1
            ~warm:(fun _ -> Array.sub reads 0 (Stdlib.min 200 ops))
            ~draw:(fun _ -> reads)
            ()
        in
        Exp_fleet.cell_json buf
          ~id:(Printf.sprintf "\"domains\": %d" nd)
          ~last:(li = List.length levels - 1)
          c
          (fun buf ->
            Printf.bprintf buf
              ",\n      \"mismatches\": %d, \"history_ops\": %d" c.mismatches
              (List.fold_left
                 (fun acc (_, h) -> acc + List.length h)
                 0 c.histories);
            match
              Obs.Metrics.find_histogram c.server_metrics "wire.batch_size"
            with
            | Some h when Obs.Metrics.Histogram.count h > 0 ->
                let p50 = Obs.Metrics.Histogram.quantile h 50. in
                if p50 <= 1. then batch_ok_all := false;
                Printf.bprintf buf
                  ",\n      \"batch_size\": { \"count\": %d, \"p50\": %g, \
                   \"p99\": %g, \"max\": %g }"
                  (Obs.Metrics.Histogram.count h)
                  p50
                  (Obs.Metrics.Histogram.quantile h 99.)
                  (Obs.Metrics.Histogram.max_exn h)
            | _ ->
                batch_ok_all := false;
                Printf.bprintf buf ",\n      \"batch_size\": null");
        (nd, c))
      levels
  in
  let verdicts = Buffer.create 256 in
  let rate k =
    Option.map
      (fun (c : Exp_fleet.cell) -> c.best.rate)
      (List.assoc_opt k cells)
  in
  let speedup k min_ratio =
    match (rate 1, rate k) with
    | Some r1, Some rk when r1 > 0. ->
        Printf.bprintf verdicts
          "\"speedup_%d_vs_1\": %.2f,\n  \"scaling_%d_vs_1_ok\": %b,\n  " k
          (rk /. r1) k
          (rk >= min_ratio *. r1)
    | _ -> ()
  in
  speedup 2 1.2;
  speedup 4 2.5;
  Printf.bprintf verdicts "\"batch_p50_gt_1_all\": %b,\n  " !batch_ok_all;
  Exp_fleet.finish buf ~out (List.map snd cells) (Buffer.contents verdicts)
