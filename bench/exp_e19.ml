(* E19 -- sharded multi-register keyspace: ops/s and latency vs key
   count and popularity skew.

   E18 scaled ONE register's server across worker domains; E19 scales
   the register COUNT.  A Shard.Map places a key universe over a fleet
   of base-object servers (each key's shard is S = 2t+b+1 rotation-
   placed fleet slots, recomputed identically by every client and
   domain -- no placement service), the wire protocol carries a varint
   key tag on every frame (Msg_key), servers keep per-key object tables
   inside the same multi-domain poll group, and each client drives
   per-key reader/writer automata through one keyed mux over one
   connection per fleet server.

   Load is E19_CLIENTS client domains, each with its own keyed mux
   (distinct reader id, disjoint write ownership: client c writes only
   keys with mix(key) mod clients = c -- the registers are SWMR), all
   released from an atomic barrier per timed pass.  The op mix is the
   Workload.Keyspace zipfian generator.  For each cell
   (key count x skew):

   1. throughput: total ops/s across client domains, per-op latency
      p50/p99 (reads and writes pooled, reads dominating per the write
      ratio);
   2. correctness: client domain 0 records every operation on a sampled
      key subset (keys it owns, id < E19_SAMPLE) into per-key histories;
      each must pass the single-register safety AND regularity checkers
      -- a key is exactly the paper's register, so the per-key check is
      the whole correctness argument;
   3. fast reads: the per-shard shard.<i>.fast_reads counters must show
      the one-round path engaging on every shard that served reads (the
      cell runs regular-gc at S = 2t+2b+1, where the lower bound admits
      fast reads);
   4. partitioning: Server.partition_violations must stay 0 -- per-key
      tables nest inside the per-domain object partition, so the PR 8
      invariant carries over to keyspaces unchanged.

   One JSON artifact: BENCH_e19.json.  Environment-tunable:
     E19_OPS         (3000)            ops per client domain per cell
     E19_KEYS        (1000,10000,100000,1000000)  key-count sweep
     E19_SKEWS       (0,0.99)          zipf skew sweep (0 = uniform)
     E19_CLIENTS     (2)               client load domains
     E19_INFLIGHT    (16)              operation window per client domain
     E19_DOMAINS     (2)               server worker domains
     E19_FLEET       (4)               fleet size (>= S = 3)
     E19_WRITE_RATIO (0.05)            write fraction of the mix
     E19_SAMPLE      (128)             history-sampled key-id bound
     E19_TRIALS      (2)               trials per cell; best is reported
     E19_TRANSPORT   (unix)            loopback transport: unix | tcp
     E19_OUT         (BENCH_e19.json)  output path *)

let run () =
  let ops = Exp_common.getenv_int "E19_OPS" 3000 in
  let inflight = Exp_common.getenv_int "E19_INFLIGHT" 16 in
  let write_ratio = Exp_common.getenv_float "E19_WRITE_RATIO" 0.05 in
  let sample_bound = Exp_common.getenv_int "E19_SAMPLE" 128 in
  let out = Option.value (Sys.getenv_opt "E19_OUT") ~default:"BENCH_e19.json" in
  let key_levels =
    Exp_common.getenv_list "E19_KEYS"
      [ 1_000; 10_000; 100_000; 1_000_000 ]
      (Exp_common.int_at_least 1)
  in
  let skews =
    Exp_common.getenv_list "E19_SKEWS" [ 0.0; 0.99 ] (fun s ->
        match float_of_string_opt s with
        | Some f when f >= 0.0 && f < 1.0 -> Some f
        | _ -> None)
  in
  let st = Exp_fleet.keyed_setup "E19" in
  Exp_common.note
    "E19: keyspace scale (%d cores; keys in {%s}; skews {%s}; fleet %d, %d \
     server domains; %d client domains x window %d x %d ops; write ratio \
     %.2f; best of %d; %s loopback)"
    Exp_fleet.cores
    (String.concat "," (List.map string_of_int key_levels))
    (String.concat "," (List.map (Printf.sprintf "%g") skews))
    st.fleet st.domains st.clients inflight ops write_ratio st.trials
    (Exp_common.transport_name st.transport);
  let buf = Buffer.create 8192 in
  Exp_fleet.header_json buf st ~experiment:"e19"
    (Printf.sprintf
       "\"fleet\": %d,\n  \"server_domains\": %d,\n  \"inflight\": %d,\n  \
        \"ops_per_client\": %d,\n  \"write_ratio\": %g,\n  "
       st.fleet st.domains inflight ops write_ratio);
  let fast_all = ref true in
  let cells =
    List.concat_map (fun k -> List.map (fun z -> (k, z)) skews) key_levels
  in
  let cells =
    List.mapi
      (fun ci (keys, skew) ->
        (* coalescing stays off in E19 (E20 measures it) *)
        let c, map =
          Exp_fleet.keyed_cell st
            ~label:(Printf.sprintf "keys=%-8d skew=%-4g" keys skew)
            ~keys ~skew ~write_ratio ~sample_bound
            ~seed:(42 + (1_000 * ci))
            ~ops ~inflight ~coalesce:1
        in
        Exp_fleet.cell_json buf
          ~id:(Printf.sprintf "\"keys\": %d, \"skew\": %g" keys skew)
          ~last:(ci = List.length cells - 1)
          c
          (fun buf ->
            if not (Exp_fleet.keyed_json buf c map) then fast_all := false;
            match
              Obs.Metrics.find_histogram c.metrics "wire.bytes_per_frame"
            with
            | Some h when Obs.Metrics.Histogram.count h > 0 ->
                Printf.bprintf buf
                  ",\n      \"bytes_per_frame\": { \"count\": %d, \"p50\": \
                   %g, \"p99\": %g, \"mean\": %.1f }"
                  (Obs.Metrics.Histogram.count h)
                  (Obs.Metrics.Histogram.quantile h 50.)
                  (Obs.Metrics.Histogram.quantile h 99.)
                  (Obs.Metrics.Histogram.mean h)
            | _ -> Printf.bprintf buf ",\n      \"bytes_per_frame\": null");
        c)
      cells
  in
  Exp_fleet.finish buf ~out cells
    (Printf.sprintf "\"fast_reads_all_shards\": %b,\n  " !fast_all)
