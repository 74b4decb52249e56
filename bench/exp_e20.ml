(* E20 -- hot-key read coalescing: ops/s and latency vs popularity skew
   with coalescing off/on.

   E19 showed skew HURTS: a hot key serializes its reads behind one
   per-key automaton, so the hotter the keyspace the longer the queue.
   PR 10's coalescing inverts that: reads that arrive while a round-1
   broadcast for the same key is still being assembled join that round
   and adopt its result, so a hot key amortizes one quorum round over
   many logical reads.  E20 measures exactly that inversion on a small
   hot keyspace: for each skew in {0, 0.9, 0.99, 1.2} run the same
   workload with --coalesce off (cap 1) and on (cap E20_COALESCE),
   and report per-cell:

   1. throughput: total ops/s across client domains, latency p50/p99;
   2. coalescing: op.coalesced_reads and the op.coalesce_width
      histogram (observed once per batch member, so p50 > 1 means most
      reads shared a round) -- present only in on-cells;
   3. correctness: client domain 0 records a sampled key subset
      (including the hot keys, where coalescing concentrates) into
      per-key histories; each must pass the single-register safety AND
      regularity checkers.  Joined reads record under fresh reader ids
      so the histories genuinely contain the concurrent-read structure
      coalescing creates;
   4. fast reads: the cell runs regular-gc at S = 3 = 2t+2b+1, so the
      one-round path must engage on every shard that served reads --
      coalescing and fast reads compose (a width-k batch is one
      one-round RPC serving k reads);
   5. partitioning: Server.partition_violations must stay 0.

   Verdict fields: "width_p50_gt_1" (every on-cell at skew >= 0.9 has
   coalesce-width p50 above its lowest bucket), "speedup_0_99" (on/off
   ops/s ratio at skew 0.99; the roadmap gate is >= 1.3), and
   "skew_helps" (with coalescing on, the best skewed cell beats the
   uniform cell -- the E19 trend inverted).

   One JSON artifact: BENCH_e20.json.  Environment-tunable:
     E20_OPS         (3000)            ops per client domain per cell
     E20_KEYS        (256)             key universe (small and hot)
     E20_SKEWS       (0,0.9,0.99,1.2)  zipf skew sweep
     E20_COALESCE    (64)              batch cap in the on-cells
     E20_CLIENTS     (2)               client load domains
     E20_INFLIGHT    (64)              operation window per client domain
     E20_DOMAINS     (2)               server worker domains
     E20_FLEET       (4)               fleet size (>= S = 3)
     E20_WRITE_RATIO (0.04)            write fraction of the mix
     E20_SAMPLE      (128)             history-sampled key-id bound
     E20_TRIALS      (2)               trials per cell; best is reported
     E20_TRANSPORT   (unix)            loopback transport: unix | tcp
     E20_OUT         (BENCH_e20.json)  output path *)

let run () =
  let ops = Exp_common.getenv_int "E20_OPS" 3000 in
  let keys = Exp_common.getenv_int "E20_KEYS" 256 in
  let coalesce_on = Exp_common.getenv_int "E20_COALESCE" 64 in
  let inflight = Exp_common.getenv_int "E20_INFLIGHT" 64 in
  let write_ratio = Exp_common.getenv_float "E20_WRITE_RATIO" 0.04 in
  let sample_bound = Exp_common.getenv_int "E20_SAMPLE" 128 in
  let out = Option.value (Sys.getenv_opt "E20_OUT") ~default:"BENCH_e20.json" in
  let skews =
    Exp_common.getenv_list "E20_SKEWS" [ 0.0; 0.9; 0.99; 1.2 ] (fun s ->
        match float_of_string_opt s with
        | Some f when f >= 0.0 && Float.is_finite f -> Some f
        | _ -> None)
  in
  let st = Exp_fleet.keyed_setup "E20" in
  Exp_common.note
    "E20: hot-key coalescing (%d cores; %d keys; skews {%s}; coalesce \
     {off,%d}; fleet %d, %d server domains; %d client domains x window %d x \
     %d ops; write ratio %.2f; best of %d; %s loopback)"
    Exp_fleet.cores keys
    (String.concat "," (List.map (Printf.sprintf "%g") skews))
    coalesce_on st.fleet st.domains st.clients inflight ops write_ratio
    st.trials
    (Exp_common.transport_name st.transport);
  let buf = Buffer.create 8192 in
  Exp_fleet.header_json buf st ~experiment:"e20"
    (Printf.sprintf
       "\"fleet\": %d,\n  \"server_domains\": %d,\n  \"inflight\": %d,\n  \
        \"ops_per_client\": %d,\n  \"keys\": %d,\n  \"coalesce_cap\": %d,\n  \
        \"write_ratio\": %g,\n  "
       st.fleet st.domains inflight ops keys coalesce_on write_ratio);
  let fast_all = ref true in
  (* (skew, coalesce cap, ops/s, coalesce-width p50 if observed) per
     cell, for the verdict fields. *)
  let outcomes = ref [] in
  let cells =
    List.concat_map (fun z -> [ (z, 1); (z, coalesce_on) ]) skews
  in
  let cells =
    List.mapi
      (fun ci (skew, coalesce) ->
        (* In on-cells the recorded histories contain genuinely
           concurrent joined reads, each under a fresh reader id. *)
        let c, map =
          Exp_fleet.keyed_cell st
            ~label:(Printf.sprintf "skew=%-4g coalesce=%-3d" skew coalesce)
            ~keys ~skew ~write_ratio ~sample_bound
            ~seed:(42 + (1_000 * ci))
            ~ops ~inflight ~coalesce
        in
        let width =
          match Obs.Metrics.find_histogram c.metrics "op.coalesce_width" with
          | Some h when Obs.Metrics.Histogram.count h > 0 -> Some h
          | _ -> None
        in
        outcomes :=
          ( skew,
            coalesce,
            c.best.rate,
            Option.map (fun h -> Obs.Metrics.Histogram.quantile h 50.) width )
          :: !outcomes;
        Exp_fleet.cell_json buf
          ~id:(Printf.sprintf "\"skew\": %g, \"coalesce\": %d" skew coalesce)
          ~last:(ci = List.length cells - 1)
          c
          (fun buf ->
            if not (Exp_fleet.keyed_json buf c map) then fast_all := false;
            Printf.bprintf buf ",\n      \"coalesced_reads\": %d, "
              (Obs.Metrics.counter_value c.metrics "op.coalesced_reads");
            match width with
            | Some h ->
                Printf.bprintf buf
                  "\"coalesce_width\": { \"count\": %d, \"p50\": %g, \
                   \"p99\": %g, \"mean\": %.2f }"
                  (Obs.Metrics.Histogram.count h)
                  (Obs.Metrics.Histogram.quantile h 50.)
                  (Obs.Metrics.Histogram.quantile h 99.)
                  (Obs.Metrics.Histogram.mean h)
            | None -> Printf.bprintf buf "\"coalesce_width\": null");
        c)
      cells
  in
  (* Verdicts. *)
  let outcomes = !outcomes in
  let rate_at skew coalesce =
    List.find_map
      (fun (z, c, r, _) -> if z = skew && c = coalesce then Some r else None)
      outcomes
  in
  let hot_on =
    List.filter (fun (z, c, _, _) -> z >= 0.9 && c > 1) outcomes
  in
  let width_p50_gt_1 =
    hot_on <> []
    && List.for_all
         (fun (_, _, _, p) -> match p with Some p -> p > 1.0 | None -> false)
         hot_on
  in
  let speedup =
    match (rate_at 0.99 coalesce_on, rate_at 0.99 1) with
    | Some on, Some off when off > 0.0 ->
        Printf.sprintf
          "\"speedup_0_99\": %.3f,\n  \"speedup_0_99_ok\": %b,\n  "
          (on /. off)
          (on /. off >= 1.3)
    | _ -> "\"speedup_0_99\": null,\n  \"speedup_0_99_ok\": null,\n  "
  in
  let skew_helps =
    match rate_at 0.0 coalesce_on with
    | None -> false
    | Some uniform ->
        List.exists (fun (z, c, r, _) -> z > 0.0 && c > 1 && r >= uniform)
          outcomes
  in
  Exp_fleet.finish buf ~out cells
    (Printf.sprintf
       "\"width_p50_gt_1\": %b,\n  %s\"skew_helps\": %b,\n  \
        \"fast_reads_all_shards\": %b,\n  "
       width_p50_gt_1 speedup skew_helps !fast_all)
