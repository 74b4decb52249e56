(* E17 -- the 1-vs-2-round separation on real sockets.

   Proposition 1 proves no robust register can serve all-fast reads
   below S = 2t+2b+1; §5.1 plus the cached/suffix variant makes reads
   one-round AT the bound.  E17 demonstrates both halves of that claim
   live: the same regular-gc protocol (cached readers, suffix replies,
   opportunistic round-1 decision gated on fast_read_admissible) runs on
   a loopback cluster at

     S = 2t+b+1    (optimal for correctness, below the fast bound:
                    every read MUST take two rounds), and
     S = 2t+2b+1   (the fast-read bound: reads decide after round 1
                    whenever the candidate set already decides).

   Per configuration it sweeps write contention — a writer thread issues
   W concurrent writes while the reader runs E17_READS reads — and
   reports rounds-per-read (from the automaton-reported outcome.rounds),
   the op.fast_reads / op.fallback_rounds counter pair, read p50/p99,
   and full safety/regularity checking of the recorded history.

   Expected shape: rounds_per_read = 2.000 exactly at S = 2t+b+1 at
   every contention level (the gate never opens), ~1.0 at S = 2t+2b+1
   under low contention, drifting toward 2 only as fallbacks appear.
   Violations must be 0 everywhere — the fast path is opportunistic,
   never speculative.

   One JSON artifact: BENCH_e17.json.  Environment-tunable:
     E17_READS        (400)            reads per cell
     E17_WRITE_LEVELS (0,8,32)         concurrent writes during the reads
     E17_T, E17_B     (1, 1)           resilience budget
     E17_TRANSPORT    (unix)           loopback transport: unix | tcp
     E17_OUT          (BENCH_e17.json) output path *)

let ok_exn what = function
  | Ok o -> o
  | Error e ->
      Printf.eprintf "E17: %s failed: %s\n" what e;
      exit 1

let quantile_or_zero h p =
  match h with
  | Some h when Obs.Metrics.Histogram.count h > 0 ->
      Obs.Metrics.Histogram.quantile h p
  | _ -> 0.

(* One cell: a fresh cluster (clean history and registry), an initial
   write plus a cache-warming read, then [reads] measured reads with
   [writes] concurrent writes racing them from a second thread. *)
let run_cell ~transport ~cfg ~reads ~writes =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let cluster =
    Net.Cluster.start ~metrics:true ~transport ~protocol ~cfg ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop cluster)
    (fun () ->
      let _ = ok_exn "initial write" (Net.Cluster.write cluster (Core.Value.v "e17.v0")) in
      let _ = ok_exn "warm read" (Net.Cluster.read cluster ~reader:1) in
      let writer =
        if writes = 0 then None
        else
          Some
            (Thread.create
               (fun () ->
                 for i = 1 to writes do
                   (match
                      Net.Cluster.write cluster
                        (Core.Value.v (Printf.sprintf "e17.v%d" i))
                    with
                   | Ok _ -> ()
                   | Error e ->
                       Printf.eprintf "E17: concurrent write %d failed: %s\n" i e;
                       exit 1);
                   (* spread the writes across the read window so
                      contention is sustained, not front-loaded *)
                   Thread.delay 0.001
                 done)
               ())
      in
      let round_sum = ref 0 in
      let min_rounds = ref max_int in
      let max_rounds = ref 0 in
      for i = 1 to reads do
        let o =
          ok_exn (Printf.sprintf "read %d" i) (Net.Cluster.read cluster ~reader:1)
        in
        round_sum := !round_sum + o.Net.Client.rounds;
        if o.Net.Client.rounds < !min_rounds then min_rounds := o.Net.Client.rounds;
        if o.Net.Client.rounds > !max_rounds then max_rounds := o.Net.Client.rounds
      done;
      (match writer with Some th -> Thread.join th | None -> ());
      let history = Net.Cluster.history cluster in
      let violations =
        (if Histories.Checks.is_safe ~equal:String.equal history then 0 else 1)
        + if Histories.Checks.is_regular ~equal:String.equal history then 0
          else 1
      in
      let reg = Option.get (Net.Cluster.metrics cluster) in
      let lat = Obs.Metrics.find_histogram reg "op.read.latency_us" in
      ( float_of_int !round_sum /. float_of_int reads,
        !min_rounds,
        !max_rounds,
        Obs.Metrics.counter_value reg "op.fast_reads",
        Obs.Metrics.counter_value reg "op.fallback_rounds",
        quantile_or_zero lat 50.,
        quantile_or_zero lat 99.,
        violations ))

let run () =
  let reads = Exp_common.getenv_int "E17_READS" 400 in
  let t = Exp_common.getenv_int "E17_T" 1 in
  let b = Exp_common.getenv_int "E17_B" 1 in
  let out = Option.value (Sys.getenv_opt "E17_OUT") ~default:"BENCH_e17.json" in
  let levels =
    Exp_common.getenv_list "E17_WRITE_LEVELS" [ 0; 8; 32 ]
      (Exp_common.int_at_least 0)
  in
  let transport = Exp_common.transport "E17_TRANSPORT" `Unix in
  let transport_name = Exp_common.transport_name transport in
  let s_slow = (2 * t) + b + 1 in
  let s_fast = (2 * t) + (2 * b) + 1 in
  Exp_common.note
    "E17: fast-read separation (regular-gc, S=%d vs S=%d, t=%d b=%d, %d \
     reads/cell, %s loopback)"
    s_slow s_fast t b reads transport_name;
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"experiment\": \"e17\",\n  \"protocol\": \"regular-gc\",\n  \
     \"transport\": \"%s\",\n  \"t\": %d, \"b\": %d,\n  \"reads\": %d,\n  \
     \"configs\": [\n"
    transport_name t b reads;
  (* (fast-config uncontended rpr, slow-config worst min/max rounds) *)
  let fast_uncontended_rpr = ref nan in
  let slow_all_two = ref true in
  let total_violations = ref 0 in
  List.iteri
    (fun si s ->
      let cfg = Quorum.Config.make_exn ~s ~t ~b in
      let admissible = Quorum.Config.fast_read_admissible cfg in
      Printf.bprintf buf
        "    { \"s\": %d, \"fast_admissible\": %b,\n      \"cells\": [\n" s
        admissible;
      List.iteri
        (fun li writes ->
          let rpr, rmin, rmax, fast, fallback, p50, p99, violations =
            run_cell ~transport ~cfg ~reads ~writes
          in
          total_violations := !total_violations + violations;
          if admissible && writes = 0 then fast_uncontended_rpr := rpr;
          if (not admissible) && (rmin <> 2 || rmax <> 2) then
            slow_all_two := false;
          Exp_common.note
            "  S=%d writes=%-3d rounds/read=%.3f (min=%d max=%d) fast=%d \
             fallback=%d  p50=%.0fus p99=%.0fus  violations=%d"
            s writes rpr rmin rmax fast fallback p50 p99 violations;
          Printf.bprintf buf
            "        { \"concurrent_writes\": %d, \"reads\": %d,\n\
            \          \"rounds_per_read\": %.3f, \"min_rounds\": %d, \
             \"max_rounds\": %d,\n\
            \          \"fast_reads\": %d, \"fallback_rounds\": %d,\n\
            \          \"read_p50_us\": %.0f, \"read_p99_us\": %.0f, \
             \"violations\": %d }%s\n"
            writes reads rpr rmin rmax fast fallback p50 p99 violations
            (if li = List.length levels - 1 then "" else ","))
        levels;
      Printf.bprintf buf "      ] }%s\n"
        (if si = 1 then "" else ","))
    [ s_slow; s_fast ];
  (* CI-grepable verdicts: the fast config must average strictly under 2
     rounds uncontended (in practice ~1.0), the slow config must never
     leave 2, and no history may violate safety or regularity. *)
  Printf.bprintf buf
    "  ],\n  \"fast_engaged\": %b,\n  \"slow_always_two_rounds\": %b,\n  \
     \"total_violations\": %d\n}\n"
    (!fast_uncontended_rpr < 2.0)
    !slow_all_two !total_violations;
  Obs.Export.write_file ~path:out (Buffer.contents buf);
  Exp_common.note "wrote %s" out
