(* Live-cluster integration tests: real sockets, real threads.

   The acceptance bar (ISSUE 4): a loopback cluster at S = 4 (t = 1,
   b = 0) completes 1000 READs with zero failures while one server is
   crashed partway through and restarted later, and the spans/metrics it
   emits flow through the existing exporters.

   These tests use Unix-domain sockets in a private tmpdir, so they are
   free of port collisions and run in well under a second each. *)

let cfg4 = Quorum.Config.make_exn ~s:4 ~t:1 ~b:0

let value_of (o : Net.Client.outcome) =
  match o.value with
  | Some v -> Core.Value.to_string v
  | None -> "<none>"

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* [n] reads of the single register, for [Net.Cluster.run]. *)
let reads n = Array.make n (Net.Client.Read { key = 0 })

(* One client's results from [Net.Cluster.run]. *)
let run1 ?inflight c ops = (Net.Cluster.run ?inflight c [| ops |]).(0).results

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ----- basic write/read over every packed protocol ---------------------- *)

let roundtrip_all_protocols () =
  List.iter
    (fun protocol ->
      let name = Net.Protocols.name protocol in
      let c = Net.Cluster.start ~protocol ~cfg:cfg4 ~readers:1 () in
      Fun.protect
        ~finally:(fun () -> Net.Cluster.stop c)
        (fun () ->
          let _ = ok_exn (name ^ " write") (Net.Cluster.write c (Core.Value.v "x1")) in
          let o = ok_exn (name ^ " read") (Net.Cluster.read c ~reader:1) in
          Alcotest.(check string) (name ^ " reads the write") "x1" (value_of o)))
    Net.Protocols.all

let fast_read_is_one_round () =
  (* S = 4 > 2t + 2b with b = 0: the safe protocol's fast path applies,
     and over a quiet network a READ really is a single round trip. *)
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers:1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "v")) in
      let o = ok_exn "read" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check int) "reported rounds" 1 o.rounds)

(* ----- the 1000-READ crash/restart acceptance run ----------------------- *)

let acceptance_1000_reads () =
  let c =
    Net.Cluster.start ~metrics:true ~protocol:Net.Protocols.safe ~cfg:cfg4
      ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "durable")) in
      let failures = ref 0 in
      for k = 1 to 1000 do
        if k = 250 then Net.Cluster.crash c 3;
        if k = 750 then Net.Cluster.restart_exn c 3;
        match Net.Cluster.read c ~reader:1 with
        | Ok o ->
            if value_of o <> "durable" then begin
              incr failures;
              Format.eprintf "read %d returned %s@." k (value_of o)
            end
        | Error e ->
            incr failures;
            Format.eprintf "read %d failed: %s@." k e
      done;
      Alcotest.(check int) "zero failed reads across crash+restart" 0 !failures;
      Alcotest.(check (list int)) "all servers back up" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      (* the history is a real one: 1 write + 1000 reads, all safe *)
      let history = Net.Cluster.history c in
      Alcotest.(check int) "ops recorded" 1001 (List.length history);
      Alcotest.(check bool) "history safe" true
        (Histories.Checks.is_safe ~equal:String.equal history);
      Alcotest.(check bool) "history regular" true
        (Histories.Checks.is_regular ~equal:String.equal history);
      (* spans flow through the standard exporter, one line per op *)
      let spans = Net.Cluster.spans c in
      Alcotest.(check int) "all spans completed" 1001
        (List.length (List.filter Obs.Span.completed spans));
      let jsonl = Obs.Export.spans_jsonl spans in
      Alcotest.(check int) "one JSONL line per span" 1001
        (List.length
           (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)));
      (* merged metrics carry the op.* families the simulator uses *)
      match Net.Cluster.metrics c with
      | None -> Alcotest.fail "metrics requested but absent"
      | Some reg ->
          let table = Stats.Table.to_string (Obs.Metrics.table reg) in
          List.iter
            (fun needle ->
              if not (contains table needle) then
                Alcotest.failf "metric %s missing from:@.%s" needle table)
            [ "op.read.completed"; "op.read.rounds"; "op.write.completed" ])

(* ----- crash semantics --------------------------------------------------- *)

let reads_survive_crashed_minority () =
  let c = Net.Cluster.start ~protocol:Net.Protocols.regular ~cfg:cfg4 ~readers:1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "a")) in
      Net.Cluster.crash c 1;
      Alcotest.(check (list int)) "one down" [ 2; 3; 4 ] (Net.Cluster.alive c);
      let o = ok_exn "read with s1 down" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check string) "value survives the crash" "a" (value_of o);
      (* writes too: the writer only ever waits for S - t acks *)
      let _ = ok_exn "write with s1 down" (Net.Cluster.write c (Core.Value.v "b")) in
      let o = ok_exn "read sees it" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check string) "newest value" "b" (value_of o))

let wiped_restart_is_tolerated () =
  (* a replica that loses its disk is just another failure the quorum
     absorbs: reads still return the last written value *)
  let c = Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers:1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "keep")) in
      Net.Cluster.crash c 2;
      Net.Cluster.restart_exn ~wipe:true c 2;
      let o = ok_exn "read after wiped restart" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check string) "value survives the wipe" "keep" (value_of o))

(* ----- Byzantine-silent endpoint ----------------------------------------- *)

(* A listener that accepts connections and never answers a byte: the
   loudest kind of silence a Byzantine object can produce without
   forging.  Clients must complete operations without it. *)
let silent_listener () =
  let fd, ep =
    Net.Endpoint.listen (Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
  in
  let stop = Atomic.make false in
  let conns = ref [] in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ fd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept fd with
              | c, _ -> conns := c :: !conns
              | exception Unix.Unix_error _ -> ())
        done)
      ()
  in
  let cleanup () =
    Atomic.set stop true;
    Thread.join t;
    List.iter (fun c -> try Unix.close c with Unix.Unix_error _ -> ()) !conns;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (ep, cleanup)

let byzantine_silent_endpoint () =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let protocol = Net.Protocols.safe in
  let servers =
    Array.to_list
      (Net.Server.start_group ~protocol ~cfg
         (Array.init 3 (fun _ ->
              Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })))
  in
  let silent_ep, silent_cleanup = silent_listener () in
  Fun.protect
    ~finally:(fun () ->
      silent_cleanup ();
      List.iter Net.Server.stop servers)
    (fun () ->
      let endpoints =
        Array.of_list (List.map Net.Server.endpoint servers @ [ silent_ep ])
      in
      let writer =
        Net.Client.connect ~protocol ~cfg ~role:`Writer endpoints
      in
      let reader =
        Net.Client.connect ~protocol ~cfg ~role:(`Reader 1) endpoints
      in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close writer;
          Net.Client.close reader)
        (fun () ->
          let _ =
            ok_exn "write despite silent object"
              (Net.Client.write writer (Core.Value.v "loud"))
          in
          let o =
            ok_exn "read despite silent object" (Net.Client.read reader)
          in
          Alcotest.(check string) "correct value" "loud"
            (match o.value with Some v -> Core.Value.to_string v | None -> "?")))

(* ----- failure reporting ------------------------------------------------- *)

let too_many_failures_times_out () =
  (* crash beyond t: operations must fail with a clean timeout error,
     not hang or raise *)
  let opts = { Net.Client.deadline = 0.05; retries = 1; backoff = 0.01 } in
  let c = Net.Cluster.start ~opts ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers:1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "v")) in
      Net.Cluster.crash c 1;
      Net.Cluster.crash c 2;
      (* quorum is S - t = 3; only 2 objects remain *)
      match Net.Cluster.read c ~reader:1 with
      | Ok o -> Alcotest.failf "read completed (%s) with 2 of 4 objects" (value_of o)
      | Error e ->
          Alcotest.(check bool) "error mentions the timeout" true
            (contains e "timed out");
          (* the cluster recovers once the objects come back *)
          Net.Cluster.restart_exn c 1;
          Net.Cluster.restart_exn c 2;
          let o = ok_exn "read after recovery" (Net.Cluster.read c ~reader:1) in
          Alcotest.(check string) "resumed op still returns the value" "v"
            (value_of o))

(* ----- concurrency ------------------------------------------------------- *)

let concurrent_readers_are_safe () =
  let readers = 3 in
  let per_reader = 30 in
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "w0")) in
      let failures = Atomic.make 0 in
      let body j () =
        for _ = 1 to per_reader do
          match Net.Cluster.read c ~reader:j with
          | Ok _ -> ()
          | Error _ -> Atomic.incr failures
        done
      in
      let threads =
        List.init readers (fun j -> Thread.create (body (j + 1)) ())
      in
      (* writes race the reads from the main thread *)
      for i = 1 to 5 do
        match Net.Cluster.write c (Core.Value.v (Printf.sprintf "w%d" i)) with
        | Ok _ -> ()
        | Error _ -> Atomic.incr failures
      done;
      List.iter Thread.join threads;
      Alcotest.(check int) "no failed operations" 0 (Atomic.get failures);
      let history = Net.Cluster.history c in
      Alcotest.(check int) "all ops recorded"
        (1 + 5 + (readers * per_reader))
        (List.length history);
      Alcotest.(check bool) "concurrent live history is safe" true
        (Histories.Checks.is_safe ~equal:String.equal history))

(* ----- pipelined reads (ISSUE 5) ----------------------------------------- *)

let pipelined_chaos_zero_failures () =
  (* max_inflight = 16 across a server crash and restart, the crash
     landing mid-batch from another thread: every op must complete and
     the recorded history (with its real concurrency) must check out. *)
  let c =
    Net.Cluster.start ~metrics:true ~protocol:Net.Protocols.safe ~cfg:cfg4
      ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "durable")) in
      let failures = ref 0 in
      let run n =
        run1 c ~inflight:16 (reads n)
        |> Array.iteri (fun k -> function
             | Ok o ->
                 if value_of o <> "durable" then begin
                   incr failures;
                   Format.eprintf "pipelined read %d returned %s@." k
                     (value_of o)
                 end
             | Error e ->
                 incr failures;
                 Format.eprintf "pipelined read %d failed: %s@." k e)
      in
      let chaos =
        Thread.create
          (fun () ->
            Thread.delay 0.005;
            Net.Cluster.crash c 3;
            Thread.delay 0.05;
            Net.Cluster.restart_exn c 3)
          ()
      in
      run 600;
      Thread.join chaos;
      (* and a batch with the full quorum back *)
      run 100;
      Alcotest.(check int) "zero failed pipelined ops" 0 !failures;
      Alcotest.(check (list int)) "all servers back up" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      let history = Net.Cluster.history c in
      Alcotest.(check int) "ops recorded" 701 (List.length history);
      Alcotest.(check bool) "pipelined history safe" true
        (Histories.Checks.is_safe ~equal:String.equal history);
      Alcotest.(check bool) "pipelined history regular" true
        (Histories.Checks.is_regular ~equal:String.equal history);
      match Net.Cluster.metrics c with
      | None -> Alcotest.fail "metrics requested but absent"
      | Some reg ->
          let table = Stats.Table.to_string (Obs.Metrics.table reg) in
          List.iter
            (fun needle ->
              if not (contains table needle) then
                Alcotest.failf "metric %s missing from:@.%s" needle table)
            [ "wire.batch_size"; "wire.flush_us"; "op.read.completed" ])

let pipelined_byzantine_silent () =
  (* one Byzantine-silent endpoint, 16 ops in flight: the window must
     not let the mute object starve any of them *)
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let protocol = Net.Protocols.safe in
  let servers =
    Array.to_list
      (Net.Server.start_group ~protocol ~cfg
         (Array.init 3 (fun _ ->
              Net.Endpoint.Tcp { host = "127.0.0.1"; port = 0 })))
  in
  let silent_ep, silent_cleanup = silent_listener () in
  Fun.protect
    ~finally:(fun () ->
      silent_cleanup ();
      List.iter Net.Server.stop servers)
    (fun () ->
      let endpoints =
        Array.of_list (List.map Net.Server.endpoint servers @ [ silent_ep ])
      in
      let writer = Net.Client.connect ~protocol ~cfg ~role:`Writer endpoints in
      let mux =
        Net.Client.Mux.connect ~protocol ~cfg ~readers:16 ~max_inflight:16
          endpoints
      in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close writer;
          Net.Client.Mux.close mux)
        (fun () ->
          let _ =
            ok_exn "write despite silent object"
              (Net.Client.write writer (Core.Value.v "loud"))
          in
          let results = Net.Client.Mux.run_reads mux 200 in
          let failures = ref 0 in
          Array.iter
            (function
              | Ok o ->
                  if
                    (match o.Net.Client.value with
                    | Some v -> Core.Value.to_string v
                    | None -> "?")
                    <> "loud"
                  then incr failures
              | Error _ -> incr failures)
            results;
          Alcotest.(check int) "zero failed ops despite silent endpoint" 0
            !failures))

let pipelined_matches_serial () =
  (* same cluster, same value: the pipelined path must return exactly
     what the serial client returns, op for op *)
  let c = Net.Cluster.start ~protocol:Net.Protocols.regular ~cfg:cfg4 ~readers:1 () in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "same")) in
      let serial = List.init 20 (fun _ ->
          value_of (ok_exn "serial read" (Net.Cluster.read c ~reader:1)))
      in
      let piped =
        run1 c ~inflight:4 (reads 20)
        |> Array.to_list
        |> List.map (fun r -> value_of (ok_exn "pipelined read" r))
      in
      Alcotest.(check (list string)) "pipelined values match serial" serial piped)

(* Changing the window rebuilds the cluster's op engine; the retired
   engine's metrics and spans must still count, so the merged registry
   and the spans cover every read the history holds. *)
let rebuilt_engine_keeps_metrics () =
  let c =
    Net.Cluster.start ~metrics:true ~protocol:Net.Protocols.safe ~cfg:cfg4
      ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "kept")) in
      List.iter
        (fun inflight ->
          Array.iter
            (fun r -> ignore (ok_exn "read" r))
            (run1 c ~inflight (reads 10)))
        [ 4; 8 ];
      let history = Net.Cluster.history c in
      Alcotest.(check int) "history holds every read" 20
        (List.length (List.filter Histories.Op.is_read history));
      Alcotest.(check int) "a completed span per op" 21
        (List.length (List.filter Obs.Span.completed (Net.Cluster.spans c)));
      match Net.Cluster.metrics c with
      | None -> Alcotest.fail "metrics requested but absent"
      | Some m ->
          Alcotest.(check int) "op.read.completed counts every read" 20
            (Obs.Metrics.counter_value m "op.read.completed"))

(* Clients observed with [`Metrics] keep every metric but no span;
   [server_metrics] is the servers' side alone: no client op counter,
   every server message.  Both are read after [stop], once the servers
   have handled their last message. *)
let metrics_without_spans () =
  let c =
    Net.Cluster.start ~metrics:true ~observe_clients:`Metrics
      ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "kept")) in
      Array.iter (fun r -> ignore (ok_exn "read" r)) (run1 c (reads 10)));
  Alcotest.(check int) "no span kept" 0 (List.length (Net.Cluster.spans c));
  match (Net.Cluster.metrics c, Net.Cluster.server_metrics c) with
  | Some all, Some servers ->
      Alcotest.(check int) "op.read.completed counts every read" 10
        (Obs.Metrics.counter_value all "op.read.completed");
      Alcotest.(check int) "no client op in the servers' registries" 0
        (Obs.Metrics.counter_value servers "op.read.completed");
      let messages m = Obs.Metrics.counter_value m "net.server.messages" in
      Alcotest.(check bool) "the servers handled messages" true
        (messages servers > 0);
      Alcotest.(check int) "every server message" (messages all)
        (messages servers)
  | _ -> Alcotest.fail "metrics requested but absent"

(* Two client domains on key 0 through one [Cluster.run]: every read
   returns the seed, only client 0 records, so key 0's history is
   exactly the seed write plus client 0's reads, and both clients time
   their own pass. *)
let two_clients_on_key_zero () =
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers:0 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "seed write" (Net.Cluster.write c (Core.Value.v "seed")) in
      let passes = Net.Cluster.run c ~inflight:8 [| reads 60; reads 40 |] in
      Alcotest.(check int) "one pass per client" 2 (Array.length passes);
      Array.iteri
        (fun k (p : Net.Cluster.pass) ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d wall > 0" k)
            true (p.wall_s > 0.);
          Array.iter
            (fun r ->
              Alcotest.(check string)
                (Printf.sprintf "client %d reads the seed" k)
                "seed"
                (value_of (ok_exn "read" r)))
            p.results)
        passes;
      Alcotest.(check (list int)) "results per client" [ 60; 40 ]
        (Array.to_list
           (Array.map (fun (p : Net.Cluster.pass) -> Array.length p.results)
              passes));
      let h = Net.Cluster.history c in
      Alcotest.(check int) "the seed write" 1
        (List.length (List.filter Histories.Op.is_write h));
      Alcotest.(check int) "client 0's reads and no others" 60
        (List.length (List.filter Histories.Op.is_read h));
      Alcotest.(check bool) "history safe" true
        (Histories.Checks.is_safe ~equal:String.equal h);
      Alcotest.(check bool) "history regular" true
        (Histories.Checks.is_regular ~equal:String.equal h);
      Alcotest.(check int) "one key touched" 1 (Net.Cluster.keys_touched c))

(* ----- poll event-loop server mode ---------------------------------------- *)

let poll_loop_cluster () =
  (* all four objects hosted by one select-driven domain: crash/restart
     and pipelining over the one server loop *)
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg4 ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "poll")) in
      let o = ok_exn "read" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check string) "value over poll loop" "poll" (value_of o);
      Net.Cluster.crash c 2;
      Alcotest.(check (list int)) "one down" [ 1; 3; 4 ] (Net.Cluster.alive c);
      let o = ok_exn "read with s2 down" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check string) "quorum absorbs the crash" "poll" (value_of o);
      Net.Cluster.restart_exn c 2;
      Alcotest.(check (list int)) "all back" [ 1; 2; 3; 4 ]
        (Net.Cluster.alive c);
      let failures = ref 0 in
      run1 c ~inflight:8 (reads 200)
      |> Array.iter (function
           | Ok o -> if value_of o <> "poll" then incr failures
           | Error _ -> incr failures);
      Alcotest.(check int) "pipelined over poll loop: zero failures" 0
        !failures;
      Alcotest.(check bool) "history safe" true
        (Histories.Checks.is_safe ~equal:String.equal (Net.Cluster.history c)))

(* ----- TCP transport ----------------------------------------------------- *)

let tcp_transport_works () =
  let c =
    Net.Cluster.start ~transport:`Tcp ~protocol:Net.Protocols.abd ~cfg:cfg4
      ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ = ok_exn "write" (Net.Cluster.write c (Core.Value.v "tcp")) in
      let o = ok_exn "read" (Net.Cluster.read c ~reader:1) in
      Alcotest.(check string) "value over tcp" "tcp" (value_of o))

(* ----- loopback fleets -------------------------------------------------- *)

(* Release removes the fleet's socket files itself: the directory goes
   even when no listener unlinked its socket (a crashed server's, or
   one whose process never got to clean up). *)
let fleet_release_removes_sockets () =
  let fleet = Net.Endpoint.fleet ~transport:`Unix ~prefix:"netfleet" 3 in
  Array.iter
    (fun ep -> Unix.close (fst (Net.Endpoint.listen ep)))
    fleet.endpoints;
  Array.iter
    (function
      | Net.Endpoint.Unix_sock path ->
          Alcotest.(check bool) "socket file left behind" true
            (Sys.file_exists path)
      | Net.Endpoint.Tcp _ -> Alcotest.fail "expected unix endpoints")
    fleet.endpoints;
  Net.Endpoint.release fleet;
  Alcotest.(check bool) "directory removed" false (Sys.file_exists fleet.dir);
  (* a stopped cluster, interposed, with a crashed server *)
  let c =
    Net.Cluster.start ~interpose:true ~protocol:Net.Protocols.safe ~cfg:cfg4
      ~readers:1 ()
  in
  let dir =
    match (Net.Cluster.endpoints c).(0) with
    | Net.Endpoint.Unix_sock path -> Filename.dirname path
    | Net.Endpoint.Tcp _ -> Alcotest.fail "expected unix endpoints"
  in
  Net.Cluster.crash c 2;
  Net.Cluster.stop c;
  Alcotest.(check bool) "cluster directory removed" false (Sys.file_exists dir)

let suite =
  ( "net",
    [
      Alcotest.test_case "write/read round-trips on every protocol" `Quick
        roundtrip_all_protocols;
      Alcotest.test_case "safe READ is fast (one round) live" `Quick
        fast_read_is_one_round;
      Alcotest.test_case "1000 READs across a crash and restart" `Slow
        acceptance_1000_reads;
      Alcotest.test_case "reads and writes survive a crashed minority" `Quick
        reads_survive_crashed_minority;
      Alcotest.test_case "wiped restart is absorbed by the quorum" `Quick
        wiped_restart_is_tolerated;
      Alcotest.test_case "Byzantine-silent endpoint cannot block ops" `Quick
        byzantine_silent_endpoint;
      Alcotest.test_case "crashes beyond t time out cleanly and recover" `Quick
        too_many_failures_times_out;
      Alcotest.test_case "concurrent readers over live sockets stay safe" `Quick
        concurrent_readers_are_safe;
      Alcotest.test_case "TCP loopback transport" `Quick tcp_transport_works;
      Alcotest.test_case "pipelined reads under chaos (inflight=16)" `Slow
        pipelined_chaos_zero_failures;
      Alcotest.test_case "pipelined reads with Byzantine-silent endpoint"
        `Quick pipelined_byzantine_silent;
      Alcotest.test_case "pipelined results match serial" `Quick
        pipelined_matches_serial;
      Alcotest.test_case "a rebuilt engine's metrics and spans still count"
        `Quick rebuilt_engine_keeps_metrics;
      Alcotest.test_case "metrics without spans; the servers' metrics alone"
        `Quick metrics_without_spans;
      Alcotest.test_case "two client domains on key 0" `Quick
        two_clients_on_key_zero;
      Alcotest.test_case "poll event-loop server mode" `Quick poll_loop_cluster;
      Alcotest.test_case "fleet release removes its sockets and directory"
        `Quick fleet_release_removes_sockets;
    ] )
