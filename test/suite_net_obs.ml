(* Observability cost on the live runtime: what a client keeps and what
   it records, with and without a metrics registry.

   - an unobserved engine keeps no span and no other per-operation state
     once an operation completes: its live heap stays flat as operations
     accumulate;
   - an observed engine keeps exactly one completed span per completed
     operation, coalesced (joined) reads included;
   - observed client and server registries agree message for message,
     and carry exactly the metric names they always have. *)

let cfg3 = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0

let fleet = 4

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

let with_fleet ?metrics ~protocol f =
  let eps = Net.Endpoint.fleet ~transport:`Unix ~prefix:"netobs" fleet in
  let servers =
    Net.Server.start_group ?metrics ~domains:1 ~protocol ~cfg:cfg3
      eps.endpoints
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun s -> if Net.Server.alive s then Net.Server.stop s)
        servers;
      Net.Endpoint.release eps)
    (fun () -> f servers (Array.map Net.Server.endpoint servers))

let keyed ?metrics ?coalesce ~protocol ~keys endpoints =
  let map = Shard.Map.make_exn ~keys ~fleet ~cfg:cfg3 () in
  Net.Client.Keyed.connect ?metrics ?coalesce ~max_inflight:16 ~reader:1
    ~protocol ~map endpoints

let run_all client ops =
  Array.iteri
    (fun i r -> ignore (ok_exn (Printf.sprintf "op %d" i) r))
    (Net.Client.Keyed.run_ops client ops)

let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* ----- unobserved: no per-op state ---------------------------------------- *)

(* Reads only after one write per key, so no base object's state grows
   with the operation count: whatever the heap gains between 10k and
   50k operations is what the client kept per operation.  An engine
   that retains a span per op gains ~40 words/op here. *)
let unobserved_keeps_nothing () =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let keys = 16 in
  with_fleet ~protocol (fun _ endpoints ->
      let client = keyed ~protocol ~keys ~coalesce:8 endpoints in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close client)
        (fun () ->
          run_all client
            (Array.init keys (fun key ->
                 Net.Client.Keyed.Write { key; value = Core.Value.v "v" }));
          let reads n =
            run_all client
              (Array.init n (fun i -> Net.Client.Keyed.Read { key = i mod keys }))
          in
          reads 10_000;
          let w10k = live_words () in
          reads 40_000;
          let w50k = live_words () in
          Alcotest.(check int) "no spans" 0
            (List.length (Net.Client.Keyed.spans client));
          let per_op = float_of_int (w50k - w10k) /. 40_000. in
          if per_op >= 8. then
            Alcotest.failf
              "live heap grew %.1f words/op from 10k to 50k ops (%d -> %d)"
              per_op w10k w50k))

(* ----- observed: one span per op ------------------------------------------ *)

let observed_span_per_op () =
  let protocol = Net.Protocols.regular_gc ~readers:1 in
  let keys = 2 in
  with_fleet ~protocol (fun _ endpoints ->
      let registry = Obs.Metrics.create () in
      let client =
        keyed ~metrics:registry ~protocol ~keys ~coalesce:8 endpoints
      in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close client)
        (fun () ->
          let ops =
            Array.append
              (Array.init keys (fun key ->
                   Net.Client.Keyed.Write { key; value = Core.Value.v "v" }))
              (Array.init 300 (fun i -> Net.Client.Keyed.Read { key = i mod keys }))
          in
          let joined = ref 0 in
          let on_event = function
            | Net.Client.Keyed.Respond { joined = true; _ } -> incr joined
            | _ -> ()
          in
          let results = Net.Client.Keyed.run_ops ~on_event client ops in
          let ok =
            Array.fold_left (fun n r -> if Result.is_ok r then n + 1 else n) 0 results
          in
          Alcotest.(check int) "every op completed" (Array.length ops) ok;
          Alcotest.(check bool) "some reads joined a round" true (!joined > 0);
          let spans = Net.Client.Keyed.spans client in
          Alcotest.(check int) "one span per op" (Array.length ops)
            (List.length spans);
          Alcotest.(check int) "one completed span per completed op" ok
            (List.length (List.filter Obs.Span.completed spans));
          Alcotest.(check int) "op.coalesced_reads counts the joins" !joined
            (Obs.Metrics.counter_value registry "op.coalesced_reads")))

(* ----- metric parity ------------------------------------------------------- *)

(* The names an observed keyed run of the plain regular protocol emits,
   as the string-keyed meters produced them for the same run; resolving
   handles once must not add or drop any.  Whether a read reports one
   round or two depends on whether its round-1 replies agreed, which is
   timing, so the names that split reads by round count are left out of
   the comparison. *)
let expected_client_names =
  [
    "net.client.connects"; "net.client.disconnects"; "op.read.completed";
    "op.read.contacted"; "op.read.latency_us"; "op.read.replies";
    "op.read.rounds"; "op.write.completed"; "op.write.contacted";
    "op.write.latency_us"; "op.write.replies"; "op.write.rounds";
    "shard.0.reads"; "shard.1.reads"; "shard.2.reads"; "wire.batch_size";
    "wire.bytes_per_frame"; "wire.flush_us"; "wire.read.r1.ack.delivered";
    "wire.read.r1.req.sent"; "wire.read.r2.ack.delivered";
    "wire.read.r2.req.sent"; "wire.write.r1.ack.delivered";
    "wire.write.r1.req.sent"; "wire.write.r2.ack.delivered";
    "wire.write.r2.req.sent";
  ]

let expected_server_names =
  [
    "net.server.connections"; "net.server.messages"; "wire.batch_size";
    "wire.bytes_per_frame"; "wire.queue_depth"; "wire.read.r1.ack.sent";
    "wire.read.r1.req.delivered"; "wire.read.r2.ack.sent";
    "wire.read.r2.req.delivered"; "wire.write.r1.ack.sent";
    "wire.write.r1.req.delivered"; "wire.write.r2.ack.sent";
    "wire.write.r2.req.delivered";
  ]

let has_suffix ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let by_round_count name =
  name = "op.fast_reads" || name = "op.fallback_rounds"
  || has_suffix ~suffix:".fast_reads" name

let names reg =
  List.sort_uniq String.compare
    (List.map fst (Obs.Metrics.counters reg)
    @ List.map fst (Obs.Metrics.histograms reg))
  |> List.filter (fun name -> not (by_round_count name))

(* "wire.<class>.<stage>" counters of one stage, keyed by class *)
let wire_totals reg ~stage =
  List.filter_map
    (fun (name, v) ->
      let suffix = "." ^ stage in
      if String.length name > 5 && String.sub name 0 5 = "wire."
         && has_suffix ~suffix name
      then
        Some
          ( String.sub name 5 (String.length name - 5 - String.length suffix),
            v )
      else None)
    (Obs.Metrics.counters reg)

let metric_parity () =
  let protocol = Net.Protocols.regular in
  let keys = 8 in
  let sregs = Array.init fleet (fun _ -> Obs.Metrics.create ()) in
  let creg = Obs.Metrics.create () in
  with_fleet ~metrics:(Array.get sregs) ~protocol (fun servers endpoints ->
      let client = keyed ~metrics:creg ~protocol ~keys endpoints in
      let sent () =
        List.fold_left (fun a (_, v) -> a + v) 0 (wire_totals creg ~stage:"sent")
      in
      let handled () =
        Array.fold_left
          (fun a s -> a + (Net.Server.stats s).Net.Server.messages)
          0 servers
      in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close client)
        (fun () ->
          let write key = Net.Client.Keyed.Write { key; value = Core.Value.v "v" } in
          run_all client
            (Array.concat
               [
                 Array.init keys write;
                 Array.init 64 (fun i -> Net.Client.Keyed.Read { key = i mod keys });
                 Array.init keys write;
               ]);
          (* Requests to objects outside a round's quorum may still be
             in flight: wait until the servers handled every frame sent,
             then stop them, so their registries are complete and
             quiescent. *)
          let deadline = Unix.gettimeofday () +. 10. in
          while handled () < sent () && Unix.gettimeofday () < deadline do
            Thread.delay 0.005
          done);
      Array.iter Net.Server.stop servers;
      let sent = sent () in
      Alcotest.(check int) "servers handled every frame sent" sent (handled ());
      let merged = Obs.Metrics.create () in
      Array.iter (Obs.Metrics.merge_into ~dst:merged) sregs;
      Alcotest.(check (list (pair string int)))
        "client sent = server delivered, per class"
        (wire_totals creg ~stage:"sent")
        (wire_totals merged ~stage:"delivered");
      Array.iteri
        (fun i reg ->
          let delivered =
            List.fold_left (fun a (_, v) -> a + v) 0
              (wire_totals reg ~stage:"delivered")
          in
          Alcotest.(check int)
            (Printf.sprintf "slot %d: net.server.messages = delivered" i)
            delivered
            (Obs.Metrics.counter_value reg "net.server.messages"))
        sregs;
      Alcotest.(check int) "net.server.messages = sent" sent
        (Obs.Metrics.counter_value merged "net.server.messages");
      Alcotest.(check (list string)) "client metric names" expected_client_names
        (names creg);
      Alcotest.(check (list string)) "server metric names" expected_server_names
        (names merged))

let suite =
  ( "net_obs",
    [
      Alcotest.test_case "unobserved engine: no spans, flat heap" `Quick
        unobserved_keeps_nothing;
      Alcotest.test_case "observed engine: one completed span per op" `Quick
        observed_span_per_op;
      Alcotest.test_case "client/server metric parity and names" `Quick
        metric_parity;
    ] )
