(* Keyspace tests (ISSUE 9): the shard placement function, the zipfian
   workload generator, and the keyed client/server path live against a
   real cluster.

   Placement is a pure function both sides recompute independently, so
   its algebra (member/rank inverse, balanced rotation, range bounds)
   is exactly what keeps clients and server domains agreeing without a
   placement service — worth property-testing hard. *)

let cfg3 = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0

(* ----- Shard.Map properties --------------------------------------------- *)

let gen_map_params =
  QCheck.Gen.(
    map3
      (fun keys extra placement ->
        (keys, cfg3.Quorum.Config.s + extra, placement))
      (1 -- 200) (0 -- 5)
      (oneofl [ Shard.Map.Hash; Shard.Map.Range ]))

let arb_map_params =
  QCheck.make
    ~print:(fun (keys, fleet, p) ->
      Printf.sprintf "keys=%d fleet=%d placement=%s" keys fleet
        (Shard.Map.placement_to_string p))
    gen_map_params

let map_placement_well_formed =
  QCheck.Test.make ~name:"every key lands on a shard of s distinct slots"
    ~count:300 arb_map_params (fun (keys, fleet, placement) ->
      let m = Shard.Map.make_exn ~placement ~keys ~fleet ~cfg:cfg3 () in
      let s = cfg3.Quorum.Config.s in
      let ok = ref true in
      for key = 0 to keys - 1 do
        let sh = Shard.Map.shard_of_key m key in
        if sh < 0 || sh >= Shard.Map.shards m then ok := false;
        let mem = Shard.Map.members m ~shard:sh in
        if Array.length mem <> s then ok := false;
        Array.iter (fun slot -> if slot < 0 || slot >= fleet then ok := false) mem;
        (* distinct members: a quorum of s replies must mean s distinct
           base objects, never one server counted twice *)
        let sorted = Array.copy mem in
        Array.sort compare sorted;
        for i = 1 to s - 1 do
          if sorted.(i) = sorted.(i - 1) then ok := false
        done
      done;
      !ok)

let map_member_rank_inverse =
  QCheck.Test.make
    ~name:"rank_of_slot inverts member; non-members are None" ~count:300
    arb_map_params (fun (keys, fleet, placement) ->
      let m = Shard.Map.make_exn ~placement ~keys ~fleet ~cfg:cfg3 () in
      let s = cfg3.Quorum.Config.s in
      let ok = ref true in
      for sh = 0 to Shard.Map.shards m - 1 do
        let mem = Shard.Map.members m ~shard:sh in
        for rank = 0 to s - 1 do
          if Shard.Map.member m ~shard:sh ~rank <> mem.(rank) then ok := false;
          match Shard.Map.rank_of_slot m ~shard:sh ~slot:mem.(rank) with
          | Some r when r = rank -> ()
          | _ -> ok := false
        done;
        for slot = 0 to fleet - 1 do
          if not (Array.exists (( = ) slot) mem) then
            match Shard.Map.rank_of_slot m ~shard:sh ~slot with
            | None -> ()
            | Some _ -> ok := false
        done
      done;
      !ok)

let map_rotation_is_balanced =
  QCheck.Test.make
    ~name:"default sharding loads every fleet slot with s memberships"
    ~count:200 arb_map_params (fun (keys, fleet, placement) ->
      (* shards defaults to fleet: one rotation per starting slot, so
         each slot serves exactly s shards *)
      let m = Shard.Map.make_exn ~placement ~keys ~fleet ~cfg:cfg3 () in
      let load = Array.make fleet 0 in
      for sh = 0 to Shard.Map.shards m - 1 do
        Array.iter
          (fun slot -> load.(slot) <- load.(slot) + 1)
          (Shard.Map.members m ~shard:sh)
      done;
      Array.for_all (( = ) cfg3.Quorum.Config.s) load)

let map_range_is_monotone =
  QCheck.Test.make ~name:"Range placement maps contiguous keys to shards"
    ~count:200 arb_map_params (fun (keys, fleet, _) ->
      let m =
        Shard.Map.make_exn ~placement:Shard.Map.Range ~keys ~fleet ~cfg:cfg3 ()
      in
      let ok = ref true in
      for key = 1 to keys - 1 do
        if Shard.Map.shard_of_key m key < Shard.Map.shard_of_key m (key - 1)
        then ok := false
      done;
      !ok)

let map_rejects_bad_params () =
  (match Shard.Map.make ~keys:0 ~fleet:3 ~cfg:cfg3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "keys=0 accepted");
  (match Shard.Map.make ~keys:4 ~fleet:2 ~cfg:cfg3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fleet < s accepted");
  match Shard.Map.make ~keys:4 ~fleet:3 ~shards:0 ~cfg:cfg3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shards=0 accepted"

let mix_is_nonnegative =
  QCheck.Test.make ~name:"Shard.Map.mix is nonnegative on all ints" ~count:500
    QCheck.int (fun k -> Shard.Map.mix k >= 0)

(* ----- Workload.Keyspace ------------------------------------------------- *)

let gen_keyspace_params =
  QCheck.Gen.(
    map3
      (fun keys skew (wr, seed) -> (keys, skew, wr, seed))
      (1 -- 500)
      (* both draw paths: YCSB closed form (< 1) and exact CDF (>= 1) *)
      (oneofl [ 0.0; 0.5; 0.9; 0.99; 1.0; 1.2; 2.0 ])
      (pair (oneofl [ 0.0; 0.05; 0.3; 1.0 ]) (0 -- 1000)))

let arb_keyspace_params =
  QCheck.make
    ~print:(fun (keys, skew, wr, seed) ->
      Printf.sprintf "keys=%d skew=%.2f wr=%.2f seed=%d" keys skew wr seed)
    gen_keyspace_params

let keyspace_is_deterministic =
  QCheck.Test.make ~name:"same (keys, skew, ratio, seed) => same op stream"
    ~count:200 arb_keyspace_params (fun (keys, skew, wr, seed) ->
      let mk () =
        Workload.Keyspace.make_exn ~skew ~write_ratio:wr ~keys ~seed ()
      in
      Workload.Keyspace.ops (mk ()) 200 = Workload.Keyspace.ops (mk ()) 200)

let keyspace_keys_in_range =
  QCheck.Test.make ~name:"every drawn key is inside [0, keys)" ~count:200
    arb_keyspace_params (fun (keys, skew, wr, seed) ->
      let t = Workload.Keyspace.make_exn ~skew ~write_ratio:wr ~keys ~seed () in
      Array.for_all
        (fun op ->
          let k = Workload.Keyspace.op_key op in
          k >= 0 && k < keys)
        (Workload.Keyspace.ops t 500))

let keyspace_write_values_distinct =
  QCheck.Test.make
    ~name:"write values are distinct and name their key" ~count:100
    arb_keyspace_params (fun (keys, skew, _, seed) ->
      let t =
        Workload.Keyspace.make_exn ~skew ~write_ratio:0.5 ~keys ~seed ()
      in
      let seen = Hashtbl.create 64 in
      Array.for_all
        (fun op ->
          match op with
          | Workload.Keyspace.Read _ -> true
          | Workload.Keyspace.Write { key; value } ->
              let v = Core.Value.to_string value in
              let fresh = not (Hashtbl.mem seen v) in
              Hashtbl.replace seen v ();
              let prefix = Printf.sprintf "k%d." key in
              fresh
              && String.length v > String.length prefix
              && String.sub v 0 (String.length prefix) = prefix)
        (Workload.Keyspace.ops t 300))

let keyspace_write_filter_respected =
  QCheck.Test.make
    ~name:"write_filter converts non-owned write draws into reads"
    ~count:100 arb_keyspace_params (fun (keys, skew, _, seed) ->
      let owns k = Shard.Map.mix k mod 2 = 0 in
      let t =
        Workload.Keyspace.make_exn ~skew ~write_ratio:1.0 ~write_filter:owns
          ~keys ~seed ()
      in
      Array.for_all
        (fun op ->
          match op with
          | Workload.Keyspace.Write { key; _ } -> owns key
          | Workload.Keyspace.Read { key } -> not (owns key))
        (Workload.Keyspace.ops t 300))

let keyspace_ratio_extremes () =
  let all_reads =
    Workload.Keyspace.ops
      (Workload.Keyspace.make_exn ~write_ratio:0.0 ~keys:16 ~seed:1 ())
      200
  in
  Alcotest.(check bool)
    "write_ratio 0 draws no writes" false
    (Array.exists Workload.Keyspace.op_is_write all_reads);
  let all_writes =
    Workload.Keyspace.ops
      (Workload.Keyspace.make_exn ~write_ratio:1.0 ~keys:16 ~seed:1 ())
      200
  in
  Alcotest.(check bool)
    "write_ratio 1 draws only writes" true
    (Array.for_all Workload.Keyspace.op_is_write all_writes)

let keyspace_zipf_skews_toward_low_keys () =
  (* skew 0.99 over 100 keys: rank 0 carries ~19% of the mass, the last
     rank ~0.2% — with a fixed seed the gap is decisive, not noisy *)
  let t =
    Workload.Keyspace.make_exn ~skew:0.99 ~write_ratio:0.0 ~keys:100 ~seed:42
      ()
  in
  let counts = Array.make 100 0 in
  Array.iter
    (fun op ->
      let k = Workload.Keyspace.op_key op in
      counts.(k) <- counts.(k) + 1)
    (Workload.Keyspace.ops t 4000);
  Alcotest.(check bool)
    (Printf.sprintf "key 0 (%d draws) dominates key 99 (%d draws)" counts.(0)
       counts.(99))
    true
    (counts.(0) > 10 * (counts.(99) + 1))

let keyspace_rejects_bad_params () =
  (match Workload.Keyspace.make ~keys:0 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "keys=0 accepted");
  (match Workload.Keyspace.make ~skew:(-0.1) ~keys:4 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "skew<0 accepted");
  (match Workload.Keyspace.make ~skew:Float.infinity ~keys:4 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "skew=inf accepted");
  (* skew >= 1 is the proper-Zipf CDF path: valid, and even hotter *)
  (match Workload.Keyspace.make ~skew:1.2 ~keys:4 ~seed:1 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "skew=1.2 rejected: %s" e);
  match Workload.Keyspace.make ~write_ratio:1.5 ~keys:4 ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write_ratio>1 accepted"

(* ----- live keyed cluster ------------------------------------------------ *)

let ok_exn what = function
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* A keyed mix over a real loopback cluster: every op completes, every
   sampled key's history passes the single-register checkers, and no
   base object is ever stepped outside its owning domain. *)
let keyed_cluster_histories_check () =
  let map = Shard.Map.make_exn ~keys:8 ~fleet:3 ~cfg:cfg3 () in
  let c =
    Net.Cluster.start ~metrics:true ~map ~protocol:Net.Protocols.safe
      ~cfg:cfg3 ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let gen =
        Workload.Keyspace.make_exn ~skew:0.5 ~write_ratio:0.3 ~keys:8 ~seed:11
          ()
      in
      let results =
        (Net.Cluster.run c [| Workload.Keyspace.ops gen 120 |]).(0).results
      in
      Array.iteri
        (fun i r -> ignore (ok_exn (Printf.sprintf "keyed op %d" i) r))
        results;
      Alcotest.(check bool) "touched several keys" true
        (Net.Cluster.keys_touched c > 1);
      let histories = Net.Cluster.histories c in
      Alcotest.(check bool) "recorded per-key histories" true
        (List.length histories > 1);
      List.iter
        (fun (key, h) ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is safe" key)
            true
            (Histories.Checks.is_safe ~equal:String.equal h);
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is regular" key)
            true
            (Histories.Checks.is_regular ~equal:String.equal h))
        histories;
      Alcotest.(check int) "no partition violations" 0
        (Net.Cluster.partition_violations c);
      (* at S = 3 = 2t+2b+1 the fast path is admissible on every shard
         that served a read *)
      match Net.Cluster.metrics c with
      | None -> Alcotest.fail "metrics requested but absent"
      | Some m ->
          for sh = 0 to Shard.Map.shards map - 1 do
            let reads =
              Obs.Metrics.counter_value m (Printf.sprintf "shard.%d.reads" sh)
            in
            let fast =
              Obs.Metrics.counter_value m
                (Printf.sprintf "shard.%d.fast_reads" sh)
            in
            if reads > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "shard %d fast reads engaged" sh)
                true (fast > 0)
          done)

(* The single register is key 0 of the keyspace, with one history: a
   serial [Cluster.write] and keyed reads of key 0 record into the same
   key-0 history, and that history checks out. *)
let key_zero_is_the_legacy_register () =
  let map = Shard.Map.make_exn ~keys:4 ~fleet:3 ~cfg:cfg3 () in
  let c =
    Net.Cluster.start ~map ~protocol:Net.Protocols.safe ~cfg:cfg3 ~readers:1
      ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let _ =
        ok_exn "serial write" (Net.Cluster.write c (Core.Value.v "legacy"))
      in
      (Net.Cluster.run c [| Array.make 5 (Net.Client.Read { key = 0 }) |]).(0)
        .results
      |> Array.iteri (fun i r ->
             let o = ok_exn (Printf.sprintf "keyed read %d of key 0" i) r in
             Alcotest.(check (option string))
               "keyed read sees the serial write" (Some "legacy")
               (Option.map Core.Value.to_string o.Net.Client.value));
      match Net.Cluster.histories c with
      | [ (0, h) ] ->
          Alcotest.(check int) "one history holds the write and the reads" 6
            (List.length h);
          Alcotest.(check bool) "key 0 history is safe" true
            (Histories.Checks.is_safe ~equal:String.equal h);
          Alcotest.(check bool) "key 0 history is regular" true
            (Histories.Checks.is_regular ~equal:String.equal h)
      | hs ->
          Alcotest.failf "expected key 0's history alone, got keys [%s]"
            (String.concat "; " (List.map (fun (k, _) -> string_of_int k) hs)))

(* The E19 shape: two keyed client domains over a fleet of 4 > S = 3,
   the map given to [start].  Write ownership is split by the placement
   mixer and client 0 records only the keys it owns, so each recorded
   history holds every write of its key.  Both clients touch the same
   keys, which the cluster counts once. *)
let two_keyed_clients_on_a_wider_fleet () =
  let keys = 8 in
  let map = Shard.Map.make_exn ~keys ~fleet:4 ~cfg:cfg3 () in
  let owner k = Shard.Map.mix k mod 2 in
  let c =
    Net.Cluster.start ~metrics:true ~domains:2 ~map
      ~sample:(fun k -> owner k = 0)
      ~protocol:(Net.Protocols.regular_gc ~readers:2)
      ~cfg:cfg3 ~readers:0 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let ops c =
        Workload.Keyspace.ops
          (Workload.Keyspace.make_exn ~write_ratio:0.2
             ~write_filter:(fun k -> owner k = c)
             ~keys ~seed:(5 + c) ())
          150
      in
      let passes = Net.Cluster.run c ~inflight:8 [| ops 0; ops 1 |] in
      Array.iteri
        (fun k (p : Net.Cluster.pass) ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d wall > 0" k)
            true (p.wall_s > 0.);
          Array.iteri
            (fun i r -> ignore (ok_exn (Printf.sprintf "client %d op %d" k i) r))
            p.results)
        passes;
      Alcotest.(check int) "distinct keys touched" keys
        (Net.Cluster.keys_touched c);
      let histories = Net.Cluster.histories c in
      Alcotest.(check bool) "recorded client 0's keys" true (histories <> []);
      List.iter
        (fun (key, h) ->
          Alcotest.(check int) (Printf.sprintf "key %d is client 0's" key) 0
            (owner key);
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is safe" key)
            true
            (Histories.Checks.is_safe ~equal:String.equal h);
          Alcotest.(check bool)
            (Printf.sprintf "key %d history is regular" key)
            true
            (Histories.Checks.is_regular ~equal:String.equal h))
        histories;
      Alcotest.(check int) "no partition violations" 0
        (Net.Cluster.partition_violations c))

(* An op outside the map in any client's array is rejected before any
   engine starts: no domain is left spinning on the barrier, and client
   0's valid ops never ran. *)
let out_of_map_op_rejected_up_front () =
  let map = Shard.Map.make_exn ~keys:4 ~fleet:3 ~cfg:cfg3 () in
  let c =
    Net.Cluster.start ~map ~protocol:Net.Protocols.safe ~cfg:cfg3 ~readers:0
      ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let reads = Array.init 4 (fun key -> Net.Client.Read { key }) in
      (match
         Net.Cluster.run c [| reads; [| Net.Client.Read { key = 4 } |] |]
       with
      | _ -> Alcotest.fail "a key outside the map was accepted"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "nothing recorded" 0
        (List.length (Net.Cluster.histories c));
      Alcotest.(check int) "no key materialized" 0
        (Net.Cluster.keys_touched c);
      (* the cluster still runs both clients afterwards *)
      Net.Cluster.run c [| reads; reads |]
      |> Array.iter (fun (p : Net.Cluster.pass) ->
             Array.iter (fun r -> ignore (ok_exn "read" r)) p.results))

(* A failed run leaves nothing behind for the client's next run to
   complete against its own results.  A key outside the map raises
   before anything is sent; a callback that raises mid-run parks the op
   in flight and drops the op queued behind it. *)
let failed_run_leaves_nothing_behind () =
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg3 ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let map = Shard.Map.make_exn ~keys:4 ~fleet:3 ~cfg:cfg3 () in
      let keyed =
        Net.Client.Keyed.connect ~reader:7 ~protocol:Net.Protocols.safe ~map
          (Net.Cluster.endpoints c)
      in
      Fun.protect
        ~finally:(fun () -> Net.Client.Keyed.close keyed)
        (fun () ->
          let write key v =
            Net.Client.Keyed.Write { key; value = Core.Value.v v }
          in
          let read key = Net.Client.Keyed.Read { key } in
          let events = ref 0 in
          (match
             Net.Client.Keyed.run_ops
               ~on_event:(fun _ -> incr events)
               keyed
               [| write 0 "a0"; write 1 "a1"; read 0; read 4 |]
           with
          | _ -> Alcotest.fail "a key outside the map was accepted"
          | exception Invalid_argument _ -> ());
          Alcotest.(check int) "no op invoked" 0 !events;
          Alcotest.(check int) "no key materialized" 0
            (Net.Client.Keyed.keys_touched keyed);
          Alcotest.(check (list int)) "nothing dialed" []
            (Net.Client.Keyed.connected keyed);
          (* key 3's first read starts, its second queues, and the
             callback raises on the write's invocation *)
          (match
             Net.Client.Keyed.run_ops
               ~on_event:(function
                 | Net.Client.Keyed.Invoke { write = true; _ } -> raise Exit
                 | _ -> ())
               keyed
               [| read 3; read 3; write 2 "c2" |]
           with
          | _ -> Alcotest.fail "the callback's exception was swallowed"
          | exception Exit -> ());
          let writes =
            Net.Client.Keyed.run_ops keyed
              (Array.init 3 (fun k -> write k (Printf.sprintf "b%d" k)))
          in
          Array.iteri
            (fun k r ->
              let o = ok_exn (Printf.sprintf "write of key %d" k) r in
              Alcotest.(check bool)
                (Printf.sprintf "result %d is a write's" k)
                true (o.Net.Client.value = None))
            writes;
          let reads = Net.Client.Keyed.run_ops keyed (Array.init 4 read) in
          Array.iteri
            (fun k r ->
              let o = ok_exn (Printf.sprintf "read of key %d" k) r in
              if k < 3 then
                Alcotest.(check (option string))
                  (Printf.sprintf "key %d reads its write" k)
                  (Some (Printf.sprintf "b%d" k))
                  (Option.map Core.Value.to_string o.Net.Client.value))
            reads))

let suite =
  ( "keyspace",
    [
      QCheck_alcotest.to_alcotest map_placement_well_formed;
      QCheck_alcotest.to_alcotest map_member_rank_inverse;
      QCheck_alcotest.to_alcotest map_rotation_is_balanced;
      QCheck_alcotest.to_alcotest map_range_is_monotone;
      Alcotest.test_case "Shard.Map rejects bad params" `Quick
        map_rejects_bad_params;
      QCheck_alcotest.to_alcotest mix_is_nonnegative;
      QCheck_alcotest.to_alcotest keyspace_is_deterministic;
      QCheck_alcotest.to_alcotest keyspace_keys_in_range;
      QCheck_alcotest.to_alcotest keyspace_write_values_distinct;
      QCheck_alcotest.to_alcotest keyspace_write_filter_respected;
      Alcotest.test_case "write_ratio extremes" `Quick keyspace_ratio_extremes;
      Alcotest.test_case "zipf skews toward low keys" `Quick
        keyspace_zipf_skews_toward_low_keys;
      Alcotest.test_case "Keyspace rejects bad params" `Quick
        keyspace_rejects_bad_params;
      Alcotest.test_case "keyed cluster: per-key histories check" `Quick
        keyed_cluster_histories_check;
      Alcotest.test_case "key 0 is the legacy register" `Quick
        key_zero_is_the_legacy_register;
      Alcotest.test_case "a failed run leaves nothing behind" `Quick
        failed_run_leaves_nothing_behind;
      Alcotest.test_case "two keyed client domains on a fleet wider than S"
        `Quick two_keyed_clients_on_a_wider_fleet;
      Alcotest.test_case "an out-of-map op is rejected before any domain"
        `Quick out_of_map_op_rejected_up_front;
    ] )
