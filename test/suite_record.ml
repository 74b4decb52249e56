(* Net.Record on synthetic client events: no sockets, no clients.  Each
   case feeds hand-built Invoke/Respond streams through [tap] and checks
   the per-key histories the checkers would see. *)

let invoke ?(joined = false) ?(write = false) ?(reader = 1) ?(key = 0) op at_us
    =
  Net.Client.Invoke { op; key; write; reader; joined; at_us }

(* [fail]: the op timed out; [value]: a read's result. *)
let respond ?(joined = false) ?(write = false) ?(reader = 1) ?(key = 0)
    ?(fail = false) ?value op at_us =
  let outcome =
    if fail then Error "timed out"
    else
      Ok
        {
          Net.Client.value = Option.map Core.Value.v value;
          rounds = 1;
          retransmits = 0;
          latency_us = 0;
        }
  in
  Net.Client.Respond { op; key; write; reader; joined; at_us; outcome }

(* The writer's events: reader id 0. *)
let winvoke = invoke ~write:true ~reader:0

let wrespond = respond ~write:true ~reader:0

let read0 = [| Net.Client.Read { key = 0 } |]

let write0 v = [| Net.Client.Write { key = 0; value = Core.Value.v v } |]

let feed tap evs = List.iter tap evs

let reader_of (op : string Histories.Op.t) =
  match op.action with
  | Histories.Op.Read { reader; _ } -> reader
  | Histories.Op.Write _ -> Alcotest.fail "expected a read"

(* A timed-out op parks its slot; the op that resumes it in a later
   run_ops call completes the ORIGINAL invocation. *)
let resumed_op_keeps_first_invocation () =
  let t = Net.Record.create () in
  feed (Net.Record.tap t read0) [ invoke 0 10; respond ~fail:true 0 20 ];
  feed (Net.Record.tap t read0) [ invoke 0 30; respond ~value:"a" 0 40 ];
  feed (Net.Record.tap t (write0 "w1"))
    [ winvoke 0 50; wrespond ~fail:true 0 60 ];
  feed (Net.Record.tap t (write0 "w2")) [ winvoke 0 70; wrespond 0 80 ];
  let span = Alcotest.(pair int (option int)) in
  match Net.Record.history t 0 with
  | [ r; w ] ->
      Alcotest.check span "read: first invoke, last respond" (10, Some 40)
        (r.invoked_at, r.responded_at);
      Alcotest.check span "write: first invoke, last respond" (50, Some 80)
        (w.invoked_at, w.responded_at);
      Alcotest.(check bool) "the parked write's own value stands" true
        (w.action = Histories.Op.Write { index = 1; value = "w1" })
  | h -> Alcotest.failf "expected 2 ops, got %d" (List.length h)

let failed_op_stays_open () =
  let t = Net.Record.create () in
  feed (Net.Record.tap t (write0 "x"))
    [ winvoke 0 5; wrespond ~fail:true 0 6 ];
  match Net.Record.history t 0 with
  | [ w ] ->
      Alcotest.(check bool) "open" false (Histories.Op.is_complete w)
  | h -> Alcotest.failf "expected 1 op, got %d" (List.length h)

(* A lead read and two reads joined onto its round, all open at once on
   reader 1: each joined read records under its own fresh reader id and
   gets its own response. *)
let joined_reads_get_own_ids () =
  let t = Net.Record.create () in
  let ops = Array.make 3 (Net.Client.Read { key = 0 }) in
  feed (Net.Record.tap t ops)
    [
      invoke 0 10;
      invoke ~joined:true 1 11;
      invoke ~joined:true 2 12;
      respond ~joined:true ~value:"v" 2 20;
      respond ~joined:true ~value:"v" 1 21;
      respond ~value:"v" 0 22;
    ];
  let h = Net.Record.history t 0 in
  let readers = List.map reader_of h in
  Alcotest.(check int) "three reads" 3 (List.length h);
  Alcotest.(check int) "lead keeps reader 1" 1 (List.hd readers);
  Alcotest.(check int) "distinct reader ids" 3
    (List.length (List.sort_uniq Int.compare readers));
  Alcotest.(check bool) "joined ids from 1_000_000" true
    (List.for_all (fun r -> r >= 1_000_000) (List.tl readers));
  Alcotest.(check (list (pair int (option int))))
    "own invocations and responses"
    [ (10, Some 22); (11, Some 21); (12, Some 20) ]
    (List.map
       (fun (o : string Histories.Op.t) -> (o.invoked_at, o.responded_at))
       h)

let unsampled_keys_record_nothing () =
  let t = Net.Record.create ~sample:(fun k -> k mod 2 = 0) () in
  let ops =
    [| Net.Client.Read { key = 1 }; Net.Client.Read { key = 2 } |]
  in
  feed (Net.Record.tap t ops)
    [
      invoke ~key:1 0 1; invoke ~key:2 1 2; respond ~key:1 ~value:"a" 0 3;
      respond ~key:2 ~value:"b" 1 4;
    ];
  Alcotest.(check (list int)) "only key 2" [ 2 ]
    (List.map fst (Net.Record.histories t));
  Alcotest.(check int) "key 1 empty" 0 (List.length (Net.Record.history t 1))

let histories_sorted_by_key () =
  let t = Net.Record.create () in
  let keys = [ 5; 1; 3 ] in
  let ops =
    Array.of_list (List.map (fun key -> Net.Client.Read { key }) keys)
  in
  feed (Net.Record.tap t ops)
    (List.mapi (fun op key -> invoke ~key op op) keys);
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5 ]
    (List.map fst (Net.Record.histories t))

(* Two domains tap one record at once, each with its own reader slot:
   every invocation and response lands. *)
let concurrent_taps_lose_nothing () =
  let t = Net.Record.create () in
  let n = 2_000 in
  let run reader () =
    let ops = Array.make n (Net.Client.Read { key = 0 }) in
    let tap = Net.Record.tap t ops in
    for op = 0 to n - 1 do
      tap (invoke ~reader op op);
      tap (respond ~reader ~value:"a" op (op + 1))
    done
  in
  let d = Domain.spawn (run 2) in
  run 1 ();
  Domain.join d;
  let h = Net.Record.history t 0 in
  Alcotest.(check int) "every op recorded" (2 * n) (List.length h);
  Alcotest.(check bool) "every op completed" true
    (List.for_all Histories.Op.is_complete h)

let suite =
  ( "record",
    [
      Alcotest.test_case "resumed op keeps its first invocation" `Quick
        resumed_op_keeps_first_invocation;
      Alcotest.test_case "failed op stays open" `Quick failed_op_stays_open;
      Alcotest.test_case "joined reads get their own ids and responses"
        `Quick joined_reads_get_own_ids;
      Alcotest.test_case "unsampled keys record nothing" `Quick
        unsampled_keys_record_nothing;
      Alcotest.test_case "histories come back sorted by key" `Quick
        histories_sorted_by_key;
      Alcotest.test_case "two domains tapping one record lose nothing" `Quick
        concurrent_taps_lose_nothing;
    ] )
