(* The chunked checker must return exactly the whole-history verdicts:
   on random small SWMR histories for every chunk size, and on the
   naive-fast counterexamples, which it must still catch. *)

open Histories

let equal = String.equal

(* A random SWMR history: sequential writes (the last one possibly
   open), reads on [readers] readers with random intervals (some open)
   and results drawn from bottom, written values and a value nobody
   wrote.  Stamps are the event order of the integer times. *)
let random_history st =
  let n_writes = Random.State.int st 5 and n_reads = Random.State.int st 9 in
  let events = ref [] in
  let t = ref 0 in
  for k = 1 to n_writes do
    t := !t + Random.State.int st 6;
    let inv = !t in
    t := !t + 1 + Random.State.int st 6;
    let resp =
      if k = n_writes && Random.State.int st 4 = 0 then None else Some !t
    in
    events := (`W (k, Printf.sprintf "v%d" k), inv, resp) :: !events
  done;
  let horizon = !t + 6 in
  for _ = 1 to n_reads do
    let inv = Random.State.int st horizon in
    let resp =
      if Random.State.int st 6 = 0 then None
      else Some (inv + 1 + Random.State.int st 8)
    in
    let result =
      match Random.State.int st (n_writes + 2) with
      | 0 -> Op.Bottom
      | 1 -> Op.Value "ghost"
      | k -> Op.Value (Printf.sprintf "v%d" (k - 1))
    in
    events := (`R result, inv, resp) :: !events
  done;
  (* Stamps: invocations sort before responses at equal times, so ops
     touching at an instant are concurrent. *)
  let stamps =
    List.concat_map
      (fun (_, inv, resp) ->
        ((inv * 2) :: (match resp with Some r -> [ (r * 2) + 1 ] | None -> [])))
      !events
    |> List.sort_uniq Int.compare
  in
  let stamp x =
    let rec go i = function
      | [] -> assert false
      | y :: rest -> if y = x then i else go (i + 1) rest
    in
    go 0 stamps
  in
  List.rev !events
  |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
  |> List.mapi (fun id (kind, inv, resp) ->
         let action =
           match kind with
           | `W (index, value) -> Op.Write { index; value }
           | `R result ->
               Op.Read
                 { reader = 1 + (id mod 3); result = Option.map (fun _ -> result) resp }
         in
         {
           Op.id;
           action;
           invoked_at = inv;
           invoked_stamp = stamp (inv * 2);
           responded_at = resp;
           responded_stamp = Option.map (fun r -> stamp ((r * 2) + 1)) resp;
         })

let verdicts vs =
  List.map
    (fun (v : string Checks.violation) -> (v.read.Op.id, v.rule, v.detail))
    vs

let agree name check ops =
  let whole = verdicts (check ~equal ops) in
  List.iter
    (fun chunk ->
      let chunked = verdicts (Chunked.check ~chunk check ~equal ops) in
      if chunked <> whole then
        Alcotest.failf "%s: chunk %d gives %d violations, whole history %d"
          name chunk (List.length chunked) (List.length whole))
    [ 1; 2; 3; 5; 1000 ]

let test_random () =
  let st = Random.State.make [| 2006 |] in
  let flagged = ref 0 in
  for _ = 1 to 3000 do
    let ops = random_history st in
    agree "safety" Checks.check_safety ops;
    agree "regularity" Checks.check_regularity ops;
    if Checks.check_regularity ~equal ops <> [] then incr flagged
  done;
  (* The generator must produce violations, or agreement proves little. *)
  Alcotest.(check bool) "some histories violate" true (!flagged > 100)

module F = Core.Scenario.Make (Baseline.Naive_fast)

let naive_fast_history ~seed ~byzantine schedule =
  let cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1 in
  let faults = { F.crashes = []; byzantine = [ (1, byzantine) ] } in
  (F.run ~cfg ~seed ~delay:(Sim.Delay.uniform ~lo:1 ~hi:10) ~faults schedule)
    .history

let test_naive_fast () =
  let schedule =
    (0, Core.Schedule.Write (Core.Value.v "v1"))
    :: (200, Core.Schedule.Write (Core.Value.v "v2"))
    :: List.init 12 (fun i ->
           (100 + (i * 40), Core.Schedule.Read { reader = 1 + (i mod 3) }))
  in
  let forged =
    naive_fast_history ~seed:12 schedule
      ~byzantine:(Baseline.Naive_fast.byz_forge_high ~value:"ghost" ~ts_boost:10)
  in
  let simulated =
    naive_fast_history ~seed:13
      [ (0, Core.Schedule.Read { reader = 1 }) ]
      ~byzantine:(Baseline.Naive_fast.byz_simulate_write ~value:"ghost" ~ts:5)
  in
  List.iter
    (fun (name, ops) ->
      List.iter
        (fun (rule, check) ->
          agree (name ^ " " ^ rule) check ops;
          if Chunked.check ~chunk:1 check ~equal ops = [] then
            Alcotest.failf "%s: %s violation not caught" name rule)
        [ ("safety", Checks.check_safety); ("regularity", Checks.check_regularity) ])
    [ ("forge-high", forged); ("simulate-write", simulated) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "chunked checker",
        [
          Alcotest.test_case "agrees with whole history" `Quick test_random;
          Alcotest.test_case "catches naive-fast" `Quick test_naive_fast;
        ] );
    ]
