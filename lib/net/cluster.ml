(* One client engine as the cluster drives it, with its registry. *)
type engine = { client : Client.t; registry : Obs.Metrics.t option }

(* The pipelined and keyed engines are created on first use and cached:
   their slots carry parked (timed-out) operations across calls, so
   rebuilding one per call would leak half-finished automata. *)
type cached = {
  c_inflight : int;
  c_coalesce : int;
  c_map : Shard.Map.t option;  (* [None]: the pipelined single register *)
  c_engine : engine;
}

type t = {
  cfg : Quorum.Config.t;
  endpoints : Endpoint.t array;  (* what clients dial: proxies if interposed *)
  chaos_ : Chaos.t array;  (* per-object interposers; empty when direct *)
  mutable servers : Server.t array;
  server_registries : Obs.Metrics.t option array;
  writer : engine;
  readers : engine array;
  mutable mux : cached option;
  mutable keyed : cached option;
  (* The single register's history (key 0), and the keyed engine's
     per-key histories, restarted whenever that engine is rebuilt. *)
  record : Record.t;
  mutable keyed_record : Record.t;
  (* Base objects keep per-reader round state, so reader ids are never
     reused across engine generations: each new engine gets a fresh
     range. *)
  mutable next_rid : int;
  copts : Client.opts option;
  protocol : Protocols.t;
  now_us : unit -> int;
  fleet : Endpoint.fleet;
  with_metrics : bool;
}

let engine ~with_metrics connect =
  let registry = if with_metrics then Some (Obs.Metrics.create ()) else None in
  { client = connect registry; registry }

let start ?(metrics = false) ?opts ?(transport = `Unix) ?(domains = 1)
    ?(interpose = false) ~protocol ~cfg ~readers () =
  let s = cfg.Quorum.Config.s in
  (* Servers take the first [s] endpoints, interposers the next [s]. *)
  let fleet =
    Endpoint.fleet ~transport ~prefix:"robustread-net"
      (if interpose then 2 * s else s)
  in
  let registry () = if metrics then Some (Obs.Metrics.create ()) else None in
  let server_registries = Array.init s (fun _ -> registry ()) in
  (* All S objects sharded across [domains] event-loop domains. *)
  let servers =
    Server.start_group
      ?metrics:
        (if metrics then Some (fun i -> Option.get server_registries.(i))
         else None)
      ~domains ~protocol ~cfg (Array.sub fleet.endpoints 0 s)
  in
  (* Ephemeral TCP ports are only known after bind. *)
  let server_endpoints = Array.map Server.endpoint servers in
  let t0 = Unix.gettimeofday () in
  let now_us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  (* With interposition, every client dials a per-object chaos proxy
     relaying to the real server; the server endpoint stays stable
     across crash/restart, so a proxy never needs re-targeting. *)
  let chaos_ =
    if not interpose then [||]
    else
      Array.init s (fun i ->
          Chaos.start ~now_us ~listen:fleet.endpoints.(s + i)
            ~target:server_endpoints.(i) ())
  in
  let endpoints =
    if interpose then Array.map Chaos.endpoint chaos_ else server_endpoints
  in
  let slot role =
    engine ~with_metrics:metrics (fun metrics ->
        Client.connect ?metrics ?opts ~now_us ~protocol ~cfg ~role endpoints)
  in
  {
    cfg;
    endpoints;
    chaos_;
    servers;
    server_registries;
    writer = slot `Writer;
    readers = Array.init readers (fun j -> slot (`Reader (j + 1)));
    mux = None;
    keyed = None;
    record = Record.create ();
    keyed_record = Record.create ();
    next_rid = readers + 1;
    copts = opts;
    protocol;
    now_us;
    fleet;
    with_metrics = metrics;
  }

let run e record ops =
  Client.run_ops ~on_event:(Record.tap record ops) e.client ops

let write t value =
  (run t.writer t.record [| Client.Write { key = 0; value } |]).(0)

let read t ~reader =
  if reader < 1 || reader > Array.length t.readers then
    invalid_arg (Printf.sprintf "Cluster.read: reader %d" reader);
  (run t.readers.(reader - 1) t.record [| Client.Read { key = 0 } |]).(0)

(* A cached engine is reused while its parameters hold; otherwise it is
   closed and a fresh one takes a fresh reader-id range. *)
let cached t current ~who ~inflight ~coalesce ~map ~readers connect =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.%s: inflight %d" who inflight);
  match current with
  | Some c
    when c.c_inflight = inflight && c.c_coalesce = coalesce
         && Option.equal ( == ) c.c_map map ->
      c
  | existing ->
      Option.iter (fun c -> Client.close c.c_engine.client) existing;
      let first = t.next_rid in
      t.next_rid <- t.next_rid + readers;
      {
        c_inflight = inflight;
        c_coalesce = coalesce;
        c_map = map;
        c_engine = engine ~with_metrics:t.with_metrics (connect ~first);
      }

let read_pipelined ?(coalesce = 1) t ~inflight ~ops =
  let m =
    cached t t.mux ~who:"read_pipelined" ~inflight ~coalesce ~map:None
      ~readers:inflight (fun ~first metrics ->
        Client.Mux.connect ?metrics ?opts:t.copts ~now_us:t.now_us
          ~max_inflight:inflight ~first_reader:first ~coalesce
          ~protocol:t.protocol ~cfg:t.cfg ~readers:inflight t.endpoints)
  in
  t.mux <- Some m;
  run m.c_engine t.record (Array.make ops (Client.Read { key = 0 }))

let run_keyed ?(inflight = 16) ?(coalesce = 1) ?sample t ~map ops =
  if Shard.Map.fleet map <> Array.length t.endpoints then
    invalid_arg
      (Printf.sprintf "Cluster.run_keyed: map fleet %d, cluster has %d"
         (Shard.Map.fleet map) (Array.length t.endpoints));
  (* Fresh reader id: key 0 is also served to the single-register
     clients, so the keyed reader must not collide with their per-reader
     round state on key 0's objects. *)
  let k =
    cached t t.keyed ~who:"run_keyed" ~inflight ~coalesce ~map:(Some map)
      ~readers:1 (fun ~first metrics ->
        Client.Keyed.connect ?metrics ?opts:t.copts ~now_us:t.now_us
          ~max_inflight:inflight ~reader:first ~coalesce ~protocol:t.protocol
          ~map t.endpoints)
  in
  (* a rebuilt engine starts fresh per-key histories *)
  (match t.keyed with
  | Some c when c == k -> ()
  | Some _ | None -> t.keyed_record <- Record.create ?sample ());
  t.keyed <- Some k;
  run k.c_engine t.keyed_record ops

let keyed_histories t = Record.histories t.keyed_record

let keys_touched t =
  match t.keyed with None -> 0 | Some k -> Client.keys_touched k.c_engine.client

let check_index t i =
  if i < 1 || i > Array.length t.servers then
    invalid_arg (Printf.sprintf "Cluster: object %d" i)

let crash t i =
  check_index t i;
  Server.crash t.servers.(i - 1)

(* A restart that races a still-running server is a campaign finding,
   not a programming error: surface it structurally so a fault driver
   can skip or retry instead of unwinding mid-sweep. *)
let restart ?wipe t i =
  check_index t i;
  if Server.alive t.servers.(i - 1) then Error (`Still_alive i)
  else begin
    t.servers.(i - 1) <- Server.restart ?wipe t.servers.(i - 1);
    Ok ()
  end

let restart_exn ?wipe t i =
  match restart ?wipe t i with
  | Ok () -> ()
  | Error (`Still_alive i) ->
      invalid_arg (Printf.sprintf "Cluster.restart: server %d still alive" i)

let partition_violations t =
  (* A group-wide counter: every handle of the group reports the same
     one. *)
  Array.fold_left
    (fun acc s -> max acc (Server.partition_violations s))
    0 t.servers

let chaos t = t.chaos_

let now_us t = t.now_us ()

let alive t =
  Array.to_list t.servers
  |> List.filter_map (fun s ->
         if Server.alive s then Some (Server.index s) else None)

let endpoints t = t.endpoints

let history t = Record.history t.record 0

(* Writer, serial readers, then the cached pipelined and keyed engines. *)
let engines t =
  (t.writer :: Array.to_list t.readers)
  @ List.filter_map (Option.map (fun c -> c.c_engine)) [ t.mux; t.keyed ]

let spans t = List.concat_map (fun e -> Client.spans e.client) (engines t)

let metrics t =
  if not t.with_metrics then None
  else begin
    let dst = Obs.Metrics.create () in
    let merge = Option.iter (fun src -> Obs.Metrics.merge_into ~dst src) in
    Array.iter merge t.server_registries;
    List.iter (fun e -> merge e.registry) (engines t);
    Some dst
  end

let stop t =
  List.iter (fun e -> Client.close e.client) (engines t);
  t.mux <- None;
  t.keyed <- None;
  Array.iter Chaos.stop t.chaos_;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  Endpoint.release t.fleet
