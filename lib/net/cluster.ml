(* One client engine as the cluster drives it, with its registry. *)
type engine = { client : Client.t; registry : Obs.Metrics.t option }

(* The op engine is created on first use and cached: its slots carry
   parked (timed-out) operations across calls, so rebuilding one per
   call would leak half-finished automata. *)
type cached = {
  c_inflight : int;
  c_coalesce : int;
  c_map : Shard.Map.t option;  (* [None]: the pooled key-0 readers *)
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
  mutable cached : cached option;
  (* Every engine [run] has built, newest first: a rebuilt one is
     closed, but its spans and registry still count. *)
  mutable built : engine list;
  (* Every engine records here, each key into its own history. *)
  record : Record.t;
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
    ?(interpose = false) ?sample ~protocol ~cfg ~readers () =
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
    cached = None;
    built = [];
    record = Record.create ?sample ();
    next_rid = readers + 1;
    copts = opts;
    protocol;
    now_us;
    fleet;
    with_metrics = metrics;
  }

let drive e record ops =
  Client.run_ops ~on_event:(Record.tap record ops) e.client ops

let write t value =
  (drive t.writer t.record [| Client.Write { key = 0; value } |]).(0)

let read t ~reader =
  if reader < 1 || reader > Array.length t.readers then
    invalid_arg (Printf.sprintf "Cluster.read: reader %d" reader);
  (drive t.readers.(reader - 1) t.record [| Client.Read { key = 0 } |]).(0)

(* The cached engine is reused while its parameters hold; otherwise it
   is closed and a fresh one takes a fresh reader-id range. *)
let engine_for t ~inflight ~coalesce ~map =
  match t.cached with
  | Some c
    when c.c_inflight = inflight && c.c_coalesce = coalesce
         && Option.equal ( == ) c.c_map map ->
      c.c_engine
  | old ->
      Option.iter (fun c -> Client.close c.c_engine.client) old;
      let first = t.next_rid in
      let connect metrics =
        match map with
        | None ->
            t.next_rid <- first + inflight;
            Client.Mux.connect ?metrics ?opts:t.copts ~now_us:t.now_us
              ~max_inflight:inflight ~first_reader:first ~coalesce
              ~protocol:t.protocol ~cfg:t.cfg ~readers:inflight t.endpoints
        | Some map ->
            t.next_rid <- first + 1;
            Client.Keyed.connect ?metrics ?opts:t.copts ~now_us:t.now_us
              ~max_inflight:inflight ~reader:first ~coalesce
              ~protocol:t.protocol ~map t.endpoints
      in
      let e = engine ~with_metrics:t.with_metrics connect in
      t.cached <-
        Some
          { c_inflight = inflight; c_coalesce = coalesce; c_map = map;
            c_engine = e };
      t.built <- e :: t.built;
      e

let run ?(inflight = 16) ?(coalesce = 1) ?map t ops =
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.run: inflight %d" inflight);
  (match map with
  | Some map when Shard.Map.fleet map <> Array.length t.endpoints ->
      invalid_arg
        (Printf.sprintf "Cluster.run: map fleet %d, cluster has %d"
           (Shard.Map.fleet map) (Array.length t.endpoints))
  | _ -> ());
  drive (engine_for t ~inflight ~coalesce ~map) t.record ops

let keys_touched t =
  match t.cached with
  | None -> 0
  | Some c -> Client.keys_touched c.c_engine.client

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

let histories t = Record.histories t.record

(* Writer, serial readers, then every [run] engine, oldest first. *)
let engines t = (t.writer :: Array.to_list t.readers) @ List.rev t.built

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
  (* rebuilt engines were closed when they were replaced *)
  List.iter (fun e -> Client.close e.client)
    ((t.writer :: Array.to_list t.readers)
    @ Option.to_list (Option.map (fun c -> c.c_engine) t.cached));
  Array.iter Chaos.stop t.chaos_;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  Endpoint.release t.fleet
