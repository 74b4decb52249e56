(* One client engine as the cluster drives it, with its registry. *)
type engine = { client : Client.t; registry : Obs.Metrics.t option }

(* The op engines are created on first use and cached: their slots
   carry parked (timed-out) operations across calls, so rebuilding them
   per call would leak half-finished automata. *)
type cached = {
  params : int * int * int;  (* inflight, coalesce, client count *)
  engines : engine array;  (* one per client of a [run] *)
}

type pass = {
  results : (Client.outcome, string) result array;
  wall_s : float;
}

type t = {
  cfg : Quorum.Config.t;
  map : Shard.Map.t option;  (* [None]: the single register *)
  endpoints : Endpoint.t array;  (* what clients dial: proxies if interposed *)
  chaos_ : Chaos.t array;  (* per-slot interposers; empty when direct *)
  mutable servers : Server.t array;
  server_registries : Obs.Metrics.t option array;
  writer : engine;
  readers : engine array;
  mutable cached : cached option;
  (* Every engine [run] has built, newest first: a rebuilt one is
     closed, but its keys, spans and registry still count. *)
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
  observe : [ `Spans | `Metrics | `Off ];  (* the clients' *)
}

let engine ~observe connect =
  let registry =
    if observe = `Off then None else Some (Obs.Metrics.create ())
  in
  { client = connect ~spans:(observe = `Spans) registry; registry }

let start ?(metrics = false) ?(observe_clients = `Spans) ?opts
    ?(transport = `Unix) ?(domains = 1) ?(interpose = false) ?sample ?map
    ~protocol ~cfg ~readers () =
  let observe = if metrics then observe_clients else `Off in
  let s = cfg.Quorum.Config.s in
  let n =
    match map with
    | None -> s
    | Some m ->
        if not (Quorum.Config.equal (Shard.Map.cfg m) cfg) then
          invalid_arg "Cluster.start: the map's configuration is not cfg";
        Shard.Map.fleet m
  in
  (* Servers take the first [n] endpoints, interposers the next [n]. *)
  let fleet =
    Endpoint.fleet ~transport ~prefix:"robustread-net"
      (if interpose then 2 * n else n)
  in
  let registry () = if metrics then Some (Obs.Metrics.create ()) else None in
  let server_registries = Array.init n (fun _ -> registry ()) in
  (* All [n] slots sharded across [domains] event-loop domains. *)
  let servers =
    Server.start_group
      ?metrics:
        (if metrics then Some (fun i -> Option.get server_registries.(i))
         else None)
      ~domains ~protocol ~cfg (Array.sub fleet.endpoints 0 n)
  in
  (* Ephemeral TCP ports are only known after bind. *)
  let server_endpoints = Array.map Server.endpoint servers in
  let t0 = Unix.gettimeofday () in
  let now_us () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  (* With interposition, every client dials a per-slot chaos proxy
     relaying to the real server; the server endpoint stays stable
     across crash/restart, so a proxy never needs re-targeting. *)
  let chaos_ =
    if not interpose then [||]
    else
      Array.init n (fun i ->
          Chaos.start ~now_us ~listen:fleet.endpoints.(n + i)
            ~target:server_endpoints.(i) ())
  in
  let endpoints =
    if interpose then Array.map Chaos.endpoint chaos_ else server_endpoints
  in
  (* Key 0's shard is the first S slots under every map, so the serial
     clients keep the single register's objects. *)
  let slot role =
    engine ~observe (fun ~spans metrics ->
        Client.connect ?metrics ~spans ?opts ~now_us ~protocol ~cfg ~role
          (Array.sub endpoints 0 s))
  in
  {
    cfg;
    map;
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
    observe;
  }

let drive e record ops =
  Client.run_ops ~on_event:(Record.tap record ops) e.client ops

let write t value =
  (drive t.writer t.record [| Client.Write { key = 0; value } |]).(0)

let read t ~reader =
  if reader < 1 || reader > Array.length t.readers then
    invalid_arg (Printf.sprintf "Cluster.read: reader %d" reader);
  (drive t.readers.(reader - 1) t.record [| Client.Read { key = 0 } |]).(0)

(* One new op engine on a fresh reader-id range: a pool of [inflight]
   key-0 readers for the single register, a keyed client otherwise. *)
let connect_engine t ~inflight ~coalesce =
  let first = t.next_rid in
  engine ~observe:t.observe (fun ~spans metrics ->
      match t.map with
      | None ->
          t.next_rid <- first + inflight;
          Client.Mux.connect ?metrics ~spans ?opts:t.copts
            ~now_us:t.now_us ~max_inflight:inflight ~first_reader:first
            ~coalesce ~protocol:t.protocol ~cfg:t.cfg ~readers:inflight
            t.endpoints
      | Some map ->
          t.next_rid <- first + 1;
          Client.Keyed.connect ?metrics ~spans ?opts:t.copts
            ~now_us:t.now_us ~max_inflight:inflight ~reader:first ~coalesce
            ~protocol:t.protocol ~map t.endpoints)

(* The cached engines are reused while their parameters and count hold;
   otherwise they are closed and fresh ones take fresh reader ids. *)
let engines_for t ~inflight ~coalesce ~clients =
  let params = (inflight, coalesce, clients) in
  match t.cached with
  | Some c when c.params = params -> c.engines
  | old ->
      Option.iter
        (fun c -> Array.iter (fun e -> Client.close e.client) c.engines)
        old;
      let engines =
        Array.init clients (fun _ -> connect_engine t ~inflight ~coalesce)
      in
      t.cached <- Some { params; engines };
      t.built <- List.rev_append (Array.to_list engines) t.built;
      engines

let run ?(inflight = 16) ?(coalesce = 1) t clients =
  let k = Array.length clients in
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Cluster.run: inflight %d" inflight);
  if k < 1 then invalid_arg "Cluster.run: no clients";
  let engines = engines_for t ~inflight ~coalesce ~clients:k in
  (* What an engine would reject, rejected before any of them runs. *)
  Array.iteri
    (fun c ops -> Array.iter (Client.check_op engines.(c).client) ops)
    clients;
  (* Only client 0 records: taps of one record serialize on its lock. *)
  let on_event = Record.tap t.record clients.(0) in
  let pass c =
    let t0 = Unix.gettimeofday () in
    let results =
      Client.run_ops
        ?on_event:(if c = 0 then Some on_event else None)
        engines.(c).client clients.(c)
    in
    { results; wall_s = Unix.gettimeofday () -. t0 }
  in
  if k = 1 then [| pass 0 |]
  else begin
    (* One domain per client, all released from one barrier.  [abort]
       releases the spawned ones without running if a later spawn
       fails. *)
    let ready = Atomic.make 0 and abort = Atomic.make false in
    let body c () =
      Atomic.incr ready;
      while Atomic.get ready < k && not (Atomic.get abort) do
        Domain.cpu_relax ()
      done;
      if Atomic.get abort then None else Some (pass c)
    in
    let spawned = ref [] in
    (try
       for c = 0 to k - 1 do
         spawned := Domain.spawn (body c) :: !spawned
       done
     with e ->
       Atomic.set abort true;
       List.iter (fun d -> ignore (Domain.join d)) !spawned;
       raise e);
    (* Join every domain before re-raising a client's exception. *)
    List.rev_map
      (fun d -> match Domain.join d with r -> Ok r | exception e -> Error e)
      !spawned
    |> List.map (function Ok r -> Option.get r | Error e -> raise e)
    |> Array.of_list
  end

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

(* Distinct keys: several engines may touch one key. *)
let keys_touched t =
  List.concat_map (fun e -> Client.touched_keys e.client) (engines t)
  |> List.sort_uniq Int.compare |> List.length

let spans t = List.concat_map (fun e -> Client.spans e.client) (engines t)

let merged t registries =
  if not t.with_metrics then None
  else begin
    let dst = Obs.Metrics.create () in
    List.iter (Option.iter (fun src -> Obs.Metrics.merge_into ~dst src))
      registries;
    Some dst
  end

let server_metrics t = merged t (Array.to_list t.server_registries)

let metrics t =
  merged t
    (Array.to_list t.server_registries
    @ List.map (fun e -> e.registry) (engines t))

let stop t =
  (* rebuilt engines were closed when they were replaced *)
  List.iter (fun e -> Client.close e.client)
    ((t.writer :: Array.to_list t.readers)
    @ Option.fold ~none:[] ~some:(fun c -> Array.to_list c.engines) t.cached);
  Array.iter Chaos.stop t.chaos_;
  Array.iter (fun s -> if Server.alive s then Server.stop s) t.servers;
  Endpoint.release t.fleet
