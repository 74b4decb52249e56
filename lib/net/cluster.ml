(* One client engine as the cluster drives it, with the recorder handles
   of the operations it has open. *)
type engine = {
  client : Client.t;
  registry : Obs.Metrics.t option;
  (* Open ops by (key, write, reader id): a timed-out op stays open, and
     the op that resumes its slot responds to the original invocation. *)
  open_ops : (int * bool * int, Histories.Recorder.op_handle) Hashtbl.t;
  (* Coalesced reads overlap their lead on the same slot, so they get
     handles of their own, keyed by op index (they never park). *)
  joined : (int, Histories.Recorder.op_handle) Hashtbl.t;
}

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
  (* Per-key histories of the keyed engine, for sampled keys: each key
     is its own register. *)
  keyed_recorders : (int, string Histories.Recorder.t) Hashtbl.t;
  (* Base objects keep per-reader round state, so reader ids are never
     reused across engine generations: each new engine gets a fresh
     range. *)
  mutable next_rid : int;
  (* Recorder reader ids for coalesced reads: the recorder insists each
     concurrently-open read has a distinct reader, and joined reads
     overlap their lead by construction.  Starts far above any real
     reader id so the ranges can never collide. *)
  mutable next_jrid : int;
  copts : Client.opts option;
  protocol : Protocols.t;
  recorder : string Histories.Recorder.t;
  rec_mutex : Mutex.t;
  now_us : unit -> int;
  tmpdir : string option;
  with_metrics : bool;
}

let engine ~with_metrics connect =
  let registry = if with_metrics then Some (Obs.Metrics.create ()) else None in
  {
    client = connect registry;
    registry;
    open_ops = Hashtbl.create 16;
    joined = Hashtbl.create 16;
  }

let tmp_counter = ref 0

let fresh_tmpdir () =
  let rec go n =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "robustread-net-%d-%d" (Unix.getpid ()) n)
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
  in
  incr tmp_counter;
  go !tmp_counter

let start ?(metrics = false) ?opts ?(transport = `Unix) ?(domains = 1)
    ?(interpose = false) ~protocol ~cfg ~readers () =
  let s = cfg.Quorum.Config.s in
  let tmpdir, endpoints =
    match transport with
    | `Unix ->
        let dir = fresh_tmpdir () in
        ( Some dir,
          Array.init s (fun i ->
              Endpoint.Unix_sock
                (Filename.concat dir (Printf.sprintf "s%d.sock" (i + 1)))) )
    | `Tcp ->
        ( None,
          Array.init s (fun _ -> Endpoint.Tcp { host = "127.0.0.1"; port = 0 })
        )
  in
  let registry () = if metrics then Some (Obs.Metrics.create ()) else None in
  let server_registries = Array.init s (fun _ -> registry ()) in
  (* All S objects sharded across [domains] event-loop domains. *)
  let servers =
    Server.start_group
      ?metrics:
        (if metrics then Some (fun i -> Option.get server_registries.(i))
         else None)
      ~domains ~protocol ~cfg endpoints
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
          let listen =
            match (transport, tmpdir) with
            | `Unix, Some dir ->
                Endpoint.Unix_sock
                  (Filename.concat dir (Printf.sprintf "c%d.sock" (i + 1)))
            | _ -> Endpoint.Tcp { host = "127.0.0.1"; port = 0 }
          in
          Chaos.start ~now_us ~listen ~target:server_endpoints.(i) ())
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
    keyed_recorders = Hashtbl.create 64;
    next_rid = readers + 1;
    next_jrid = 1_000_000;
    copts = opts;
    protocol;
    recorder = Histories.Recorder.create ();
    rec_mutex = Mutex.create ();
    now_us;
    tmpdir;
    with_metrics = metrics;
  }

let locked t f =
  Mutex.lock t.rec_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rec_mutex) f

let result_of (o : Client.outcome) =
  match o.value with
  | Some (Core.Value.V s) -> Histories.Op.Value s
  | Some Core.Value.Bottom | None -> Histories.Op.Bottom

(* Record one engine event in [recorder key]'s history ([None]: the key
   is not sampled).  Ops are recorded at their real invoke/respond
   instants, so the checkers see the true concurrency. *)
let record t e ~recorder ops ev =
  match ev with
  | Client.Invoke { op; key; write; reader; joined; at_us } -> (
      match recorder key with
      | None -> ()
      | Some r ->
          if joined then begin
            (* A coalesced read overlaps its lead, so it needs a
               recorder reader id of its own (the recorder allows one
               open op per reader). *)
            let jrid = t.next_jrid in
            t.next_jrid <- jrid + 1;
            Hashtbl.replace e.joined op
              (Histories.Recorder.invoke_read r ~time:at_us ~reader:jrid)
          end
          else if not (Hashtbl.mem e.open_ops (key, write, reader)) then
            (* (an open entry means a parked op is being resumed: its
               invocation stands) *)
            Hashtbl.replace e.open_ops (key, write, reader)
              (match ops.(op) with
              | Client.Write { value; _ } ->
                  Histories.Recorder.invoke_write r ~time:at_us
                    (Core.Value.to_string value)
              | Client.Read _ ->
                  Histories.Recorder.invoke_read r ~time:at_us ~reader))
  | Client.Respond { op; key; write; reader; joined; at_us; outcome } -> (
      let h =
        if joined then Hashtbl.find_opt e.joined op
        else Hashtbl.find_opt e.open_ops (key, write, reader)
      in
      (* joined ops never park; a failed lead stays open for the op that
         resumes it *)
      if joined then Hashtbl.remove e.joined op;
      match (recorder key, h, outcome) with
      | Some r, Some h, Ok o ->
          if not joined then Hashtbl.remove e.open_ops (key, write, reader);
          if write then Histories.Recorder.respond_write r h ~time:at_us
          else Histories.Recorder.respond_read r h ~time:at_us (result_of o)
      | _ -> ())

(* Events fire on the pump's hot path, once per op start and finish:
   take the mutex directly instead of allocating a [locked] thunk per
   event.  Recorder calls raise only on misuse bugs; the handler
   re-raises with the mutex released so the failure stays loud. *)
let run t e ~recorder ops =
  let on_event ev =
    Mutex.lock t.rec_mutex;
    (try record t e ~recorder ops ev
     with ex ->
       Mutex.unlock t.rec_mutex;
       raise ex);
    Mutex.unlock t.rec_mutex
  in
  Client.run_ops ~on_event e.client ops

let main_history t _ = Some t.recorder

let write t value =
  (run t t.writer ~recorder:(main_history t)
     [| Client.Write { key = 0; value } |]).(0)

let read t ~reader =
  if reader < 1 || reader > Array.length t.readers then
    invalid_arg (Printf.sprintf "Cluster.read: reader %d" reader);
  (run t t.readers.(reader - 1) ~recorder:(main_history t)
     [| Client.Read { key = 0 } |]).(0)

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
  run t m.c_engine ~recorder:(main_history t)
    (Array.make ops (Client.Read { key = 0 }))

let run_keyed ?(inflight = 16) ?(coalesce = 1) ?(sample = fun _ -> true) t ~map
    ops =
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
  | Some _ | None -> Hashtbl.reset t.keyed_recorders);
  t.keyed <- Some k;
  let recorder key =
    if not (sample key) then None
    else
      match Hashtbl.find_opt t.keyed_recorders key with
      | Some r -> Some r
      | None ->
          let r = Histories.Recorder.create () in
          Hashtbl.replace t.keyed_recorders key r;
          Some r
  in
  run t k.c_engine ~recorder ops

let keyed_histories t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key r acc -> (key, Histories.Recorder.ops r) :: acc)
        t.keyed_recorders []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

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

let cfg t = t.cfg

let history t = locked t (fun () -> Histories.Recorder.ops t.recorder)

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
  match t.tmpdir with
  | None -> ()
  | Some dir -> ( try Unix.rmdir dir with Unix.Unix_error _ -> ())
