type direction = To_server | To_client

type action = Drop | Duplicate of int | Corrupt

type rule = {
  dir : direction;
  sender : string option;
  from_us : int;
  until_us : int;
  act : action;
}

type stats = {
  forwarded : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
}

(* One relayed session: the accepted client socket paired with its
   upstream dial.  [c_sender] is learned from the session's [Hello] and
   attributes frames that carry no inline sender. *)
type conn = {
  c_client : Unix.file_descr;
  c_server : Unix.file_descr;
  mutable c_sender : string;
  mutable c_open : bool;
  c_lock : Mutex.t;
}

type t = {
  listen_ep : Endpoint.t;
  target_ep : Endpoint.t;
  now_us : unit -> int;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  mutable rules_ : rule list;
  mutable conns : conn list;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  mutable s_forwarded : int;
  mutable s_dropped : int;
  mutable s_duplicated : int;
  mutable s_corrupted : int;
}

let shutdown_quietly fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump t field =
  locked t (fun () ->
      match field with
      | `Forwarded -> t.s_forwarded <- t.s_forwarded + 1
      | `Dropped -> t.s_dropped <- t.s_dropped + 1
      | `Duplicated -> t.s_duplicated <- t.s_duplicated + 1
      | `Corrupted -> t.s_corrupted <- t.s_corrupted + 1)

let close_conn t conn =
  let was_open =
    Mutex.lock conn.c_lock;
    let o = conn.c_open in
    conn.c_open <- false;
    Mutex.unlock conn.c_lock;
    o
  in
  if was_open then begin
    (* shutdown first so a peer (or our own pump) blocked on the socket
       wakes up instead of hanging on a silently closed fd *)
    shutdown_quietly conn.c_client;
    shutdown_quietly conn.c_server;
    Endpoint.close_quietly conn.c_client;
    Endpoint.close_quietly conn.c_server;
    locked t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns)
  end

(* ----- frame relaying ---------------------------------------------------- *)

let corrupt_payload p =
  let n = String.length p in
  if n <= Codec.header_bytes then p
  else begin
    let b = Bytes.of_string p in
    for i = Codec.header_bytes to n - 1 do
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0xa5)
    done;
    Bytes.unsafe_to_string b
  end

exception Relay_closed

(* Apply the active rules to one frame payload and queue the survivors
   on [out]. *)
let process_frame t conn ~dir ~out payload =
  let now = t.now_us () in
  let sender =
    match Codec.peek_sender payload with
    | Some s ->
        if dir = To_server && conn.c_sender = "" then conn.c_sender <- s;
        Some s
    | None -> if conn.c_sender = "" then None else Some conn.c_sender
  in
  let active =
    List.filter
      (fun r ->
        r.dir = dir
        && now >= r.from_us
        && now < r.until_us
        &&
        match r.sender with
        | None -> true
        | Some who -> sender = Some who)
      t.rules_
  in
  if List.exists (fun r -> r.act = Drop) active then bump t `Dropped
  else begin
    let payload =
      if List.exists (fun r -> r.act = Corrupt) active then begin
        bump t `Corrupted;
        corrupt_payload payload
      end
      else payload
    in
    let copies =
      List.fold_left
        (fun acc r -> match r.act with Duplicate c -> acc + c | _ -> acc)
        0 active
    in
    for _ = 0 to copies do
      Codec.Out.add_payload out payload
    done;
    bump t `Forwarded;
    for _ = 1 to copies do
      bump t `Duplicated
    done
  end

(* Relay one direction of a session: cut the stream into frames with
   the codec's reader, apply the rules, and send what survives of one
   read in one write.  A read that would block is bounded by a short
   [select], so a stopped proxy is noticed promptly. *)
let pump t conn ~dir ~src ~dst =
  let reader = Codec.Reader.create () in
  let out = Codec.Out.create () in
  let rec cut () =
    match Codec.Reader.next_raw reader with
    | Error _ -> raise Relay_closed
    | Ok `Awaiting -> ()
    | Ok (`Payload p) ->
        process_frame t conn ~dir ~out p;
        cut ()
  in
  let rec loop () =
    if t.stopped || not conn.c_open then ()
    else
      match Unix.select [ src ] [] [] 0.01 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
          if Codec.recv_into src reader = 0 then raise Relay_closed;
          cut ();
          Codec.flush dst out;
          loop ()
  in
  (try loop () with
  | Relay_closed | Unix.Unix_error _ -> ()
  | Sys_error _ -> ());
  Codec.Reader.recycle reader;
  Codec.Out.recycle out;
  close_conn t conn

(* ----- session setup ----------------------------------------------------- *)

let handle_accept t cfd =
  match Endpoint.dial t.target_ep with
  | exception (Unix.Unix_error _ | Failure _) ->
      (* Target down: a client dialing through us experiences exactly a
         dead server — immediate EOF after connect. *)
      Endpoint.close_quietly cfd
  | sfd ->
      let conn =
        {
          c_client = cfd;
          c_server = sfd;
          c_sender = "";
          c_open = true;
          c_lock = Mutex.create ();
        }
      in
      locked t (fun () -> t.conns <- conn :: t.conns);
      if t.stopped then close_conn t conn
      else begin
        ignore
          (Thread.create
             (fun () ->
               pump t conn ~dir:To_server ~src:cfd ~dst:sfd)
             ());
        ignore
          (Thread.create
             (fun () ->
               pump t conn ~dir:To_client ~src:sfd ~dst:cfd)
             ())
      end

(* Bounded select before accept: closing the listener from [stop] must
   wake this thread even on platforms where close alone does not. *)
let rec accept_loop t =
  if not t.stopped then
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
    | exception Unix.Unix_error _ -> ()  (* listener closed: stopping *)
    | [], _, _ -> accept_loop t
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | cfd, _ ->
            Endpoint.set_nodelay cfd;
            handle_accept t cfd;
            accept_loop t
        | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
            accept_loop t
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
        | exception Unix.Unix_error _ -> ())

let start ~now_us ~listen ~target () =
  let listen_fd, listen_ep = Endpoint.listen listen in
  let t =
    {
      listen_ep;
      target_ep = target;
      now_us;
      listen_fd;
      lock = Mutex.create ();
      rules_ = [];
      conns = [];
      stopped = false;
      accept_thread = None;
      s_forwarded = 0;
      s_dropped = 0;
      s_duplicated = 0;
      s_corrupted = 0;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let endpoint t = t.listen_ep

let set_rules t rules = locked t (fun () -> t.rules_ <- rules)

let stats t =
  locked t (fun () ->
      {
        forwarded = t.s_forwarded;
        dropped = t.s_dropped;
        duplicated = t.s_duplicated;
        corrupted = t.s_corrupted;
      })

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Endpoint.close_quietly t.listen_fd;
    Endpoint.cleanup t.listen_ep;
    let conns = locked t (fun () -> t.conns) in
    List.iter (close_conn t) conns;
    match t.accept_thread with
    | None -> ()
    | Some th ->
        t.accept_thread <- None;
        Thread.join th
  end
