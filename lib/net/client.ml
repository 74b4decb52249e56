type opts = { deadline : float; retries : int; backoff : float }

let default_opts = { deadline = 1.0; retries = 5; backoff = 0.05 }

(* Retransmit backoff: exponential in the attempt but clamped — at the
   default 50ms base, attempt 20 would otherwise land ~14.6 hours out,
   so one long outage could wedge an operation far past its deadline
   budget.  (Reconnect pacing has its own, shorter [reconnect_cap].) *)
let backoff_cap = 1.0

let retry_backoff opts ~attempt =
  Float.min backoff_cap (opts.backoff *. (2. ** float_of_int attempt))

(* Where the engine's event loop parks when every endpoint is down: sleep
   a bounded slice of the next-wakeup timeout, so reconnect attempts stay
   paced without spinning and without oversleeping a near deadline. *)
let idle_wait timeout = Thread.delay (Float.max 0.001 (Float.min 0.01 timeout))

type outcome = {
  value : Core.Value.t option;
  rounds : int;
  retransmits : int;
  latency_us : int;
}

(* One endpoint = one base object.  [fd = None] marks the endpoint down;
   reconnects are rate-limited by [next_attempt] so a dead server costs
   one connect attempt per backoff window, not one per message. *)
type conn = {
  index : int;  (* 1-based object index *)
  ep : Endpoint.t;
  mutable fd : Unix.file_descr option;
  reader : Codec.Reader.t;  (* reused (reset) across reconnects *)
  out : Codec.Out.t;  (* per-connection encode scratch / outbound batch *)
  mutable frames_out : int;  (* frames appended since the last flush *)
  mutable ever : bool;  (* connected at least once: re-dials are reconnects *)
  mutable fails : int;
  mutable next_attempt : float;
  mutable warned_at : float;
  mutable suppressed : int;  (* warnings swallowed since [warned_at] *)
}

let mk_conn i ep =
  {
    index = i + 1;
    ep;
    fd = None;
    reader = Codec.Reader.create ();
    out = Codec.Out.create ();
    frames_out = 0;
    ever = false;
    fails = 0;
    next_attempt = 0.;
    warned_at = neg_infinity;
    suppressed = 0;
  }

let reconnect_cap = 2.0

(* A flapping endpoint must not flood stderr during a long bench: at
   most one reconnect warning per endpoint per window, with a count of
   what was swallowed in between. *)
let warn_interval = 5.0

let warn_reconnect c ~now msg =
  if now -. c.warned_at >= warn_interval then begin
    Printf.eprintf "robustread-net: object %d (%s): %s%s\n%!" c.index
      (Endpoint.to_string c.ep) msg
      (if c.suppressed > 0 then
         Printf.sprintf " (%d similar warnings suppressed)" c.suppressed
       else "");
    c.warned_at <- now;
    c.suppressed <- 0
  end
  else c.suppressed <- c.suppressed + 1

let penalize c ~now =
  c.fails <- c.fails + 1;
  c.next_attempt <- now +. Float.min reconnect_cap (0.05 *. float_of_int c.fails)

let drop_conn ~count c =
  match c.fd with
  | None -> ()
  | Some fd ->
      Endpoint.close_quietly fd;
      c.fd <- None;
      Codec.Reader.reset c.reader;
      Codec.Out.clear c.out;
      c.frames_out <- 0;
      penalize c ~now:(Unix.gettimeofday ());
      count "net.client.disconnects"

(* Connect and send the session [Hello]; failures are penalized and
   (rate-limitedly) reported.  [on_reconnect] fires when the endpoint
   had been connected before — the server behind it may have restarted
   (possibly wiped), so protocols with client-side cached state must
   resync (see {!Core.Protocol_intf.S.reader_on_reconnect}). *)
let try_connect ~count ~on_reconnect ~codec ~proto_name ~proc c =
  match Endpoint.dial c.ep with
  | fd -> (
      Codec.Reader.reset c.reader;
      c.fails <- 0;
      c.fd <- Some fd;
      let reconnected = c.ever in
      c.ever <- true;
      count "net.client.connects";
      if reconnected then on_reconnect ();
      try
        Codec.encode_frame_into codec c.out
          (Codec.Hello { proto = proto_name; sender = proc; obj = c.index });
        Codec.flush fd c.out;
        c.frames_out <- 0
      with Unix.Unix_error _ -> drop_conn ~count c)
  | exception Unix.Unix_error (err, _, _) ->
      let now = Unix.gettimeofday () in
      penalize c ~now;
      (* Chaos runs assert on reconnect behaviour: every failed attempt
         counts in the registry even when the stderr warning above is
         rate-limited away. *)
      count "op.reconnects";
      warn_reconnect c ~now
        (Printf.sprintf "reconnect failed: %s" (Unix.error_message err))

(* ===== observation ===================================================== *)

(* What an engine built with a registry records: a span per operation,
   and every per-message and per-op metric as a handle resolved on first
   use.  Lazy resolution keeps a metric never touched absent from the
   registry, exactly as by-name updates would, and no metric name is
   built on the hot path.  An engine without a registry has no [obs]:
   it keeps no span and updates no metric. *)
type op_meters = {
  completed : Obs.Metrics.counter Lazy.t;
  rounds : Obs.Metrics.Histogram.t Lazy.t;
  latency_us : Obs.Metrics.Histogram.t Lazy.t;
  replies : Obs.Metrics.Histogram.t Lazy.t;
  contacted : Obs.Metrics.Histogram.t Lazy.t;
}

type obs = {
  reg : Obs.Metrics.t;
  collector : Obs.Span.collector;
  sent : Obs.Wire.counters;
  delivered : Obs.Wire.counters;
  frame_bytes : Obs.Metrics.Histogram.t Lazy.t;
      (* observed per frame appended to a connection's batch: the
         frame's full wire size, length prefix included, so key
         tagging's extra varint shows up here as +1–2 bytes *)
  batch_size : Obs.Metrics.Histogram.t Lazy.t;
  flush_us : Obs.Metrics.Histogram.t Lazy.t;
  read_m : op_meters;
  write_m : op_meters;
  fast_reads : Obs.Metrics.counter Lazy.t;
  fallback_rounds : Obs.Metrics.counter Lazy.t;
  coalesced_reads : Obs.Metrics.counter Lazy.t;
  coalesce_width : Obs.Metrics.Histogram.t Lazy.t;
  shard_m : (Obs.Metrics.counter Lazy.t * Obs.Metrics.counter Lazy.t) array;
      (* per-shard reads and fast reads; empty for a one-shard map *)
}

let counter reg name = lazy (Obs.Metrics.counter reg name)

let histogram reg name bounds = lazy (Obs.Metrics.histogram reg name ~bounds)

let bump c = Obs.Metrics.counter_incr (Lazy.force c)

let observe h v = Obs.Metrics.Histogram.observe_int (Lazy.force h) v

let op_meters reg kind =
  let name m = "op." ^ kind ^ "." ^ m in
  {
    completed = counter reg (name "completed");
    rounds = histogram reg (name "rounds") Obs.Metrics.round_bounds;
    latency_us = histogram reg (name "latency_us") Obs.Metrics.wallclock_bounds;
    replies = histogram reg (name "replies") Obs.Metrics.count_bounds;
    contacted = histogram reg (name "contacted") Obs.Metrics.count_bounds;
  }

let make_obs reg ~spans ~shards =
  {
    reg;
    collector = Obs.Span.collector ~keep:spans ();
    sent = Obs.Wire.counters reg ~stage:"sent";
    delivered = Obs.Wire.counters reg ~stage:"delivered";
    frame_bytes =
      histogram reg "wire.bytes_per_frame" Obs.Metrics.bytes_bounds;
    batch_size = histogram reg "wire.batch_size" Obs.Metrics.batch_bounds;
    flush_us = histogram reg "wire.flush_us" Obs.Metrics.wallclock_bounds;
    read_m = op_meters reg "read";
    write_m = op_meters reg "write";
    fast_reads = counter reg "op.fast_reads";
    fallback_rounds = counter reg "op.fallback_rounds";
    coalesced_reads = counter reg "op.coalesced_reads";
    coalesce_width = histogram reg "op.coalesce_width" Obs.Metrics.batch_bounds;
    (* Per-shard fast-read engagement: E19's per-shard evidence that the
       §5.1 one-round path survives sharding.  A one-shard map has
       nothing to break down. *)
    shard_m =
      (if shards < 2 then [||]
       else
         Array.init shards (fun s ->
             ( counter reg (Printf.sprintf "shard.%d.reads" s),
               counter reg (Printf.sprintf "shard.%d.fast_reads" s) )));
  }

(* ===== the client engine ================================================= *)

(* One event loop drives reader AND writer automata for a whole keyspace
   over one connection per fleet server.  Placement comes from
   [Shard.Map]: a key's traffic goes as [Msg_key] frames to the S
   members of its shard only, and replies demux by the echoed (key,
   sender) pair.  Automata are per key and lazily materialized — a key's
   readers keep their own §5.1 timestamp caches and GC floors, its
   writer its own monotone timestamps, so keys are as independent over
   the wire as they are in the simulator (which is what makes per-shard
   correctness the single-register argument verbatim).  A single
   register is key 0 of a one-shard map.

   Objects are attributed by their fleet-global 1-based index (the
   connection's [index]): the automata only ever count DISTINCT object
   ids against the quorum thresholds and key their reply maps by id, so
   they never require the contiguous 1..S space — a shard's S member
   ids work unchanged.

   Each key has one writer slot and a pool of reader slots (ids
   [first_reader ..]).  A reader automaton runs one operation at a time
   (its round timestamps are per-op), so a key's concurrent reads need
   distinct reader ids: the serial and keyed clients use a pool of one,
   the pipelined single register a pool of [readers].  Per (key, role)
   excess operations queue FIFO, so per-key reads and per-key writes
   each stay program-ordered while different keys overlap freely up to
   the window.  A read and a write on the SAME key may overlap — they
   are different automata, exactly the paper's concurrent
   reader/writer.

   Single-writer discipline is the caller's: the registers are SWMR, so
   at most one process may ever write a given key (the load driver
   partitions write ownership by [Shard.Map.mix key]). *)

(* Op and event types live in a module of their own so that [Mux] and
   [Keyed] re-export them with one [include]. *)
module Ops = struct
  type kop = Workload.Keyspace.op =
    | Read of { key : int }
    | Write of { key : int; value : Core.Value.t }

  (* [joined] marks a coalesced read: it never ran its own quorum round
     but adopted the result of the round a reader slot of its key was
     assembling when it was invoked.  Writes never coalesce.  [reader] is
     the reader id of the slot that ran the op, 0 for writes. *)
  type event =
    | Invoke of {
        op : int;
        key : int;
        write : bool;
        reader : int;
        joined : bool;
        at_us : int;
      }
    | Respond of {
        op : int;
        key : int;
        write : bool;
        reader : int;
        joined : bool;
        at_us : int;
        outcome : (outcome, string) result;
      }
end

include Ops

(* An operation's latency runs from [start]; [span] is [Some] exactly
   when the engine is observed. *)
type joiner = { jop : int; jstart : int; jspan : Obs.Span.t option }

type 'm active = {
  aop : int;  (* index into the run's result array *)
  mutable acur : 'm;  (* current round's broadcast *)
  astart : int;
  aspan : Obs.Span.t option;
  mutable adeadline : float;
  mutable abackoff_until : float;  (* 0. = not backing off *)
  mutable aattempt : int;
  mutable aretr : int;
  abatch : joiner Coalesce.t option;
      (* READ coalescing: the reads that joined this round while its
         round-1 broadcast was still being assembled.  [None] for
         writes, for resumed parked rounds (their evidence gathering
         already started — a join would not be regular), and when
         coalescing is off.  Closed the instant the broadcast is flushed
         to the wire. *)
}

(* A timed-out op parks its machine mid-round (no abort in the paper's
   automata); the next op assigned to the slot resumes it, keeping the
   parked op's start and span.  If replies trickle in while parked and
   complete the op, the result is stashed ([Sdone]) and adopted by the
   next assignment. *)
type 'm slot_state =
  | Sidle
  | Sactive of 'm active
  | Sparked of { mutable pcur : 'm; pstart : int; pspan : Obs.Span.t option }
  | Sdone of outcome

type 'm slot = {
  sidx : int;  (* reader pool index; -1 for the key's writer *)
  mutable st : 'm slot_state;
  mutable apos : int;  (* position in the engine's active set, or -1 *)
}

module Keys = Hashtbl.Make (Int)

type ('m, 'r, 'w) kreg = {
  kkey : int;
  kshard : int;
  kconns : int array;  (* fleet slots (0-based) of the key's shard members *)
  krd : 'r array;  (* reader automata, one per pool id *)
  mutable kwr : 'w;
  krs : 'm slot array;  (* reader slots, pool order *)
  kws : 'm slot;
  krq : int Queue.t;  (* queued read op indices, program order *)
  kwq : int Queue.t;  (* queued write op indices, program order *)
}

type t = {
  run :
    ?on_event:(event -> unit) -> kop array -> (outcome, string) result array;
  check_ : kop -> unit;
  spans_ : unit -> Obs.Span.t list;
  connected_ : unit -> int list;
  touched_ : unit -> int list;
  close_ : unit -> unit;
}

let make ?metrics ?(spans = true) ?(opts = default_opts) ?now_us
    ?(coalesce = 1) ~protocol ~map ~window ~first_reader ~readers ~writes
    endpoints =
  let (Protocols.Packed { proto = (module P); codec }) = protocol in
  let cap = max 1 coalesce in
  let cfg = Shard.Map.cfg map in
  let nkeys = Shard.Map.keys map in
  let now_f = Unix.gettimeofday in
  let now_us =
    match now_us with
    | Some f -> f
    | None ->
        let t0 = now_f () in
        fun () -> int_of_float ((now_f () -. t0) *. 1e6)
  in
  let obs =
    Option.map (make_obs ~spans ~shards:(Shard.Map.shards map)) metrics
  in
  (* Rare events (connects, drops, retransmits, timeouts) count by
     name; everything per message or per op goes through [obs]. *)
  let count name =
    match obs with None -> () | Some o -> Obs.Metrics.incr o.reg name
  in
  let conns = Array.mapi mk_conn endpoints in
  let rnames =
    Array.init readers (fun i -> "r" ^ string_of_int (first_reader + i))
  in
  (* The session Hello names the first reader (the writer for a
     writer-only client); each protocol message names its own sender. *)
  let session = if readers > 0 then rnames.(0) else "w" in
  let sender_of sl = if sl.sidx < 0 then "w" else rnames.(sl.sidx) in
  let reader_of sl = if sl.sidx < 0 then 0 else first_reader + sl.sidx in
  (* The pool index of an echoed "r<j>", or -2 for a sender outside the
     pool (another client's reader: a stale reply). *)
  let pool_index sender =
    let idx = Codec.sender_id 'r' sender - first_reader in
    if idx >= 0 && idx < readers then idx else -2
  in
  (* The select set and its fd -> connection pairs, rebuilt only after a
     connection came up or went down. *)
  let fds_stale = ref true and live = ref [] and fds = ref [] in
  let refresh_fds () =
    if !fds_stale then begin
      fds_stale := false;
      live :=
        Array.fold_right
          (fun c acc -> match c.fd with Some fd -> (fd, c) :: acc | None -> acc)
          conns [];
      fds := List.map fst !live
    end
  in
  let drop c =
    drop_conn ~count c;
    fds_stale := true
  in
  let mk_slot sidx = { sidx; st = Sidle; apos = -1 } in
  (* key -> per-key automata + in-flight state, lazily materialized *)
  let regs : (P.msg, P.reader, P.writer) kreg Keys.t = Keys.create 16 in
  let reg_for key =
    match Keys.find_opt regs key with
    | Some r -> r
    | None ->
        let shard = Shard.Map.shard_of_key map key in
        let r =
          {
            kkey = key;
            kshard = shard;
            kconns = Shard.Map.members map ~shard;
            krd =
              Array.init readers (fun i ->
                  P.reader_init ~cfg ~j:(first_reader + i));
            kwr = P.writer_init ~cfg;
            krs = Array.init readers mk_slot;
            kws = mk_slot (-1);
            krq = Queue.create ();
            kwq = Queue.create ();
          }
        in
        Keys.replace regs key r;
        r
  in
  (* A round's frame is the same bytes for every member of the key's
     shard: encode it once, then append it to each live connection's
     batch. *)
  let frame = Codec.Out.create () in
  let broadcast r sl m =
    Codec.Out.clear frame;
    Codec.encode_frame_into codec frame
      (Codec.Msg_key { key = r.kkey; sender = sender_of sl; msg = m });
    let members = ref 0 in
    for k = 0 to Array.length r.kconns - 1 do
      let c = conns.(r.kconns.(k)) in
      if Option.is_some c.fd then begin
        Codec.Out.append c.out ~src:frame;
        c.frames_out <- c.frames_out + 1;
        incr members
      end
    done;
    match obs with
    | None -> ()
    | Some o ->
        (* one observation per frame sent, as when each connection
           encoded its own copy *)
        let cls = P.msg_class m and bytes = Codec.Out.length frame in
        for _ = 1 to !members do
          Obs.Wire.incr o.sent cls;
          observe o.frame_bytes bytes
        done
  in
  (* Flush a connection's outbound batch: one [write] for however many
     frames accumulated since the last flush, recording the batch size
     and flush latency when observed. *)
  let flush_conn c =
    if Codec.Out.pending c.out > 0 then
      match c.fd with
      | None ->
          Codec.Out.clear c.out;
          c.frames_out <- 0
      | Some fd -> (
          let frames = c.frames_out in
          c.frames_out <- 0;
          match obs with
          | None -> ( try Codec.flush fd c.out with Unix.Unix_error _ -> drop c)
          | Some o -> (
              let t0 = now_f () in
              try
                Codec.flush fd c.out;
                observe o.batch_size frames;
                observe o.flush_us (int_of_float ((now_f () -. t0) *. 1e6))
              with Unix.Unix_error _ -> drop c))
  in
  let flush_all () = Array.iter flush_conn conns in
  (* A re-established connection may front a restarted (possibly wiped)
     server: every reader automaton clears its timestamp cache, so no
     suffix request trusts state the server no longer has.  Idle
     machines clear immediately; in-flight ones defer to their next
     start (see Regular_reader.on_reconnect).  The writer caches
     nothing. *)
  let resync () =
    if readers > 0 then begin
      count "op.cache_resyncs";
      Keys.iter
        (fun _ r ->
          Array.iteri (fun i m -> r.krd.(i) <- P.reader_on_reconnect m) r.krd)
        regs
    end
  in
  let ensure_conns now =
    Array.iter
      (fun c ->
        if Option.is_none c.fd && now >= c.next_attempt then begin
          try_connect ~count ~codec ~proto_name:P.name ~proc:session
            ~on_reconnect:resync c;
          fds_stale := true
        end)
      conns
  in
  let connected () =
    Array.to_list conns
    |> List.filter_map (fun c ->
           match c.fd with Some _ -> Some c.index | None -> None)
  in
  (* [rounds] is the automaton-reported count (outcome.rounds), not
     span.rounds: the fast path still broadcasts Read2 (Fig. 6: the
     round-2 write-back keeps object state and GC floors advancing), so
     the span records 2 initiated rounds even for a 1-round decision. *)
  let op_metrics o r ~write (span : Obs.Span.t) ~rounds now =
    let m = if write then o.write_m else o.read_m in
    bump m.completed;
    observe m.rounds span.rounds;
    observe m.latency_us (now - span.started_at);
    observe m.replies span.replies;
    (* [rev_contacted] holds distinct objects: its length is
       [List.length (Obs.Span.contacted span)] without the sort *)
    observe m.contacted (List.length span.rev_contacted);
    if not write then begin
      bump (if rounds <= 1 then o.fast_reads else o.fallback_rounds);
      if Array.length o.shard_m > 0 then begin
        let reads, fast = o.shard_m.(r.kshard) in
        bump reads;
        if rounds <= 1 then bump fast
      end
    end
  in
  (* Batch width is observed once per member (the histogram weights by
     op, not by round); only recorded when coalescing is on — an off run
     has no batches, and the metric's absence keeps the two
     configurations comparable. *)
  let observe_width w =
    match obs with None -> () | Some o -> observe o.coalesce_width w
  in
  (* The current run.  A run is one [run_ops] call; state that outlives
     it (automata, parked rounds, connections) lives in [regs] and
     [conns]. *)
  let ops = ref [||] and n = ref 0 in
  let results = ref [||] in
  let emit = ref ignore in
  let next_op = ref 0 and completed = ref 0 in
  (* The active set: slots with an op in flight, unordered, so its size
     is the in-flight count the window bounds and timers never scan the
     whole key table.  A slot records its position, so removal moves the
     last entry into the hole. *)
  let act_regs = ref [||] and act_slots = ref [||] and in_flight = ref 0 in
  let add_active r sl =
    if !in_flight = Array.length !act_slots then begin
      let grow a x = Array.append a (Array.make (max 8 !in_flight) x) in
      act_regs := grow !act_regs r;
      act_slots := grow !act_slots sl
    end;
    !act_regs.(!in_flight) <- r;
    !act_slots.(!in_flight) <- sl;
    sl.apos <- !in_flight;
    incr in_flight
  in
  let remove_active sl =
    let last = !in_flight - 1 in
    let moved = !act_slots.(last) in
    !act_regs.(sl.apos) <- !act_regs.(last);
    !act_slots.(sl.apos) <- moved;
    moved.apos <- sl.apos;
    sl.apos <- -1;
    decr in_flight
  in
  (* Slots freed by a completion: their queued successor starts from the
     pump, never from inside an automaton event iteration. *)
  let freed : ((P.msg, P.reader, P.writer) kreg * P.msg slot) Queue.t =
    Queue.create ()
  in
  let invoke r sl ~op ~joined =
    !emit
      (Invoke
         {
           op;
           key = r.kkey;
           write = sl.sidx < 0;
           reader = reader_of sl;
           joined;
           at_us = now_us ();
         })
  in
  let respond r sl ~op ~joined outcome =
    !results.(op) <- outcome;
    !emit
      (Respond
         {
           op;
           key = r.kkey;
           write = sl.sidx < 0;
           reader = reader_of sl;
           joined;
           at_us = now_us ();
           outcome;
         });
    incr completed
  in
  (* The span of an operation on slot [sl] that began at [start], when
     observed. *)
  let start_span sl start =
    match obs with
    | None -> None
    | Some o ->
        Some
          (Obs.Span.start o.collector
             (if sl.sidx < 0 then Obs.Span.Write
              else Obs.Span.Read { reader = reader_of sl })
             ~proc:(sender_of sl) ~now:start ~trace_pos:0)
  in
  (* Close a completed operation's span and per-op metrics. *)
  let complete r sl ~start ~span ~rounds ~value ~retransmits =
    let now = now_us () in
    (match (obs, span) with
    | Some o, Some span ->
        Obs.Span.finish span ~now ~rounds
          ?result:(Option.map Core.Value.to_string value)
          ~trace_pos:0 ();
        op_metrics o r ~write:(sl.sidx < 0) span ~rounds now
    | _ -> ());
    { value; rounds; retransmits; latency_us = now - start }
  in
  let finish_op r sl (a : _ active) outcome =
    respond r sl ~op:a.aop ~joined:false outcome;
    remove_active sl;
    Queue.add (r, sl) freed
  in
  (* Fan a completed lead read's value out to every read that joined its
     round: each joiner is a logical op with its own latency, span and
     per-op metrics (reporting the lead's decision round count), but it
     ran no network round, so [in_flight] is untouched. *)
  let fanout_ok r sl (a : _ active) ~rounds ~value =
    match a.abatch with
    | None -> ()
    | Some b ->
        let w = Coalesce.width b in
        observe_width w;
        Coalesce.iter_joiners
          (fun j ->
            let out =
              complete r sl ~start:j.jstart ~span:j.jspan ~rounds ~value
                ~retransmits:0
            in
            observe_width w;
            respond r sl ~op:j.jop ~joined:true (Ok out))
          b
  in
  (* A lead that times out fails its whole batch: the joiners' evidence
     was the lead's round.  Their spans stay open, like any failed
     op's. *)
  let fanout_err r sl (a : _ active) err =
    match a.abatch with
    | None -> ()
    | Some b ->
        Coalesce.iter_joiners
          (fun j -> respond r sl ~op:j.jop ~joined:true (Error err))
          b
  in
  let decided r sl ~rounds ~value =
    match sl.st with
    | Sactive a ->
        let out =
          complete r sl ~start:a.astart ~span:a.aspan ~rounds ~value
            ~retransmits:a.aretr
        in
        sl.st <- Sidle;
        finish_op r sl a (Ok out);
        fanout_ok r sl a ~rounds ~value
    | Sparked p ->
        sl.st <-
          Sdone
            (complete r sl ~start:p.pstart ~span:p.pspan ~rounds ~value
               ~retransmits:0)
    | Sidle | Sdone _ -> ()
  in
  let feed r sl ~obj m =
    let evs =
      if sl.sidx < 0 then begin
        let w, evs = P.writer_on_msg r.kwr ~obj m in
        r.kwr <- w;
        evs
      end
      else begin
        let rd, evs = P.reader_on_msg r.krd.(sl.sidx) ~obj m in
        r.krd.(sl.sidx) <- rd;
        evs
      end
    in
    List.iter
      (function
        | Core.Events.Broadcast m' -> (
            match sl.st with
            | Sactive a ->
                (match a.aspan with
                | Some span -> Obs.Span.transition span ~now:(now_us ())
                | None -> ());
                a.acur <- m';
                a.adeadline <- now_f () +. opts.deadline;
                a.abackoff_until <- 0.;
                broadcast r sl m'
            | Sparked p -> p.pcur <- m'
            | Sidle | Sdone _ -> ())
        | Core.Events.Read_done { value; rounds } ->
            decided r sl ~rounds ~value:(Some value)
        | Core.Events.Write_done { rounds } -> decided r sl ~rounds ~value:None)
      evs
  in
  let deliver c ~key ~sender m =
    match Keys.find_opt regs key with
    | None -> () (* reply for a key this client never touched: stale *)
    | Some r -> (
        let idx = if String.equal sender "w" then -1 else pool_index sender in
        if idx >= -1 then
          let sl = if idx < 0 then r.kws else r.krs.(idx) in
          match sl.st with
          | Sactive { aspan = span; _ } | Sparked { pspan = span; _ } ->
              (match (obs, span) with
              | Some o, Some span ->
                  Obs.Wire.incr o.delivered (P.msg_class m);
                  Obs.Span.contact span ~obj:c.index
              | _ -> ());
              feed r sl ~obj:c.index m
          | Sidle | Sdone _ -> () (* stale ack between operations *))
  in
  let on_frame c = function
    | Codec.Hello_ack { proto; obj } ->
        if proto <> P.name || obj <> c.index then drop c
    | Codec.Err _ ->
        count "net.client.peer_errors";
        drop c
    | Codec.Hello _ -> drop c
    | Codec.Msg_key { key; sender; msg } -> deliver c ~key ~sender msg
    | Codec.Msg _ | Codec.Msg_from _ ->
        () (* untagged reply: this client only ever sends [Msg_key] *)
  in
  let handle_conn c =
    match c.fd with
    | None -> ()
    | Some fd -> (
        match Codec.recv_into fd c.reader with
        | 0 -> drop c
        | exception Unix.Unix_error _ -> drop c
        | _ ->
            let rec drain () =
              if Option.is_some c.fd then
                match Codec.Reader.next codec c.reader with
                | Ok `Awaiting -> ()
                | Error _ ->
                    count "net.client.decode_errors";
                    drop c
                | Ok (`Frame f) ->
                    on_frame c f;
                    drain ()
            in
            drain ())
  in
  (* Ready-fd dispatch.  File descriptors are immediate ints on Unix, so
     physical equality is their equality, with no polymorphic compare. *)
  let rec dispatch fd = function
    | [] -> ()
    | (fd', c) :: rest -> if fd' == fd then handle_conn c else dispatch fd rest
  in
  let rec on_ready = function
    | [] -> ()
    | fd :: rest ->
        dispatch fd !live;
        on_ready rest
  in
  (* A coalesced read occupies no slot: it is a start stamp (and span)
     hung off the lead's batch, costing no automaton state and no window
     slot. *)
  let join_read idx r sl b =
    invoke r sl ~op:idx ~joined:true;
    let jstart = now_us () in
    Coalesce.join b { jop = idx; jstart; jspan = start_span sl jstart };
    match obs with None -> () | Some o -> bump o.coalesced_reads
  in
  let activate r sl ~op ~cur ~start ~span ~batch =
    sl.st <-
      Sactive
        {
          aop = op;
          acur = cur;
          astart = start;
          aspan = span;
          adeadline = now_f () +. opts.deadline;
          abackoff_until = 0.;
          aattempt = 0;
          aretr = 0;
          abatch = batch;
        };
    add_active r sl;
    broadcast r sl cur
  in
  (* [start_now] requires the slot NOT be [Sactive]; [start_next] pops
     the role's queue once the slot is free.  A synchronous completion
     (adopted [Sdone], start error) recurses into [start_next] — safe
     because these only run from the pump, never mid automaton-event
     iteration. *)
  let rec start_now idx r sl =
    invoke r sl ~op:idx ~joined:false;
    match sl.st with
    | Sdone out ->
        sl.st <- Sidle;
        respond r sl ~op:idx ~joined:false (Ok out);
        start_next r sl
    | Sparked p ->
        (* Resumed round: its round-1 evidence gathering started before
           this op was invoked, so no batch may attach — a joiner could
           be returned evidence older than its invoke, which is exactly
           what regularity forbids.  A resumed write completes the
           parked round, so its own value is not what gets written. *)
        activate r sl ~op:idx ~cur:p.pcur ~start:p.pstart ~span:p.pspan
          ~batch:None
    | Sidle -> (
        let started =
          if sl.sidx < 0 then
            match !ops.(idx) with
            | Write { value; _ } ->
                Result.map
                  (fun (w, m) ->
                    r.kwr <- w;
                    m)
                  (P.writer_start r.kwr value)
            | Read _ -> assert false
          else
            Result.map
              (fun (rd, m) ->
                r.krd.(sl.sidx) <- rd;
                m)
              (P.reader_start r.krd.(sl.sidx))
        in
        match started with
        | Error e ->
            respond r sl ~op:idx ~joined:false (Error e);
            start_next r sl
        | Ok m ->
            let start = now_us () in
            let span = start_span sl start in
            let batch =
              if sl.sidx < 0 || cap <= 1 then None
              else Some (Coalesce.create ~cap)
            in
            activate r sl ~op:idx ~cur:m ~start ~span ~batch;
            (* Piggyback: reads already queued behind this key ride the
               fresh round — they were invoked before its broadcast was
               even assembled, so joining preserves both regularity and
               per-key program order. *)
            Option.iter
              (fun b ->
                while (not (Queue.is_empty r.krq)) && Coalesce.can_join b do
                  join_read (Queue.pop r.krq) r sl b
                done)
              batch)
    | Sactive _ -> assert false
  and start_next r sl =
    match sl.st with
    | Sactive _ -> ()
    | Sidle | Sparked _ | Sdone _ ->
        let q = if sl.sidx < 0 then r.kwq else r.krq in
        if not (Queue.is_empty q) then start_now (Queue.pop q) r sl
  in
  (* A reader slot of the key whose fresh round is still being
     assembled, and a slot with no op in flight (idle, parked or holding
     a stashed result), both in pool order. *)
  let open_batch r =
    if cap <= 1 then None
    else
      Array.find_map
        (fun sl ->
          match sl.st with
          | Sactive { abatch = Some b; _ } when Coalesce.can_join b ->
              Some (sl, b)
          | Sactive _ | Sidle | Sparked _ | Sdone _ -> None)
        r.krs
  in
  let free_reader r =
    Array.find_opt
      (fun sl -> match sl.st with Sactive _ -> false | _ -> true)
      r.krs
  in
  (* Admission: a read joins its key's in-assembly round if one is open
     (and nothing is queued ahead — program order); otherwise an op
     starts on a free slot of its role, else it queues. *)
  let admit idx =
    let op = !ops.(idx) in
    let r = reg_for (Workload.Keyspace.op_key op) in
    if Workload.Keyspace.op_is_write op then
      match r.kws.st with
      | Sactive _ -> Queue.add idx r.kwq
      | Sidle | Sparked _ | Sdone _ ->
          if Queue.is_empty r.kwq then start_now idx r r.kws
          else Queue.add idx r.kwq
    else if not (Queue.is_empty r.krq) then Queue.add idx r.krq
    else
      match open_batch r with
      | Some (sl, b) -> join_read idx r sl b
      | None -> (
          match free_reader r with
          | Some sl -> start_now idx r sl
          | None -> Queue.add idx r.krq)
  in
  (* Past the in-flight window only joins are admissible: they add no
     round and must not queue (queuing past the window would defeat its
     backpressure), so peek rather than admit. *)
  let try_join_next () =
    !next_op < !n
    &&
    match !ops.(!next_op) with
    | Write _ -> false
    | Read { key } -> (
        match Keys.find_opt regs key with
        | Some r when Queue.is_empty r.krq -> (
            match open_batch r with
            | Some (sl, b) ->
                join_read !next_op r sl b;
                incr next_op;
                true
            | None -> false)
        | Some _ | None -> false)
  in
  (* The join window ends when the round-1 broadcast leaves the process:
     called right after [flush_all], so later reads chain onto the NEXT
     round instead of adopting evidence gathered before they were
     invoked. *)
  let close_batches () =
    for i = 0 to !in_flight - 1 do
      match !act_slots.(i).st with
      | Sactive { abatch = Some b; _ } -> Coalesce.close b
      | Sactive _ | Sidle | Sparked _ | Sdone _ -> ()
    done
  in
  let timer_of (a : _ active) =
    if a.abackoff_until > 0. then a.abackoff_until else a.adeadline
  in
  let process_timers now =
    (* Backwards, so a timeout's removal only moves an entry already
       visited into the hole. *)
    for i = !in_flight - 1 downto 0 do
      let r = !act_regs.(i) and sl = !act_slots.(i) in
      match sl.st with
      | Sactive a when now >= timer_of a ->
          if a.abackoff_until > 0. then begin
            a.abackoff_until <- 0.;
            a.aretr <- a.aretr + 1;
            count "net.client.retransmits";
            a.aattempt <- a.aattempt + 1;
            a.adeadline <- now +. opts.deadline;
            broadcast r sl a.acur
          end
          else if a.aattempt >= opts.retries then begin
            let kind = if sl.sidx < 0 then "write" else "read" in
            count ("op." ^ kind ^ ".timeout");
            let err =
              Printf.sprintf
                "%s of key %d by %s timed out after %d attempts (%.1fs \
                 deadline, connected objects: %s)"
                kind r.kkey (sender_of sl) (a.aattempt + 1) opts.deadline
                (match connected () with
                | [] -> "none"
                | l -> String.concat "," (List.map string_of_int l))
            in
            sl.st <-
              Sparked { pcur = a.acur; pstart = a.astart; pspan = a.aspan };
            finish_op r sl a (Error err);
            fanout_err r sl a err
          end
          else
            a.abackoff_until <- now +. retry_backoff opts ~attempt:a.aattempt
      | Sactive _ | Sidle | Sparked _ | Sdone _ -> ()
    done
  in
  let next_wakeup now =
    let acc = ref (now +. 1.0) in
    for i = 0 to !in_flight - 1 do
      match !act_slots.(i).st with
      | Sactive a -> acc := Float.min !acc (timer_of a)
      | Sidle | Sparked _ | Sdone _ -> ()
    done;
    if !in_flight > 0 then
      Array.iter
        (fun c ->
          if Option.is_none c.fd && c.next_attempt < !acc then
            acc := c.next_attempt)
        conns;
    Float.max 0. (!acc -. now)
  in
  let rec pump () =
    if !completed < !n then begin
      (* connect before starting ops: a round broadcast only reaches
         endpoints that already have a live fd *)
      ensure_conns (now_f ());
      (* freed slots first: their queued successors preserve per-key
         program order ahead of fresh admissions *)
      while not (Queue.is_empty freed) do
        let r, sl = Queue.pop freed in
        start_next r sl
      done;
      while !in_flight < window && !next_op < !n do
        admit !next_op;
        incr next_op
      done;
      while try_join_next () do
        ()
      done;
      flush_all ();
      close_batches ();
      if !completed < !n then begin
        refresh_fds ();
        let timeout = next_wakeup (now_f ()) in
        (match !fds with
        | [] -> idle_wait timeout
        | fds -> (
            match Unix.select fds [] [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | ready, _, _ -> on_ready ready));
        process_timers (now_f ());
        pump ()
      end
    end
    else
      (* The run is over, but an op may have decided while its next
         round was broadcast (a fast read's round-2 write-back, which
         keeps the objects' GC floors advancing): send it now rather
         than at the start of the next run. *)
      flush_all ()
  in
  (* A run that raises (an [on_event] callback did) must not leave ops
     behind for the next run to complete against its own result array:
     park what is in flight, as a timeout would, and drop what is
     queued. *)
  let abandon () =
    let clear r =
      Queue.clear r.krq;
      Queue.clear r.kwq
    in
    for i = 0 to !in_flight - 1 do
      let sl = !act_slots.(i) in
      clear !act_regs.(i);
      sl.apos <- -1;
      match sl.st with
      | Sactive a ->
          sl.st <- Sparked { pcur = a.acur; pstart = a.astart; pspan = a.aspan }
      | Sidle | Sparked _ | Sdone _ -> ()
    done;
    in_flight := 0;
    Queue.iter (fun (r, _) -> clear r) freed;
    Queue.clear freed
  in
  let check op =
    let key = Workload.Keyspace.op_key op in
    if key < 0 || key >= nkeys then
      invalid_arg
        (Printf.sprintf "Client.run_ops: key %d outside the map's %d keys" key
           nkeys);
    if Workload.Keyspace.op_is_write op && not writes then
      invalid_arg "Client.write: this client is a reader";
    if (not (Workload.Keyspace.op_is_write op)) && readers = 0 then
      invalid_arg "Client.read: this client is the writer"
  in
  let run ?on_event ops_ =
    (* every op is validated before the first is invoked: a bad op
       raises with nothing sent *)
    Array.iter check ops_;
    ops := ops_;
    n := Array.length ops_;
    results := Array.make (max !n 1) (Error "operation not run");
    emit := Option.value on_event ~default:ignore;
    next_op := 0;
    completed := 0;
    (match pump () with
    | () -> ()
    | exception e ->
        abandon ();
        raise e);
    let res = if !n = 0 then [||] else !results in
    ops := [||];
    results := [||];
    emit := ignore;
    res
  in
  let close () =
    Array.iter
      (fun c ->
        drop c;
        Codec.Reader.recycle c.reader;
        Codec.Out.recycle c.out)
      conns;
    Codec.Out.recycle frame
  in
  {
    run;
    check_ = check;
    spans_ =
      (fun () ->
        match obs with None -> [] | Some o -> Obs.Span.spans o.collector);
    connected_ = connected;
    touched_ = (fun () -> Keys.fold (fun k _ acc -> k :: acc) regs []);
    close_ = close;
  }

let run_ops ?on_event t ops = t.run ?on_event ops

let check_op t op = t.check_ op

let spans t = t.spans_ ()

let connected t = t.connected_ ()

let touched_keys t = t.touched_ ()

let keys_touched t = List.length (touched_keys t)

let close t = t.close_ ()

(* ===== the three client shapes =========================================== *)

(* A single register is key 0 of a one-shard map over the S endpoints:
   endpoint [i] hosts object [i+1], exactly as before keys existed. *)
let register_map ~who ~cfg endpoints =
  let s = cfg.Quorum.Config.s in
  if Array.length endpoints <> s then
    invalid_arg
      (Printf.sprintf "%s: %d endpoints for S = %d" who (Array.length endpoints)
         s);
  Shard.Map.make_exn ~shards:1 ~keys:1 ~fleet:s ~cfg ()

let connect ?metrics ?spans ?opts ?now_us ~protocol ~cfg ~role endpoints =
  let map = register_map ~who:"Client.connect" ~cfg endpoints in
  let first_reader, readers, writes =
    match role with
    | `Writer -> (1, 0, true)
    | `Reader j when j >= 1 -> (j, 1, false)
    | `Reader j -> invalid_arg (Printf.sprintf "Client.connect: reader %d" j)
  in
  make ?metrics ?spans ?opts ?now_us ~protocol ~map ~window:1 ~first_reader
    ~readers ~writes endpoints

let read_key0 = Read { key = 0 }

let read t = (run_ops t [| read_key0 |]).(0)

let write t value = (run_ops t [| Write { key = 0; value } |]).(0)

module Mux = struct
  include Ops

  type nonrec t = t

  let connect ?metrics ?spans ?opts ?now_us ?max_inflight ?(first_reader = 1)
      ?coalesce ~protocol ~cfg ~readers endpoints =
    let map = register_map ~who:"Mux.connect" ~cfg endpoints in
    if readers < 1 then
      invalid_arg (Printf.sprintf "Mux.connect: readers = %d" readers);
    if first_reader < 1 then
      invalid_arg
        (Printf.sprintf "Mux.connect: first_reader = %d" first_reader);
    let window =
      match max_inflight with None -> readers | Some w -> max 1 (min w readers)
    in
    make ?metrics ?spans ?opts ?now_us ?coalesce ~protocol ~map ~window
      ~first_reader ~readers ~writes:false endpoints

  let run_reads ?on_event t n =
    if n < 0 then invalid_arg "Mux.run_reads: negative op count";
    run_ops ?on_event t (Array.make n read_key0)

  let spans = spans

  let connected = connected

  let close = close
end

module Keyed = struct
  include Ops

  type nonrec t = t

  let connect ?metrics ?spans ?opts ?now_us ?(max_inflight = 16) ?(reader = 1)
      ?coalesce ~protocol ~map endpoints =
    let fleet = Shard.Map.fleet map in
    if Array.length endpoints <> fleet then
      invalid_arg
        (Printf.sprintf "Keyed.connect: %d endpoints for a fleet of %d"
           (Array.length endpoints) fleet);
    if reader < 1 then
      invalid_arg (Printf.sprintf "Keyed.connect: reader = %d" reader);
    make ?metrics ?spans ?opts ?now_us ?coalesce ~protocol ~map
      ~window:(max 1 max_inflight) ~first_reader:reader ~readers:1 ~writes:true
      endpoints

  let run_ops = run_ops

  let spans = spans

  let connected = connected

  let keys_touched = keys_touched

  let close = close
end
