(** Reader/writer client runtime: the protocol's round structure over
    real sockets.

    A client connects to base-object endpoints (a register's S objects,
    or a keyspace's fleet) and drives the {e unchanged} reader/writer
    state machines from
    {!Core.Protocol_intf.S}: each operation broadcasts the round's
    message to every reachable endpoint, feeds replies back as they
    arrive (the state machines themselves decide when S−t replies — or
    the protocol's own quorum predicate — are enough), and follows any
    next-round broadcast the machine emits.

    The transport adds what the simulator never needed:

    - {b per-round deadlines} — if a round does not complete within
      [deadline], the round's message is retransmitted (the state
      machines already ignore duplicate replies) with exponential
      backoff, up to [retries] attempts;
    - {b endpoint failure} — an endpoint that refuses connections,
      resets, or times out is marked down and retried later; operations
      proceed on the survivors, so a crashed or Byzantine-silent
      minority never blocks progress (wait-freedom, paper §2.2);
    - {b observability} — with [metrics], every operation opens an
      {!Obs.Span} (microsecond timestamps, round transitions, contacted
      objects) and populates the same [op.*] / [wire.*] metric families
      as the simulator, so live runs export through the existing JSONL
      exporters unchanged.  Completed reads additionally bump
      [op.fast_reads] (reported rounds <= 1: the §5.1 one-round fast
      path) or [op.fallback_rounds] (>= 2 rounds), so traces
      distinguish the paths without parsing spans.  A registry means
      metrics and spans, no registry means neither — an unobserved
      client keeps no per-operation state once an operation completes,
      and its outcomes' [latency_us] stay exact.  Every [connect] also
      takes [?spans] (default [true]): [~spans:false] keeps the metrics
      but forgets each span once its operation completes, so a long
      observed run does not accumulate them and {!spans} is [[]].
      Observed hot-path metrics are handles resolved on first use, so
      no metric name is built per message or per operation;
    - {b cache resync} — re-establishing a connection that was up before
      means the server behind it may have restarted, possibly wiped.
      The client then passes every reader machine through
      {!Core.Protocol_intf.S.reader_on_reconnect} (counted as
      [op.cache_resyncs]): regular-gc clears its §5.1 timestamp cache so
      the next read requests the full history instead of trusting a
      suffix the wiped object can no longer serve; stateless protocols
      are untouched. *)

type opts = {
  deadline : float;  (** seconds a round may wait before a retransmit *)
  retries : int;  (** retransmit rounds before the operation fails *)
  backoff : float;
      (** base retry backoff, doubled per attempt and clamped at 1s so a
          long outage cannot push a retransmit hours past the deadline *)
}

val default_opts : opts
(** 1s deadline, 5 retries, 50ms backoff. *)

type outcome = {
  value : Core.Value.t option;  (** [Some] for reads *)
  rounds : int;  (** rounds the protocol reported at completion *)
  retransmits : int;  (** deadline-triggered retransmissions *)
  latency_us : int;
}

(** {2 Operations and events}

    Every client is one engine: reader and writer automata per key over
    one connection per server, driven by a select loop in the caller's
    thread.  A single register is key 0.  Outbound frames go as
    [Msg_key] and are coalesced per connection flush ({!Codec.Out}),
    which is wire-compatible with unbatched peers because frames are
    length-prefixed and self-delimiting. *)

type kop = Workload.Keyspace.op =
  | Read of { key : int }
  | Write of { key : int; value : Core.Value.t }
(** The keyspace generator's op type, so a drawn mix runs as is. *)

type event =
  | Invoke of {
      op : int;
      key : int;
      write : bool;
      reader : int;
      joined : bool;
      at_us : int;
    }
      (** Operation [op] was assigned: to reader id [reader] of [key]'s
          pool, or to [key]'s writer ([write], [reader = 0]).  [joined]
          means the read coalesced onto the round that reader was
          assembling instead of running its own; writes never
          coalesce. *)
  | Respond of {
      op : int;
      key : int;
      write : bool;
      reader : int;
      joined : bool;
      at_us : int;
      outcome : (outcome, string) result;
    }  (** Operation [op] completed (or timed out). *)

type t
(** A client engine; {!connect}, {!Mux.connect} and {!Keyed.connect}
    build its three shapes. *)

val run_ops :
  ?on_event:(event -> unit) -> t -> kop array -> (outcome, string) result array
(** [run_ops t ops] drives every operation to completion (or timeout);
    result [i] is operation [i]'s outcome.  [on_event] observes
    invocations and responses in real time (for history recording).

    Per (key, role) at most as many operations progress as the role has
    automata — one writer, the key's reader pool — and excess operations
    queue FIFO, so each key's reads and each key's writes stay
    program-ordered while distinct keys overlap up to the client's
    window.  A read and a write on the {e same} key may overlap: they
    are different automata — exactly the paper's concurrent
    reader/writer.

    A timed-out operation parks its machine mid-round — the automata
    have no abort — and the next operation on that slot resumes it; a
    resumed {e write} completes the parked round, so the resuming
    write's own value is not what gets written.
    @raise Invalid_argument before anything is sent if an op's key is
    outside the client's map, or its role is one the client does not
    play (a write on a reader client, a read on the writer). *)

val check_op : t -> kop -> unit
(** The validation {!run_ops} applies to every op before it sends
    anything.
    @raise Invalid_argument exactly where {!run_ops} would. *)

val spans : t -> Obs.Span.t list
(** With [metrics]: one span per operation (joined reads included),
    invocation order; failed operations stay open — exactly the
    simulator's convention.  A client built without [metrics], or with
    [~spans:false], keeps no spans and returns [[]]. *)

val connected : t -> int list
(** Object indices (fleet slot + 1) with an established connection. *)

val touched_keys : t -> int list
(** Keys with materialized automata so far, in no particular order. *)

val keys_touched : t -> int
(** [List.length (touched_keys t)]. *)

val close : t -> unit

(** {2 One register, one operation at a time} *)

val connect :
  ?metrics:Obs.Metrics.t ->
  ?spans:bool ->
  ?opts:opts ->
  ?now_us:(unit -> int) ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  role:[ `Writer | `Reader of int ] ->
  Endpoint.t array ->
  t
(** [connect ~protocol ~cfg ~role endpoints] prepares a client for the S
    = [Array.length endpoints] base objects; endpoint [i] hosts object
    [i+1].  It is the engine with window 1 on key 0, playing the writer
    or reader id [j].  Connections are established lazily and
    re-established with backoff, so a dead endpoint at connect time is
    not an error.  [now_us] overrides the span clock (default:
    microseconds since [connect]).
    @raise Invalid_argument if [endpoints] does not match [cfg.s] or the
    role is a [`Reader j] with [j < 1]. *)

val write : t -> Core.Value.t -> (outcome, string) result
(** Run one WRITE of key 0 to completion.  @raise Invalid_argument on a
    reader. *)

val read : t -> (outcome, string) result
(** Run one READ of key 0 to completion.  @raise Invalid_argument on
    the writer. *)

(** {2 Pipelined reads of one register}

    A reader automaton runs one operation at a time (its round
    timestamps are per-op), so the in-flight window is built from a
    pool of reader ids on key 0 — each with its own round state,
    deadline and backoff — sharing one connection per server.  Per-op
    acceptance is exactly the serial client's: the unchanged state
    machines decide when S−t replies suffice. *)

module Mux : sig
  type nonrec event = event =
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

  type nonrec t = t

  val connect :
    ?metrics:Obs.Metrics.t ->
    ?spans:bool ->
    ?opts:opts ->
    ?now_us:(unit -> int) ->
    ?max_inflight:int ->
    ?first_reader:int ->
    ?coalesce:int ->
    protocol:Protocols.t ->
    cfg:Quorum.Config.t ->
    readers:int ->
    Endpoint.t array ->
    t
  (** [connect ~readers endpoints] prepares [readers] reader slots with
      ids [first_reader .. first_reader+readers-1] (default [1..]) on
      key 0 of a one-shard map; [max_inflight] (default [readers],
      clamped to [1..readers]) caps how many operations progress
      concurrently.  Reader ids must be fresh with respect to the
      cluster: base objects keep per-reader round state, so a {e new}
      automaton reusing an id some earlier client already advanced can
      be ignored by the objects.

      [coalesce] (default 1 = off, clamped to at least 1) caps how many
      reads may share one quorum round: a read admitted while a fresh
      round's broadcast is still being assembled — appended to the
      outbound buffers but not yet flushed — joins that round and adopts
      its result, which preserves regularity because every member is
      invoked before any base object sees the round's first request
      (DESIGN §16).  Joined reads do not count against [max_inflight];
      each completes as a logical op of its own (span, metrics,
      [op.coalesced_reads] counter, [op.coalesce_width] histogram).
      Rounds resumed from a timed-out park never accept joiners.
      @raise Invalid_argument on an endpoint/S mismatch, [readers < 1]
      or [first_reader < 1]. *)

  val run_reads :
    ?on_event:(event -> unit) -> t -> int -> (outcome, string) result array
  (** [run_reads t n] is {!run_ops} on [n] READs of key 0. *)

  val spans : t -> Obs.Span.t list

  val connected : t -> int list

  val close : t -> unit
end

(** {2 Keyed keyspace client}

    Drives reader AND writer automata for a whole keyspace over one
    connection per fleet server.  Placement comes from {!Shard.Map}: a
    key's rounds go as [Msg_key] frames to the [S] members of its shard
    only, and replies demultiplex by the echoed (key, sender) pair.
    Per-key automata are lazily materialized, so each key keeps its own
    fast-read timestamp cache and GC floor — keys are as independent
    over the wire as separate registers, which is what makes per-shard
    correctness the paper's single-register argument verbatim.

    The registers are SWMR; partitioning write ownership across
    processes (at most one writer per key, ever) is the caller's job —
    the load driver does it with {!Shard.Map.mix}. *)

module Keyed : sig
  type nonrec kop = kop =
    | Read of { key : int }
    | Write of { key : int; value : Core.Value.t }

  type nonrec event = event =
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

  type nonrec t = t

  val connect :
    ?metrics:Obs.Metrics.t ->
    ?spans:bool ->
    ?opts:opts ->
    ?now_us:(unit -> int) ->
    ?max_inflight:int ->
    ?reader:int ->
    ?coalesce:int ->
    protocol:Protocols.t ->
    map:Shard.Map.t ->
    Endpoint.t array ->
    t
  (** [connect ~protocol ~map endpoints] prepares a keyed client over a
      fleet: endpoint [i] is fleet slot [i] and hosts base object [i+1]
      for every shard it serves (the automata only ever count distinct
      object ids against quorum thresholds, so a shard's member ids need
      not be contiguous).  [reader] (default 1) is this client's reader
      id for {e every} key — a reader pool of one; two keyed clients
      reading the same keys must use distinct ids.  [max_inflight]
      (default 16) caps concurrently progressing operations across all
      keys.  Completed reads bump [shard.<i>.reads] and, on the
      one-round path, [shard.<i>.fast_reads] when the map has more than
      one shard.

      [coalesce] (default 1 = off, clamped to at least 1) caps how many
      same-key reads may share one quorum round.  A read admitted while
      its key's fresh read round is still being assembled (broadcast
      buffered, not yet flushed) joins that round and adopts its result;
      reads already queued behind the key piggyback onto each fresh
      round the same way.  Join-before-broadcast preserves regularity —
      all the round's evidence postdates every member's invocation
      (DESIGN §16) — and per-key program order is kept because a read
      only joins when nothing is queued ahead of it.  Joined reads do
      not count against [max_inflight]; each completes as a logical op
      of its own (span, per-op and per-shard metrics,
      [op.coalesced_reads] counter, [op.coalesce_width] histogram).
      Rounds resumed from a timed-out park never accept joiners.
      @raise Invalid_argument if [endpoints] does not match the map's
      fleet or [reader < 1]. *)

  val run_ops :
    ?on_event:(event -> unit) ->
    t ->
    kop array ->
    (outcome, string) result array
  (** {!Client.run_ops}. *)

  val spans : t -> Obs.Span.t list

  val connected : t -> int list

  val keys_touched : t -> int

  val close : t -> unit
end
