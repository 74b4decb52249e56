(** Loopback cluster harness: S servers plus writer/reader clients in
    one process.

    This is the live counterpart of {!Core.Scenario}: it hosts the base
    objects in one {!Server} group on an {!Endpoint.fleet}
    (Unix-domain sockets in a private temp directory by default, TCP on
    demand), connects the single writer and [readers] serial reader
    {!Client}s, and drives op arrays through one cached engine
    ({!run}).  Every operation of every client records through one
    {!Record}, so the paper's safety/regularity/wait-freedom checkers
    run on each key's live history exactly as they do on simulated
    ones.

    Chaos hooks mirror the fault campaign's crash-recovery actions:
    {!crash} kills a server's sockets mid-flight (the stand-in for a
    killed process), {!restart} brings the object back on the same
    endpoint with persisted or wiped state.  Clients reconnect on their
    own; as long as at most [t] objects are down, operations keep
    completing — the acceptance test drives 1000 READs across a
    crash/restart and requires zero failures.

    Thread-safety: operations for {e distinct} clients (the writer,
    each reader, the {!run} engine) may run from distinct threads
    concurrently; the shared
    history recorder is internally locked.  One client must not be
    driven from two threads. *)

type t

val start :
  ?metrics:bool ->
  ?opts:Client.opts ->
  ?transport:[ `Unix | `Tcp ] ->
  ?domains:int ->
  ?interpose:bool ->
  ?sample:(int -> bool) ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  readers:int ->
  unit ->
  t
(** Spin up [cfg.s] servers and [readers] reader clients (plus the
    writer).  [transport] defaults to [`Unix].  The [cfg.s] objects are
    hosted by one {!Server.start_group} event-loop group, sharded across
    [domains] worker domains (default 1).  With
    [interpose:true], a {!Chaos} proxy fronts every server and clients
    dial the proxies — {!chaos} exposes them for rule injection; with no
    rules set the interposers are transparent.  With [metrics:true]
    every component keeps a private registry; {!metrics} merges them
    and {!spans} returns the clients' spans.  Without it no client keeps
    per-operation spans; the record keeps every operation either way,
    on the keys satisfying [sample] (default: every key). *)

val write : t -> Core.Value.t -> (Client.outcome, string) result
(** One WRITE through the writer client, recorded in the history. *)

val read : t -> reader:int -> (Client.outcome, string) result
(** One READ by reader [reader] (1-based), recorded in the history. *)

val run :
  ?inflight:int ->
  ?coalesce:int ->
  ?map:Shard.Map.t ->
  t ->
  Client.kop array ->
  (Client.outcome, string) result array
(** Drive [ops] through the cluster's cached op engine, up to
    [inflight] (default 16) progressing at once; result [i] is op
    [i]'s outcome.  Without [map] the engine is a {!Client.Mux} pool of
    [inflight] readers on key 0, so [ops] must be key-0 reads.  With
    [map] it is a {!Client.Keyed} client over the keyspace, reading and
    writing any key of the map; its writes of key 0 and {!write}'s
    would make two writers of one register, so use one or the other.
    The map's fleet must equal the cluster's server count.

    Every engine takes reader ids above all earlier ones (base objects
    keep per-reader round state, so ids are never reused), and every
    op is recorded at its real invoke/respond instants in the
    cluster's one record, so the checkers see the true concurrency
    ({!histories}).  Timed-out ops stay open and are resumed by a later
    call, exactly like the serial path.  [coalesce] (default 1 = off)
    is the engine's read-coalescing cap; coalesced reads record under
    fresh recorder reader ids, since they overlap their lead.
    Changing [inflight], [coalesce] or the map rebuilds the engine; the
    old one's spans and metrics still count in {!spans} and
    {!metrics}.
    @raise Invalid_argument if [inflight < 1], the map's fleet does not
    match, or an op is one the engine cannot run. *)

val keys_touched : t -> int
(** Keys with materialized automata in the cached {!run} engine; 0
    before the first {!run}. *)

val crash : t -> int -> unit
(** Hard-kill server for object [i] (1-based); idempotent while down. *)

val restart : ?wipe:bool -> t -> int -> (unit, [ `Still_alive of int ]) result
(** Bring object [i] back on the same endpoint ([wipe] discards its
    state).  Restarting a server that is still up is a structured
    [Error] — fault drivers mid-campaign handle it, they do not
    unwind. *)

val restart_exn : ?wipe:bool -> t -> int -> unit
(** {!restart}, raising [Invalid_argument] on [`Still_alive] — for
    call sites that treat it as a bug. *)

val alive : t -> int list
(** Object indices whose server is up. *)

val partition_violations : t -> int
(** {!Server.partition_violations} over the cluster's servers: nonzero
    iff some base object was stepped outside its owning domain. *)

val chaos : t -> Chaos.t array
(** The per-object interposers ([chaos t].(i-1) fronts object [i]);
    [[||]] unless started with [interpose:true]. *)

val now_us : t -> int
(** The cluster's shared microsecond clock (the one histories, spans
    and {!Chaos} rule windows are stamped against). *)

val endpoints : t -> Endpoint.t array
(** What clients dial: the interposers' endpoints when interposed,
    otherwise the servers'. *)

val history : t -> string Histories.Op.t list
(** Key 0's recorded operations, invocation order — feed to
    {!Histories.Checks}. *)

val histories : t -> (int * string Histories.Op.t list) list
(** Every recorded key's operations (key 0 included), sorted by key —
    each key is its own register, so feed each list to
    {!Histories.Checks} independently. *)

val spans : t -> Obs.Span.t list
(** Writer spans, then the serial readers', then those of every {!run}
    engine, oldest first; all share one microsecond clock.  [[]] unless started with [metrics:true]: clients keep spans
    exactly when they have a registry. *)

val metrics : t -> Obs.Metrics.t option
(** Merged snapshot of every component registry (servers then clients);
    [None] unless started with [metrics:true]. *)

val stop : t -> unit
(** Stop servers and clients, then {!Endpoint.release} the fleet: its
    socket files and directory are removed.  {!histories}, {!spans},
    {!metrics} and {!partition_violations} stay readable. *)
