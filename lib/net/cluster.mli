(** Loopback cluster harness: a server fleet plus writer/reader
    clients in one process, and the one driver of parallel client
    domains.

    This is the live counterpart of {!Core.Scenario}: it hosts the base
    objects in one {!Server} group on an {!Endpoint.fleet}
    (Unix-domain sockets in a private temp directory by default, TCP on
    demand), connects the single writer and [readers] serial reader
    {!Client}s, and drives op arrays through cached engines ({!run}),
    one per client, each client on its own domain.  A cluster serves
    one keyspace for its life: the single register, or the {!Shard.Map}
    given to {!start}.  The operations recorded through its one
    {!Record} feed the paper's safety/regularity/wait-freedom checkers
    per key, exactly as simulated histories do.

    Chaos hooks mirror the fault campaign's crash-recovery actions:
    {!crash} kills a server's sockets mid-flight (the stand-in for a
    killed process), {!restart} brings the object back on the same
    endpoint with persisted or wiped state.  Clients reconnect on their
    own; as long as at most [t] objects are down, operations keep
    completing — the acceptance test drives 1000 READs across a
    crash/restart and requires zero failures.

    Thread-safety: operations for {e distinct} clients (the writer,
    each reader, a {!run}) may run from distinct threads concurrently;
    the shared history recorder is internally locked.  One client must
    not be driven from two threads, and two {!run}s must not overlap. *)

type t

val start :
  ?metrics:bool ->
  ?observe_clients:[ `Spans | `Metrics | `Off ] ->
  ?opts:Client.opts ->
  ?transport:[ `Unix | `Tcp ] ->
  ?domains:int ->
  ?interpose:bool ->
  ?sample:(int -> bool) ->
  ?map:Shard.Map.t ->
  protocol:Protocols.t ->
  cfg:Quorum.Config.t ->
  readers:int ->
  unit ->
  t
(** Spin up a fleet of servers and [readers] reader clients (plus the
    writer).  The fleet is [Shard.Map.fleet map] slots serving the
    map's keyspace, or without [map] the [cfg.s] objects of the single
    register.  The writer and the serial readers play key 0 on the
    first [cfg.s] slots, which are key 0's shard under every map.
    [transport] defaults to [`Unix].  The slots are hosted by one
    {!Server.start_group} event-loop group, sharded across [domains]
    worker domains (default 1).  With
    [interpose:true], a {!Chaos} proxy fronts every server and clients
    dial the proxies — {!chaos} exposes them for rule injection; with no
    rules set the interposers are transparent.  With [metrics:true]
    every server keeps a private registry, and each client what
    [observe_clients] says: a registry and every op's span ([`Spans],
    the default), a registry alone ([`Metrics], for long runs that read
    no span), or nothing ([`Off]).  {!metrics} merges the registries and
    {!spans} returns the clients' spans.  Without [metrics] nothing is
    observed; the record keeps every operation either way, on the keys
    satisfying [sample] (default: every key).
    @raise Invalid_argument if the map's configuration is not [cfg]. *)

val write : t -> Core.Value.t -> (Client.outcome, string) result
(** One WRITE through the writer client, recorded in the history. *)

val read : t -> reader:int -> (Client.outcome, string) result
(** One READ by reader [reader] (1-based), recorded in the history. *)

type pass = {
  results : (Client.outcome, string) result array;
      (** result [i] is op [i]'s outcome *)
  wall_s : float;  (** from the barrier to this client's last result *)
}

val run :
  ?inflight:int ->
  ?coalesce:int ->
  t ->
  Client.kop array array ->
  pass array
(** [run t clients] drives each op array of [clients] through its own
    cached engine, up to [inflight] (default 16) ops of each in flight,
    and returns each client's pass.  One array runs on the caller's
    domain; [k > 1] arrays run on [k] domains, released from one
    barrier.  On the single register an engine is a {!Client.Mux} pool
    of [inflight] readers, so its ops must be key-0 reads; on a
    keyspace it is a {!Client.Keyed} client, reading and writing any
    key (its writes of key 0 and {!write}'s would make two writers of
    one register, so use one or the other).

    Every engine takes reader ids above all earlier ones (base objects
    keep per-reader round state, so ids are never reused).  Client 0's
    ops are recorded at their real invoke/respond instants, so the
    checkers see the true concurrency ({!histories}).  No other client
    records (their taps would serialize the domains on the record's
    lock), so with [k > 1] a key's history is only whole if client 0
    makes every write to it: [start]'s [sample] should pick such keys.
    Timed-out ops stay open and are resumed by a later call, exactly
    like the serial path.  [coalesce] (default 1 = off) is the read-
    coalescing cap; coalesced reads record under fresh recorder reader
    ids, since they overlap their lead.  Changing [inflight],
    [coalesce] or the client count rebuilds the engines; the old ones
    still count in {!keys_touched}, {!spans} and {!metrics}.
    @raise Invalid_argument before any engine runs an op if
    [inflight < 1], [clients] is empty, or an op is one its engine
    rejects ({!Client.check_op}: a key outside the keyspace, a write on
    the single register). *)

val keys_touched : t -> int
(** Distinct keys with materialized automata in any of the cluster's
    clients (the serial ones and every {!run} engine); at most the
    keyspace's key count. *)

val crash : t -> int -> unit
(** Hard-kill the server of fleet slot [i] (1-based); idempotent while
    down. *)

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
    engine, oldest first; all share one microsecond clock.  [[]] unless
    started with [metrics:true] and clients observed with [`Spans]. *)

val metrics : t -> Obs.Metrics.t option
(** Merged snapshot of every component registry (servers then clients);
    [None] unless started with [metrics:true]. *)

val server_metrics : t -> Obs.Metrics.t option
(** The servers' registries alone, merged: what the server side did,
    with no client-side flush or op in it.  [None] unless started with
    [metrics:true]. *)

val stop : t -> unit
(** Stop servers and clients, then {!Endpoint.release} the fleet: its
    socket files and directory are removed.  {!histories}, {!spans},
    {!metrics} and {!partition_violations} stay readable. *)
