(** Live history recording: client event streams to per-key histories.

    The paper's guarantees are statements about histories, so a live
    run's verdict is only as sound as the mapping from {!Client.event}s
    to invocations and responses.  This module is that mapping, once:

    - each key is its own register and records into its own
      {!Histories.Recorder}, so the single-register checkers apply per
      key;
    - an operation is recorded at its real invoke/respond instants, so
      the checkers see the true concurrency;
    - a failed (timed-out) operation stays open, and the operation that
      later resumes its parked slot — same key, role and reader id —
      responds to the {e original} invocation rather than invoking
      again;
    - a coalesced ([joined]) read overlaps its lead by construction, so
      it records under a fresh reader id of its own, counting up from
      1_000_000 (far above any real reader id), and gets its own
      response.

    One [t] may collect the events of several clients, from several
    threads, as long as their (key, role, reader id) slots are
    distinct. *)

type t

val create : ?sample:(int -> bool) -> unit -> t
(** An empty record.  Only keys satisfying [sample] (default: every
    key) are recorded; events on other keys are ignored. *)

val tap : t -> Client.kop array -> Client.event -> unit
(** [tap t ops] is the [on_event] of one {!Client.run_ops} call on
    [ops]: pass a fresh [tap t ops] to each call.  Each event takes
    [t]'s lock, so taps of one [t] may run on distinct threads at
    once.
    @raise Invalid_argument on an event whose [op] is not an index of
    [ops]. *)

val history : t -> int -> string Histories.Op.t list
(** The recorded operations of one key, invocation order; [[]] for a
    key with none. *)

val histories : t -> (int * string Histories.Op.t list) list
(** Every recorded key's operations, sorted by key — feed each list to
    {!Histories.Checks} independently. *)
