(** Socket-level fault interposer: a transparent per-object proxy that
    applies a fault plan's network actions to real wire traffic.

    One interposer fronts one server.  Clients dial the interposer's
    endpoint; every accepted connection is paired with a fresh upstream
    connection to the real server (a dial that fails while the server is
    crashed simply closes the client side — exactly what dialing a dead
    server looks like).  Each direction of a pair is relayed as a stream
    of {e opaque frames}: {!Codec.Reader.next_raw} cuts frame boundaries
    without decoding protocol bytes and {!Codec.Out.add_payload}
    re-frames the survivors, so when no rule fires the relayed stream is
    byte-identical to the original.  The frames cut from one read leave
    in one [write].  A length prefix the codec rejects (above
    {!Codec.max_frame}) closes the session.

    Rules are windowed in a shared microsecond clock and matched per
    frame by direction and (optionally) the frame's effective sender:
    the session's [Hello] sender, or the inline sender of a [Msg_key]
    frame, so pipelined traffic attributes per reader automaton.  A
    matched frame can be dropped, duplicated, or corrupted (body bytes
    scrambled {e after} the frame header, so the result still parses as
    a frame and exercises the peer's total decoding) — the three network
    actions a {!Fault.Plan} compiles to.

    {!set_rules} replaces the rule set atomically; the live fault
    backend compiles a {!Fault.Plan} into one rule list per object up
    front, windows included, so a running campaign never races rule
    updates against traffic. *)

type direction =
  | To_server  (** client → server: requests *)
  | To_client  (** server → client: replies *)

type action =
  | Drop  (** the frame never reaches the peer; wins over the others *)
  | Duplicate of int
      (** forward the frame, then this many extra copies; several
          matching rules add their copies *)
  | Corrupt
      (** scramble the payload past the frame header: still a frame
          with a readable kind, no longer a valid message — the live
          stand-in for a Byzantine object's garbage *)

type rule = {
  dir : direction;
  sender : string option;
      (** match only frames attributed to this process name ("w",
          "r2"); [None] matches every frame *)
  from_us : int;  (** window start, shared-clock microseconds *)
  until_us : int;  (** window end; [max_int] = until stopped *)
  act : action;
}

type stats = {
  forwarded : int;  (** frames relayed (corrupted ones included), copies not *)
  dropped : int;
  duplicated : int;  (** extra copies sent *)
  corrupted : int;
}

type t

val start :
  now_us:(unit -> int) ->
  listen:Endpoint.t ->
  target:Endpoint.t ->
  unit ->
  t
(** Bind [listen] and relay every accepted connection to [target],
    transparently until {!set_rules} installs rules.
    [now_us] is the clock rule windows are evaluated against (the
    cluster passes its shared clock so plan ticks and history
    timestamps agree).  @raise Unix.Unix_error if [listen] cannot be
    bound. *)

val endpoint : t -> Endpoint.t
(** The client-facing address (ephemeral TCP ports resolved). *)

val set_rules : t -> rule list -> unit
(** Atomically replace the active rules; takes effect on the next
    frame. *)

val stats : t -> stats

val stop : t -> unit
(** Close the listener and every relayed connection; idempotent. *)
