(** Protocol-independent classification of wire messages.

    Every {!Core.Protocol_intf.S} implementation maps its concrete
    message type onto this small vocabulary ([msg_class]), which is what
    lets the engine and the metrics layer count messages per operation
    kind and per round without knowing any protocol's wire format. *)

type op = Read | Write | Other

type t = {
  op : op;
  round : int;  (** 1-based protocol round; 0 for [Other] *)
  request : bool;  (** client-to-object direction *)
}

val read : round:int -> request:bool -> t

val write : round:int -> request:bool -> t

val other : t

val op_to_string : op -> string

val to_string : t -> string
(** Stable metric-label rendering, e.g. ["read.r1.req"], ["write.r2.ack"],
    ["other"]. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

(** {2 Per-class counter handles}

    Message meters on a hot path count ["wire.<class>.<stage>"] per
    message.  [counters reg ~stage] resolves each class's counter in
    [reg] once, on the class's first message, so no metric name is built
    per message and a class never seen stays absent from the registry —
    exactly as with {!Metrics.incr} by name.  One value is not safe to
    share between domains. *)

type counters

val counters : Metrics.t -> stage:string -> counters

val incr : counters -> t -> unit
(** [incr m c] bumps ["wire." ^ to_string c ^ "." ^ stage] in [m]'s
    registry. *)
