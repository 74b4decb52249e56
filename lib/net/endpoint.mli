(** Server addresses, and the one place [lib/net] opens sockets.

    An endpoint is a Unix-domain socket path or a TCP host:port pair.
    The loopback harness defaults to Unix-domain sockets (no ports to
    collide, the kernel cleans nothing up behind our back); TCP covers
    multi-host deployments and the CLI.  [Tcp] with port 0 asks the
    kernel for an ephemeral port — {!listen} (and so {!Server.endpoint})
    reports the bound one.

    Every [socket]/[bind]/[listen]/[connect] of the live runtime goes
    through {!listen} and {!dial}; the client engine, the server group
    and the {!Chaos} relay only read, write, accept and close. *)

type t = Unix_sock of string | Tcp of { host : string; port : int }

val of_string : string -> (t, string) result
(** ["unix:/path/to.sock"], ["tcp:host:port"], or bare ["host:port"]. *)

val to_string : t -> string
(** Inverse of {!of_string} (always with an explicit scheme). *)

val pp : Format.formatter -> t -> unit

val cleanup : t -> unit
(** Remove a stale Unix-domain socket file, if any; no-op for TCP. *)

(** {2 Sockets}

    Both entry points ignore [SIGPIPE] process-wide on first use, so a
    peer vanishing mid-write surfaces as [EPIPE]. *)

val listen : t -> Unix.file_descr * t
(** Bind a listening stream socket (backlog 64), replacing a stale
    Unix-domain socket file; returns it with the bound address (an
    ephemeral TCP port resolved).  The socket is blocking.
    @raise Unix.Unix_error if the address cannot be bound (nothing
    stays open).  @raise Failure if a TCP host does not resolve. *)

val dial : t -> Unix.file_descr
(** Connect a blocking stream socket, giving up after 0.5 s
    ([ETIMEDOUT]); TCP sockets get [TCP_NODELAY].
    @raise Unix.Unix_error on refusal or timeout (nothing stays open).
    @raise Failure if a TCP host does not resolve. *)

val set_nodelay : Unix.file_descr -> unit
(** [TCP_NODELAY] for an accepted socket; a no-op on Unix-domain ones. *)

val close_quietly : Unix.file_descr -> unit
(** [Unix.close], ignoring errors (the fd may already be gone). *)

(** {2 Loopback fleets} *)

type fleet = { dir : string; endpoints : t array }

val fleet : transport:[ `Unix | `Tcp ] -> prefix:string -> int -> fleet
(** [fleet ~transport ~prefix n] creates a fresh private (0700)
    directory [prefix-PID-N] under the temp directory and [n] endpoints:
    sockets [s1.sock] .. [sn.sock] in it for [`Unix], [127.0.0.1] port 0
    for [`Tcp].  Callers may keep other scratch files in [dir]. *)

val release : fleet -> unit
(** Remove the fleet's socket files, then its directory (left in place
    if the caller's own files are still in it).  Idempotent. *)
