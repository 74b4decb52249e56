type t = Unix_sock of string | Tcp of { host : string; port : int }

let of_string s =
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 -> Ok (Tcp { host; port = p })
    | _ -> Error (Printf.sprintf "invalid port %S in %S" port s)
  in
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "endpoint %S: expected unix:PATH or HOST:PORT" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "empty unix socket path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "endpoint %S: expected tcp:HOST:PORT" s)
          | Some j ->
              tcp
                (String.sub rest 0 j)
                (String.sub rest (j + 1) (String.length rest - j - 1)))
      | host -> tcp host rest)

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let pp ppf e = Format.pp_print_string ppf (to_string e)

let resolve host =
  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
  with Not_found | Invalid_argument _ -> (
    try Unix.inet_addr_of_string host
    with Failure _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

let to_sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp { host; port } -> Unix.ADDR_INET (resolve host, port)

let socket_domain = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let cleanup = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* ----- sockets ----------------------------------------------------------- *)

(* A peer vanishing mid-write must surface as EPIPE, not kill the
   process.  Every socket passes through [listen] or [dial] first. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Batched flushes must hit the wire immediately: Nagle + delayed-ACK
   would otherwise stall the round-trip pipeline on TCP loopback.
   Harmless no-op on Unix-domain sockets. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let stream ep =
  Lazy.force ignore_sigpipe;
  Unix.socket (socket_domain ep) Unix.SOCK_STREAM 0

let listen ep =
  cleanup ep;
  let fd = stream ep in
  (try
     (match ep with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (to_sockaddr ep);
     Unix.listen fd 64
   with e ->
     close_quietly fd;
     raise e);
  let actual =
    match ep with
    | Tcp { host; port = 0 } -> (
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Tcp { host; port }
        | _ -> ep)
    | _ -> ep
  in
  (fd, actual)

let connect_timeout = 0.5

let dial ep =
  let fd = stream ep in
  try
    Unix.set_nonblock fd;
    (match ep with Tcp _ -> set_nodelay fd | Unix_sock _ -> ());
    (try Unix.connect fd (to_sockaddr ep)
     with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
       match Unix.select [] [ fd ] [] connect_timeout with
       | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
       | _ -> (
           match Unix.getsockopt_error fd with
           | None -> ()
           | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
    Unix.clear_nonblock fd;
    fd
  with e ->
    close_quietly fd;
    raise e

(* ----- loopback fleets --------------------------------------------------- *)

type fleet = { dir : string; endpoints : t array }

let fleet_counter = Atomic.make 0

let rec private_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
         (Atomic.fetch_and_add fleet_counter 1))
  in
  match Unix.mkdir dir 0o700 with
  | () -> dir
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> private_dir prefix

let fleet ~transport ~prefix n =
  let dir = private_dir prefix in
  let endpoints =
    Array.init n (fun i ->
        match transport with
        | `Unix ->
            Unix_sock (Filename.concat dir (Printf.sprintf "s%d.sock" (i + 1)))
        | `Tcp -> Tcp { host = "127.0.0.1"; port = 0 })
  in
  { dir; endpoints }

let release f =
  Array.iter cleanup f.endpoints;
  try Unix.rmdir f.dir with Unix.Unix_error _ -> ()
