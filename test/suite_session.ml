(* The server's session errors, driven over a raw socket: a peer that
   breaks the session protocol gets exactly one [Err] frame and then the
   server closes the connection.  Each case
   sends its bad frame and a well-formed frame behind it in one write;
   the second must never be answered. *)

let cfg3 = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0

module P = Core.Proto_safe

let codec = Net.Codec.messages

(* The writer's first round message: a well-formed protocol message. *)
let msg =
  snd
    (Result.get_ok
       (P.writer_start (P.writer_init ~cfg:cfg3) (Core.Value.v "x")))

let hello = Net.Codec.Hello { proto = P.name; sender = "w"; obj = 1 }

let keyed sender = Net.Codec.Msg_key { key = 0; sender; msg }

(* Open a session on object 1, send [frames] in one write, and collect
   every frame the server sends until it closes the connection. *)
let exchange frames =
  let c =
    Net.Cluster.start ~protocol:Net.Protocols.safe ~cfg:cfg3 ~readers:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Net.Cluster.stop c)
    (fun () ->
      let ep = (Net.Cluster.endpoints c).(0) in
      let fd = Net.Endpoint.dial ep in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Net.Codec.send fd
            (String.concat "" (List.map (Net.Codec.encode_frame codec) frames));
          let rd = Net.Codec.Reader.create () in
          let got = ref [] in
          let rec drain () =
            match Net.Codec.Reader.next codec rd with
            | Ok `Awaiting -> ()
            | Ok (`Frame f) ->
                got := f :: !got;
                drain ()
            | Error e -> Alcotest.failf "decode error: %s" e
          in
          let rec loop () =
            match Unix.select [ fd ] [] [] 5.0 with
            | [], _, _ -> Alcotest.fail "server neither replied nor closed"
            | _ -> (
                match Net.Codec.recv_into fd rd with
                | 0 -> drain ()
                | _ ->
                    drain ();
                    loop ()
                | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drain ())
          in
          loop ();
          List.rev !got))

let describe = Net.Codec.frame_info ~msg_info:(fun _ -> "msg")

(* [ack]: the session was opened, so a [Hello_ack] precedes the error. *)
let expect_err ~ack ~says frames () =
  let show got = String.concat "; " (List.map describe got) in
  match (ack, exchange frames) with
  | true, Net.Codec.Hello_ack _ :: [ Net.Codec.Err e ]
  | false, [ Net.Codec.Err e ] ->
      Alcotest.(check string) "error" says e
  | _, got -> Alcotest.failf "expected one Err then close, got [%s]" (show got)

let before_hello m =
  expect_err ~ack:false ~says:"protocol message before hello" [ m; hello ]

let bad_sender sender =
  expect_err ~ack:true ~says:(Printf.sprintf "invalid sender %S" sender)
    [ hello; keyed sender; keyed "w" ]

(* Servers speak only [Msg_key]: an untagged frame, with or without an
   inline sender, ends an open session like any other violation. *)
let untagged_rejected () =
  List.iter
    (fun m ->
      expect_err ~ack:true ~says:"untagged protocol message"
        [ hello; m; keyed "w" ] ())
    [ Net.Codec.Msg msg; Net.Codec.Msg_from { sender = "w"; msg } ]

let suite =
  ( "session",
    [
      Alcotest.test_case "untagged frame is rejected" `Quick untagged_rejected;
      Alcotest.test_case "Msg_key before hello" `Quick
        (before_hello (keyed "w"));
      Alcotest.test_case "Msg_key from sender x1" `Quick (bad_sender "x1");
      Alcotest.test_case "Msg_key from sender r0" `Quick (bad_sender "r0");
      Alcotest.test_case "Hello_ack from the client" `Quick
        (expect_err ~ack:true ~says:"unexpected hello_ack"
           [
             hello; Net.Codec.Hello_ack { proto = P.name; obj = 1 }; keyed "w";
           ]);
    ] )
