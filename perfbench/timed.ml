(* The protocol automata under a stopwatch.

   [wrap] returns a protocol pack whose reader, writer and base-object
   steps are the original [Core.Protocol_intf.S] functions timed with
   the monotonic clock, so the traced run serves and drives exactly the
   same automata.  While [capture] is set, every request a base object
   handles and every reply it returns is kept, in handling order, for
   the codec replay. *)

type acc = { mutable calls : int; mutable ns : int }

type replay = {
  encode_ns : float;  (** per frame *)
  decode_ns : float;  (** per frame *)
  bytes : int array;  (** full wire size of each frame *)
}

type t = {
  reader : acc;
  writer : acc;
  obj : acc;
  capture : bool Atomic.t;
  replay : unit -> replay;
      (** Encode then decode the captured frames, each pass timed as a
          whole. *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let timed acc f =
  let t0 = now_ns () in
  let r = f () in
  acc.calls <- acc.calls + 1;
  acc.ns <- acc.ns + (now_ns () - t0);
  r

(* Frames kept for the replay: enough for per-frame times to settle,
   bounded so a long traced run does not hold every message. *)
let capture_cap = 200_000

let wrap ~keyed (Net.Protocols.Packed { proto = (module P); codec }) =
  let reader = { calls = 0; ns = 0 } in
  let writer = { calls = 0; ns = 0 } in
  let obj = { calls = 0; ns = 0 } in
  let capture = Atomic.make false in
  (* Written by the server domain while [capture] is set, read by the
     benchmark after the window has ended. *)
  let captured = ref [] and n_captured = ref 0 in
  (* The wrapper cannot see a frame's key, so each base object is tagged
     with its materialization rank among the objects of its index: per
     fleet slot that is a permutation of the keys it serves, which keeps
     the key varints in the replay the width they had on the wire. *)
  let ranks = Array.init 64 (fun _ -> Atomic.make 0) in
  let module T = struct
    let name = P.name

    type msg = P.msg

    let msg_info = P.msg_info
    let msg_size_words = P.msg_size_words
    let msg_class = P.msg_class

    type obj = { o : P.obj; tag : int }

    let obj_init ~cfg ~index =
      { o = P.obj_init ~cfg ~index; tag = Atomic.fetch_and_add ranks.(index land 63) 1 }

    let keep tag src m =
      if !n_captured < capture_cap then begin
        captured := (tag, src, m) :: !captured;
        incr n_captured
      end

    let obj_handle b ~src m =
      let o, reply = timed obj (fun () -> P.obj_handle b.o ~src m) in
      if Atomic.get capture then begin
        keep b.tag src m;
        Option.iter (keep b.tag src) reply
      end;
      ({ b with o }, reply)

    type writer = P.writer

    let writer_init = P.writer_init
    let writer_start w v = timed writer (fun () -> P.writer_start w v)
    let writer_on_msg w ~obj m = timed writer (fun () -> P.writer_on_msg w ~obj m)

    type reader = P.reader

    let reader_init = P.reader_init
    let reader_start r = timed reader (fun () -> P.reader_start r)
    let reader_on_msg r ~obj m = timed reader (fun () -> P.reader_on_msg r ~obj m)
    let reader_on_reconnect = P.reader_on_reconnect
  end in
  let replay () =
    let frames =
      List.rev_map
        (fun (tag, src, msg) ->
          let sender = Sim.Proc_id.to_string src in
          if keyed then Net.Codec.Msg_key { key = tag; sender; msg }
          else Net.Codec.Msg_from { sender; msg })
        !captured
      |> Array.of_list
    in
    let n = Array.length frames in
    let out = Net.Codec.Out.create () in
    let t0 = now_ns () in
    Array.iter
      (fun f ->
        Net.Codec.encode_frame_into codec out f;
        if Net.Codec.Out.length out > 32_768 then Net.Codec.Out.clear out)
      frames;
    let encode = now_ns () - t0 in
    let wire = Array.map (Net.Codec.encode_frame codec) frames in
    let payloads = Array.map (fun s -> String.sub s 4 (String.length s - 4)) wire in
    let t1 = now_ns () in
    Array.iter
      (fun p ->
        match Net.Codec.decode_payload codec p with
        | Ok _ -> ()
        | Error e -> failwith ("codec replay: " ^ e))
      payloads;
    let decode = now_ns () - t1 in
    let per x = if n = 0 then 0. else float_of_int x /. float_of_int n in
    {
      encode_ns = per encode;
      decode_ns = per decode;
      bytes = Array.map String.length wire;
    }
  in
  ( Net.Protocols.Packed { proto = (module T); codec },
    { reader; writer; obj; capture; replay } )
