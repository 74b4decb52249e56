(* Every event of the recording client looks these tables up, so they
   hash and compare without the polymorphic primitives. *)
module Keys = Hashtbl.Make (Int)

module Slots = Hashtbl.Make (struct
  type t = int * bool * int  (* key, write, reader *)

  let equal ((k, w, r) : t) (k', w', r') = k = k' && w = w' && r = r'

  let hash ((k, w, r) : t) = (((k * 65599) + r) * 2) + Bool.to_int w
end)

type t = {
  sample : int -> bool;
  mutex : Mutex.t;
  keys : string Histories.Recorder.t Keys.t;
  (* Open ops by slot: a timed-out op stays open, and the op that
     resumes its slot responds to the original invocation. *)
  open_ops : Histories.Recorder.op_handle Slots.t;
  (* Recorder reader ids for coalesced reads: the recorder allows one
     open read per reader, and joined reads overlap their lead. *)
  mutable next_jrid : int;
}

let create ?(sample = fun _ -> true) () =
  {
    sample;
    mutex = Mutex.create ();
    keys = Keys.create 16;
    open_ops = Slots.create 16;
    next_jrid = 1_000_000;
  }

let recorder t key =
  match Keys.find_opt t.keys key with
  | Some r -> r
  | None ->
      let r = Histories.Recorder.create () in
      Keys.replace t.keys key r;
      r

let result_of (o : Client.outcome) =
  match o.value with
  | Some (Core.Value.V s) -> Histories.Op.Value s
  | Some Core.Value.Bottom | None -> Histories.Op.Bottom

(* [joined.(op)]: the handle of coalesced read [op] of this tap's call.
   Joined reads never park, so their handles never outlive the call. *)
let record t joined ops = function
  | Client.Invoke { op; key; write; reader; joined = j; at_us } ->
      if t.sample key then begin
        let r = recorder t key in
        if j then begin
          let jrid = t.next_jrid in
          t.next_jrid <- jrid + 1;
          joined.(op) <-
            Some (Histories.Recorder.invoke_read r ~time:at_us ~reader:jrid)
        end
        else if not (Slots.mem t.open_ops (key, write, reader)) then
          (* (an open entry means a parked op is being resumed: its
             invocation stands) *)
          Slots.replace t.open_ops (key, write, reader)
            (match ops.(op) with
            | Client.Write { value; _ } ->
                Histories.Recorder.invoke_write r ~time:at_us
                  (Core.Value.to_string value)
            | Client.Read _ ->
                Histories.Recorder.invoke_read r ~time:at_us ~reader)
      end
  | Client.Respond { op; key; write; reader; joined = j; at_us; outcome } -> (
      let h =
        if j then begin
          let h = joined.(op) in
          joined.(op) <- None;
          h
        end
        else Slots.find_opt t.open_ops (key, write, reader)
      in
      (* a failed op stays open for the op that resumes it *)
      match (h, outcome) with
      | Some h, Ok o ->
          let r = recorder t key in
          if not j then Slots.remove t.open_ops (key, write, reader);
          if write then Histories.Recorder.respond_write r h ~time:at_us
          else Histories.Recorder.respond_read r h ~time:at_us (result_of o)
      | _ -> ())

(* Events fire on the client pump's hot path, once per op start and
   finish: take the mutex directly instead of allocating a thunk per
   event.  A misused tap raises; the handler re-raises with the mutex
   released so the failure stays loud. *)
let tap t ops =
  let joined = Array.make (Array.length ops) None in
  fun ev ->
    Mutex.lock t.mutex;
    (try record t joined ops ev
     with e ->
       Mutex.unlock t.mutex;
       raise e);
    Mutex.unlock t.mutex

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let history t key =
  locked t (fun () ->
      match Keys.find_opt t.keys key with
      | None -> []
      | Some r -> Histories.Recorder.ops r)

let histories t =
  locked t (fun () ->
      Keys.fold
        (fun key r acc -> (key, Histories.Recorder.ops r) :: acc)
        t.keys []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b))
