type op = Read | Write | Other

type t = { op : op; round : int; request : bool }

let read ~round ~request = { op = Read; round; request }

let write ~round ~request = { op = Write; round; request }

let other = { op = Other; round = 0; request = false }

let op_to_string = function Read -> "read" | Write -> "write" | Other -> "other"

let to_string c =
  match c.op with
  | Other -> "other"
  | Read | Write ->
      Printf.sprintf "%s.r%d.%s" (op_to_string c.op) c.round
        (if c.request then "req" else "ack")

let pp ppf c = Format.pp_print_string ppf (to_string c)

let equal a b = a.op = b.op && a.round = b.round && a.request = b.request

(* Handles live in a dense array indexed by class: rounds are small and
   there are three ops and two directions, so the array stays a few
   dozen entries long. *)
type counters = {
  reg : Metrics.t;
  stage : string;
  mutable handles : Metrics.counter option array;
}

let counters reg ~stage = { reg; stage; handles = [||] }

let slot c =
  let op = match c.op with Read -> 0 | Write -> 1 | Other -> 2 in
  (((c.round * 2) + Bool.to_int c.request) * 3) + op

let name m c = "wire." ^ to_string c ^ "." ^ m.stage

let incr m c =
  if c.round < 0 then Metrics.incr m.reg (name m c)
  else begin
    let i = slot c in
    if i >= Array.length m.handles then begin
      let a = Array.make (max (i + 1) (2 * Array.length m.handles)) None in
      Array.blit m.handles 0 a 0 (Array.length m.handles);
      m.handles <- a
    end;
    match m.handles.(i) with
    | Some h -> Metrics.counter_incr h
    | None ->
        let h = Metrics.counter m.reg (name m c) in
        m.handles.(i) <- Some h;
        Metrics.counter_incr h
  end
