(* Exact SWMR history checking in bounded chunks of reads.

   [Histories.Checks.check_safety] and [check_regularity] rescan the
   whole history for every read, so their cost grows with the square of
   the history length.  A read's verdict depends only on the writes and
   on the read itself: whether a write is concurrent with it, the last
   write that precedes it (and that write's value), and the writes whose
   value it returned.  So the complete reads are checked [chunk] at a
   time, each chunk against a superset of exactly those writes, found by
   binary search.  Extra writes cannot change a verdict (they neither
   precede a read with a higher index than its last preceding write, nor
   are concurrent with it, nor match its value), so the concatenated
   chunk verdicts equal the whole-history verdicts, rule and detail
   included, in the same order. *)

open Histories

let resp_stamp (op : _ Op.t) =
  match op.responded_stamp with Some s -> s | None -> max_int

(* First index in [0, n) where the monotone [pred] holds, or [n]. *)
let first_true n pred =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if pred mid then go lo mid else go (mid + 1) hi
  in
  go 0 n

let check ?(chunk = 256) check ~equal (ops : 'v Op.t list) =
  let chunk = max 1 chunk in
  let writes = Array.of_list (List.filter Op.is_write ops) in
  Array.stable_sort
    (fun (a : _ Op.t) b -> Int.compare a.invoked_stamp b.invoked_stamp)
    writes;
  let nw = Array.length writes in
  (* Running maximum of response stamps in invocation order (open writes
     never finish): every write before the first position whose running
     maximum reaches a read's invocation precedes that read. *)
  let pmax = Array.make nw 0 in
  Array.iteri
    (fun i w ->
      pmax.(i) <- max (resp_stamp w) (if i = 0 then 0 else pmax.(i - 1)))
    writes;
  (* Complete writes by response stamp, and the highest-index write of
     each prefix: the last write preceding a read. *)
  let finished = Array.of_seq (Seq.filter Op.is_complete (Array.to_seq writes)) in
  Array.stable_sort
    (fun a b -> Int.compare (resp_stamp a) (resp_stamp b))
    finished;
  let index w = Option.value (Op.write_index w) ~default:0 in
  let best = Array.copy finished in
  Array.iteri
    (fun i w ->
      if i > 0 && index best.(i - 1) >= index w then best.(i) <- best.(i - 1))
    finished;
  let position = Hashtbl.create (max 16 nw) in
  let by_value = Hashtbl.create (max 16 nw) in
  Array.iteri
    (fun i (w : _ Op.t) ->
      Hashtbl.replace position w.id i;
      match w.action with
      | Op.Write { value; _ } -> Hashtbl.add by_value (Hashtbl.hash value) i
      | Op.Read _ -> ())
    writes;
  let reads =
    Array.of_list
      (List.filter (fun op -> Op.is_read op && Op.is_complete op) ops)
  in
  let picked = Array.make nw false in
  let verdicts = ref [] in
  let a = ref 0 in
  while !a < Array.length reads do
    let b = min (Array.length reads) (!a + chunk) in
    let selected = ref [] in
    let pick i =
      if not picked.(i) then begin
        picked.(i) <- true;
        selected := i :: !selected
      end
    in
    (* Writes that may be concurrent with a read of the chunk. *)
    let lo = ref max_int and hi = ref 0 in
    for r = !a to b - 1 do
      lo := min !lo reads.(r).Op.invoked_stamp;
      hi := max !hi (resp_stamp reads.(r))
    done;
    let i0 = first_true nw (fun i -> pmax.(i) >= !lo) in
    let i1 = first_true nw (fun i -> writes.(i).Op.invoked_stamp > !hi) in
    for i = i0 to i1 - 1 do
      pick i
    done;
    (* Each read's last preceding write and the writes of its value. *)
    for r = !a to b - 1 do
      let rd = reads.(r) in
      let j =
        first_true (Array.length finished) (fun i ->
            resp_stamp finished.(i) >= rd.invoked_stamp)
      in
      if j > 0 then pick (Hashtbl.find position best.(j - 1).Op.id);
      match Op.read_result rd with
      | Some (Op.Value x) ->
          List.iter
            (fun i ->
              match writes.(i).Op.action with
              | Op.Write { value; _ } when equal value x -> pick i
              | Op.Write _ | Op.Read _ -> ())
            (Hashtbl.find_all by_value (Hashtbl.hash x))
      | Some Op.Bottom | None -> ()
    done;
    let sub =
      List.map
        (fun i ->
          picked.(i) <- false;
          writes.(i))
        (List.sort Int.compare !selected)
      @ Array.to_list (Array.sub reads !a (b - !a))
    in
    verdicts := check ~equal sub :: !verdicts;
    a := b
  done;
  List.concat (List.rev !verdicts)
