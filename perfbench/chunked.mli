(** Exact SWMR history checking in bounded chunks of reads.

    [check ~chunk f ~equal ops] returns exactly [f ~equal ops] (same
    violations, same order) for [f] = {!Histories.Checks.check_safety}
    or {!Histories.Checks.check_regularity}, but calls [f] on
    sub-histories of at most [chunk] (default 256) complete reads plus
    the writes their verdicts depend on, so its cost grows with the
    history length times the chunk size instead of with its square.
    Write indices must be unique (single writer), and [equal] values
    must have equal [Hashtbl.hash]. *)
val check :
  ?chunk:int ->
  (equal:('v -> 'v -> bool) -> 'v Histories.Op.t list -> 'v Histories.Checks.violation list) ->
  equal:('v -> 'v -> bool) ->
  'v Histories.Op.t list ->
  'v Histories.Checks.violation list
