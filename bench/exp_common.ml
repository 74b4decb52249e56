(* Shared machinery for the experiment tables: a protocol-agnostic runner
   that executes any Protocol_intf.S implementation on a schedule and
   projects the report onto a flat summary the tables consume. *)

(* Worker-domain count for the experiments that fan out over a pool
   ([None] = the pool's own default, [Exec.Pool.recommended_jobs]).
   Set once by the harness from [--jobs N]; results are byte-identical
   whatever the value. *)
let jobs : int option ref = ref None

type summary = {
  completed : int;
  total : int;
  write_rounds_max : int;
  read_rounds_mean : float;
  read_rounds_max : int;
  fast_read_fraction : float;  (* reads decided on round-1 data *)
  read_latency : Stats.Summary.t;
  write_latency : Stats.Summary.t;
  words_to_readers : int;
  safe : bool;
  regular : bool;
  safety_violations : int;
}

(* A protocol packed with its Byzantine plan (existential over the wire
   message type, so heterogeneous protocols fit in one list). *)
type contender =
  | Contender : {
      label : string;
      semantics : string;
      proto : (module Core.Protocol_intf.S with type msg = 'm);
      cfg : Quorum.Config.t;
      byz : (int * 'm Core.Byz.factory) list;
    }
      -> contender

let label (Contender c) = c.label

let semantics (Contender c) = c.semantics

let config (Contender c) = c.cfg

let run ?(max_events = 2_000_000) ~seed ~delay ~crashes ~use_byz
    (Contender { proto = (module P); cfg; byz; _ }) schedule =
  let module Sc = Core.Scenario.Make (P) in
  let faults = { Sc.crashes; byzantine = (if use_byz then byz else []) } in
  let rep = Sc.run ~max_events ~cfg ~seed ~delay ~faults schedule in
  let read_rounds = Stats.Summary.create () in
  let read_latency = Stats.Summary.create () in
  let write_latency = Stats.Summary.create () in
  let write_rounds_max = ref 0 in
  let fast_reads = ref 0 in
  let reads = ref 0 in
  List.iter
    (fun (o : Sc.outcome) ->
      match o.op with
      | Core.Schedule.Read _ ->
          incr reads;
          if o.rounds = 1 then incr fast_reads;
          Stats.Summary.add_int read_rounds o.rounds;
          Stats.Summary.add_int read_latency (o.completed_at - o.invoked_at)
      | Core.Schedule.Write _ ->
          write_rounds_max := max !write_rounds_max o.rounds;
          Stats.Summary.add_int write_latency (o.completed_at - o.invoked_at))
    rep.outcomes;
  let equal = String.equal in
  let violations = Histories.Checks.check_safety ~equal rep.history in
  {
    completed = List.length rep.outcomes;
    total = List.length schedule;
    write_rounds_max = !write_rounds_max;
    read_rounds_mean = Stats.Summary.mean read_rounds;
    read_rounds_max =
      (if Stats.Summary.count read_rounds = 0 then 0
       else int_of_float (Stats.Summary.max read_rounds));
    fast_read_fraction =
      (if !reads = 0 then 0.0 else float_of_int !fast_reads /. float_of_int !reads);
    read_latency;
    write_latency;
    words_to_readers = rep.words_to_readers;
    safe = violations = [];
    regular = Histories.Checks.is_regular ~equal rep.history;
    safety_violations = List.length violations;
  }

(* ----- environment knobs: a malformed value exits 2 ----- *)

let getenv_int ?(min = 1) name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= min -> n
      | _ ->
          if min = 1 then
            Printf.eprintf "%s expects a positive integer (got %S)\n" name s
          else
            Printf.eprintf "%s expects an integer >= %d (got %S)\n" name min s;
          exit 2)

let getenv_float name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f >= 0.0 -> f
      | _ ->
          Printf.eprintf "%s expects a nonnegative float (got %S)\n" name s;
          exit 2)

(* A comma-separated list; [parse] returns [None] on a bad item. *)
let getenv_list name default parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x ->
             match parse (String.trim x) with
             | Some v -> v
             | None ->
                 Printf.eprintf "%s: cannot parse %S\n" name s;
                 exit 2)

(* An item parser for [getenv_list]: integers [>= min]. *)
let int_at_least min s =
  match int_of_string_opt s with Some n when n >= min -> Some n | _ -> None

let transport name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "tcp" -> `Tcp
      | "unix" -> `Unix
      | _ ->
          Printf.eprintf "%s expects tcp or unix (got %S)\n" name s;
          exit 2)

let transport_name = function `Tcp -> "tcp" | `Unix -> "unix"

let summary_json buf label (s : Stats.Summary.t) =
  Printf.bprintf buf
    "\"%s\": { \"count\": %d, \"p50_us\": %.0f, \"p99_us\": %.0f, \
     \"mean_us\": %.1f, \"max_us\": %.0f }"
    label (Stats.Summary.count s)
    (Stats.Summary.percentile s 50.)
    (Stats.Summary.percentile s 99.)
    (Stats.Summary.mean s) (Stats.Summary.max s)

let section title =
  Printf.printf "\n=== %s ===\n" title

let note fmt = Printf.printf (fmt ^^ "\n")

let csv_counter = ref 0

(* Tables also land as CSV files when ROBUSTREAD_CSV_DIR is set, for
   downstream plotting. *)
let print_table t =
  print_string (Stats.Table.to_string t);
  match Sys.getenv_opt "ROBUSTREAD_CSV_DIR" with
  | None -> ()
  | Some dir ->
      incr csv_counter;
      let path = Filename.concat dir (Printf.sprintf "table_%02d.csv" !csv_counter) in
      let oc = open_out path in
      output_string oc (Stats.Table.to_csv t);
      close_out oc

(* Standard contenders used by several experiments (t = b = 1). *)
let core_cfg = Quorum.Config.optimal ~t:1 ~b:1

let safe_contender =
  Contender
    {
      label = "safe (Fig 2-4)";
      semantics = "safe";
      proto = (module Core.Proto_safe);
      cfg = core_cfg;
      byz = [ (2, Fault.Strategies.forge_high_value ~value:"evil" ~ts_boost:9) ];
    }

let regular_contender =
  Contender
    {
      label = "regular (Fig 5-6)";
      semantics = "regular";
      proto = (module Core.Proto_regular.Plain);
      cfg = core_cfg;
      byz = [ (2, Fault.Strategies.forge_history ~value:"evil" ~ts_boost:9) ];
    }

let regular_opt_contender =
  Contender
    {
      label = "regular-opt (S5.1)";
      semantics = "regular";
      proto = (module Core.Proto_regular.Optimized);
      cfg = core_cfg;
      byz = [ (2, Fault.Strategies.forge_history ~value:"evil" ~ts_boost:9) ];
    }

let abd_contender =
  Contender
    {
      label = "ABD [3] (b=0)";
      semantics = "regular";
      proto = (module Baseline.Abd.Regular);
      cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0;
      byz = [ (1, Baseline.Abd.byz_forge_high ~value:"evil" ~ts_boost:9) ];
    }

let abd_atomic_contender =
  Contender
    {
      label = "ABD atomic";
      semantics = "atomic";
      proto = (module Baseline.Abd.Atomic);
      cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0;
      byz = [ (1, Baseline.Abd.byz_forge_high ~value:"evil" ~ts_boost:9) ];
    }

let nonmod_contender =
  Contender
    {
      label = "non-modifying [1]";
      semantics = "safe";
      proto = (module Baseline.Nonmod);
      cfg = core_cfg;
      byz = [ (2, Baseline.Nonmod.byz_forge_high ~value:"evil" ~ts_boost:9) ];
    }

let auth_contender =
  Contender
    {
      label = "authenticated [15]";
      semantics = "regular";
      proto = (module Baseline.Auth);
      cfg = core_cfg;
      byz = [ (2, Baseline.Auth.byz_forge ~value:"evil" ~ts_boost:9) ];
    }

let fast_safe_contender =
  Contender
    {
      label = "fast-safe (S=2t+2b+1)";
      semantics = "safe";
      proto = (module Baseline.Fast_safe);
      cfg = Quorum.Config.make_exn ~s:5 ~t:1 ~b:1;
      byz =
        [ (1, Baseline.Fast_safe.byz_forge_high ~value:"evil" ~ts_boost:9) ];
    }

let naive_contender =
  Contender
    {
      label = "naive-fast (strawman)";
      semantics = "none";
      proto = (module Baseline.Naive_fast);
      cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1;
      byz =
        [ (1, Baseline.Naive_fast.byz_forge_high ~value:"ghost" ~ts_boost:9) ];
    }

let all_contenders =
  [
    safe_contender;
    regular_contender;
    regular_opt_contender;
    abd_contender;
    abd_atomic_contender;
    nonmod_contender;
    auth_contender;
    fast_safe_contender;
    naive_contender;
  ]
