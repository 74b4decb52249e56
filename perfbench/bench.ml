(* The standing benchmark: one workload, closed-loop over Unix-domain
   loopback sockets, every operation checked against the paper's
   semantics.

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 the run is a series of untraced rounds and reports the
   end-to-end metrics.  With --trace 1 it runs one untraced and one
   traced round, each of a quarter of the work, and reports the
   per-layer ledger of the traced one; the untraced round only gives
   [obs.trace_overhead].  The last line of standard output is the JSON
   result; the lines before it are the human-readable report.

   Each workload runs in one process: one server worker domain
   ([Server.start_group ~domains:1]), one closed-loop load thread, and
   for register-rw a paced writer in a domain of its own.  No delay is injected, so
   latency is processor time plus loopback time.  Every layer is
   measured from outside: the protocol automata through [Timed], the
   clients and servers through the metric registries and spans they
   already export, and the codec by replaying the traced round's
   captured frames. *)

open Net

let now_ns = Timed.now_ns

(* Span and event clock: monotonic microseconds. *)
let now_us () = now_ns () / 1000

type workload = {
  name : string;
  keys : int;  (** 0: the single register of register-rw *)
  skew : float;
  failover : bool;
  rate : float;
      (** operations per second of --seconds: each run does this much
          fixed work, the rate this workload reaches on a quiet 2-core
          host *)
}

(* Why each workload exists is recorded in BENCHMARK.json. *)
let workloads =
  let w name ~keys ~skew ~failover ~rate = { name; keys; skew; failover; rate } in
  [
    w "register-rw" ~keys:0 ~skew:0. ~failover:false ~rate:30_000.;
    w "keys-uniform" ~keys:10_000 ~skew:0. ~failover:false ~rate:60_000.;
    w "keys-hot" ~keys:256 ~skew:0.99 ~failover:false ~rate:80_000.;
    w "keys-failover" ~keys:10_000 ~skew:0. ~failover:true ~rate:60_000.;
  ]

(* register-rw: the paper's safe storage at S = 2t+b+1, where a read
   may need both rounds. *)
let register_cfg = Quorum.Config.make_exn ~s:4 ~t:1 ~b:1
let mux_window = 16
let write_pace_s = 0.0005

(* Keyed workloads: regular-gc at S = 2t+2b+1, where one-round reads
   are possible, on a fleet larger than S. *)
let keyed_cfg = Quorum.Config.make_exn ~s:3 ~t:1 ~b:0
let fleet = 4
let keyed_window = 64
let coalesce_cap = 64
let write_ratio = 0.05
let crash_slot = 1

(* Warm-up: fixed work, so set-up time measures the same thing on every
   round. *)
let warmup_reads = 8_000
let warmup_writes = 100
let warmup_ops = 20_000

(* An untraced run is a series of rounds of set-up, fixed work (an
   eighth of the run's), check and tear-down, each on a fresh cluster
   from a compacted heap, so one round's retained spans do not slow the
   next.  The host's other tenants take processor time from this
   machine in episodes ("steal"), and throughput falls about twice as
   fast as the stolen share rises.  So rounds go on until
   [kept_rounds] of them, after the first, saw less than [calm_steal]
   of it, or until twice the run's seconds have passed; the metrics
   come from the [kept_rounds] rounds with the least steal. *)
let round_share = 8.
let kept_rounds = 5
let calm_steal = 0.05

(* ---- operation log ------------------------------------------------------- *)

(* One entry per operation a client was handed, warm-up included.  A
   timed-out operation parks its automaton and the next operation on the
   same slot resumes it; as in [Cluster], the history then holds one
   operation from the first invocation to the resumed response, and the
   resuming operation is recorded as merged into it. *)
type log = {
  mutable n : int;
  mutable key : int array;
  mutable write : bool array;
  mutable joined : bool array;
  mutable value : string array;  (** written value or value read *)
  mutable bottom : bool array;  (** the read returned ⊥ *)
  mutable inv_ns : int array;
  mutable resp_ns : int array;  (** -1 unless the call returned Ok *)
  mutable inv_st : int array;
  mutable resp_st : int array;  (** -1 while open *)
  mutable rounds : int array;
  mutable merged : int array;  (** the parked op this one resumed, or -1 *)
  parked : (int * bool, int) Hashtbl.t;
}

let new_log () =
  {
    n = 0;
    key = [||];
    write = [||];
    joined = [||];
    value = [||];
    bottom = [||];
    inv_ns = [||];
    resp_ns = [||];
    inv_st = [||];
    resp_st = [||];
    rounds = [||];
    merged = [||];
    parked = Hashtbl.create 8;
  }

(* Append [n] entries and return the index of the first. *)
let alloc l n =
  let need = l.n + n in
  if need > Array.length l.key then begin
    let cap = max need (2 * Array.length l.key) in
    let grow a d =
      let b = Array.make cap d in
      Array.blit a 0 b 0 l.n;
      b
    in
    l.key <- grow l.key 0;
    l.write <- grow l.write false;
    l.joined <- grow l.joined false;
    l.value <- grow l.value "";
    l.bottom <- grow l.bottom false;
    l.inv_ns <- grow l.inv_ns 0;
    l.resp_ns <- grow l.resp_ns (-1);
    l.inv_st <- grow l.inv_st 0;
    l.resp_st <- grow l.resp_st (-1);
    l.rounds <- grow l.rounds 0;
    l.merged <- grow l.merged (-1)
  end;
  let base = l.n in
  l.n <- need;
  base

(* History stamps: one counter for every thread, so precedence between
   the writer thread's and the load thread's operations is real-time
   order. *)
let stamp_counter = Atomic.make 0
let stamp () = Atomic.fetch_and_add stamp_counter 1

let on_invoke l i ~slot ~key ~write ~joined ~value =
  l.key.(i) <- key;
  l.write.(i) <- write;
  l.joined.(i) <- joined;
  l.value.(i) <- value;
  l.inv_ns.(i) <- now_ns ();
  match
    if joined || Hashtbl.length l.parked = 0 then None
    else Hashtbl.find_opt l.parked slot
  with
  | Some p ->
      Hashtbl.remove l.parked slot;
      l.merged.(i) <- p
  | None -> l.inv_st.(i) <- stamp ()

let on_respond l i ~slot (outcome : (Client.outcome, string) result) =
  let target = if l.merged.(i) >= 0 then l.merged.(i) else i in
  match outcome with
  | Ok o ->
      l.resp_ns.(i) <- now_ns ();
      l.rounds.(i) <- o.rounds;
      (match o.value with
      | Some (Core.Value.V s) -> l.value.(target) <- s
      | Some Core.Value.Bottom -> l.bottom.(target) <- true
      | None -> ());
      l.resp_st.(target) <- stamp ()
  | Error _ -> if not l.joined.(i) then Hashtbl.replace l.parked slot target

let keyed_on_event l base (ops : Client.Keyed.kop array) = function
  | Client.Keyed.Invoke { op; key; write; joined; _ } ->
      let value =
        match ops.(op) with
        | Client.Keyed.Write { value; _ } -> Core.Value.to_string value
        | Client.Keyed.Read _ -> ""
      in
      on_invoke l (base + op) ~slot:(key, write) ~key ~write ~joined ~value
  | Client.Keyed.Respond { op; key; write; outcome; _ } ->
      on_respond l (base + op) ~slot:(key, write) outcome

let mux_on_event l base = function
  | Client.Mux.Invoke { op; reader; joined; _ } ->
      on_invoke l (base + op) ~slot:(reader, false) ~key:0 ~write:false ~joined
        ~value:""
  | Client.Mux.Respond { op; reader; outcome; _ } ->
      on_respond l (base + op) ~slot:(reader, false) outcome

(* ---- checking -------------------------------------------------------------- *)

type verdict = { checked : int; violations : int; check_ns : int }

(* Every operation of every key, warm-up included, rebuilt as that key's
   history and checked: safety always, regularity where the protocol
   promises it.  [checked] counts the timed operations among them. *)
let check_logs ~regular logs =
  let t0 = now_ns () in
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun (l, from) ->
      for i = 0 to l.n - 1 do
        if l.merged.(i) < 0 then
          Hashtbl.replace by_key l.key.(i)
            ((l, i, from)
            :: Option.value (Hashtbl.find_opt by_key l.key.(i)) ~default:[])
      done)
    logs;
  let violations = ref 0 and checked = ref 0 and id = ref 0 in
  Hashtbl.iter
    (fun _ entries ->
      let entries =
        List.sort
          (fun (l1, i1, _) (l2, i2, _) ->
            Int.compare l1.inv_st.(i1) l2.inv_st.(i2))
          entries
      in
      let windex = ref 0 in
      let ops =
        List.map
          (fun (l, i, from) ->
            if i >= from then incr checked;
            incr id;
            let resp = if l.resp_st.(i) < 0 then None else Some l.resp_st.(i) in
            let action =
              if l.write.(i) then begin
                incr windex;
                Histories.Op.Write { index = !windex; value = l.value.(i) }
              end
              else
                let result =
                  if l.bottom.(i) then Histories.Op.Bottom
                  else Histories.Op.Value l.value.(i)
                in
                Histories.Op.Read
                  { reader = 1; result = Option.map (fun _ -> result) resp }
            in
            {
              Histories.Op.id = !id;
              action;
              invoked_at = l.inv_ns.(i);
              invoked_stamp = l.inv_st.(i);
              responded_at = resp;
              responded_stamp = resp;
            })
          entries
      in
      let count check =
        List.length (Chunked.check check ~equal:String.equal ops)
      in
      violations := !violations + count Histories.Checks.check_safety;
      if regular then
        violations := !violations + count Histories.Checks.check_regularity)
    by_key;
  { checked = !checked; violations = !violations; check_ns = now_ns () - t0 }

(* ---- small statistics ------------------------------------------------------ *)

(* Nearest-rank percentile, or [None] when fewer than ten samples lie
   beyond it: such a percentile would be guessed, not measured. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None else Some sorted.(max 0 (rank - 1))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* ---- metric registries ----------------------------------------------------- *)

(* A snapshot is a merged copy of registries; a round's share of a counter
   or histogram is the difference of the snapshots around it. *)
let snapshot regs =
  let dst = Obs.Metrics.create () in
  List.iter (Obs.Metrics.merge_into ~dst) regs;
  dst

let counter_delta (a, b) name =
  Obs.Metrics.counter_value b name - Obs.Metrics.counter_value a name

let counter_deltas (a, b) ~prefix ~suffix =
  Obs.Metrics.counters b
  |> List.filter (fun (k, _) ->
         String.starts_with ~prefix k && String.ends_with ~suffix k)
  |> List.map (fun (k, _) -> counter_delta (a, b) k)

let hist_delta (a, b) name =
  match Obs.Metrics.find_histogram b name with
  | None -> None
  | Some hb ->
      let counts = Obs.Metrics.Histogram.counts hb in
      Option.iter
        (fun ha ->
          Array.iteri
            (fun i c -> counts.(i) <- counts.(i) - c)
            (Obs.Metrics.Histogram.counts ha))
        (Obs.Metrics.find_histogram a name);
      if Array.for_all (( = ) 0) counts then None
      else
        Some
          (Obs.Metrics.Histogram.restore
             ~bounds:(Obs.Metrics.Histogram.bounds hb)
             ~counts ~sum:0.
             ~minv:(Obs.Metrics.Histogram.min_exn hb)
             ~maxv:(Obs.Metrics.Histogram.max_exn hb))

(* 0 when nothing was observed in the round. *)
let hist_quantile d name p =
  Option.fold ~none:0.
    ~some:(fun h -> Obs.Metrics.Histogram.quantile h p)
    (hist_delta d name)

let hist_count d name =
  Option.fold ~none:0 ~some:Obs.Metrics.Histogram.count (hist_delta d name)

(* ---- one cluster ------------------------------------------------------------ *)

(* Sockets live under the working directory, so the run writes nothing
   outside it; the relative path also stays within the socket-path
   limit wherever the checkout is. *)
let tmp_root = ".perfbench_tmp"

type cluster = {
  dir : string;
  servers : Server.t array;
  server_regs : Obs.Metrics.t array;
  endpoints : Endpoint.t array;
  protocol : Protocols.t;  (** timed when traced *)
  timed : Timed.t option;
  t0 : int;
}

let start_cluster ~traced ~keyed ~protocol ~cfg n =
  let t0 = now_ns () in
  (try Unix.mkdir tmp_root 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat tmp_root
      (Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.get stamp_counter))
  in
  Unix.mkdir dir 0o700;
  let protocol, timed =
    if traced then
      let p, t = Timed.wrap ~keyed protocol in
      (p, Some t)
    else (protocol, None)
  in
  let server_regs = Array.init n (fun _ -> Obs.Metrics.create ()) in
  let servers =
    Server.start_group
      ?metrics:(if traced then Some (Array.get server_regs) else None)
      ~domains:1 ~protocol ~cfg
      (Array.init n (fun i ->
           Endpoint.Unix_sock
             (Filename.concat dir (Printf.sprintf "s%d.sock" (i + 1)))))
  in
  {
    dir;
    servers;
    server_regs;
    endpoints = Array.map Server.endpoint servers;
    protocol;
    timed;
    t0;
  }

let stop_cluster c =
  Array.iter (fun s -> if Server.alive s then Server.stop s) c.servers;
  Array.iter Endpoint.cleanup c.endpoints;
  try Unix.rmdir c.dir with Unix.Unix_error _ -> ()

(* ---- one round ---------------------------------------------------------------- *)

type window = {
  wall_ns : int;
  logs : (log * int) list;  (** each client's log and its first timed op *)
  load_cpu_ns : int;  (** the closed-loop load thread *)
  gen_cpu_ns : int;  (** every generator thread *)
  proc_cpu_ns : int;
  minor_words : float;  (** allocated by the load thread's domain *)
  spans : Obs.Span.t list;  (** spans begun in the window *)
  regs : (Obs.Metrics.t * Obs.Metrics.t) option;  (** client snapshots *)
  sregs : (Obs.Metrics.t * Obs.Metrics.t) option;  (** server snapshots *)
  core : (Timed.acc * Timed.acc * Timed.acc) option;
      (** reader, writer and object steps in the window *)
  replay : Timed.replay option;
  partition_violations : int;
  keys_touched : int;
  peak_rss_mb : float;  (** since the round began *)
  steal_share : float;  (** of the host's processor time in the window *)
}

type round = {
  start_ns : int;  (** cluster start and client connect *)
  warmup_ns : int;
  window : window;
  verdict : verdict;
}

let fold_window w f init =
  List.fold_left
    (fun acc (l, from) ->
      let acc = ref acc in
      for i = from to l.n - 1 do
        acc := f !acc l i
      done;
      !acc)
    init w.logs

let completed l i = l.resp_ns.(i) >= 0

(* Operations that completed, and all that were attempted. *)
let window_counts w =
  fold_window w
    (fun (ok, att) l i -> ((if completed l i then ok + 1 else ok), att + 1))
    (0, 0)

let ops_per_s w =
  float_of_int (fst (window_counts w)) /. (float_of_int w.wall_ns /. 1e9)

(* Invoke-to-respond times in microseconds, sorted. *)
let latencies w ~write =
  let a =
    Array.of_list
      (fold_window w
         (fun acc l i ->
           if l.write.(i) = write && completed l i then
             (float_of_int (l.resp_ns.(i) - l.inv_ns.(i)) /. 1000.) :: acc
           else acc)
         [])
  in
  Array.sort Float.compare a;
  a

(* Protocol-reported rounds summed over the completed reads. *)
let read_rounds w =
  fold_window w
    (fun s l i -> if (not l.write.(i)) && completed l i then s + l.rounds.(i) else s)
    0

(* A copy of the step counters, to difference around the window. *)
let steps (t : Timed.t) =
  let copy (a : Timed.acc) : Timed.acc = { calls = a.calls; ns = a.ns } in
  (copy t.reader, copy t.writer, copy t.obj)

let steps_delta (r, w, o) (r', w', o') : Timed.acc * Timed.acc * Timed.acc =
  let d (a : Timed.acc) (b : Timed.acc) : Timed.acc =
    { calls = b.calls - a.calls; ns = b.ns - a.ns }
  in
  (d r r', d w w', d o o')

(* Everything measured around the timed load of a round.  The load runs
   with nothing in flight before and after it, so the snapshots and step
   counters read at its edges are consistent. *)
let measure c ~client_regs ~spans ~keys_touched ~gen_cpu load =
  let traced = c.timed <> None in
  let clients () = snapshot client_regs in
  let servers () = snapshot (Array.to_list c.server_regs) in
  let regs0 = if traced then Some (clients ()) else None in
  let sregs0 = if traced then Some (servers ()) else None in
  let steps0 = Option.map steps c.timed in
  Option.iter (fun (t : Timed.t) -> Atomic.set t.capture true) c.timed;
  let span_from = now_us () in
  let proc0 = Procstat.process_cpu_ns () in
  let cpu0 = Procstat.thread_cpu_ns () in
  let words0 = Gc.minor_words () in
  let steal0 = Procstat.steal_ns () in
  let t0 = now_ns () in
  let logs = load () in
  let wall = now_ns () - t0 in
  let steal = Procstat.steal_ns () - steal0 in
  let words = Gc.minor_words () -. words0 in
  let load_cpu = Procstat.thread_cpu_ns () - cpu0 in
  let proc = Procstat.process_cpu_ns () - proc0 in
  Option.iter (fun (t : Timed.t) -> Atomic.set t.capture false) c.timed;
  let around a now = Option.map (fun a -> (a, now ())) a in
  {
    wall_ns = wall;
    logs;
    load_cpu_ns = load_cpu;
    gen_cpu_ns = load_cpu + gen_cpu ();
    proc_cpu_ns = proc;
    minor_words = words;
    spans =
      (if traced then
         List.filter (fun (s : Obs.Span.t) -> s.started_at >= span_from) (spans ())
       else []);
    regs = around regs0 clients;
    sregs = around sregs0 servers;
    core =
      (match (steps0, c.timed) with
      | Some s0, Some t -> Some (steps_delta s0 (steps t))
      | _ -> None);
    replay = Option.map (fun (t : Timed.t) -> t.replay ()) c.timed;
    partition_violations =
      Array.fold_left
        (fun a s -> max a (Server.partition_violations s))
        0 c.servers;
    keys_touched = keys_touched ();
    peak_rss_mb = Procstat.peak_rss_mb ();
    steal_share =
      fratio steal (wall * Domain.recommended_domain_count ());
  }

(* register-rw: 16 reads in flight through [Client.Mux] from the load
   thread, serial writes at a fixed pace from a second thread.  The
   writer runs in a domain of its own, so its latency is not the wait
   for the load thread to hand over the domain's runtime lock. *)
let run_register ~seed ~ops ~traced =
  let cfg = register_cfg in
  (* Seeded, distinct write values, drawn before anything is timed;
     enough for the writer at full pace through a slow round. *)
  let st = Random.State.make [| seed |] in
  let max_writes = warmup_writes + 100_000 in
  let values =
    Array.init max_writes (fun n ->
        Printf.sprintf "%08x.%d" (Random.State.bits st) n)
  in
  let c = start_cluster ~traced ~keyed:false ~protocol:Protocols.safe ~cfg cfg.s in
  let mreg = Obs.Metrics.create () and wreg = Obs.Metrics.create () in
  let reg r = if traced then Some r else None in
  let mux =
    Client.Mux.connect ?metrics:(reg mreg) ~now_us ~max_inflight:mux_window
      ~protocol:c.protocol ~cfg ~readers:mux_window c.endpoints
  in
  let writer =
    Client.connect ?metrics:(reg wreg) ~now_us ~protocol:c.protocol ~cfg
      ~role:`Writer c.endpoints
  in
  let start_ns = now_ns () - c.t0 in
  let rlog = new_log () and wlog = new_log () in
  let nwrites = ref 0 in
  let write_one () =
    let i = alloc wlog 1 in
    let v = values.(!nwrites) in
    incr nwrites;
    on_invoke wlog i ~slot:(0, true) ~key:0 ~write:true ~joined:false ~value:v;
    on_respond wlog i ~slot:(0, true) (Client.write writer (Core.Value.v v))
  in
  let reads n =
    let base = alloc rlog n in
    ignore (Client.Mux.run_reads ~on_event:(mux_on_event rlog base) mux n)
  in
  let tw = now_ns () in
  for _ = 1 to warmup_writes do
    write_one ()
  done;
  reads warmup_reads;
  let warmup_ns = now_ns () - tw in
  let rfrom = rlog.n and wfrom = wlog.n in
  let stop = Atomic.make false and writer_cpu = ref 0 in
  let window =
    measure c ~client_regs:[ mreg; wreg ]
      ~spans:(fun () -> Client.Mux.spans mux @ Client.spans writer)
      ~keys_touched:(fun () -> 1)
      ~gen_cpu:(fun () -> !writer_cpu)
      (fun () ->
        let th =
          Domain.spawn (fun () ->
              let cpu0 = Procstat.thread_cpu_ns () in
              while (not (Atomic.get stop)) && !nwrites < max_writes do
                write_one ();
                Thread.delay write_pace_s
              done;
              writer_cpu := Procstat.thread_cpu_ns () - cpu0)
        in
        reads ops;
        Atomic.set stop true;
        Domain.join th;
        [ (rlog, rfrom); (wlog, wfrom) ])
  in
  Client.Mux.close mux;
  Client.close writer;
  stop_cluster c;
  let verdict = check_logs ~regular:false window.logs in
  { start_ns; warmup_ns; window; verdict }

let to_kop = function
  | Workload.Keyspace.Read { key } -> Client.Keyed.Read { key }
  | Workload.Keyspace.Write { key; value } -> Client.Keyed.Write { key; value }

(* Keyed workloads: one [Client.Keyed] with 64 in flight and coalescing
   on, over a fleet of four slots.  Set-up reads every key once, so the
   per-key automata and server objects exist before the window. *)
let run_keyed (w : workload) ~seed ~ops ~traced =
  let cfg = keyed_cfg in
  let map = Shard.Map.make_exn ~keys:w.keys ~fleet ~cfg () in
  let gen =
    Workload.Keyspace.make_exn ~skew:w.skew ~write_ratio ~keys:w.keys ~seed ()
  in
  let touch = Array.init w.keys (fun key -> Client.Keyed.Read { key }) in
  let warm = Array.map to_kop (Workload.Keyspace.ops gen warmup_ops) in
  let timed_ops = Array.map to_kop (Workload.Keyspace.ops gen ops) in
  let c =
    start_cluster ~traced ~keyed:true
      ~protocol:(Protocols.regular_gc ~readers:1)
      ~cfg fleet
  in
  let kreg = Obs.Metrics.create () in
  let client =
    Client.Keyed.connect
      ?metrics:(if traced then Some kreg else None)
      ~now_us ~max_inflight:keyed_window ~reader:1 ~coalesce:coalesce_cap
      ~protocol:c.protocol ~map c.endpoints
  in
  let start_ns = now_ns () - c.t0 in
  let log = new_log () in
  let run ops =
    let base = alloc log (Array.length ops) in
    ignore
      (Client.Keyed.run_ops ~on_event:(keyed_on_event log base ops) client ops)
  in
  let tw = now_ns () in
  run touch;
  run warm;
  let warmup_ns = now_ns () - tw in
  let from = log.n in
  let servers = Array.copy c.servers in
  let window =
    measure c ~client_regs:[ kreg ]
      ~spans:(fun () -> Client.Keyed.spans client)
      ~keys_touched:(fun () -> Client.Keyed.keys_touched client)
      ~gen_cpu:(fun () -> 0)
      (fun () ->
        if not w.failover then run timed_ops
        else begin
          (* One slot crashes once a third of the operations have
             completed and comes back wiped after two thirds. *)
          let third = ops / 3 in
          run (Array.sub timed_ops 0 third);
          Server.crash servers.(crash_slot);
          run (Array.sub timed_ops third third);
          while Server.alive servers.(crash_slot) do
            Thread.delay 0.001
          done;
          servers.(crash_slot) <- Server.restart ~wipe:true servers.(crash_slot);
          run (Array.sub timed_ops (2 * third) (ops - (2 * third)))
        end;
        [ (log, from) ])
  in
  Client.Keyed.close client;
  stop_cluster { c with servers };
  let verdict = check_logs ~regular:true window.logs in
  { start_ns; warmup_ns; window; verdict }

(* One round from a compacted heap, so rounds start alike. *)
let run_round (w : workload) ~seed ~seconds ~traced =
  Gc.compact ();
  Procstat.reset_peak_rss ();
  let ops = max 1_000 (int_of_float (w.rate *. seconds)) in
  if w.keys = 0 then run_register ~seed ~ops ~traced
  else run_keyed w ~seed ~ops ~traced

(* Failed operations are not wrong answers: they are counted as failed,
   and [ok_ratio] gates them. *)
let round_correct r =
  r.verdict.violations = 0
  && r.window.partition_violations = 0
  && r.verdict.checked = snd (window_counts r.window)

(* ---- reporting ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float option }

let json_number = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.17g" v
  | _ -> "null"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          metrics))

let print_metric ?(note = "") m =
  Printf.printf "  %-28s %14s %-6s %s\n" m.name
    (match m.value with Some v -> Printf.sprintf "%.4f" v | None -> "missing")
    m.unit_ note

(* Threads that stay busy through the window: the server worker domains
   and the closed-loop load thread.  register-rw's writer sleeps between
   paced writes and the servers' acceptor domain waits on its listeners;
   neither is counted. *)
let server_domains = 1
let busy_threads = server_domains + 1

let print_host (w : workload) ~seed ~seconds ~trace =
  let nproc = Domain.recommended_domain_count () in
  Printf.printf
    "host {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"nproc\": %d, \"server_domains\": %d, \"generator_threads\": %d, \
     \"busy_threads\": %d, \"oversubscribed\": %b, \"transport\": \"unix\", \
     \"ocaml\": %S}\n"
    w.name seed seconds trace nproc server_domains
    (if w.keys = 0 then 2 else 1)
    busy_threads (busy_threads > nproc) Sys.ocaml_version;
  if busy_threads > nproc then
    Printf.printf "WARNING: %d busy threads on %d processors: oversubscribed\n"
      busy_threads nproc

(* What an untraced round leaves behind.  The round itself is dropped,
   so one round's retained spans and logs do not weigh on the next. *)
type summary = {
  ops_per_s : float;
  setup_s : float;
  peak_rss_mb : float;
  steal_share : float;
  read_lat : float array;  (** sorted, microseconds *)
  write_lat : float array;
  read_rounds : int;  (** summed over completed reads *)
  ok : int;
  attempted : int;
  checked : int;
  violations : int;
  partition_violations : int;
  correct : bool;
}

let summarize r =
  let win = r.window in
  let ok, attempted = window_counts win in
  let read_lat = latencies win ~write:false in
  {
    ops_per_s = ops_per_s win;
    setup_s = float_of_int (r.start_ns + r.warmup_ns) /. 1e9;
    peak_rss_mb = win.peak_rss_mb;
    steal_share = win.steal_share;
    read_lat;
    write_lat = latencies win ~write:true;
    read_rounds = read_rounds win;
    ok;
    attempted;
    checked = r.verdict.checked;
    violations = r.verdict.violations;
    partition_violations = win.partition_violations;
    correct = round_correct r;
  }

(* Rates, set-up time and latencies come from the kept rounds: rates
   and set-up time as medians over them, latencies as percentiles of
   every operation in them.  The first round of the process also pays
   the page faults for the heap later rounds reuse, so it is never kept
   for those; it alone gives the peak memory, since later rounds start
   from the heap it grew.  Every round is printed with its steal, every
   round's operations are checked, and failures count from every
   round. *)
let end_to_end (w : workload) ~seed ~seconds =
  let t0 = now_ns () in
  let calm rs =
    List.length (List.filter (fun s -> s.steal_share < calm_steal) rs)
  in
  (* [acc]: the rounds so far, newest first. *)
  let rec go acc =
    let rounds = List.rev acc in
    let after_first = match rounds with [] -> [] | _ :: r -> r in
    let late = float_of_int (now_ns () - t0) /. 1e9 > 2. *. seconds in
    if calm after_first >= kept_rounds || (late && after_first <> []) then
      rounds
    else
      go
        (summarize
           (run_round w ~seed ~seconds:(seconds /. round_share) ~traced:false)
        :: acc)
  in
  let all = go [] in
  let kept =
    List.mapi (fun k s -> (k + 1, s)) all
    |> List.tl
    |> List.stable_sort (fun (_, a) (_, b) ->
           Float.compare a.steal_share b.steal_share)
    |> List.filteri (fun i _ -> i < kept_rounds)
  in
  List.iteri
    (fun k s ->
      Printf.printf
        "round %d: %d ops, %d reads, %d writes, ops_per_s=%.1f setup_s=%.4f \
         peak_rss_mb=%.1f steal=%.3f%s\n"
        (k + 1) s.attempted (Array.length s.read_lat) (Array.length s.write_lat)
        s.ops_per_s s.setup_s s.peak_rss_mb s.steal_share
        (if List.mem_assoc (k + 1) kept then " kept" else ""))
    all;
  let sum rs f = List.fold_left (fun a s -> a + f s) 0 rs in
  let ok = sum all (fun s -> s.ok) and att = sum all (fun s -> s.attempted) in
  let rs = List.map snd kept in
  let med f = Some (median (List.map f rs)) in
  let pooled f =
    let a = Array.concat (List.map f rs) in
    Array.sort Float.compare a;
    a
  in
  let reads = pooled (fun s -> s.read_lat) and writes = pooled (fun s -> s.write_lat) in
  let m name unit_ value = { name; unit_; value } in
  let samples a = Printf.sprintf "(n = %d)" (Array.length a) in
  let metrics =
    [
      (m "ops_per_s" "1/s" (med (fun s -> s.ops_per_s)), "");
      (m "read_p50_us" "us" (percentile reads 50.), samples reads);
      (m "write_p50_us" "us" (percentile writes 50.), samples writes);
      ( m "read_rounds_mean" "rounds"
          (Some (fratio (sum rs (fun s -> s.read_rounds)) (Array.length reads))),
        "" );
      (m "ok_ratio" "ratio" (Some (fratio ok att)), "");
      (m "setup_s" "s" (med (fun s -> s.setup_s)), "");
      (m "peak_rss_mb" "MiB" (Some (List.hd all).peak_rss_mb), "");
    ]
  in
  (* Tails are reported, not gated: on a shared 2-core host their
     run-to-run spread exceeds any usable bound. *)
  let tails =
    [
      (m "read_p99_us" "us" (percentile reads 99.), samples reads ^ " not gated");
      (m "write_p99_us" "us" (percentile writes 99.), samples writes ^ " not gated");
    ]
  in
  Printf.printf "%s end-to-end over the %d kept of %d untraced rounds:\n"
    w.name (List.length rs) (List.length all);
  List.iter (fun (m, note) -> print_metric ~note m) (metrics @ tails);
  Printf.printf
    "checked %d of %d timed operations: %d violations, %d partition \
     violations, fail_ratio %.6f\n"
    (sum all (fun s -> s.checked))
    att
    (sum all (fun s -> s.violations))
    (sum all (fun s -> s.partition_violations))
    (fratio (att - ok) att);
  print_result
    ~correct:(List.for_all (fun s -> s.correct) all)
    ~attempted:att ~failed:(att - ok) (List.map fst metrics)

(* The per-layer ledger of one traced round.  Each metric says which
   layer it measures; BENCHMARK.json lists them all. *)
let ledger (w : workload) r ~untraced_ops_per_s =
  let win = r.window and verdict = r.verdict in
  let ok, attempted = window_counts win in
  let per_op x = x /. float_of_int (max ok 1) in
  let regs = Option.get win.regs and sregs = Option.get win.sregs in
  let cd = counter_delta regs and sd = counter_delta sregs in
  (* Spans of operations that ran network rounds; joined reads ran none. *)
  let spans =
    List.filter
      (fun (s : Obs.Span.t) -> Obs.Span.completed s && s.replies > 0)
      win.spans
  in
  let p50 xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    Option.value (percentile a 50.) ~default:0.
  in
  let round1, round2 =
    List.fold_left
      (fun (r1, r2) (s : Obs.Span.t) ->
        let fin = Option.get s.completed_at in
        match Obs.Span.transitions s with
        | [] -> (float_of_int (fin - s.started_at) :: r1, r2)
        | (_, at) :: _ ->
            ( float_of_int (at - s.started_at) :: r1,
              float_of_int (fin - at) :: r2 ))
      ([], []) spans
  in
  let read_spans =
    List.filter
      (fun (s : Obs.Span.t) ->
        match s.kind with Obs.Span.Read _ -> true | Obs.Span.Write -> false)
      spans
  in
  let rounds_initiated =
    fratio
      (List.fold_left (fun a (s : Obs.Span.t) -> a + s.rounds) 0 read_spans)
      (List.length read_spans)
  in
  let replies = List.fold_left (fun a (s : Obs.Span.t) -> a + s.replies) 0 spans in
  let (reader : Timed.acc), (writer : Timed.acc), (obj : Timed.acc) =
    Option.get win.core
  in
  let replay = Option.get win.replay in
  let bytes = Array.map float_of_int replay.bytes in
  Array.sort Float.compare bytes;
  let frames =
    hist_count regs "wire.bytes_per_frame" + hist_count sregs "wire.bytes_per_frame"
  in
  let joined, reads =
    fold_window win
      (fun (j, n) l i ->
        if l.write.(i) then (j, n) else ((if l.joined.(i) then j + 1 else j), n + 1))
      (0, 0)
  in
  let sum = List.fold_left ( + ) 0 in
  let shard_reads = counter_deltas regs ~prefix:"shard." ~suffix:".reads" in
  let fast, all_reads =
    if w.keys = 0 then
      (cd "op.fast_reads", cd "op.fast_reads" + cd "op.fallback_rounds")
    else
      (sum (counter_deltas regs ~prefix:"shard." ~suffix:".fast_reads"), sum shard_reads)
  in
  let imbalance =
    match shard_reads with
    | [] -> 1.
    | rs ->
        ratio
          (float_of_int (List.fold_left max 0 rs))
          (float_of_int (sum rs) /. float_of_int (List.length rs))
  in
  let m name unit_ v = { name; unit_; value = Some v } in
  let server_cpu = float_of_int (win.proc_cpu_ns - win.gen_cpu_ns) in
  let metrics =
    [
      (* Net.Client *)
      m "client.cpu_us_per_op" "us" (per_op (float_of_int win.gen_cpu_ns) /. 1000.);
      m "client.wait_share" "ratio" (1. -. fratio win.load_cpu_ns win.wall_ns);
      m "client.round1_us_p50" "us" (p50 round1);
      m "client.round2_us_p50" "us" (p50 round2);
      m "client.rounds_initiated_mean" "rounds" rounds_initiated;
      m "client.replies_per_op" "count" (per_op (float_of_int replies));
      m "client.batch_size_p50" "frames" (hist_quantile regs "wire.batch_size" 50.);
      m "client.flush_us_p50" "us" (hist_quantile regs "wire.flush_us" 50.);
      m "client.minor_words_per_op" "words" (per_op win.minor_words);
      m "client.retransmits" "count" (float_of_int (cd "net.client.retransmits"));
      m "client.reconnects" "count" (float_of_int (cd "net.client.connects"));
      m "client.cache_resyncs" "count" (float_of_int (cd "op.cache_resyncs"));
      m "client.timeouts" "count"
        (float_of_int (cd "op.read.timeout" + cd "op.write.timeout"));
      (* Core automata, timed by [Timed] *)
      m "core.reader_step_ns" "ns" (fratio reader.ns reader.calls);
      m "core.writer_step_ns" "ns" (fratio writer.ns writer.calls);
      m "core.obj_step_ns" "ns" (fratio obj.ns obj.calls);
      m "core.client_us_per_op" "us" (per_op (float_of_int (reader.ns + writer.ns)) /. 1000.);
      m "core.server_us_per_op" "us" (per_op (float_of_int obj.ns) /. 1000.);
      (* Net.Codec, replayed *)
      m "codec.encode_ns_per_frame" "ns" replay.encode_ns;
      m "codec.decode_ns_per_frame" "ns" replay.decode_ns;
      m "codec.bytes_per_frame_mean" "bytes"
        (ratio (Array.fold_left ( +. ) 0. bytes) (float_of_int (Array.length bytes)));
      m "codec.bytes_per_frame_p99" "bytes"
        (Option.value (percentile bytes 99.) ~default:0.);
      m "codec.frames_per_op" "frames" (per_op (float_of_int frames));
      (* Net.Server *)
      m "server.cpu_us_per_op" "us" (per_op server_cpu /. 1000.);
      m "server.messages_per_op" "count" (per_op (float_of_int (sd "net.server.messages")));
      m "server.batch_size_p50" "frames" (hist_quantile sregs "wire.batch_size" 50.);
      m "server.queue_depth_p99" "frames" (hist_quantile sregs "wire.queue_depth" 99.);
      m "server.backpressure_stalls" "count"
        (float_of_int (hist_count sregs "wire.backpressure_stalls"));
      m "server.partition_violations" "count" (float_of_int win.partition_violations);
      (* Net.Coalesce *)
      m "coalesce.joined_share" "ratio" (fratio joined reads);
      m "coalesce.width_p50" "reads" (hist_quantile regs "op.coalesce_width" 50.);
      m "coalesce.width_p99" "reads" (hist_quantile regs "op.coalesce_width" 99.);
      (* Shard.Map *)
      m "shard.fast_read_share" "ratio" (fratio fast all_reads);
      m "shard.read_imbalance" "ratio" imbalance;
      m "shard.keys_touched" "count" (float_of_int win.keys_touched);
      (* Histories, after the window *)
      m "histories.ops_checked" "count" (float_of_int verdict.checked);
      m "histories.violations" "count" (float_of_int verdict.violations);
      m "histories.check_us_per_op" "us"
        (fratio verdict.check_ns (max 1 attempted) /. 1000.);
      (* Net.Cluster and Obs *)
      m "cluster.start_ms" "ms" (float_of_int r.start_ns /. 1e6);
      m "cluster.warmup_ms" "ms" (float_of_int r.warmup_ns /. 1e6);
      m "obs.trace_overhead" "ratio" (ratio untraced_ops_per_s (ops_per_s win));
    ]
  in
  (* The ledger must add up: the automata run inside the client and
     server threads, and every request a server handles is one frame in
     and, answered, one frame out.  A mismatch is reported, not hidden. *)
  let get name = Option.get (List.find (fun x -> x.name = name) metrics).value in
  let mismatches =
    List.filter_map
      (fun (holds, what) -> if holds then None else Some what)
      [
        ( get "core.client_us_per_op" <= get "client.cpu_us_per_op",
          "core.client_us_per_op > client.cpu_us_per_op" );
        ( get "core.server_us_per_op" <= get "server.cpu_us_per_op",
          "core.server_us_per_op > server.cpu_us_per_op" );
        ( Float.abs (get "codec.frames_per_op" -. (2. *. get "server.messages_per_op"))
          <= 0.05 *. get "codec.frames_per_op",
          "codec.frames_per_op is not 2 x server.messages_per_op (within 5%)" );
      ]
  in
  List.iter (Printf.printf "LEDGER MISMATCH: %s\n") mismatches;
  metrics @ [ m "ledger.mismatches" "count" (float_of_int (List.length mismatches)) ]

(* The traced round runs a quarter of the run's work: tracing slows the
   program down by up to half again, and per-layer figures have no bound
   to meet.  An untraced round of the same work gives the overhead. *)
let per_layer (w : workload) ~seed ~seconds =
  let quarter = seconds /. 4. in
  let u = run_round w ~seed ~seconds:quarter ~traced:false in
  let r = run_round w ~seed ~seconds:quarter ~traced:true in
  let metrics = ledger w r ~untraced_ops_per_s:(ops_per_s u.window) in
  Printf.printf "%s per-layer ledger, one traced round of %.2f s:\n" w.name
    (float_of_int r.window.wall_ns /. 1e9);
  List.iter print_metric metrics;
  let ok, att = window_counts r.window in
  print_result
    ~correct:(round_correct u && round_correct r)
    ~attempted:att ~failed:(att - ok) metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let names = String.concat " | " (List.map (fun (w : workload) -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " nominal length of the measured work");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "bench: unknown workload %S (expected %s)\n" !workload names;
      exit 2
  | Some _ when !seconds <= 0. || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "bench: --seconds must be positive and --trace 0 or 1";
      exit 2
  | Some w ->
      print_host w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
      if !trace = 1 then per_layer w ~seed:!seed ~seconds:!seconds
      else end_to_end w ~seed:!seed ~seconds:!seconds
