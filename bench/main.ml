(* Benchmark & experiment harness.

     dune exec bench/main.exe                 # every experiment + micro
     dune exec bench/main.exe -- tables       # E1..E20
     dune exec bench/main.exe -- tables e3    # one experiment
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Each experiment regenerates one artifact of the paper's evaluation
   (see DESIGN.md §4 and EXPERIMENTS.md for the paper-vs-measured
   record). *)

let experiments =
  [
    ("e1", Exp_e1.run);
    ("e2", Exp_e2.run);
    ("e3", Exp_e3.run);
    ("e4", Exp_e4.run);
    ("e5", Exp_e5.run);
    ("e6", Exp_e6.run);
    ("e7", Exp_e7.run);
    ("e8", Exp_e8.run);
    ("e9", Exp_e9.run);
    ("e10", Exp_e10.run);
    ("e11", Exp_e11.run);
    ("e12", Exp_e12.run);
    ("e13", Exp_e13.run);
    ("e14", Exp_e14.run);
    ("e15", Exp_e15.run);
    ("e16", Exp_e16.run);
    ("e17", Exp_e17.run);
    ("e18", Exp_e18.run);
    ("e19", Exp_e19.run);
    ("e20", Exp_e20.run);
  ]

let run_tables = function
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt (String.lowercase_ascii n) experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S (expected e1..e20)\n" n;
              exit 2)
        names

(* Strip a leading [--jobs N] (worker domains for the pooled
   experiments; results are byte-identical whatever N is). *)
let rec parse_jobs = function
  | "--jobs" :: n :: rest | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
          Exp_common.jobs := Some j;
          parse_jobs rest
      | _ ->
          Printf.eprintf "--jobs expects a positive integer (got %S)\n" n;
          exit 2)
  | args -> args

let () =
  match parse_jobs (List.tl (Array.to_list Sys.argv)) with
  | "tables" :: rest -> run_tables rest
  | "micro" :: _ -> Micro.run ()
  | [] ->
      run_tables [];
      Micro.run ()
  | cmd :: _ ->
      Printf.eprintf
        "usage: main.exe [--jobs N] [tables [e1..e20] | micro] (got %S)\n" cmd;
      exit 2
