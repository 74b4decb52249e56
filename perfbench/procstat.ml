(* Processor time and memory of this process, read from /proc.

   Thread CPU comes from schedstat (nanoseconds on CPU), the same
   accounting as the utime/stime ticks of /proc/<task>/stat at finer
   resolution; where schedstat is missing, the ticks are used. *)

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> ""

let ticks_ns = 10_000_000 (* USER_HZ = 100 *)

(* CPU nanoseconds of one task directory ("/proc/thread-self", ...). *)
let task_cpu_ns dir =
  match String.split_on_char ' ' (read_file (dir ^ "/schedstat")) with
  | ns :: _ when int_of_string_opt ns <> None -> int_of_string ns
  | _ -> (
      let stat = read_file (dir ^ "/stat") in
      (* Fields after the parenthesised command name; utime and stime
         are fields 14 and 15 of the whole line. *)
      match String.rindex_opt stat ')' with
      | None -> 0
      | Some i -> (
          let rest =
            String.sub stat (i + 2) (String.length stat - i - 2)
            |> String.split_on_char ' '
          in
          match List.filteri (fun k _ -> k = 11 || k = 12) rest with
          | [ u; s ] -> (int_of_string u + int_of_string s) * ticks_ns
          | _ -> 0))

(** CPU nanoseconds of the calling thread. *)
let thread_cpu_ns () = task_cpu_ns "/proc/thread-self"

(** CPU nanoseconds summed over every live thread of the process. *)
let process_cpu_ns () =
  match Sys.readdir "/proc/self/task" with
  | tasks ->
      Array.fold_left
        (fun acc tid -> acc + task_cpu_ns ("/proc/self/task/" ^ tid))
        0 tasks
  | exception Sys_error _ -> 0

(** Processor time the hypervisor gave to others while this machine's
    processors wanted to run, summed over processors, in nanoseconds
    (the [steal] column of /proc/stat). *)
let steal_ns () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value (int_of_string_opt steal) ~default:0 * ticks_ns
      | _ -> 0)
  | [] -> 0

(** Restart the peak resident set size from the current one (Linux 4.0
    and later); where that is refused the peak stays the process's
    lifetime peak. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(** Peak resident set size ([VmHWM]) in MiB. *)
let peak_rss_mb () =
  read_file "/proc/self/status"
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:0.

