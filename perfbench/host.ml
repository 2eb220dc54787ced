(* Process-level resource readings. *)

(* User + system CPU seconds of the whole process (every domain). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
                | kb -> float_of_int kb /. 1024.
                | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                    scan ())
          in
          scan ())
