type divergence_report = {
  index : int;
  d_class : string;
  detail : string;
  original_size : int;
  shrunk_size : int;
  shrink_tried : int;
  source : string;
  file : string option;
}

type stats = {
  requested : int;
  agreed : int;
  rejected : int;
  divergences : divergence_report list;
  wall_seconds : float;
}

let programs_per_second s =
  if s.wall_seconds > 0.0 then float_of_int s.requested /. s.wall_seconds
  else 0.0

(* Corpus base names double as the reproducer's program name, so they
   must lex as identifiers. *)
let slug class_ =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    class_

let corpus_header ~seed ~index ~d_class ~detail ~original ~shrunk =
  Printf.sprintf
    "// fuzz divergence: %s\n// seed %d, program %d; %s\n// shrunk from %d to %d nodes\n"
    d_class seed index detail original shrunk

let run ?(n = 100) ?(seed = 0) ?(backends = Oracle.all_backends)
    ?(max_shrink = 1500) ?(max_cycles = 200_000) ?shrink_class ?out_dir ?(progress = fun _ -> ()) () =
  let t0 = Unix.gettimeofday () in
  let agreed = ref 0 and rejected = ref 0 in
  let divergences = ref [] in
  let report_every = max 1 (n / 20) in
  for i = 0 to n - 1 do
    if i > 0 && i mod report_every = 0 then
      progress
        (Printf.sprintf "fuzz: %d/%d programs (%d agreed, %d rejected, %d divergent)"
           i n !agreed !rejected
           (List.length !divergences));
    let prog = Gen.program ~seed ~index:i () in
    match Oracle.run ~backends ~max_cycles prog with
    | Oracle.Rejected _ -> incr rejected
    | Oracle.Agree -> incr agreed
    | Oracle.Diverged ds ->
        (* The class the shrinker must preserve: the caller's choice
           when that class is actually present (e.g. ["share/tv/share"]
           to minimize a validator alarm rather than whatever data diff
           sorts first), the deterministic representative otherwise. *)
        let d_class =
          match shrink_class with
          | Some c when List.mem c (Oracle.classes (Oracle.Diverged ds)) -> c
          | Some _ | None -> Oracle.primary_class ds
        in
        let detail =
          match
            List.find_opt (fun d -> Oracle.class_of d = d_class) ds
          with
          | Some d -> d.Oracle.d_detail
          | None -> ""
        in
        progress
          (Printf.sprintf "fuzz: divergence at program %d: %s (%s)" i d_class
             detail);
        let keep p =
          match Oracle.run ~backends ~max_cycles p with
          | Oracle.Diverged ds' ->
              List.mem d_class (Oracle.classes (Oracle.Diverged ds'))
          | Oracle.Agree | Oracle.Rejected _ -> false
        in
        let small, sstats = Shrink.minimize ~keep ~max_tries:max_shrink prog in
        let original_size = Shrink.size prog in
        let shrunk_size = Shrink.size small in
        progress
          (Printf.sprintf
             "fuzz: shrunk program %d from %d to %d nodes (%d candidates tried)"
             i original_size shrunk_size sstats.Shrink.tried);
        let base = Printf.sprintf "%s_s%d_i%d" (slug d_class) seed i in
        let small = { small with Lang.Ast.prog_name = base } in
        let source =
          corpus_header ~seed ~index:i ~d_class ~detail
            ~original:original_size ~shrunk:shrunk_size
          ^ Pp.program small
        in
        let file =
          match out_dir with
          | None -> None
          | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let path = Filename.concat dir (base ^ ".alg") in
              let oc = open_out path in
              output_string oc source;
              close_out oc;
              progress (Printf.sprintf "fuzz: wrote %s" path);
              Some path
        in
        divergences :=
          {
            index = i;
            d_class;
            detail;
            original_size;
            shrunk_size;
            shrink_tried = sstats.Shrink.tried;
            source;
            file;
          }
          :: !divergences
  done;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let s =
    {
      requested = n;
      agreed = !agreed;
      rejected = !rejected;
      divergences = List.rev !divergences;
      wall_seconds;
    }
  in
  progress
    (Printf.sprintf
       "fuzz: done: %d programs in %.1fs (%.1f/s), %d agreed, %d rejected, %d divergent"
       n wall_seconds (programs_per_second s) !agreed !rejected
       (List.length s.divergences));
  s

let replay ?(backends = Oracle.all_backends) ?(max_cycles = 200_000) ~dir () =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".alg")
    |> List.sort compare
  in
  List.map
    (fun f ->
      let path = Filename.concat dir f in
      let verdict =
        match Lang.Parser.parse_file path with
        | exception e ->
            Oracle.Rejected
              (Option.value
                 ~default:(Printexc.to_string e)
                 (Lang.Parser.error_to_string e))
        | prog -> Oracle.run ~backends ~max_cycles prog
      in
      (f, verdict))
    files
