(* Monotonic clock and layer spans for the traced replay.

   Spans are recorded from the benchmark's own code, around calls into
   the program's public functions: one root span covers a whole traced
   job and every layer span sits directly under it (layer spans never
   nest), so folding them gives a per-layer table whose rows plus the
   unattributed remainder sum exactly to the root span. The spans are
   written as Chrome trace-event JSON ("X" complete events, microsecond
   timestamps), which Perfetto and chrome://tracing open directly. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

type span = {
  layer : string;
  detail : string;  (* Which design / program the call was about. *)
  start_ns : int64;
  dur_ns : int64;
}

type recorder = {
  origin_ns : int64;
  mutable spans : span list;  (* Newest first. *)
  mutable root : span option;
}

let create () = { origin_ns = now_ns (); spans = []; root = None }

let record r ~layer ~detail t0 =
  let t1 = now_ns () in
  r.spans <-
    { layer; detail; start_ns = t0; dur_ns = Int64.sub t1 t0 } :: r.spans

(* A layer span around [f ()]; recorded even when [f] raises. *)
let span r ?(detail = "") layer f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> record r ~layer ~detail t0) f

(* The root span: the whole traced job. *)
let root r name f =
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  r.root <-
    Some { layer = name; detail = ""; start_ns = t0; dur_ns = Int64.sub t1 t0 };
  v

let total_s r =
  match r.root with
  | Some s -> Int64.to_float s.dur_ns *. 1e-9
  | None -> invalid_arg "Span.total_s: no root span recorded"

(* Seconds per layer, in first-seen order, over the layer spans. *)
let fold r =
  List.fold_left
    (fun acc s ->
      let d = Int64.to_float s.dur_ns *. 1e-9 in
      match List.assoc_opt s.layer acc with
      | Some v -> (s.layer, v +. d) :: List.remove_assoc s.layer acc
      | None -> (s.layer, d) :: acc)
    [] (List.rev r.spans)
  |> List.rev

(* Durations of one layer's spans, in call order. *)
let durations r layer =
  List.rev r.spans
  |> List.filter (fun s -> s.layer = layer)
  |> List.map (fun s -> Int64.to_float s.dur_ns *. 1e-9)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let event r ~tid s =
  let us ns = Int64.to_float ns /. 1e3 in
  let cat =
    match String.index_opt s.layer '.' with
    | Some i -> String.sub s.layer 0 i
    | None -> s.layer
  in
  Printf.sprintf
    "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
     \"pid\": 1, \"tid\": %d, \"args\": {\"detail\": %s}}"
    (json_string s.layer) (json_string cat)
    (us (Int64.sub s.start_ns r.origin_ns))
    (us s.dur_ns) tid (json_string s.detail)

(* Chrome trace-event JSON: the root span on thread 1, layers on 2. *)
let to_chrome_json ?(metadata = []) r =
  let events =
    (match r.root with Some s -> [ event r ~tid:1 s ] | None -> [])
    @ List.rev_map (event r ~tid:2) r.spans
  in
  let meta =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v))
         metadata)
  in
  Printf.sprintf
    "{\"displayTimeUnit\": \"ms\", \"otherData\": {%s}, \"traceEvents\": [\n%s\n]}\n"
    meta
    (String.concat ",\n" events)
