module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Opspec = Operators.Opspec
module Compile = Compiler.Compile

type t = {
  rtg : Rtg.t;
  datapaths : (string * Dp.t) list;
  fsms : (string * Fsm.t) list;
}

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save ~dir (compiled : Compile.t) =
  ensure_dir dir;
  let rtg = compiled.Compile.rtg in
  Rtg.save (Filename.concat dir (rtg.Rtg.rtg_name ^ "_rtg.xml")) rtg;
  List.iter
    (fun (p : Compile.partition) ->
      Dp.save
        (Filename.concat dir (p.Compile.datapath.Dp.dp_name ^ ".xml"))
        p.Compile.datapath;
      Fsm.save
        (Filename.concat dir (p.Compile.fsm.Fsm.fsm_name ^ ".xml"))
        p.Compile.fsm)
    compiled.Compile.partitions

let load ~dir =
  let entries = Array.to_list (Sys.readdir dir) in
  let rtg_files =
    List.filter (fun f -> Filename.check_suffix f "_rtg.xml") entries
  in
  let rtg_file =
    match rtg_files with
    | [ f ] -> f
    | [] -> failwith (Printf.sprintf "bundle %s: no *_rtg.xml found" dir)
    | _ -> failwith (Printf.sprintf "bundle %s: several *_rtg.xml files" dir)
  in
  let rtg = Rtg.load (Filename.concat dir rtg_file) in
  Rtg.validate rtg;
  let doc ref_name =
    let path = Filename.concat dir (ref_name ^ ".xml") in
    if not (Sys.file_exists path) then
      failwith
        (Printf.sprintf "bundle %s: missing document %s.xml (referenced by %s)"
           dir ref_name rtg_file);
    path
  in
  let datapaths =
    List.map
      (fun (c : Rtg.configuration) ->
        let dp = Dp.load (doc c.Rtg.datapath_ref) in
        Dp.validate dp;
        (c.Rtg.datapath_ref, dp))
      rtg.Rtg.configurations
  in
  let fsms =
    List.map
      (fun (c : Rtg.configuration) ->
        let fsm = Fsm.load (doc c.Rtg.fsm_ref) in
        Fsm.validate fsm;
        (c.Rtg.fsm_ref, fsm))
      rtg.Rtg.configurations
  in
  { rtg; datapaths; fsms }

let simulate ?clock_period ?max_cycles ~memories bundle =
  Simulate.run_rtg ?clock_period ?max_cycles ~memories
    ~datapaths:bundle.datapaths ~fsms:bundle.fsms bundle.rtg

let memories_of_bundle bundle =
  let found : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, (dp : Dp.t)) ->
      List.iter
        (fun (op : Dp.operator) ->
          match op.Dp.kind with
          | Sram | Rom -> (
              let { Opspec.memory = name; size; _ } =
                (Dp.operator_spec op).Opspec.params
              in
              let decl = (size, op.Dp.width) in
              match Hashtbl.find_opt found name with
              | None -> Hashtbl.replace found name decl
              | Some existing when existing = decl -> ()
              | Some (s, w) ->
                  failwith
                    (Printf.sprintf
                       "bundle: memory %S declared as %dx%d and as %dx%d" name
                       s w size op.Dp.width))
          | _ -> ())
        dp.Dp.operators)
    bundle.datapaths;
  Hashtbl.fold (fun name (size, width) acc -> (name, size, width) :: acc) found []
  |> List.sort compare
