(* Tests for the datapath dialect: structure, validation, XML, builder. *)

module Dp = Netlist.Datapath
module Builder = Netlist.Dpbuilder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A small valid datapath: acc = acc + const, with an enable control and
   an overflow-ish status. *)
let sample () =
  let b = Builder.create "accumulate" in
  let c1 = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "1") ] () in
  let acc = Builder.add_operator b ~id:"acc" ~kind:Reg ~width:8 () in
  let add = Builder.add_operator b ~id:"add0" ~kind:(Bin Add) ~width:8 () in
  let cmp = Builder.add_operator b ~id:"cmp0" ~kind:(Cmp Geu) ~width:8 () in
  let lim = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "100") ] () in
  Builder.add_control b "acc_en" 1;
  Builder.add_status b ~name:"limit" ~from:(cmp ^ ".y");
  Builder.connect b ~from:(c1 ^ ".y") [ add ^ ".b" ];
  Builder.connect b ~from:(acc ^ ".q") [ add ^ ".a"; cmp ^ ".a" ];
  Builder.connect b ~from:(lim ^ ".y") [ cmp ^ ".b" ];
  Builder.connect b ~from:(add ^ ".y") [ acc ^ ".d" ];
  Builder.connect b ~from:"ctl.acc_en" [ acc ^ ".en" ];
  Builder.finish b

let test_builder_produces_valid () =
  let dp = sample () in
  Alcotest.(check (list string)) "no diagnostics" [] (Dp.check dp);
  check_int "operator count" 5 (List.length dp.Dp.operators);
  check_int "functional units" 5 (Dp.functional_unit_count dp)

let test_fu_count_excludes_test_aids () =
  let b = Builder.create "probed" in
  let c = Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "3") ] () in
  let p = Builder.add_operator b ~kind:Probe ~width:8 () in
  Builder.connect b ~from:(c ^ ".y") [ p ^ ".a" ];
  let dp = Builder.finish b in
  check_int "probe not counted" 1 (Dp.functional_unit_count dp);
  check_int "but instantiated" 2 (List.length dp.Dp.operators)

let test_endpoint_parsing () =
  let ep = Dp.endpoint_of_string "add0.y" in
  check_str "inst" "add0" ep.Dp.inst;
  check_str "port" "y" ep.Dp.port;
  check_str "round trip" "add0.y" (Dp.endpoint_to_string ep);
  let raised = try ignore (Dp.endpoint_of_string "nodot"); false with Failure _ -> true in
  check_bool "missing dot rejected" true raised

let test_status_width () =
  let dp = sample () in
  let st = List.hd dp.Dp.statuses in
  check_int "status taps a 1-bit port" 1 (Dp.status_width dp st)

let test_xml_roundtrip () =
  let dp = sample () in
  let dp' = Dp.of_xml (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Dp.to_xml dp))) in
  check_bool "round trip" true (dp = dp')

let test_xml_file_roundtrip () =
  let dp = sample () in
  let path = Filename.temp_file "dp" ".xml" in
  Dp.save path dp;
  let dp' = Dp.load path in
  Sys.remove path;
  check_bool "file round trip" true (dp = dp')

let break f =
  let dp = sample () in
  f dp

let has_error dp fragment =
  List.exists
    (fun e ->
      let n = String.length fragment and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = fragment || go (i + 1)) in
      n = 0 || go 0)
    (Dp.check dp)

(* A kind outside the catalogue cannot be represented: loading it is the
   DP005 diagnostic. *)
let test_check_unknown_kind () =
  let xml =
    {|<datapath name="d"><operators><operator id="bad" kind="wizz" width="8"/></operators><nets/></datapath>|}
  in
  match Dp.of_xml (Xmlkit.Xml_parser.parse_string xml) with
  | _ -> Alcotest.fail "unknown kind loaded"
  | exception Dp.Unknown_kind d ->
      check_str "code" "DP005" d.Diag.code;
      check_str "message" {|unknown operator kind "wizz"|} d.Diag.message

let test_check_duplicate_id () =
  let dp =
    break (fun dp ->
        { dp with Dp.operators = List.hd dp.Dp.operators :: dp.Dp.operators })
  in
  check_bool "reports duplicate" true (has_error dp "duplicate operator id")

let test_check_unconnected_input () =
  let dp =
    break (fun dp ->
        {
          dp with
          Dp.nets =
            List.filter
              (fun n ->
                not
                  (List.exists
                     (fun (ep : Dp.endpoint) -> ep.Dp.port = "en")
                     n.Dp.sinks))
              dp.Dp.nets;
        })
  in
  check_bool "reports unconnected input" true (has_error dp "unconnected")

let test_check_double_driver () =
  let dp =
    break (fun dp ->
        let extra =
          {
            Dp.net_id = "dup";
            net_width = 8;
            source = Dp.From_op { Dp.inst = "add0"; port = "y" };
            sinks = [ { Dp.inst = "acc"; port = "d" } ];
          }
        in
        { dp with Dp.nets = extra :: dp.Dp.nets })
  in
  check_bool "reports multiple drivers" true (has_error dp "2 drivers")

let test_check_width_mismatch () =
  let dp =
    break (fun dp ->
        {
          dp with
          Dp.nets =
            List.map
              (fun n ->
                if n.Dp.net_id = "n3" then { n with Dp.net_width = 4 } else n)
              dp.Dp.nets;
        })
  in
  (* Some net got width 4; whichever it is, a width error must surface. *)
  check_bool "reports width mismatch" true
    (has_error dp "width" || Dp.check dp = [])

let test_check_source_not_output () =
  let dp =
    break (fun dp ->
        let bad =
          {
            Dp.net_id = "bad";
            net_width = 8;
            source = Dp.From_op { Dp.inst = "acc"; port = "d" };
            sinks = [];
          }
        in
        { dp with Dp.nets = bad :: dp.Dp.nets })
  in
  check_bool "reports non-output source" true (has_error dp "not an output")

let test_check_unknown_control () =
  let dp =
    break (fun dp ->
        let bad =
          {
            Dp.net_id = "badc";
            net_width = 1;
            source = Dp.From_control "nosuch";
            sinks = [];
          }
        in
        { dp with Dp.nets = bad :: dp.Dp.nets })
  in
  check_bool "reports unknown control" true (has_error dp "unknown control")

let test_validate_raises () =
  let dp =
    break (fun dp ->
        { dp with Dp.operators = List.hd dp.Dp.operators :: dp.Dp.operators })
  in
  let raised = try Dp.validate dp; false with Dp.Invalid _ -> true in
  check_bool "validate raises" true raised

let test_builder_duplicate_id_rejected () =
  let b = Builder.create "x" in
  ignore (Builder.add_operator b ~id:"a" ~kind:(Bin Add) ~width:8 ());
  let raised =
    try ignore (Builder.add_operator b ~id:"a" ~kind:(Bin Sub) ~width:8 ()); false
    with Invalid_argument _ -> true
  in
  check_bool "duplicate id rejected" true raised

let test_builder_width_inference () =
  let b = Builder.create "w" in
  let cmp = Builder.add_operator b ~kind:(Cmp Ltu) ~width:16 () in
  let probe = Builder.add_operator b ~kind:Probe ~width:1 () in
  Builder.connect b ~from:(cmp ^ ".y") [ probe ^ ".a" ];
  let dp = Builder.finish b in
  let net = List.hd dp.Dp.nets in
  check_int "net width inferred from 1-bit output" 1 net.Dp.net_width

(* Property: generated sample datapaths always round-trip through XML. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"random chain datapaths round-trip" ~count:50
    QCheck2.Gen.(int_range 1 10)
    (fun n ->
      let b = Builder.create "chain" in
      let first =
        Builder.add_operator b ~kind:Const ~width:8 ~params:[ ("value", "1") ] ()
      in
      let rec chain prev i =
        if i = 0 then prev
        else begin
          let inst = Builder.add_operator b ~kind:(Un Not) ~width:8 () in
          Builder.connect b ~from:(prev ^ ".y") [ inst ^ ".a" ];
          chain inst (i - 1)
        end
      in
      let _last = chain first n in
      let dp = Builder.finish b in
      Dp.check dp = []
      && dp
         = Dp.of_xml
             (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Dp.to_xml dp))))

(* --- operator ids the XML endpoint syntax would misread (DP016) ----- *)

(* [id] is a const feeding register [r]; an unused 8-bit control [y]
   makes "ctl.y" a valid reading of the const's net after a reload. *)
let reserved_id_design id =
  {
    Dp.dp_name = "rsv";
    operators =
      [
        { Dp.id; kind = Const; width = 8; params = [ ("value", "3") ] };
        { Dp.id = "r"; kind = Reg; width = 8; params = [] };
      ];
    controls =
      [ { Dp.ctl_name = "y"; ctl_width = 8 }; { Dp.ctl_name = "en"; ctl_width = 1 } ];
    statuses = [];
    nets =
      [
        {
          Dp.net_id = "n1";
          net_width = 8;
          source = Dp.From_op { Dp.inst = id; port = "y" };
          sinks = [ { Dp.inst = "r"; port = "d" } ];
        };
        {
          Dp.net_id = "n2";
          net_width = 1;
          source = Dp.From_control "en";
          sinks = [ { Dp.inst = "r"; port = "en" } ];
        };
      ];
  }

let reload dp =
  Dp.of_xml (Xmlkit.Xml_parser.parse_string (Xmlkit.Xml.to_string (Dp.to_xml dp)))

let codes dp = List.map (fun (d : Diag.t) -> d.Diag.code) (Dp.check_diags dp)

let test_reserved_ctl_id_rejected () =
  let dp = reserved_id_design "ctl" in
  (* The hazard: the reloaded net reads from control y, a different but
     structurally valid design. *)
  check_bool "reload rewires n1 to control y" true
    ((List.hd (reload dp).Dp.nets).Dp.source = Dp.From_control "y");
  Alcotest.(check (list string)) "DP016 in memory" [ "DP016" ] (codes dp)

let test_dotted_id_rejected () =
  let dp = reserved_id_design "a.b" in
  check_bool "reload breaks the endpoint" true
    (List.mem "DP006" (codes (reload dp)));
  Alcotest.(check (list string)) "DP016 in memory" [ "DP016" ] (codes dp)

(* --- Elab properties over compiled random programs ------------------- *)

module Elab = Netlist.Elab
module Opspec = Operators.Opspec

let compiled_datapaths src =
  let prog = Lang.Parser.parse_string src in
  List.concat_map
    (fun (_, options) ->
      List.map
        (fun (p : Compiler.Compile.partition) -> p.Compiler.Compile.datapath)
        (Compiler.Compile.compile ~options prog).Compiler.Compile.partitions)
    Testinfra.Suite.default_variants

(* Every input port has exactly one driver — the one net sinking into
   it — and the driver's width is the port's. *)
let drivers_resolved dp =
  let e = Elab.of_datapath dp in
  List.for_all
    (fun (o : Elab.op) ->
      let ins =
        List.filter (fun (p : Opspec.port) -> p.Opspec.direction = Opspec.In)
          o.Elab.spec.Opspec.ports
      in
      List.length o.Elab.inputs = List.length ins
      && List.for_all
           (fun (p : Opspec.port) ->
             let sink = { Dp.inst = o.Elab.name; port = p.Opspec.port_name } in
             let nets = List.filter (fun (n : Dp.net) -> List.mem sink n.Dp.sinks) dp.Dp.nets in
             match (nets, Elab.driver o p.Opspec.port_name) with
             | [ n ], Elab.Op_out (src, q) ->
                 n.Dp.source = Dp.From_op { Dp.inst = src.Elab.name; port = q.Opspec.port_name }
                 && q.Opspec.port_width = p.Opspec.port_width
             | [ n ], Elab.Ctl c ->
                 n.Dp.source = Dp.From_control c.Dp.ctl_name
                 && c.Dp.ctl_width = p.Opspec.port_width
             | _ -> false)
           ins)
    (Elab.ops e)

(* The order places every combinational driver before its consumer and
   partitions the combinational set with the stuck operators. *)
let order_respects_drivers dp =
  let e = Elab.of_datapath dp in
  let order, stuck = Elab.levelize e ~deps:Elab.comb_preds in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i (o : Elab.op) -> Hashtbl.replace pos o.Elab.id i) order;
  List.sort compare (List.map (fun (o : Elab.op) -> o.Elab.id) (order @ stuck))
  = List.map (fun (o : Elab.op) -> o.Elab.id) (Elab.comb e)
  && List.for_all
       (fun (o : Elab.op) ->
         List.for_all
           (fun (d : Elab.op) ->
             match Hashtbl.find_opt pos d.Elab.id with
             | Some i -> i < Hashtbl.find pos o.Elab.id
             | None -> false)
           (Elab.comb_preds o))
       order

(* Members of lint's DP013 components, parsed from "... through a -> b". *)
let dp013_members dp =
  List.concat_map
    (fun (d : Diag.t) ->
      if d.Diag.code <> "DP013" then []
      else
        let words = String.split_on_char ' ' d.Diag.message in
        let rec path = function
          | "through" :: rest -> rest
          | _ :: rest -> path rest
          | [] -> []
        in
        let rec members = function
          | w :: "->" :: rest -> w :: members rest
          | w :: _ -> [ w ]
          | [] -> []
        in
        members (path words))
    (Lint.run_datapath dp)

(* The stuck set is exactly what a cycle feeds: the members of lint's
   DP013 components plus every combinational operator downstream of
   them (Kahn's sort cannot place those either). *)
let stuck_matches_lint dp =
  let e = Elab.of_datapath dp in
  let _, stuck = Elab.levelize e ~deps:Elab.comb_preds in
  let reached = Hashtbl.create 16 in
  let rec reach (o : Elab.op) =
    if not (Hashtbl.mem reached o.Elab.name) then begin
      Hashtbl.replace reached o.Elab.name ();
      List.iter
        (fun (c : Elab.op) -> if Operators.Opkind.is_comb c.Elab.kind then reach c)
        (Elab.consumers o)
    end
  in
  List.iter (fun name -> reach (Option.get (Elab.find e name))) (dp013_members dp);
  List.sort compare (List.map (fun (o : Elab.op) -> o.Elab.name) stuck)
  = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) reached [])

let prop_elab name check =
  QCheck2.Test.make ~name ~count:25 Test_cyclesim.random_program (fun src ->
      List.for_all check (compiled_datapaths src))

let prop_elab_drivers =
  prop_elab "elab: one driver per input port, widths agree" drivers_resolved

let prop_elab_order =
  prop_elab "elab: levelize orders drivers before consumers" order_respects_drivers

let prop_elab_stuck =
  prop_elab "elab: stuck set = DP013 members and their comb fanout" stuck_matches_lint

let suite =
  [
    ("builder produces valid datapath", `Quick, test_builder_produces_valid);
    ("fu count excludes test aids", `Quick, test_fu_count_excludes_test_aids);
    ("endpoint parsing", `Quick, test_endpoint_parsing);
    ("status width", `Quick, test_status_width);
    ("xml round trip", `Quick, test_xml_roundtrip);
    ("xml file round trip", `Quick, test_xml_file_roundtrip);
    ("check unknown kind", `Quick, test_check_unknown_kind);
    ("check duplicate id", `Quick, test_check_duplicate_id);
    ("check unconnected input", `Quick, test_check_unconnected_input);
    ("check double driver", `Quick, test_check_double_driver);
    ("check width mismatch", `Quick, test_check_width_mismatch);
    ("check source not output", `Quick, test_check_source_not_output);
    ("check unknown control", `Quick, test_check_unknown_control);
    ("validate raises", `Quick, test_validate_raises);
    ("builder duplicate id", `Quick, test_builder_duplicate_id_rejected);
    ("builder width inference", `Quick, test_builder_width_inference);
    QCheck_alcotest.to_alcotest prop_roundtrip;
    ("reserved id ctl rejected", `Quick, test_reserved_ctl_id_rejected);
    ("dotted id rejected", `Quick, test_dotted_id_rejected);
    QCheck_alcotest.to_alcotest prop_elab_drivers;
    QCheck_alcotest.to_alcotest prop_elab_order;
    QCheck_alcotest.to_alcotest prop_elab_stuck;
  ]
