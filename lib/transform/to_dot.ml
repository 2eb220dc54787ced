module Dp = Netlist.Datapath
module Fsm = Fsmkit.Fsm
module Guard = Fsmkit.Guard
module Dot = Dotkit.Dot
module Opkind = Operators.Opkind

let datapath (dp : Dp.t) =
  let g =
    Dot.create dp.Dp.dp_name
      ~graph_attrs:[ ("rankdir", "LR"); ("fontname", "Helvetica") ]
      ~node_defaults:[ ("fontname", "Helvetica"); ("fontsize", "10") ]
  in
  List.iter
    (fun (op : Dp.operator) ->
      let label =
        Printf.sprintf "%s\n%s/%d" op.Dp.id (Opkind.to_string op.Dp.kind)
          op.Dp.width
      in
      let attrs =
        match op.Dp.kind with
        | Sram | Rom -> [ ("shape", "box3d"); ("label", label) ]
        | k when Opkind.is_test_aid k ->
            [ ("shape", "box"); ("style", "dashed"); ("label", label) ]
        | Const -> [ ("shape", "plaintext"); ("label", label) ]
        | _ -> [ ("shape", "box"); ("label", label) ]
      in
      Dot.add_node g op.Dp.id ~attrs)
    dp.Dp.operators;
  List.iter
    (fun (c : Dp.control) ->
      Dot.add_node g ("ctl." ^ c.Dp.ctl_name)
        ~attrs:
          [
            ("shape", "house");
            ("label", Printf.sprintf "%s/%d" c.Dp.ctl_name c.Dp.ctl_width);
          ])
    dp.Dp.controls;
  List.iter
    (fun (st : Dp.status) ->
      let id = "st." ^ st.Dp.st_name in
      Dot.add_node g id
        ~attrs:[ ("shape", "invhouse"); ("label", st.Dp.st_name) ];
      Dot.add_edge g st.Dp.st_source.Dp.inst id
        ~attrs:[ ("style", "dotted") ])
    dp.Dp.statuses;
  List.iter
    (fun (n : Dp.net) ->
      let src =
        match n.Dp.source with
        | Dp.From_op ep -> ep.Dp.inst
        | Dp.From_control name -> "ctl." ^ name
      in
      List.iter
        (fun (ep : Dp.endpoint) ->
          Dot.add_edge g src ep.Dp.inst
            ~attrs:
              [
                ("label", Printf.sprintf "%s/%d" n.Dp.net_id n.Dp.net_width);
                ("headlabel", ep.Dp.port);
                ("labelfontsize", "8");
              ])
        n.Dp.sinks)
    dp.Dp.nets;
  g

let fsm (m : Fsm.t) =
  let g =
    Dot.create m.Fsm.fsm_name
      ~graph_attrs:[ ("rankdir", "TB"); ("fontname", "Helvetica") ]
      ~node_defaults:[ ("fontname", "Helvetica"); ("fontsize", "10") ]
  in
  Dot.add_node g "__entry" ~attrs:[ ("shape", "point") ];
  List.iter
    (fun (st : Fsm.state) ->
      let label =
        match st.Fsm.settings with
        | [] -> st.Fsm.sname
        | settings ->
            st.Fsm.sname ^ "\n"
            ^ String.concat "\n"
                (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) settings)
      in
      Dot.add_node g st.Fsm.sname
        ~attrs:
          [
            ("shape", (if st.Fsm.is_done then "doublecircle" else "circle"));
            ("label", label);
          ])
    m.Fsm.states;
  Dot.add_edge g "__entry" m.Fsm.initial;
  List.iter
    (fun (st : Fsm.state) ->
      List.iter
        (fun (tr : Fsm.transition) ->
          let label = Guard.to_string tr.Fsm.guard in
          Dot.add_edge g st.Fsm.sname tr.Fsm.target
            ~attrs:(if label = "" then [] else [ ("label", label) ]))
        st.Fsm.transitions)
    m.Fsm.states;
  g

let rtg (r : Rtg.t) =
  let g =
    Dot.create r.Rtg.rtg_name
      ~graph_attrs:[ ("rankdir", "LR"); ("fontname", "Helvetica") ]
      ~node_defaults:[ ("fontname", "Helvetica"); ("shape", "box") ]
  in
  Dot.add_node g "__entry" ~attrs:[ ("shape", "point") ];
  List.iter
    (fun (c : Rtg.configuration) ->
      Dot.add_node g c.Rtg.cfg_name
        ~attrs:
          [
            ( "label",
              Printf.sprintf "%s\ndp: %s\nfsm: %s" c.Rtg.cfg_name
                c.Rtg.datapath_ref c.Rtg.fsm_ref );
          ])
    r.Rtg.configurations;
  Dot.add_edge g "__entry" r.Rtg.initial;
  List.iter
    (fun (tr : Rtg.transition) ->
      Dot.add_edge g tr.Rtg.src tr.Rtg.dst
        ~attrs:[ ("label", "done") ])
    r.Rtg.transitions;
  g
