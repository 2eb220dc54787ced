open Sim

type notification =
  | Check_failed of {
      instance : string;
      time : int;
      got : Bitvec.t;
      expect : Bitvec.t;
    }
  | Probe_sample of { instance : string; time : int; value : Bitvec.t }

type env = {
  engine : Engine.t;
  clock : Engine.signal;
  find_memory : string -> Memory.t;
  find_signal : string -> Engine.signal;
  instance : string;
  notify : notification -> unit;
}

let check_port_width env name s expected =
  if Engine.width s <> expected then
    invalid_arg
      (Printf.sprintf "%s.%s: signal width %d, port expects %d" env.instance
         name (Engine.width s) expected)

let connected env (spec : Opspec.t) =
  List.map
    (fun (p : Opspec.port) ->
      let s = env.find_signal p.Opspec.port_name in
      check_port_width env p.Opspec.port_name s p.Opspec.port_width;
      (p.Opspec.port_name, s))
    spec.Opspec.ports

let comb2 env ~name a b y f =
  ignore
    (Engine.process env.engine ~name ~sensitivity:[ a; b ] (fun () ->
         Engine.drive env.engine y (f (Engine.value a) (Engine.value b))))

let comb1 env ~name a y f =
  ignore
    (Engine.process env.engine ~name ~sensitivity:[ a ] (fun () ->
         Engine.drive env.engine y (f (Engine.value a))))

let instantiate env ~width (spec : Opspec.t) =
  let p = spec.Opspec.params in
  let signals = connected env spec in
  let s name = List.assoc name signals in
  let pname = env.instance ^ ":" ^ Opkind.to_string spec.Opspec.kind in
  match spec.Opspec.kind with
  | Bin op -> comb2 env ~name:pname (s "a") (s "b") (s "y") (Opkind.bin_bitvec op)
  | Cmp op ->
      comb2 env ~name:pname (s "a") (s "b") (s "y") (Opkind.cmp_bitvec op)
  | Un op -> comb1 env ~name:pname (s "a") (s "y") (Opkind.un_bitvec op)
  | Const ->
      let value = Bitvec.create ~width p.value in
      ignore
        (Engine.process env.engine ~name:pname (fun () ->
             Engine.drive env.engine (s "y") value))
  | Zext -> comb1 env ~name:pname (s "a") (s "y") (fun a -> Bitvec.resize a width)
  | Sext -> comb1 env ~name:pname (s "a") (s "y") (fun a -> Bitvec.sresize a width)
  | Mux ->
      let n = p.inputs in
      let ins = Array.init n (fun i -> s (Printf.sprintf "in%d" i)) in
      let sel = s "sel" and y = s "y" in
      let body () =
        let i = min (Engine.value_int sel) (n - 1) in
        Engine.drive env.engine y (Engine.value ins.(i))
      in
      let proc = Engine.process env.engine ~name:pname ~sensitivity:[ sel ] body in
      Array.iter (fun input -> Engine.add_sensitivity proc input) ins
  | Reg ->
      let d = s "d" and en = s "en" and q = s "q" in
      Engine.force env.engine q
        (Bitvec.create ~width (Option.value p.init ~default:0));
      ignore
        (Engine.on_rising_edge env.engine ~clock:env.clock ~name:pname
           (fun () ->
             if Engine.value_int en = 1 then
               Engine.drive env.engine q (Engine.value d)))
  | Counter ->
      let en = s "en" and load = s "load" and d = s "d" and q = s "q" in
      let step = Bitvec.create ~width p.step in
      ignore
        (Engine.on_rising_edge env.engine ~clock:env.clock ~name:pname
           (fun () ->
             if Engine.value_int load = 1 then
               Engine.drive env.engine q (Engine.value d)
             else if Engine.value_int en = 1 then
               Engine.drive env.engine q (Bitvec.add (Engine.value q) step)))
  | Sram ->
      let memory = env.find_memory p.memory in
      if Memory.width memory <> width then
        invalid_arg
          (Printf.sprintf "%s: memory %s width %d <> operator width %d"
             env.instance (Memory.name memory) (Memory.width memory) width);
      let addr = s "addr" and din = s "din" and we = s "we" and dout = s "dout" in
      (* Asynchronous read port: dout always mirrors mem[addr]. *)
      ignore
        (Engine.process env.engine ~name:(pname ^ "-rd")
           ~sensitivity:[ addr ] (fun () ->
             Engine.drive env.engine dout
               (Memory.read memory (Engine.value_int addr))));
      (* Synchronous write port. The read port is also refreshed on
         every edge: the backing store is shared (other configurations,
         a host CPU in co-simulation), so the addressed cell can change
         without the address moving. *)
      ignore
        (Engine.on_rising_edge env.engine ~clock:env.clock ~name:(pname ^ "-wr")
           (fun () ->
             let a = Engine.value_int addr in
             if Engine.value_int we = 1 then
               Memory.write memory a (Engine.value din);
             Engine.drive env.engine dout (Memory.read memory a)))
  | Rom ->
      let memory = env.find_memory p.memory in
      if Memory.width memory <> width then
        invalid_arg
          (Printf.sprintf "%s: memory %s width mismatch" env.instance
             (Memory.name memory));
      let addr = s "addr" and dout = s "dout" in
      ignore
        (Engine.process env.engine ~name:pname ~sensitivity:[ addr ]
           (fun () ->
             Engine.drive env.engine dout
               (Memory.read memory (Engine.value_int addr))))
  | Probe ->
      let a = s "a" in
      Engine.on_change env.engine a (fun () ->
          env.notify
            (Probe_sample
               {
                 instance = env.instance;
                 time = Engine.now env.engine;
                 value = Engine.value a;
               }))
  | Check ->
      let a = s "a" and en = s "en" in
      let expect = Bitvec.create ~width p.value in
      ignore
        (Engine.on_rising_edge env.engine ~clock:env.clock ~name:pname
           (fun () ->
             if Engine.value_int en = 1
                && not (Bitvec.equal (Engine.value a) expect)
             then begin
               env.notify
                 (Check_failed
                    {
                      instance = env.instance;
                      time = Engine.now env.engine;
                      got = Engine.value a;
                      expect;
                    });
               if p.action = Halt then
                 Engine.request_stop env.engine
                   (Printf.sprintf "check %s failed" env.instance)
             end))
  | Stop ->
      let en = s "en" in
      let reason = Option.value p.reason ~default:(env.instance ^ " fired") in
      ignore
        (Engine.process env.engine ~name:pname ~sensitivity:[ en ] (fun () ->
             if Engine.value_int en = 1 then
               Engine.request_stop env.engine reason))
