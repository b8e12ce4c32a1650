module Flow = Twmc.Flow
module Stage1 = Twmc_place.Stage1
module Stage2 = Twmc.Stage2
module Params = Twmc_place.Params
module Placement = Twmc_place.Placement
module Router = Twmc_route.Global_router
module Synth = Twmc_workload.Synth

type trace_point = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
}

type t = {
  name : string;
  netlist_digest : string;
  seed : int;
  a_c : int;
  m_routes : int;
  status : string;
  c1 : float;
  c2_raw : float;
  c3 : float;
  c4 : float;
  teil_s1 : float;
  teil_final : float;
  area_s1 : int;
  area_final : int;
  route_length : int;
  route_overflow : int;
  routed : int;
  unroutable : int;
  placement_digest : string;
  route_digest : string;
  trace : trace_point list;
}

(* The QA profile: stock parameters at [a_c = 8], [m_routes = 6],
   [seed = 1] — heavy enough to exercise every stage, light enough that the
   whole golden suite runs in seconds. *)
let profile = { Params.default with Params.a_c = 8; m_routes = 6; seed = 1 }

let rebless_hint =
  "re-bless with: dune exec bin/twmc_cli.exe -- qa bless --golden-dir \
   test/golden"

let capture ~name nl =
  let rr = Flow.run_resilient ~params:profile ~seed:profile.Params.seed nl in
  match rr.Flow.flow with
  | None ->
      failwith
        (Printf.sprintf "golden capture of %s: flow produced no result (%s)"
           name
           (Flow.status_to_string rr.Flow.status))
  | Some r ->
      let p = r.Flow.stage2.Stage2.placement in
      let route = r.Flow.stage2.Stage2.final_route in
      { name;
        netlist_digest = Fingerprint.netlist nl;
        seed = profile.Params.seed;
        a_c = profile.Params.a_c;
        m_routes = profile.Params.m_routes;
        status = Flow.status_to_string rr.Flow.status;
        c1 = Placement.c1 p;
        c2_raw = Placement.c2_raw p;
        c3 = Placement.c3 p;
        c4 = Placement.c4 p;
        teil_s1 = r.Flow.teil_stage1;
        teil_final = r.Flow.teil_final;
        area_s1 = r.Flow.area_stage1;
        area_final = r.Flow.area_final;
        route_length =
          (match route with Some rt -> rt.Router.total_length | None -> -1);
        route_overflow =
          (match route with Some rt -> rt.Router.overflow | None -> -1);
        routed =
          (match route with
          | Some rt -> List.length rt.Router.routed
          | None -> -1);
        unroutable =
          (match route with
          | Some rt -> List.length rt.Router.unroutable
          | None -> -1);
        placement_digest = Fingerprint.placement p;
        route_digest =
          (match route with Some rt -> Fingerprint.route rt | None -> "none");
        trace =
          List.map
            (fun (tr : Stage1.temp_record) ->
              { temperature = tr.Stage1.temperature;
                cost = tr.Stage1.cost;
                c1 = tr.Stage1.c1;
                c2_raw = tr.Stage1.c2_raw;
                c3 = tr.Stage1.c3;
                acceptance = tr.Stage1.acceptance })
            r.Flow.stage1.Stage1.trace }

let to_string g =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "twmc-golden v1";
  line "name %s" g.name;
  line "netlist_digest %s" g.netlist_digest;
  line "seed %d" g.seed;
  line "a_c %d" g.a_c;
  line "m_routes %d" g.m_routes;
  line "status %s" g.status;
  line "c1 %.17g" g.c1;
  line "c2_raw %.17g" g.c2_raw;
  line "c3 %.17g" g.c3;
  (* Emitted only when nonzero so unconstrained golden files are untouched
     by the constraint subsystem (the parser defaults a missing key to 0). *)
  if g.c4 <> 0.0 then line "c4 %.17g" g.c4;
  line "teil_s1 %.17g" g.teil_s1;
  line "teil_final %.17g" g.teil_final;
  line "area_s1 %d" g.area_s1;
  line "area_final %d" g.area_final;
  line "route_length %d" g.route_length;
  line "route_overflow %d" g.route_overflow;
  line "routed %d" g.routed;
  line "unroutable %d" g.unroutable;
  line "placement_digest %s" g.placement_digest;
  line "route_digest %s" g.route_digest;
  line "trace %d" (List.length g.trace);
  List.iter
    (fun tp ->
      line "t %.17g %.17g %.17g %.17g %.17g %.17g" tp.temperature tp.cost
        tp.c1 tp.c2_raw tp.c3 tp.acceptance)
    g.trace;
  Buffer.contents b

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l ->
           l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | "twmc-golden v1" :: rest -> (
      let kv = Hashtbl.create 32 in
      let trace = ref [] in
      List.iter
        (fun l ->
          match String.index_opt l ' ' with
          | None -> ()
          | Some i ->
              let k = String.sub l 0 i
              and v = String.sub l (i + 1) (String.length l - i - 1) in
              if k = "t" then trace := v :: !trace
              else Hashtbl.replace kv k v)
        rest;
      let str k = Hashtbl.find_opt kv k in
      let parse name conv k ~default =
        match str k with
        | None -> Ok default
        | Some v -> (
            match conv v with
            | Some x -> Ok x
            | None -> Error (Printf.sprintf "bad %s value for %s: %s" name k v))
      in
      let intf = parse "int" int_of_string_opt in
      let fltf = parse "float" float_of_string_opt in
      let strf = parse "string" Option.some in
      let ( let* ) = Result.bind in
      let* name = strf "name" ~default:"?" in
      let* netlist_digest = strf "netlist_digest" ~default:"" in
      let* seed = intf "seed" ~default:1 in
      let* a_c = intf "a_c" ~default:8 in
      let* m_routes = intf "m_routes" ~default:6 in
      let* status = strf "status" ~default:"clean" in
      let* c1 = fltf "c1" ~default:0.0 in
      let* c2_raw = fltf "c2_raw" ~default:0.0 in
      let* c3 = fltf "c3" ~default:0.0 in
      let* c4 = fltf "c4" ~default:0.0 in
      let* teil_s1 = fltf "teil_s1" ~default:0.0 in
      let* teil_final = fltf "teil_final" ~default:0.0 in
      let* area_s1 = intf "area_s1" ~default:0 in
      let* area_final = intf "area_final" ~default:0 in
      let* route_length = intf "route_length" ~default:(-1) in
      let* route_overflow = intf "route_overflow" ~default:(-1) in
      let* routed = intf "routed" ~default:(-1) in
      let* unroutable = intf "unroutable" ~default:(-1) in
      let* placement_digest = strf "placement_digest" ~default:"" in
      let* route_digest = strf "route_digest" ~default:"" in
      let* trace =
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match
              Scanf.sscanf_opt v "%g %g %g %g %g %g"
                (fun temperature cost c1 c2_raw c3 acceptance ->
                  { temperature; cost; c1; c2_raw; c3; acceptance })
            with
            | Some tp -> Ok (tp :: acc)
            | None -> err "bad trace line: t %s" v)
          (Ok []) !trace
      in
      (* [trace N] counts the [t] lines: a file cut short among them, or
         one with lines added, does not load. *)
      let n_t = List.length trace in
      let* n = intf "trace" ~default:n_t in
      let* () =
        if n < 0 then err "bad trace value: trace %d, need a count >= 0" n
        else if n <> n_t then
          err "bad trace value: trace %d, but the file has %d t lines" n n_t
        else Ok ()
      in
      Ok
        { name; netlist_digest; seed; a_c; m_routes; status; c1; c2_raw; c3;
          c4; teil_s1; teil_final; area_s1; area_final; route_length;
          route_overflow; routed; unroutable; placement_digest; route_digest;
          trace })
  | header :: _ -> err "unrecognized golden header: %s" header
  | [] -> err "empty golden file"

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let diff ~expected ~actual =
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let strs k a b = if a <> b then say "%s: expected %s, got %s" k a b in
  let ints k a b = if a <> b then say "%s: expected %d, got %d" k a b in
  let flts k a b =
    if not (rel_close a b) then
      say "%s: expected %.6g, got %.6g (%+.3g%%)" k a b
        (if a = 0.0 then Float.infinity else (b -. a) /. a *. 100.0)
  in
  if expected.netlist_digest <> actual.netlist_digest then
    say
      "netlist_digest: expected %s, got %s — the input circuit itself \
       changed; the remaining differences follow from it"
      expected.netlist_digest actual.netlist_digest;
  ints "seed" expected.seed actual.seed;
  ints "a_c" expected.a_c actual.a_c;
  ints "m_routes" expected.m_routes actual.m_routes;
  strs "status" expected.status actual.status;
  flts "c1" expected.c1 actual.c1;
  flts "c2_raw" expected.c2_raw actual.c2_raw;
  flts "c3" expected.c3 actual.c3;
  flts "c4" expected.c4 actual.c4;
  flts "teil_s1" expected.teil_s1 actual.teil_s1;
  flts "teil_final" expected.teil_final actual.teil_final;
  ints "area_s1" expected.area_s1 actual.area_s1;
  ints "area_final" expected.area_final actual.area_final;
  ints "route_length" expected.route_length actual.route_length;
  ints "route_overflow" expected.route_overflow actual.route_overflow;
  ints "routed" expected.routed actual.routed;
  ints "unroutable" expected.unroutable actual.unroutable;
  strs "placement_digest" expected.placement_digest actual.placement_digest;
  strs "route_digest" expected.route_digest actual.route_digest;
  let ne = List.length expected.trace and na = List.length actual.trace in
  if ne <> na then say "trace: expected %d temperature steps, got %d" ne na;
  (let rec first_div i = function
     | e :: es, a :: as_ ->
         if
           rel_close e.temperature a.temperature
           && rel_close e.cost a.cost && rel_close e.c1 a.c1
           && rel_close e.c2_raw a.c2_raw && rel_close e.c3 a.c3
           && rel_close e.acceptance a.acceptance
         then first_div (i + 1) (es, as_)
         else
           say
             "trace step %d: expected T=%.4g cost=%.6g c1=%.6g, got T=%.4g \
              cost=%.6g c1=%.6g"
             i e.temperature e.cost e.c1 a.temperature a.cost a.c1
     | _ -> ()
   in
   first_div 0 (expected.trace, actual.trace));
  List.rev !out

let targets ~netlists_dir =
  let file name =
    ( name,
      fun () ->
        Twmc_netlist.Parser.parse_file
          (Filename.concat netlists_dir (name ^ ".twn")) )
  in
  let synth name spec seed = (name, fun () -> Synth.generate ~seed spec) in
  [ file "small"; file "medium"; file "i1";
    synth "synth-a"
      { Synth.default_spec with
        Synth.name = "synth-a";
        n_cells = 10;
        n_nets = 24;
        n_pins = 60 }
      7;
    synth "synth-b"
      { Synth.default_spec with
        Synth.name = "synth-b";
        n_cells = 14;
        n_nets = 30;
        n_pins = 80;
        frac_rectilinear = 0.5 }
      11;
    (* A constraint-rich target: every constraint type present, so the C4
       trajectory itself is pinned. *)
    (let module Mutate = Twmc_workload.Mutate in
     let seed = 13 in
     ( "synth-cons",
       fun () ->
         let nl =
           Synth.generate ~seed
             { Synth.default_spec with
               Synth.name = "synth-cons";
               n_cells = 12;
               n_nets = 26;
               n_pins = 70 }
         in
         Mutate.apply_all
           ~rng:(Twmc_sa.Rng.create ~seed:(seed lxor 0x5a5a))
           [ Mutate.Add_blockages 2; Mutate.Add_keepouts 1;
             Mutate.Conflicting_fixed 1; Mutate.Zero_slack_regions 1;
             Mutate.Pin_boundary 1; Mutate.Align_chain 2; Mutate.Abut_pairs 1;
             Mutate.Tight_density 1 ]
           nl )) ]
