(* The zspec zero-specialization pass (the AZP-style subset of VRS):
   interpreter equivalence on every zero-biased random program, guards
   that actually fire on zero-dominated code, a strict energy win under
   the pipeline model when the zero path is the one taken, and the
   byte-identity pin of both specialization back halves.  Also the
   service's side of it: a VRS request runs one chain at every profile
   epoch, with no zspec tail after a profile push. *)

module Pass = Ogc_pass.Pass
module Prog = Ogc_ir.Prog
module Interp = Ogc_ir.Interp
module Minic = Ogc_minic.Minic
module Gen_minic = Ogc_fuzz.Gen_minic
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Account = Ogc_energy.Account
module Vrs = Ogc_core.Vrs
module Workload = Ogc_workloads.Workload
module Profile = Ogc_pass.Profile
module Protocol = Ogc_server.Protocol
module J = Ogc_json.Json
module Span = Ogc_obs.Span

let zspec_chain = "vrp,encode-widths,bb-profile,value-profile,zspec:cost=50"

(* Aggregated across the property's sample so a separate test can assert
   the generator actually exercises the pass. *)
let total_specialized = ref 0

let equivalent src =
  match Minic.compile src with
  | exception Minic.Error _ -> true (* generator overshoot, not zspec's bug *)
  | p ->
    let base = Interp.run (Prog.copy p) in
    let st, _ = Pass.run zspec_chain p in
    Ogc_ir.Validate.program st.Pass.prog;
    (match st.Pass.report with
    | Some r -> total_specialized := !total_specialized + Vrs.specialized_count r
    | None -> ());
    let out = Interp.run st.Pass.prog in
    Int64.equal base.Interp.checksum out.Interp.checksum
    && base.Interp.emitted = out.Interp.emitted

let prop_zspec_equivalent =
  QCheck.Test.make
    ~name:"zspec is interpreter-equivalent on zero-biased programs" ~count:80
    Gen_minic.arbitrary_zero_program equivalent

let test_guards_fire () =
  Alcotest.(check bool)
    "the zero-biased generator makes zspec specialize" true
    (!total_specialized > 0)

(* A program whose guarded value is zero on every iteration: [flags] is
   never written, so the specialized clone (with the multiply-accumulate
   folded away) runs every trip and only the one-instruction zero test
   is paid at region entry. *)
let zero_src =
  {|
long flags[1024];
int a[1024];
int seed = 13;

int rnd() {
  seed = seed * 1103515245 + 12345;
  return (seed >> 16) & 0x7fff;
}

int main() {
  for (int i = 0; i < 1024; i++) {
    a[i] = rnd() & 255;
  }
  long acc = 0;
  for (int i = 0; i < 768; i++) {
    long f = flags[i & 1023];
    acc = acc + f * a[i & 1023] + a[i & 1023];
  }
  emit(acc);
  return 0;
}
|}

let test_strictly_cheaper_on_zero_path () =
  let p = Minic.compile zero_src in
  let base_st, _ = Pass.run "vrp,encode-widths" (Prog.copy p) in
  let z_st, _ = Pass.run zspec_chain (Prog.copy p) in
  (match z_st.Pass.report with
  | None -> Alcotest.fail "zspec left no report"
  | Some r ->
    Alcotest.(check bool) "at least one zero specialization" true
      (Vrs.specialized_count r >= 1));
  let sim prog = Pipeline.simulate ~policy:Policy.Software prog in
  let b = sim base_st.Pass.prog in
  let z = sim z_st.Pass.prog in
  Alcotest.(check bool) "same output" true
    (Int64.equal b.Pipeline.checksum z.Pipeline.checksum);
  let eb = Account.total b.Pipeline.energy in
  let ez = Account.total z.Pipeline.energy in
  if not (ez < eb) then
    Alcotest.failf "zero path not cheaper: %.3f nJ (zspec) vs %.3f nJ" ez eb


(* --- pinned specialization outputs ------------------------------------- *)

(* Both back halves ([vrs] and [zspec]) on a fixed input set, once with
   training-run profiles and once with a client's streamed wire profile
   (the serve-online path), against recorded outputs.  Each row holds
   the outcome tally, [static_cloned]/[static_eliminated], the MD5 of
   the output assembly and the MD5 of the full outcome list.  A moved
   row means a specialization output changed: re-pin only for an
   intended change (TESTING.md). *)

let pin_chain back =
  Printf.sprintf "vrp,encode-widths,bb-profile,value-profile,%s:cost=50" back

let outcome_text (iid, o) =
  match o with
  | Vrs.Specialized { lo; hi; freq; benefit } ->
    Printf.sprintf "%d:S[%Ld,%Ld]%h,%h" iid lo hi freq benefit
  | Vrs.Dependent_on_other -> Printf.sprintf "%d:D" iid
  | Vrs.No_benefit -> Printf.sprintf "%d:N" iid

let pin_row ?wire back p =
  let st, _ = Pass.run ?wire (pin_chain back) p in
  let r = Option.get st.Pass.report in
  let md5 s = Digest.to_hex (Digest.string s) in
  let tally k =
    List.length (List.filter (fun (_, o) -> k o) r.Vrs.profiled)
  in
  Printf.sprintf "%dS %dD %dN cloned %d elim %d asm %s outcomes %s"
    (tally (function Vrs.Specialized _ -> true | _ -> false))
    (tally (function Vrs.Dependent_on_other -> true | _ -> false))
    (tally (function Vrs.No_benefit -> true | _ -> false))
    r.Vrs.static_cloned r.Vrs.static_eliminated
    (md5 (Ogc_ir.Asm.to_string st.Pass.prog))
    (md5 (String.concat " " (List.map outcome_text r.Vrs.profiled)))

(* Train scale, as [ogc submit --input train] and the server's chain
   front see it. *)
let train p =
  if Prog.find_global p "input_scale" <> None then
    Workload.set_scale p Workload.Train;
  p

(* The first 8 zero-bias generator programs of seed 42 that compile. *)
let zero_bias_sources =
  let rec go i acc =
    if List.length acc = 8 then List.rev acc
    else
      let src = Gen_minic.zero_program (Random.State.make [| 42; i; 0 |]) in
      match Minic.compile src with
      | _ -> go (i + 1) ((Printf.sprintf "zero-bias-%d" i, src) :: acc)
      | exception Minic.Error _ -> go (i + 1) acc
  in
  go 0 []

let pin_inputs =
  let example f =
    (f, In_channel.with_open_bin ("../examples/" ^ f) In_channel.input_all)
  in
  [ example "zerospec.mc"; example "dotprod.mc" ]
  @ List.map (fun (w : Workload.t) -> (w.name, w.source)) Workload.all
  @ zero_bias_sources

let pin_rows () =
  List.concat_map
    (fun (name, src) ->
      let p = train (Minic.compile src) in
      let wire = Profile.collect p in
      List.concat_map
        (fun back ->
          [ (Printf.sprintf "%s %s" name back, pin_row back (Prog.copy p));
            (Printf.sprintf "%s %s wire" name back,
             pin_row ~wire back (Prog.copy p)) ])
        [ "vrs"; "zspec" ])
    pin_inputs

let pinned =
  [
    ("zerospec.mc vrs",
     "1S 3D 7N cloned 13 elim 5 asm c7e4b825b94c96f08d4d3cd66c1b4cb4 outcomes cc7e6b308145cc8c849fd4f098eb32e9");
    ("zerospec.mc vrs wire",
     "1S 3D 7N cloned 13 elim 5 asm c7e4b825b94c96f08d4d3cd66c1b4cb4 outcomes cc7e6b308145cc8c849fd4f098eb32e9");
    ("zerospec.mc zspec",
     "1S 3D 7N cloned 13 elim 5 asm c7e4b825b94c96f08d4d3cd66c1b4cb4 outcomes cc7e6b308145cc8c849fd4f098eb32e9");
    ("zerospec.mc zspec wire",
     "1S 3D 7N cloned 13 elim 5 asm c7e4b825b94c96f08d4d3cd66c1b4cb4 outcomes cc7e6b308145cc8c849fd4f098eb32e9");
    ("dotprod.mc vrs",
     "0S 0D 10N cloned 0 elim 0 asm 2b77054ebdc8c5b8115eda224ca5dfae outcomes 8376cd824911f585ae91756e10ddfe6a");
    ("dotprod.mc vrs wire",
     "0S 0D 10N cloned 0 elim 0 asm 2b77054ebdc8c5b8115eda224ca5dfae outcomes 8376cd824911f585ae91756e10ddfe6a");
    ("dotprod.mc zspec",
     "0S 0D 10N cloned 0 elim 0 asm 2b77054ebdc8c5b8115eda224ca5dfae outcomes 8376cd824911f585ae91756e10ddfe6a");
    ("dotprod.mc zspec wire",
     "0S 0D 10N cloned 0 elim 0 asm 2b77054ebdc8c5b8115eda224ca5dfae outcomes 8376cd824911f585ae91756e10ddfe6a");
    ("compress vrs",
     "1S 3D 10N cloned 54 elim 13 asm 1dc8d25ec71415e8abfffc516e9312a5 outcomes 8f5d9d6c03589a490b58829fd6624edc");
    ("compress vrs wire",
     "1S 3D 10N cloned 54 elim 13 asm 1dc8d25ec71415e8abfffc516e9312a5 outcomes 8f5d9d6c03589a490b58829fd6624edc");
    ("compress zspec",
     "0S 0D 14N cloned 0 elim 0 asm b3c00594984da45310369b91d3c22b86 outcomes 5ad4c617d0e30b494ffb3553a90c19e2");
    ("compress zspec wire",
     "0S 0D 14N cloned 0 elim 0 asm b3c00594984da45310369b91d3c22b86 outcomes 5ad4c617d0e30b494ffb3553a90c19e2");
    ("gcc vrs",
     "1S 0D 39N cloned 1 elim 1 asm 3b2008638d96916cb2b2a260a8c711b3 outcomes b2b671e4599411c454099279f154c458");
    ("gcc vrs wire",
     "1S 0D 39N cloned 1 elim 1 asm 3b2008638d96916cb2b2a260a8c711b3 outcomes b2b671e4599411c454099279f154c458");
    ("gcc zspec",
     "1S 0D 39N cloned 1 elim 1 asm 3b2008638d96916cb2b2a260a8c711b3 outcomes b2b671e4599411c454099279f154c458");
    ("gcc zspec wire",
     "1S 0D 39N cloned 1 elim 1 asm 3b2008638d96916cb2b2a260a8c711b3 outcomes b2b671e4599411c454099279f154c458");
    ("go vrs",
     "0S 0D 18N cloned 0 elim 0 asm a22d4c6d785a732f8a0d12657886d7ad outcomes 136abe3684fa6670d066f845ed561003");
    ("go vrs wire",
     "0S 0D 18N cloned 0 elim 0 asm a22d4c6d785a732f8a0d12657886d7ad outcomes 136abe3684fa6670d066f845ed561003");
    ("go zspec",
     "0S 0D 18N cloned 0 elim 0 asm a22d4c6d785a732f8a0d12657886d7ad outcomes 136abe3684fa6670d066f845ed561003");
    ("go zspec wire",
     "0S 0D 18N cloned 0 elim 0 asm a22d4c6d785a732f8a0d12657886d7ad outcomes 136abe3684fa6670d066f845ed561003");
    ("ijpeg vrs",
     "1S 5D 69N cloned 17 elim 4 asm d9e559d1b87c7d130fc905c203f4aece outcomes c3cf40911ee36c1cd2dc0490b712c176");
    ("ijpeg vrs wire",
     "1S 5D 69N cloned 17 elim 4 asm d9e559d1b87c7d130fc905c203f4aece outcomes c3cf40911ee36c1cd2dc0490b712c176");
    ("ijpeg zspec",
     "1S 5D 69N cloned 17 elim 4 asm d9e559d1b87c7d130fc905c203f4aece outcomes c3cf40911ee36c1cd2dc0490b712c176");
    ("ijpeg zspec wire",
     "1S 5D 69N cloned 17 elim 4 asm d9e559d1b87c7d130fc905c203f4aece outcomes c3cf40911ee36c1cd2dc0490b712c176");
    ("li vrs",
     "0S 0D 34N cloned 0 elim 0 asm 7dbc2ea69137e4044ebab731160d5304 outcomes 9d3b30ac9b2bdadaf6d9193f4a7766f1");
    ("li vrs wire",
     "0S 0D 34N cloned 0 elim 0 asm 7dbc2ea69137e4044ebab731160d5304 outcomes 9d3b30ac9b2bdadaf6d9193f4a7766f1");
    ("li zspec",
     "0S 0D 34N cloned 0 elim 0 asm 7dbc2ea69137e4044ebab731160d5304 outcomes 9d3b30ac9b2bdadaf6d9193f4a7766f1");
    ("li zspec wire",
     "0S 0D 34N cloned 0 elim 0 asm 7dbc2ea69137e4044ebab731160d5304 outcomes 9d3b30ac9b2bdadaf6d9193f4a7766f1");
    ("m88ksim vrs",
     "1S 4D 13N cloned 22 elim 6 asm 947c7faa03135aa56c2324a3e34bd6c9 outcomes 24bc80d16c3fd07bc81b73774cc08dc2");
    ("m88ksim vrs wire",
     "1S 4D 13N cloned 22 elim 6 asm 947c7faa03135aa56c2324a3e34bd6c9 outcomes 24bc80d16c3fd07bc81b73774cc08dc2");
    ("m88ksim zspec",
     "1S 4D 13N cloned 22 elim 6 asm 947c7faa03135aa56c2324a3e34bd6c9 outcomes 24bc80d16c3fd07bc81b73774cc08dc2");
    ("m88ksim zspec wire",
     "1S 4D 13N cloned 22 elim 6 asm 947c7faa03135aa56c2324a3e34bd6c9 outcomes 24bc80d16c3fd07bc81b73774cc08dc2");
    ("perl vrs",
     "1S 3D 20N cloned 26 elim 0 asm 8b8514ab2f1a78d7f330f8f458b3e935 outcomes 25061112b1c23b6cdd5a8d2027bb78a4");
    ("perl vrs wire",
     "1S 3D 20N cloned 26 elim 0 asm 8b8514ab2f1a78d7f330f8f458b3e935 outcomes 25061112b1c23b6cdd5a8d2027bb78a4");
    ("perl zspec",
     "0S 0D 24N cloned 0 elim 0 asm 98146db1ffc44d10d731ecc1e896842e outcomes 5c8bcef1c6b01dc0bd39278c84c0f18a");
    ("perl zspec wire",
     "0S 0D 24N cloned 0 elim 0 asm 98146db1ffc44d10d731ecc1e896842e outcomes 5c8bcef1c6b01dc0bd39278c84c0f18a");
    ("vortex vrs",
     "0S 0D 17N cloned 0 elim 0 asm 8a1dcc43996c2f770b36206198f7f3cd outcomes 5aca382c8598a42514f9ada679dea4d5");
    ("vortex vrs wire",
     "0S 0D 17N cloned 0 elim 0 asm 8a1dcc43996c2f770b36206198f7f3cd outcomes 5aca382c8598a42514f9ada679dea4d5");
    ("vortex zspec",
     "0S 0D 17N cloned 0 elim 0 asm 8a1dcc43996c2f770b36206198f7f3cd outcomes 5aca382c8598a42514f9ada679dea4d5");
    ("vortex zspec wire",
     "0S 0D 17N cloned 0 elim 0 asm 8a1dcc43996c2f770b36206198f7f3cd outcomes 5aca382c8598a42514f9ada679dea4d5");
    ("zero-bias-0 vrs",
     "4S 14D 2N cloned 65 elim 20 asm ed66231d86acaf21ae788e4f58978d0d outcomes b2b64e4c2045d9e0c4063a6472ef1585");
    ("zero-bias-0 vrs wire",
     "4S 14D 2N cloned 65 elim 20 asm ed66231d86acaf21ae788e4f58978d0d outcomes b2b64e4c2045d9e0c4063a6472ef1585");
    ("zero-bias-0 zspec",
     "4S 8D 8N cloned 84 elim 11 asm 7c747a39c3cbaeb980f35bfa57252615 outcomes 17fbb25e2019594fe606c556ae431d14");
    ("zero-bias-0 zspec wire",
     "4S 8D 8N cloned 84 elim 11 asm 7c747a39c3cbaeb980f35bfa57252615 outcomes 17fbb25e2019594fe606c556ae431d14");
    ("zero-bias-1 vrs",
     "5S 10D 5N cloned 54 elim 20 asm 6d110450dd9ab2515e9d1e3ffa86f5b2 outcomes d66ad7de8d88f85fa96dfc9df7591bff");
    ("zero-bias-1 vrs wire",
     "5S 10D 5N cloned 54 elim 20 asm 6d110450dd9ab2515e9d1e3ffa86f5b2 outcomes d66ad7de8d88f85fa96dfc9df7591bff");
    ("zero-bias-1 zspec",
     "3S 5D 12N cloned 12 elim 2 asm db17f4d97a8afbec9b0146bcd5b3d2ec outcomes a72135d33a6feb8470744b6b3ffe5714");
    ("zero-bias-1 zspec wire",
     "3S 5D 12N cloned 12 elim 2 asm db17f4d97a8afbec9b0146bcd5b3d2ec outcomes a72135d33a6feb8470744b6b3ffe5714");
    ("zero-bias-2 vrs",
     "7S 25D 6N cloned 193 elim 32 asm 0a6287645bac8301ed6565ab0e6a252b outcomes 769b162a0e8ac1f76e8d7af924004cdd");
    ("zero-bias-2 vrs wire",
     "7S 25D 6N cloned 193 elim 32 asm 0a6287645bac8301ed6565ab0e6a252b outcomes 769b162a0e8ac1f76e8d7af924004cdd");
    ("zero-bias-2 zspec",
     "6S 18D 14N cloned 137 elim 11 asm 36dbdd1ede957e79163abbaf0a1d77a5 outcomes 0901c8a91db6866f549fb923d53b1acc");
    ("zero-bias-2 zspec wire",
     "6S 18D 14N cloned 137 elim 11 asm 36dbdd1ede957e79163abbaf0a1d77a5 outcomes 0901c8a91db6866f549fb923d53b1acc");
    ("zero-bias-3 vrs",
     "1S 2D 3N cloned 4 elim 1 asm 12e2f3c707d28fb199204df4d6f860ab outcomes 2576b33010bbddc8b356942b6a07cd86");
    ("zero-bias-3 vrs wire",
     "1S 2D 3N cloned 4 elim 1 asm 12e2f3c707d28fb199204df4d6f860ab outcomes 2576b33010bbddc8b356942b6a07cd86");
    ("zero-bias-3 zspec",
     "1S 2D 3N cloned 4 elim 1 asm 12e2f3c707d28fb199204df4d6f860ab outcomes 2576b33010bbddc8b356942b6a07cd86");
    ("zero-bias-3 zspec wire",
     "1S 2D 3N cloned 4 elim 1 asm 12e2f3c707d28fb199204df4d6f860ab outcomes 2576b33010bbddc8b356942b6a07cd86");
    ("zero-bias-4 vrs",
     "6S 20D 1N cloned 277 elim 22 asm a09cd00fb88ca5170a39738e51f0a9d9 outcomes a78f4ea3fe7228e1c3bfa0ec05497014");
    ("zero-bias-4 vrs wire",
     "6S 20D 1N cloned 277 elim 22 asm a09cd00fb88ca5170a39738e51f0a9d9 outcomes a78f4ea3fe7228e1c3bfa0ec05497014");
    ("zero-bias-4 zspec",
     "5S 20D 2N cloned 244 elim 14 asm fccbe38dd4641d202155e33acfbf094b outcomes 6db07b026cf3bfa0b3b82378ec155d05");
    ("zero-bias-4 zspec wire",
     "5S 20D 2N cloned 244 elim 14 asm fccbe38dd4641d202155e33acfbf094b outcomes 6db07b026cf3bfa0b3b82378ec155d05");
    ("zero-bias-5 vrs",
     "3S 10D 2N cloned 19 elim 5 asm 164ed5253de6a0917a85b9b5a3d0de95 outcomes 1e96f62865865fa29a3d55f895acb1a9");
    ("zero-bias-5 vrs wire",
     "3S 10D 2N cloned 19 elim 5 asm 164ed5253de6a0917a85b9b5a3d0de95 outcomes 1e96f62865865fa29a3d55f895acb1a9");
    ("zero-bias-5 zspec",
     "3S 2D 10N cloned 6 elim 1 asm e801c71257e1f3265ccd12d79411efcd outcomes e84693e0fa62c8ab0e721ded4bcefa02");
    ("zero-bias-5 zspec wire",
     "3S 2D 10N cloned 6 elim 1 asm e801c71257e1f3265ccd12d79411efcd outcomes e84693e0fa62c8ab0e721ded4bcefa02");
    ("zero-bias-6 vrs",
     "6S 8D 1N cloned 43 elim 17 asm 7ede71fe5956da918cb816353f0d0f59 outcomes 1a87a210db758ef689ef79df6106a32e");
    ("zero-bias-6 vrs wire",
     "6S 8D 1N cloned 43 elim 17 asm 7ede71fe5956da918cb816353f0d0f59 outcomes 1a87a210db758ef689ef79df6106a32e");
    ("zero-bias-6 zspec",
     "6S 7D 2N cloned 48 elim 22 asm c00a7c0b3736d6767a0b9c560b11066b outcomes e49e71d80f8c730e254ea0f19d4e8cb7");
    ("zero-bias-6 zspec wire",
     "6S 7D 2N cloned 48 elim 22 asm c00a7c0b3736d6767a0b9c560b11066b outcomes e49e71d80f8c730e254ea0f19d4e8cb7");
    ("zero-bias-7 vrs",
     "7S 10D 10N cloned 70 elim 7 asm 7861dd605b70ce119319e17db2f3a93f outcomes 825f1671856846467dcc4f2cf722ff0b");
    ("zero-bias-7 vrs wire",
     "7S 10D 10N cloned 70 elim 7 asm 7861dd605b70ce119319e17db2f3a93f outcomes 825f1671856846467dcc4f2cf722ff0b");
    ("zero-bias-7 zspec",
     "6S 3D 18N cloned 56 elim 3 asm ad31ad83a68bfae7b60657db640cb8b5 outcomes 2cce606eec9f2b95cbd03c4e458b4229");
    ("zero-bias-7 zspec wire",
     "6S 5D 16N cloned 50 elim 3 asm d9cad5229fc6fea25427fff5b87ea3c4 outcomes 7a48e0dc5871cb4cb608ff342cbb21af")
  ]

let test_pinned () =
  let rows = pin_rows () in
  Alcotest.(check (list string)) "pinned rows" (List.map fst pinned)
    (List.map fst rows);
  List.iter2
    (fun (key, want) (_, got) -> Alcotest.(check string) key want got)
    pinned rows

(* --- the service's VRS chain at a profile epoch ------------------------- *)

let vrs_request src =
  match
    Protocol.op_of_json
      (J.Obj
         [ ("source", J.Str src); ("pass", J.Str "vrs"); ("cost", J.Int 50);
           ("input", J.Str "train") ])
  with
  | Protocol.Analyze r -> r
  | _ -> Alcotest.fail "not an analyze request"

(* What [ogc submit --push-profile auto] pushes: the client's own
   train-input run, arriving as the program's first epoch. *)
let auto_wire src =
  let wire = Profile.collect (train (Minic.compile src)) in
  wire.Profile.p_epoch <- 1;
  wire

(* The pushed profile replaces the training runs exactly and the chain
   is the same five passes, so the respecialized answer is the epoch-0
   answer byte for byte. *)
let test_auto_push_reproduces_epoch0 () =
  List.iter
    (fun (name, src) ->
      let req = vrs_request src in
      let answer ?wire () =
        J.to_string ~indent:false (Protocol.analyze ?wire req)
      in
      Alcotest.(check string) name (answer ()) (answer ~wire:(auto_wire src) ()))
    (List.filter
       (fun (name, _) ->
         List.mem name [ "zerospec.mc"; "dotprod.mc"; "m88ksim" ]
         || String.starts_with ~prefix:"zero-bias-" name)
       pin_inputs)

(* With a wire profile the only interpreter runs left in a VRS analysis
   are its two simulations. *)
let test_wire_interprets_only_to_simulate () =
  let src = List.assoc "zerospec.mc" pin_inputs in
  let req = vrs_request src and wire = auto_wire src in
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () -> ignore (Protocol.analyze ~wire req));
  let interps =
    match J.member "traceEvents" (Span.export ()) with
    | J.Arr evs ->
      List.length
        (List.filter
           (fun e ->
             J.member "name" e = J.Str "interp" && J.member "ph" e = J.Str "B")
           evs)
    | _ -> Alcotest.fail "no traceEvents"
  in
  Span.reset ();
  Alcotest.(check int) "interp spans" 2 interps

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "zspec"
    [
      ( "equivalence",
        [
          qt prop_zspec_equivalent;
          Alcotest.test_case "zero-bias makes guards fire" `Quick
            test_guards_fire;
        ] );
      ( "pin",
        [
          Alcotest.test_case "vrs and zspec outputs are byte-identical" `Quick
            test_pinned;
        ] );
      ( "energy",
        [
          Alcotest.test_case "strictly cheaper when the zero path is taken"
            `Quick test_strictly_cheaper_on_zero_path;
        ] );
      ( "service",
        [
          Alcotest.test_case "an auto push reproduces the epoch-0 answer"
            `Quick test_auto_push_reproduces_epoch0;
          Alcotest.test_case "a wire VRS request interprets only to simulate"
            `Quick test_wire_interprets_only_to_simulate;
        ] );
    ]
