(* Use-def chains and the dead-code elimination built on them.

   [Usedef.compute] is checked against a naive reference that answers
   every use by walking the CFG backward to the nearest definitions of
   its register, on raw IR and on generated MiniC before and after
   register allocation and after VRS/zspec cloning.  [Constprop.dce],
   which builds the chains once per function, is checked against the
   per-round algorithm it replaced, which rebuilt them every round. *)

open Ogc_isa
open Ogc_ir
module Minic = Ogc_minic.Minic
module Gen_minic = Ogc_fuzz.Gen_minic
module Gen_ir = Ogc_fuzz.Gen_ir
module Vrp = Ogc_core.Vrp
module Constprop = Ogc_core.Constprop
module Pass = Ogc_pass.Pass

(* --- the naive reference ----------------------------------------------- *)

type reference = {
  r_defs : Usedef.def array;
  r_defs_of : (int, int list) Hashtbl.t;  (* iid -> defs, latest first *)
  r_sites : (int * Reg.t * int list) list;  (* every use site in walk order *)
  r_uses : (int * Reg.t) list array;  (* def -> use sites, latest first *)
}

let term_uses = function
  | Prog.Branch { src; _ } -> [ src ]
  | Prog.Return -> [ Reg.ret ]
  | Prog.Jump _ -> []

(* Defs are numbered as the kernel documents: the entry pseudo-def of
   each architectural register, then every body instruction's defs in
   block, instruction and [Instr.defs] order.  A use reads the defs of
   its register found by scanning backward from it: the nearest def in
   its block, else the last def in each predecessor (transitively, each
   block scanned once), plus the entry pseudo-def wherever the scan
   reaches the top of the entry block. *)
let reference (f : Prog.func) =
  let cfg = Cfg.of_func f in
  let defs = ref [] and nd = ref 0 in
  let push d =
    defs := d :: !defs;
    incr nd;
    !nd - 1
  in
  let entry =
    List.map (fun r -> (r, push { Usedef.dreg = r; site = Entry })) Reg.all
  in
  let defs_at = Hashtbl.create 64 in
  Prog.iter_ins f (fun _ ins ->
      Hashtbl.replace defs_at ins.iid
        (List.map
           (fun r -> (r, push { Usedef.dreg = r; site = At ins.iid }))
           (Instr.defs ins.op)));
  let r_defs = Array.of_list (List.rev !defs) in
  let r_defs_of = Hashtbl.create 64 in
  Hashtbl.iter
    (fun iid ds -> Hashtbl.replace r_defs_of iid (List.rev_map snd ds))
    defs_at;
  let def_of (ins : Prog.ins) r =
    List.find_map
      (fun (r', di) -> if Reg.equal r r' then Some di else None)
      (Hashtbl.find defs_at ins.iid)
  in
  (* [scanned.(b) = q]: query [q] has scanned block [b] *)
  let scanned = Array.make (Array.length f.blocks) (-1) and query = ref 0 in
  let reach bi i r =
    let found = ref [] in
    incr query;
    let rec scan b j =
      if j = 0 then begin
        (if b = 0 then
           match List.assoc_opt r entry with
           | Some di -> found := di :: !found
           | None -> ());
        List.iter
          (fun p ->
            let p = Label.to_int p in
            if scanned.(p) <> !query then begin
              scanned.(p) <- !query;
              scan p (Array.length f.blocks.(p).body)
            end)
          (Cfg.preds cfg (Label.of_int b))
      end
      else
        match def_of f.blocks.(b).body.(j - 1) r with
        | Some di -> found := di :: !found
        | None -> scan b (j - 1)
    in
    scan bi i;
    List.sort_uniq compare !found
  in
  let sites = ref [] in
  Array.iteri
    (fun bi (b : Prog.block) ->
      Array.iteri
        (fun i (ins : Prog.ins) ->
          List.iter
            (fun r -> sites := (ins.iid, r, reach bi i r) :: !sites)
            (Instr.uses ins.op))
        b.body;
      List.iter
        (fun r ->
          sites := (b.term_iid, r, reach bi (Array.length b.body) r) :: !sites)
        (term_uses b.term))
    f.blocks;
  let r_sites = List.rev !sites in
  let r_uses = Array.make !nd [] in
  List.iter
    (fun (iid, r, ds) ->
      List.iter (fun di -> r_uses.(di) <- (iid, r) :: r_uses.(di)) ds)
    r_sites;
  { r_defs; r_defs_of; r_sites; r_uses }

let ref_dependents rf iid =
  let seen = Hashtbl.create 64 in
  let defs_of iid =
    Option.value ~default:[] (Hashtbl.find_opt rf.r_defs_of iid)
  in
  let rec expand di =
    List.iter
      (fun (use_iid, _) ->
        if not (Hashtbl.mem seen use_iid) then begin
          Hashtbl.replace seen use_iid ();
          List.iter expand (defs_of use_iid)
        end)
      rf.r_uses.(di)
  in
  List.iter expand (defs_of iid);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let all_iids (f : Prog.func) =
  Array.to_list f.blocks
  |> List.concat_map (fun (b : Prog.block) ->
         b.term_iid
         :: List.map (fun (i : Prog.ins) -> i.iid) (Array.to_list b.body))

let pp_ints l = String.concat ";" (List.map string_of_int l)

(* Every query of [Usedef.compute f] against the reference, lists in
   order. *)
let same_as_reference ~what (f : Prog.func) =
  let ud = Usedef.compute f (Cfg.of_func f) in
  let rf = reference f in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failwith (what ^ ", function " ^ f.fname ^ ": " ^ msg))
      fmt
  in
  let nd = Array.length rf.r_defs in
  if Usedef.num_defs ud <> nd then
    fail "num_defs %d, reference %d" (Usedef.num_defs ud) nd
  else begin
    Array.iteri
      (fun di d -> if Usedef.def ud di <> d then fail "def %d differs" di)
      rf.r_defs;
    let iids = all_iids f in
    let absent = 1 + List.fold_left max 0 iids in
    let read = Hashtbl.create 64 in
    List.iter (fun (iid, r, _) -> Hashtbl.add read iid r) rf.r_sites;
    List.iter
      (fun iid ->
        let want =
          Option.value ~default:[] (Hashtbl.find_opt rf.r_defs_of iid)
        in
        let got = Usedef.defs_of_ins ud iid in
        if got <> want then
          fail "defs_of_ins %d: [%s], reference [%s]" iid (pp_ints got)
            (pp_ints want);
        (* a register the instruction does not read has no reaching defs *)
        List.iter
          (fun r ->
            if
              (not (List.mem r (Hashtbl.find_all read iid)))
              && Usedef.reaching_uses ud ~use_iid:iid ~reg:r <> []
            then fail "reaching_uses %d r%d: not a use" iid (Reg.to_int r))
          Reg.all)
      (absent :: iids);
    List.iter
      (fun (iid, r, want) ->
        let got = Usedef.reaching_uses ud ~use_iid:iid ~reg:r in
        if got <> want then
          fail "reaching_uses %d r%d: [%s], reference [%s]" iid (Reg.to_int r)
            (pp_ints got) (pp_ints want))
      rf.r_sites;
    Array.iteri
      (fun di want ->
        if Usedef.uses_of_def ud di <> want then
          fail "uses_of_def %d differs" di)
      rf.r_uses;
    List.iter
      (fun iid ->
        let got =
          List.sort compare
            (Hashtbl.fold
               (fun k () acc -> k :: acc)
               (Usedef.dependents ud ~iid) [])
        in
        if got <> ref_dependents rf iid then fail "dependents %d differ" iid)
      iids
  end

let program_as_reference ~what (p : Prog.t) =
  match List.iter (same_as_reference ~what) p.funcs with
  | () -> true
  | exception Failure msg -> QCheck.Test.fail_report msg

(* --- program sources --------------------------------------------------- *)

let families =
  [ ("plain", Gen_minic.program); ("pressure", Gen_minic.pressure_program);
    ("zero", Gen_minic.zero_program) ]

let arbitrary_family_program =
  QCheck.make
    ~print:(fun (fam, src) -> fam ^ " program:\n" ^ src)
    QCheck.Gen.(
      oneofl families >>= fun (fam, g) -> map (fun src -> (fam, src)) g)

let prop_kernel_minic =
  QCheck.Test.make ~name:"usedef == backward walk on generated MiniC" ~count:45
    arbitrary_family_program (fun (fam, src) ->
      match Minic.lower src with
      | exception Minic.Error _ -> true
      | lowered ->
        program_as_reference ~what:(fam ^ " pre-allocation") lowered
        && program_as_reference ~what:(fam ^ " allocated") (Minic.compile src))

let prop_kernel_ir =
  QCheck.Test.make ~name:"usedef == backward walk on generated raw IR" ~count:60
    Gen_ir.arbitrary_program (program_as_reference ~what:"raw IR")

(* Cloned code is checked on a fixed sample, the first [per_family]
   programs of each family from a fixed generator state, rather than a
   fresh draw per run.  Cloning can multiply a generated function many
   times over: one 436-instruction program grows a 30,171-instruction
   [main] under [vrs:cost=30], and about one draw in 2,000 keeps the
   chain alone busy for half a minute, so a random sample has no bound
   on its cost. *)
let per_family = 15

let clone_chains =
  [ "vrp,encode-widths,bb-profile,value-profile,vrs:cost=30";
    "vrp,encode-widths,bb-profile,value-profile,zspec:cost=30" ]

let test_kernel_cloned () =
  let specialized = ref 0 in
  List.iteri
    (fun k (fam, gen) ->
      for i = 0 to per_family - 1 do
        let src = gen (Random.State.make [| 42; k; i |]) in
        match Minic.compile src with
        | exception Minic.Error _ -> ()
        | p ->
          List.iter
            (fun chain ->
              let st, _ = Pass.run chain (Prog.copy p) in
              (match st.Pass.report with
              | Some r when Ogc_core.Vrs.specialized_count r > 0 ->
                incr specialized
              | Some _ | None -> ());
              let what = Printf.sprintf "%s program %d after %s" fam i chain in
              match List.iter (same_as_reference ~what) st.Pass.prog.funcs with
              | () -> ()
              | exception Failure msg -> Alcotest.fail (msg ^ "\n" ^ src))
            clone_chains
      done)
    families;
  Alcotest.(check bool) "some sampled program was specialized" true
    (!specialized > 0)

(* --- the one-pass DCE -------------------------------------------------- *)

(* The per-round algorithm [Constprop.dce] replaced: rebuild the chains
   every round, remove every pure instruction none of whose defs is used,
   stop after a round that removes nothing or after 10 rounds. *)
let is_pure = function
  | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _
  | Instr.Li _ | Instr.La _ | Instr.Load _ -> true
  | Instr.Store _ | Instr.Call _ | Instr.Emit _ -> false

let is_restore_load (ins : Prog.ins) =
  match ins.op with
  | Instr.Load { base; offset; width = Width.W64; dst; _ } ->
    Reg.equal base Reg.sp
    && Int64.compare offset 0L >= 0
    && List.exists (Reg.equal dst) Reg.callee_saved
  | _ -> false

let reference_dce (f : Prog.func) =
  let removed = ref [] in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    let ud = Usedef.compute f (Cfg.of_func f) in
    Array.iter
      (fun (b : Prog.block) ->
        let keep =
          Array.to_list b.body
          |> List.filter (fun (ins : Prog.ins) ->
                 let dead =
                   is_pure ins.op
                   && (not (is_restore_load ins))
                   && (not
                         (List.exists
                            (fun r -> Reg.equal r Reg.sp || Reg.equal r Reg.ret)
                            (Instr.defs ins.op)))
                   && List.for_all
                        (fun di -> Usedef.uses_of_def ud di = [])
                        (Usedef.defs_of_ins ud ins.iid)
                   && Usedef.defs_of_ins ud ins.iid <> []
                 in
                 if dead then begin
                   removed := ins.iid :: !removed;
                   changed := true
                 end;
                 not dead)
        in
        if List.length keep <> Array.length b.body then
          b.body <- Array.of_list keep)
      f.blocks
  done;
  !removed

(* Instructions removed over the sample, so a case can assert the
   comparison saw dead code. *)
let dce_removed = ref 0

let same_dce ~what (p : Prog.t) =
  let mine = Prog.copy p and theirs = Prog.copy p in
  let removed = List.map Constprop.dce mine.funcs in
  let expected = List.map reference_dce theirs.funcs in
  dce_removed := !dce_removed + List.length (List.concat removed);
  (removed = expected
  || QCheck.Test.fail_reportf "%s: removed [%s], reference [%s]" what
       (pp_ints (List.concat removed)) (pp_ints (List.concat expected)))
  && (String.equal (Asm.to_string mine) (Asm.to_string theirs)
     || QCheck.Test.fail_reportf "%s: programs differ after DCE" what)

let after_vrp p =
  ignore (Vrp.run p);
  p

let prop_dce_minic =
  QCheck.Test.make ~name:"one-pass dce == per-round dce on generated MiniC"
    ~count:60 arbitrary_family_program (fun (fam, src) ->
      match Minic.lower src with
      | exception Minic.Error _ -> true
      | lowered ->
        same_dce ~what:(fam ^ " pre-allocation") lowered
        && same_dce ~what:(fam ^ " allocated, after vrp")
             (after_vrp (Minic.compile src)))

let prop_dce_ir =
  QCheck.Test.make ~name:"one-pass dce == per-round dce on generated raw IR"
    ~count:60 Gen_ir.arbitrary_program (fun p ->
      same_dce ~what:"raw IR, after vrp" (after_vrp p))

let test_dce_exercised () =
  Alcotest.(check bool) "the sample had dead code" true (!dce_removed > 0)

(* A 12-deep chain of dead adds: each round removes only its current
   tail, so after the 10-round cap the first two adds remain. *)
let dead_chain () =
  let counter = ref 0 in
  let fresh_iid () =
    incr counter;
    !counter
  in
  let b = Builder.create ~fresh_iid ~fname:"chain" ~arity:1 in
  let l0 = Builder.new_block b in
  Builder.switch_to b l0;
  let iids =
    List.init 12 (fun i ->
        Builder.ins b
          (Instr.Alu
             { op = Instr.Add; width = Width.W64; src1 = Reg.of_int (1 + i);
               src2 = Instr.Imm 1L; dst = Reg.of_int (2 + i) }))
  in
  Builder.terminate b Prog.Return;
  (Builder.finish b ~frame_size:0, iids)

let test_dce_round_cap () =
  let f, iids = dead_chain () in
  let g, _ = dead_chain () in
  let removed = Constprop.dce f in
  Alcotest.(check (list int)) "ten rounds, the last removed first"
    (List.filteri (fun i _ -> i >= 2) iids)
    removed;
  Alcotest.(check (list int)) "same as the per-round algorithm"
    (reference_dce g) removed;
  let left (f : Prog.func) =
    Array.map (fun (i : Prog.ins) -> i.iid) f.blocks.(0).body
  in
  Alcotest.(check (array int)) "the first two adds remain"
    (Array.of_list (List.filteri (fun i _ -> i < 2) iids))
    (left f);
  Alcotest.(check (array int)) "the reference keeps the same two" (left f)
    (left g)

let () =
  Alcotest.run "usedef"
    [ ("kernel",
       List.map QCheck_alcotest.to_alcotest
         [ prop_kernel_minic; prop_kernel_ir ]
       @ [ Alcotest.test_case "after vrs/zspec cloning" `Quick
             test_kernel_cloned ]);
      ("dce",
       List.map QCheck_alcotest.to_alcotest [ prop_dce_minic; prop_dce_ir ]
       @ [ Alcotest.test_case "dead code exercised" `Quick test_dce_exercised;
           Alcotest.test_case "ten-round cap" `Quick test_dce_round_cap ]) ]
