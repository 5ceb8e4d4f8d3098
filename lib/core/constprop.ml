open Ogc_isa
open Ogc_ir

type stats = {
  folded_to_const : int;
  folded_operands : int;
  folded_branches : int;
  removed : int;
  removed_iids : int list;
}

(* Immediates in operate instructions are halfword-sized, as in the code
   generator. *)
let fits_imm v = Int64.compare v (-32768L) >= 0 && Int64.compare v 32767L <= 0

let const_of res iid =
  match Vrp.range_of res iid with
  | Some rng -> Interval.is_const rng
  | None -> None

(* The range of [src] at the end of [b]'s body, when determined by a def
   inside the block. *)
let const_at_block_end res (b : Prog.block) src =
  let n = Array.length b.body in
  let rec last_def i =
    if i < 0 then None
    else if List.exists (Reg.equal src) (Instr.defs b.body.(i).op) then Some i
    else last_def (i - 1)
  in
  match last_def (n - 1) with
  | None -> None
  | Some i -> (
    match b.body.(i).op with
    | Instr.Call _ -> None
    | _ -> const_of res b.body.(i).iid)

let fold_instructions res (f : Prog.func) stats =
  Prog.iter_ins f (fun _ ins ->
      match ins.op with
      | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _
        -> (
        match const_of res ins.iid with
        | Some c ->
          let dst =
            match Instr.defs ins.op with [ d ] -> Some d | _ -> None
          in
          (match dst with
          | Some dst ->
            ins.op <- Instr.Li { dst; imm = c };
            stats := { !stats with folded_to_const = !stats.folded_to_const + 1 }
          | None -> ())
        | None -> (
          (* Fold a constant register operand into an immediate. *)
          match (ins.op, Vrp.input_ranges_of res ins.iid) with
          | Instr.Alu ({ src2 = Instr.Reg _; _ } as r), Some (_, brng) -> (
            match Interval.is_const brng with
            | Some c when fits_imm c ->
              ins.op <- Instr.Alu { r with src2 = Instr.Imm c };
              stats :=
                { !stats with folded_operands = !stats.folded_operands + 1 }
            | Some _ | None -> ())
          | Instr.Cmp ({ src2 = Instr.Reg _; _ } as r), Some (_, brng) -> (
            match Interval.is_const brng with
            | Some c when fits_imm c ->
              ins.op <- Instr.Cmp { r with src2 = Instr.Imm c };
              stats :=
                { !stats with folded_operands = !stats.folded_operands + 1 }
            | Some _ | None -> ())
          | _ -> ()))
      | Instr.Li _ | Instr.La _ | Instr.Load _ | Instr.Store _ | Instr.Call _
      | Instr.Emit _ -> ())

let fold_branches res (f : Prog.func) stats =
  Array.iter
    (fun (b : Prog.block) ->
      match b.term with
      | Prog.Branch { cond; src; if_true; if_false } -> (
        let known =
          if Reg.equal src Reg.zero then Some 0L
          else const_at_block_end res b src
        in
        match known with
        | Some v ->
          let target = if Instr.eval_cond cond v then if_true else if_false in
          b.term <- Prog.Jump target;
          stats := { !stats with folded_branches = !stats.folded_branches + 1 }
        | None -> ())
      | Prog.Jump _ | Prog.Return -> ())
    f.blocks

let is_pure = function
  | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _
  | Instr.Li _ | Instr.La _ | Instr.Load _ -> true
  | Instr.Store _ | Instr.Call _ | Instr.Emit _ -> false

(* Remove pure instructions none of whose definitions are ever used.  The
   stack pointer and the return-value register are live across function
   boundaries and never removable; neither are the epilogue loads that
   restore callee-saved registers from the callee-save area — they have no
   in-function uses but implement the calling convention.  The check is
   structural (a 64-bit sp-relative load of a callee-saved register), not
   positional: VRS may split the epilogue block, leaving the restores in a
   block that no longer ends in Return, and the register allocator places
   the callee-save area above a frame's spill slots, so no fixed offset
   window identifies it.  The conservatism costs at most a dead spill
   reload whose slot was colored callee-saved.  Other defs of callee-saved
   registers are removable because the allocator always restores every
   callee-saved register it uses. *)
let is_restore_load (ins : Prog.ins) =
  match ins.op with
  | Instr.Load { base; offset; width = Width.W64; dst; _ } ->
    Reg.equal base Reg.sp
    && Int64.compare offset 0L >= 0
    && List.exists (Reg.equal dst) Reg.callee_saved
  | _ -> false

(* The chains are built once per function.  Removing a def that reaches
   no use never changes which defs reach a remaining use (a path through
   it to a use of its register would have made it reach that use), so a
   round's chains are the first round's minus the use sites of the
   instructions already removed.  [live.(d)] counts the use sites of def
   [d] still present; a round decides on the counts frozen at its start
   and only then retires its victims' uses, so it removes exactly what
   rebuilding the chains for it would have. *)
let dce (f : Prog.func) =
  let ud = Usedef.compute f (Cfg.of_func f) in
  let live =
    Array.init (Usedef.num_defs ud) (fun di ->
        List.length (Usedef.uses_of_def ud di))
  in
  let dead (ins : Prog.ins) =
    is_pure ins.op
    && (not (is_restore_load ins))
    && (not
          (List.exists
             (fun r -> Reg.equal r Reg.sp || Reg.equal r Reg.ret)
             (Instr.defs ins.op)))
    &&
    match Usedef.defs_of_ins ud ins.iid with
    | [] -> false
    | ds -> List.for_all (fun di -> live.(di) = 0) ds
  in
  let retire (ins : Prog.ins) =
    List.iter
      (fun r ->
        List.iter
          (fun di -> live.(di) <- live.(di) - 1)
          (Usedef.reaching_uses ud ~use_iid:ins.iid ~reg:r))
      (Instr.uses ins.op)
  in
  let rec round n removed =
    if n = 10 then removed
    else begin
      let victims = ref [] in
      Array.iter
        (fun (b : Prog.block) ->
          let keep =
            List.filter
              (fun ins ->
                let d = dead ins in
                if d then victims := ins :: !victims;
                not d)
              (Array.to_list b.body)
          in
          if List.length keep <> Array.length b.body then
            b.body <- Array.of_list keep)
        f.blocks;
      match !victims with
      | [] -> removed
      | vs ->
        List.iter retire vs;
        round (n + 1) (List.map (fun (ins : Prog.ins) -> ins.iid) vs @ removed)
    end
  in
  round 0 []

let run res (p : Prog.t) =
  let stats =
    ref
      {
        folded_to_const = 0;
        folded_operands = 0;
        folded_branches = 0;
        removed = 0;
        removed_iids = [];
      }
  in
  List.iter
    (fun f ->
      fold_instructions res f stats;
      fold_branches res f stats;
      let removed = dce f in
      stats :=
        {
          !stats with
          removed = !stats.removed + List.length removed;
          removed_iids = removed @ !stats.removed_iids;
        })
    p.funcs;
  !stats
