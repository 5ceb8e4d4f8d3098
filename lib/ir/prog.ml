open Ogc_isa

type ins = { iid : int; mutable op : Instr.t }

type terminator =
  | Jump of Label.t
  | Branch of {
      cond : Instr.cond;
      src : Reg.t;
      if_true : Label.t;
      if_false : Label.t;
    }
  | Return

type block = {
  label : Label.t;
  mutable body : ins array;
  mutable term : terminator;
  term_iid : int;
}

type func = {
  fname : string;
  arity : int;
  mutable blocks : block array;
  frame_size : int;
}

type global = { gname : string; init : Bytes.t }

type t = {
  mutable funcs : func list;
  globals : global list;
  mutable next_iid : int;
}

let max_iid_of_func f =
  Array.fold_left
    (fun acc b ->
      let acc = max acc b.term_iid in
      Array.fold_left (fun acc ins -> max acc ins.iid) acc b.body)
    0 f.blocks

let max_reg_of_func f =
  let m = ref (Reg.num_arch - 1) in
  let see r = if Reg.to_int r > !m then m := Reg.to_int r in
  Array.iter
    (fun b ->
      Array.iter
        (fun ins ->
          List.iter see (Instr.defs ins.op);
          List.iter see (Instr.uses ins.op))
        b.body;
      match b.term with Branch { src; _ } -> see src | Jump _ | Return -> ())
    f.blocks;
  !m

let max_reg t =
  List.fold_left (fun a f -> max a (max_reg_of_func f)) (Reg.num_arch - 1) t.funcs

let create ?(globals = []) funcs =
  let next = 1 + List.fold_left (fun a f -> max a (max_iid_of_func f)) 0 funcs in
  { funcs; globals; next_iid = next }

let fresh_iid t =
  let i = t.next_iid in
  t.next_iid <- i + 1;
  i

let copy t =
  let copy_block b =
    { b with body = Array.map (fun (i : ins) -> { i with op = i.op }) b.body }
  in
  {
    funcs =
      List.map (fun f -> { f with blocks = Array.map copy_block f.blocks }) t.funcs;
    globals = List.map (fun g -> { g with init = Bytes.copy g.init }) t.globals;
    next_iid = t.next_iid;
  }

let find_func t name = List.find (fun f -> String.equal f.fname name) t.funcs
let find_func_opt t name =
  List.find_opt (fun f -> String.equal f.fname name) t.funcs

let find_global t name =
  List.find_opt (fun g -> String.equal g.gname name) t.globals

let block f l = f.blocks.(Label.to_int l)

let append_block f ~body ~term ~term_iid =
  let label = Label.of_int (Array.length f.blocks) in
  let b = { label; body; term; term_iid } in
  f.blocks <- Array.append f.blocks [| b |];
  label

let iter_blocks f k = Array.iter k f.blocks

let iter_ins f k =
  iter_blocks f (fun b -> Array.iter (fun ins -> k b ins) b.body)

let iter_all_ins t k =
  List.iter (fun f -> iter_ins f (fun b ins -> k f b ins)) t.funcs

let num_static_ins t =
  List.fold_left
    (fun acc f ->
      Array.fold_left (fun acc b -> acc + Array.length b.body + 1) acc f.blocks)
    0 t.funcs

let static_widths t =
  let h = Hashtbl.create 4 in
  iter_all_ins t (fun _ _ ins ->
      let w = Instr.width ins.op in
      Hashtbl.replace h w (1 + Option.value ~default:0 (Hashtbl.find_opt h w)));
  List.map
    (fun w -> (w, Option.value ~default:0 (Hashtbl.find_opt h w)))
    Width.all

let ins_table t =
  let tbl = Hashtbl.create 1024 in
  iter_all_ins t (fun f b ins -> Hashtbl.replace tbl ins.iid (f, b, ins));
  tbl

let pp_terminator ppf = function
  | Jump l -> Format.fprintf ppf "jump %a" Label.pp l
  | Branch { cond; src; if_true; if_false } ->
    Format.fprintf ppf "b%s %a, %a, %a"
      (match cond with
      | Instr.Eq -> "eq"
      | Instr.Ne -> "ne"
      | Instr.Lt -> "lt"
      | Instr.Le -> "le"
      | Instr.Gt -> "gt"
      | Instr.Ge -> "ge")
      Reg.pp src Label.pp if_true Label.pp if_false
  | Return -> Format.pp_print_string ppf "ret"

let pp_func ppf f =
  Format.fprintf ppf "func %s(%d) frame=%d@\n" f.fname f.arity f.frame_size;
  Array.iter
    (fun b ->
      Format.fprintf ppf "%a:@\n" Label.pp b.label;
      Array.iter
        (fun ins -> Format.fprintf ppf "  [%4d] %a@\n" ins.iid Instr.pp ins.op)
        b.body;
      Format.fprintf ppf "  [%4d] %a@\n" b.term_iid pp_terminator b.term)
    f.blocks

let pp ppf t =
  List.iter
    (fun (g : global) ->
      Format.fprintf ppf "global %s : %d bytes@\n" g.gname (Bytes.length g.init))
    t.globals;
  List.iter (fun f -> Format.fprintf ppf "@\n%a" pp_func f) t.funcs
