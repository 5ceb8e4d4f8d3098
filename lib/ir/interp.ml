open Ogc_isa
module Free_list = Ogc_exec.Free_list
module Span = Ogc_obs.Span

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

type config = { mem_size : int; max_steps : int }

let default_config = { mem_size = 4 * 1024 * 1024; max_steps = 100_000_000 }

type event =
  | E_ins of {
      iid : int;
      op : Instr.t;
      a : int64;
      b : int64;
      result : int64;
      addr : int64;
    }
  | E_branch of { iid : int; taken : bool; value : int64; reg : Reg.t }
  | E_jump of { iid : int }
  | E_return of { iid : int }

type outcome = { checksum : int64; emitted : int64 list; steps : int }

type bb_counts = (string, int array) Hashtbl.t

let count_of (c : bb_counts) fname l =
  match Hashtbl.find_opt c fname with
  | None -> 0
  | Some a ->
    let i = Label.to_int l in
    if i < Array.length a then a.(i) else 0

(* 2^33 + 2^30: data and stack addresses need 33-40 bits, as on Alpha. *)
let virtual_base = 0x2_4000_0000L

let global_addresses (p : Prog.t) =
  let addr = ref (Int64.add virtual_base 4096L) in
  List.map
    (fun (g : Prog.global) ->
      let a = !addr in
      let size = Bytes.length g.init in
      let aligned = (size + 7) / 8 * 8 in
      addr := Int64.add !addr (Int64.of_int (aligned + 8));
      (g.gname, a))
    p.globals

let address_of_global p name =
  match List.assoc_opt name (global_addresses p) with
  | Some a -> a
  | None -> fault "unknown global %s" name

let max_emitted_kept = 64

(* Flat memories are reused across runs.  A run marks each 64 KiB page
   it writes (the global images, then both end pages of every store,
   which cover it: no store is wider than a page) and zeroes exactly
   the marked pages when it ends, however it ends, so every run starts
   from all-zero memory without clearing or allocating [mem_size]
   bytes. *)
let page_bits = 16

type memory = {
  bytes : Bytes.t;
  marked : Bytes.t;  (* one byte per page, ['\001'] once written *)
  dirty : int array;  (* the marked pages, in its first [ndirty] slots *)
  mutable ndirty : int;
}

let memories : memory Free_list.t = Free_list.create ()

let new_memory size =
  let pages = (size + (1 lsl page_bits) - 1) lsr page_bits in
  { bytes = Bytes.make size '\000';
    marked = Bytes.make pages '\000';
    dirty = Array.make pages 0;
    ndirty = 0 }

let mark m page =
  if Bytes.get m.marked page = '\000' then begin
    Bytes.set m.marked page '\001';
    m.dirty.(m.ndirty) <- page;
    m.ndirty <- m.ndirty + 1
  end

let wipe m =
  let size = Bytes.length m.bytes in
  for k = 0 to m.ndirty - 1 do
    let page = m.dirty.(k) in
    let a = page lsl page_bits in
    Bytes.fill m.bytes a (min (1 lsl page_bits) (size - a)) '\000';
    Bytes.set m.marked page '\000'
  done;
  m.ndirty <- 0

type frame = { rf : Prog.func; rb : int; ri : int }

let run ?(config = default_config) ?on_event ?bb_counts ?profile (p : Prog.t) =
  Span.with_ ~name:"interp" @@ fun () ->
  Free_list.with_ memories
    ~fits:(fun m -> Bytes.length m.bytes = config.mem_size)
    ~make:(fun () -> new_memory config.mem_size)
    ~reset:wipe
  @@ fun m ->
  let mem = m.bytes in
  (* Install global images. *)
  let gaddrs = global_addresses p in
  List.iter
    (fun (g : Prog.global) ->
      let a = Int64.to_int (Int64.sub (List.assoc g.gname gaddrs) virtual_base) in
      let len = Bytes.length g.init in
      if a + len > config.mem_size then
        fault "global %s does not fit in memory" g.gname;
      for page = a lsr page_bits to (a + len - 1) lsr page_bits do
        mark m page
      done;
      Bytes.blit g.init 0 mem a len)
    p.globals;
  let regs = Array.make (1 + Prog.max_reg p) 0L in
  regs.(Reg.to_int Reg.sp) <-
    Int64.add virtual_base (Int64.of_int (config.mem_size - 64));
  let zero = Reg.to_int Reg.zero in
  let rd r = if Reg.to_int r = zero then 0L else regs.(Reg.to_int r) in
  let wr r v = if Reg.to_int r <> zero then regs.(Reg.to_int r) <- v in
  let operand = function Instr.Reg r -> rd r | Instr.Imm i -> i in
  let check_mem a size =
    let phys = Int64.sub a virtual_base in
    if
      phys < 0L
      || Int64.add phys (Int64.of_int size) > Int64.of_int config.mem_size
    then fault "memory access out of bounds: %Ld" a;
    Int64.to_int phys
  in
  let load w signed a =
    let size = Width.bytes w in
    let a = check_mem a size in
    match (w, signed) with
    | Width.W8, true -> Int64.of_int (Bytes.get_int8 mem a)
    | Width.W8, false -> Int64.of_int (Bytes.get_uint8 mem a)
    | Width.W16, true -> Int64.of_int (Bytes.get_int16_le mem a)
    | Width.W16, false -> Int64.of_int (Bytes.get_uint16_le mem a)
    | Width.W32, true -> Int64.of_int32 (Bytes.get_int32_le mem a)
    | Width.W32, false ->
      Int64.logand (Int64.of_int32 (Bytes.get_int32_le mem a)) 0xFFFF_FFFFL
    | Width.W64, _ -> Bytes.get_int64_le mem a
  in
  let store w a v =
    let size = Width.bytes w in
    let a = check_mem a size in
    mark m (a lsr page_bits);
    mark m ((a + size - 1) lsr page_bits);
    match w with
    | Width.W8 -> Bytes.set_int8 mem a (Int64.to_int (Int64.logand v 0xFFL))
    | Width.W16 ->
      Bytes.set_int16_le mem a (Int64.to_int (Int64.logand v 0xFFFFL))
    | Width.W32 -> Bytes.set_int32_le mem a (Int64.to_int32 v)
    | Width.W64 -> Bytes.set_int64_le mem a v
  in
  let want_events = on_event <> None in
  let notify =
    match on_event with Some f -> f | None -> fun (_ : event) -> ()
  in
  let bump_bb =
    match bb_counts with
    | None -> fun (_ : Prog.func) (_ : int) -> ()
    | Some tbl ->
      fun f bi ->
        let a =
          match Hashtbl.find_opt tbl f.fname with
          | Some a when Array.length a >= Array.length f.blocks -> a
          | Some a ->
            let a' = Array.make (Array.length f.blocks) 0 in
            Array.blit a 0 a' 0 (Array.length a);
            Hashtbl.replace tbl f.fname a';
            a'
          | None ->
            let a = Array.make (Array.length f.blocks) 0 in
            Hashtbl.replace tbl f.fname a;
            a
        in
        a.(bi) <- a.(bi) + 1
  in
  let sample =
    match profile with
    | None -> fun (_ : int) (_ : int64) -> ()
    | Some tbl -> (
      fun iid v ->
        match Hashtbl.find_opt tbl iid with
        | Some f -> f v
        | None -> ())
  in
  let checksum = ref 0L in
  let emitted = ref [] and emitted_n = ref 0 in
  let steps = ref 0 in
  let budget = config.max_steps in
  let stack : frame list ref = ref [] and depth = ref 0 in
  let exception Halt in
  (* Current position. *)
  let cur_f = ref (try Prog.find_func p "main" with Not_found -> fault "no main")
  and cur_b = ref 0
  and cur_i = ref 0 in
  bump_bb !cur_f 0;
  let goto_block l =
    cur_b := Label.to_int l;
    cur_i := 0;
    bump_bb !cur_f !cur_b
  in
  let step_budget () =
    incr steps;
    if !steps > budget then fault "step budget exhausted (%d)" budget
  in
  let exec_ins (ins : Prog.ins) =
    step_budget ();
    match ins.op with
    | Instr.Alu { op; width; src1; src2; dst } ->
      let a = rd src1 and b = operand src2 in
      let r = Instr.eval_alu op width a b in
      wr dst r;
      sample ins.iid r;
      if want_events then
        notify (E_ins { iid = ins.iid; op = ins.op; a; b; result = r; addr = 0L })
    | Instr.Cmp { op; width; src1; src2; dst } ->
      let a = rd src1 and b = operand src2 in
      let r = Instr.eval_cmp op width a b in
      wr dst r;
      sample ins.iid r;
      if want_events then
        notify (E_ins { iid = ins.iid; op = ins.op; a; b; result = r; addr = 0L })
    | Instr.Cmov { cond; width; test; src; dst } ->
      let t = rd test and s = operand src in
      let r = if Instr.eval_cond cond t then Width.truncate s width else rd dst in
      wr dst r;
      sample ins.iid r;
      if want_events then
        notify
          (E_ins { iid = ins.iid; op = ins.op; a = t; b = s; result = r; addr = 0L })
    | Instr.Msk { width; src; dst } ->
      let a = rd src in
      let r = Width.truncate_unsigned a width in
      wr dst r;
      sample ins.iid r;
      if want_events then
        notify (E_ins { iid = ins.iid; op = ins.op; a; b = 0L; result = r; addr = 0L })
    | Instr.Sext { width; src; dst } ->
      let a = rd src in
      let r = Width.truncate a width in
      wr dst r;
      sample ins.iid r;
      if want_events then
        notify (E_ins { iid = ins.iid; op = ins.op; a; b = 0L; result = r; addr = 0L })
    | Instr.Li { dst; imm } ->
      wr dst imm;
      sample ins.iid imm;
      if want_events then
        notify
          (E_ins { iid = ins.iid; op = ins.op; a = 0L; b = 0L; result = imm; addr = 0L })
    | Instr.La { dst; symbol } ->
      let a =
        match List.assoc_opt symbol gaddrs with
        | Some a -> a
        | None -> fault "unknown global %s" symbol
      in
      wr dst a;
      sample ins.iid a;
      if want_events then
        notify
          (E_ins { iid = ins.iid; op = ins.op; a = 0L; b = 0L; result = a; addr = 0L })
    | Instr.Load { width; signed; base; offset; dst } ->
      let addr = Int64.add (rd base) offset in
      let r = load width signed addr in
      wr dst r;
      sample ins.iid r;
      if want_events then
        notify
          (E_ins { iid = ins.iid; op = ins.op; a = rd base; b = 0L; result = r; addr })
    | Instr.Store { width; base; offset; src } ->
      let addr = Int64.add (rd base) offset in
      let v = rd src in
      store width addr v;
      if want_events then
        notify
          (E_ins { iid = ins.iid; op = ins.op; a = rd base; b = v; result = 0L; addr })
    | Instr.Call { callee } ->
      if want_events then
        notify
          (E_ins
             { iid = ins.iid; op = ins.op; a = 0L; b = 0L; result = 0L; addr = 0L });
      let f =
        match Prog.find_func_opt p callee with
        | Some f -> f
        | None -> fault "call to unknown function %s" callee
      in
      stack := { rf = !cur_f; rb = !cur_b; ri = !cur_i + 1 } :: !stack;
      incr depth;
      if !depth > 100_000 then fault "call stack overflow";
      cur_f := f;
      cur_b := 0;
      cur_i := 0;
      bump_bb f 0;
      raise_notrace Exit (* transferred control; skip the index bump *)
    | Instr.Emit { src } ->
      let v = rd src in
      checksum := Int64.add (Int64.mul !checksum 31L) v;
      if !emitted_n < max_emitted_kept then begin
        emitted := v :: !emitted;
        incr emitted_n
      end;
      if want_events then
        notify
          (E_ins { iid = ins.iid; op = ins.op; a = v; b = 0L; result = 0L; addr = 0L })
  in
  let exec_term (b : Prog.block) =
    step_budget ();
    match b.term with
    | Prog.Jump l ->
      if want_events then notify (E_jump { iid = b.term_iid });
      goto_block l
    | Prog.Branch { cond; src; if_true; if_false } ->
      let v = rd src in
      let taken = Instr.eval_cond cond v in
      if want_events then
        notify (E_branch { iid = b.term_iid; taken; value = v; reg = src });
      goto_block (if taken then if_true else if_false)
    | Prog.Return -> (
      if want_events then notify (E_return { iid = b.term_iid });
      match !stack with
      | [] -> raise_notrace Halt
      | fr :: rest ->
        stack := rest;
        decr depth;
        cur_f := fr.rf;
        cur_b := fr.rb;
        cur_i := fr.ri)
  in
  (try
     while true do
       let f = !cur_f in
       let b = f.blocks.(!cur_b) in
       if !cur_i < Array.length b.body then begin
         (try
            exec_ins b.body.(!cur_i);
            incr cur_i
          with Exit -> ())
       end
       else exec_term b
     done
   with Halt -> ());
  { checksum = !checksum; emitted = List.rev !emitted; steps = !steps }
