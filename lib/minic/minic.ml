module Span = Ogc_obs.Span

exception Error of string

let wrap_pos what msg (pos : Ast.pos) =
  raise (Error (Printf.sprintf "%s at %d:%d: %s" what pos.line pos.col msg))

let parse src =
  try
    let ast = Parser.parse src in
    ignore (Typecheck.check ast);
    ast
  with
  | Lexer.Error (msg, pos) -> wrap_pos "lexical error" msg pos
  | Parser.Error (msg, pos) -> wrap_pos "syntax error" msg pos
  | Typecheck.Error (msg, pos) -> wrap_pos "semantic error" msg pos

let lower src =
  Span.with_ ~name:"minic:lower" @@ fun () ->
  let ast = parse src in
  try
    let prog = Codegen.gen_program ast in
    Ogc_ir.Validate.program ~allow_virtual:true prog;
    prog
  with
  | Codegen.Codegen_bug msg -> raise (Error ("code generator bug: " ^ msg))
  | Ogc_ir.Validate.Invalid msg ->
    raise (Error ("generated invalid code: " ^ msg))

let compile_with_info src =
  let prog = lower src in
  try
    (* The width oracle runs VRP's forward pass on the pre-allocation
       program so spill slots can be sized from proven value ranges; it
       is forced only if some function actually spills, so its
       [vrp:ranges] span nests under [regalloc]. *)
    let vrp = lazy (Ogc_core.Vrp.ranges prog) in
    let width_of iid =
      match Ogc_core.Vrp.range_of (Lazy.force vrp) iid with
      | Some r -> Ogc_core.Interval.width r
      | None -> Ogc_isa.Width.W64
    in
    let info =
      Span.with_ ~name:"regalloc" (fun () ->
          Ogc_regalloc.Regalloc.program ~width_of prog)
    in
    Ogc_ir.Validate.program prog;
    (prog, info)
  with
  | Ogc_regalloc.Regalloc.Bound_exceeded { fname; iterations } ->
    raise
      (Error
         (Printf.sprintf
            "register allocation diverged in %s: %d spill iterations" fname
            iterations))
  | Ogc_ir.Validate.Invalid msg ->
    raise (Error ("allocated invalid code: " ^ msg))

let compile src = fst (compile_with_info src)
