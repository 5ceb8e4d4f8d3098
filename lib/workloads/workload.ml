type input = Train | Ref

type t = { name : string; description : string; source : string }

let all =
  [
    { name = W_compress.name; description = W_compress.description;
      source = W_compress.source () };
    { name = W_gcc.name; description = W_gcc.description;
      source = W_gcc.source () };
    { name = W_go.name; description = W_go.description;
      source = W_go.source () };
    { name = W_ijpeg.name; description = W_ijpeg.description;
      source = W_ijpeg.source () };
    { name = W_li.name; description = W_li.description;
      source = W_li.source () };
    { name = W_m88ksim.name; description = W_m88ksim.description;
      source = W_m88ksim.source () };
    { name = W_perl.name; description = W_perl.description;
      source = W_perl.source () };
    { name = W_vortex.name; description = W_vortex.description;
      source = W_vortex.source () };
  ]

let find name = List.find (fun w -> String.equal w.name name) all

let scale = function Train -> 1L | Ref -> 3L

let set_scale (p : Ogc_ir.Prog.t) input =
  match Ogc_ir.Prog.find_global p "input_scale" with
  | Some g -> Bytes.set_int64_le g.init 0 (scale input)
  | None -> invalid_arg "Workload.set_scale: program has no input_scale"

let compile_with_alloc w input =
  let p, info = Ogc_minic.Minic.compile_with_info w.source in
  set_scale p input;
  (p, info)

let compile w input = fst (compile_with_alloc w input)
