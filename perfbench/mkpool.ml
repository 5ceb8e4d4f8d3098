(* Regenerates the frozen input pools under perfbench/inputs/.

     dune exec perfbench/mkpool.exe -- perfbench/inputs

   The benchmark never calls a generator at run time: a later change to
   lib/fuzz must not hand the parent and the change different inputs.
   Each pool holds the first N programs of one Gen_minic family, drawn
   exactly as [ogc fuzz --seed 42] draws program [index] (a fresh
   [Random.State.make [| 42; index; 0 |]] per program). *)

module Gen = Ogc_fuzz.Gen_minic

let seed = 42

let families =
  [ ("plain", "Gen_minic.program", Gen.program, 8);
    ("pressure", "Gen_minic.pressure_program", Gen.pressure_program, 8);
    ("zero", "Gen_minic.zero_program", Gen.zero_program, 160) ]

let () =
  let dir =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "perfbench/inputs"
  in
  List.iter
    (fun (name, gen_name, gen, count) ->
      let path = Filename.concat dir (name ^ ".mc") in
      let oc = open_out_bin path in
      Printf.fprintf oc
        "// perfbench input pool: %s family, %d programs.\n\
         // generator: Ogc_fuzz.%s, program i drawn from\n\
         // Random.State.make [| %d; i; 0 |] (as `ogc fuzz --seed %d`).\n\
         // regenerate: dune exec perfbench/mkpool.exe -- perfbench/inputs\n"
        name count gen_name seed seed;
      for i = 0 to count - 1 do
        let src = gen (Random.State.make [| seed; i; 0 |]) in
        Printf.fprintf oc "//== program %d\n%s\n" i src
      done;
      close_out oc)
    families
