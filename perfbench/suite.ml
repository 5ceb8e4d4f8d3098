(* analyze-suite: the compiler user's job ([ogc analyze] with the CLI's
   default chain), one cold compile + chain + validation per op. *)

module Workload = Ogc_workloads.Workload
module Interp = Ogc_ir.Interp
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Account = Ogc_energy.Account
module Minic = Ogc_minic.Minic
module Regalloc = Ogc_regalloc.Regalloc
module Pass = Ogc_pass.Pass
module Vrp = Ogc_core.Vrp
open Util

let chain = "cleanup,vrp,encode-widths"

(* Programs per generator family: equal counts of the three families the
   CI fuzz campaigns run. *)
let per_family = 8

(* Mean op seconds over one pass of the 32 inputs on a 2-core x86-64
   host; sizes the op list (a whole number of passes) to the run length. *)
let pass_cost = 0.385

let op src =
  let p, info = Minic.compile_with_info src in
  let st, _ = Pass.run chain p in
  Ogc_ir.Validate.program st.Pass.prog;
  (st.Pass.prog, info)

let out_digest (p : Ogc_ir.Prog.t) =
  Digest.string (Marshal.to_string p [ Marshal.No_sharing ])

type input = {
  name : string;
  src : string;
  generated : bool;
  reference : int64;  (** checksum of the unoptimized program *)
}

let run ~inputs_dir ~seed ~seconds ~traced =
  let sources =
    List.map
      (fun (w : Workload.t) -> (w.Workload.name, w.Workload.source, false))
      Workload.all
    @ List.concat_map
        (fun fam ->
          let pool = Inputs.load_pool inputs_dir fam in
          List.init per_family (fun i ->
              (Printf.sprintf "%s/%d" fam i, pool.(i), true)))
        [ "plain"; "pressure"; "zero" ]
  in
  let npass = max 1 (int_of_float (Float.round (seconds /. pass_cost))) in
  let rs = Random.State.make [| seed; 2 |] in
  let idx = Array.init (List.length sources) Fun.id in
  let order = Array.concat (List.init npass (fun _ -> shuffle rs idx)) in
  let digest =
    digest_strings
      (List.concat_map (fun (n, s, _) -> [ n; s ]) sources
      @ Array.to_list (Array.map string_of_int order))
  in
  (* Set-up: the reference checksum of every input, then one untimed
     warm-up pass of the op over each input. *)
  let setup () =
    let ins =
      Array.of_list
        (List.map
           (fun (name, src, generated) ->
             let reference = (Interp.run (Minic.compile src)).Interp.checksum in
             { name; src; generated; reference })
           sources)
    in
    Array.iter (fun i -> ignore (op i.src)) ins;
    ins
  in
  let ins, setups = repeat_setup 3 ~setup ~release:ignore in
  (* Each input's first output is interpreted; every later output must
     be identical to it. *)
  let first = Array.make (Array.length ins) None in
  let check o k (p, _) =
    let d = out_digest p in
    match first.(k) with
    | Some (d0, _) ->
      if d <> d0 then
        fail o "%s: output differs from its first analysis" ins.(k).name
    | None ->
      let c = (Interp.run p).Interp.checksum in
      first.(k) <- Some (d, p);
      if not (Int64.equal c ins.(k).reference) then
        fail o "%s: checksum %Ld, unoptimized %Ld" ins.(k).name c
          ins.(k).reference
  in
  let ops, timed_s =
    timed_phase order ~cls:(fun _ -> "op") ~check ~run:(fun k ->
        op ins.(k).src)
  in
  let rss_mb = peak_rss_mb 0 in
  (* Code quality, off the clock: software-gated energy of each generated
     input's analyzed program against its ungated unoptimized program. *)
  let energy =
    List.filter_map
      (fun (i, first) ->
        match first with
        | Some (_, p) when i.generated ->
          let e p policy =
            Account.total (Pipeline.simulate ~policy p).Pipeline.energy
          in
          Some (e p Policy.Software /. e (Minic.compile i.src) Policy.No_gating)
        | _ -> None)
      (List.combine (Array.to_list ins) (Array.to_list first))
  in
  let layer, docs =
    if not traced then ([], [])
    else begin
      (* Traced pass: op times per input, for the shares' denominator. *)
      Spans.reset ();
      let per_input = Array.make (Array.length ins) [] in
      let traced_s = ref 0.0 in
      Array.iter
        (fun k ->
          let _, dt =
            Spans.with_ ~layer:"harness" ("op " ^ ins.(k).name) (fun () ->
                op ins.(k).src)
          in
          traced_s := !traced_s +. dt;
          per_input.(k) <- dt :: per_input.(k))
        order;
      let op_s =
        sum (Array.map (fun l -> median (Array.of_list l)) per_input)
      in
      (* Replay, once per input: the op's calls one at a time. *)
      let tot = Hashtbl.create 8 in
      let span key layer name f =
        let r, dt = Spans.with_ ~layer name f in
        add_into tot key dt;
        r
      in
      Array.iter
        (fun i ->
          let _, lo =
            Spans.with_ ~layer:"minic" "minic.lower" (fun () ->
                Minic.lower i.src)
          in
          let (p, info), co =
            Spans.with_ ~layer:"regalloc" "minic.compile_with_info" (fun () ->
                Minic.compile_with_info i.src)
          in
          add_into tot "lower" lo;
          add_into tot "alloc" (co -. lo);
          ignore
            (span "cleanup" "core" "cleanup.run" (fun () ->
                 Ogc_core.Cleanup.run p));
          let r =
            span "vrp" "core" "vrp.analyze" (fun () -> Vrp.analyze ~jobs:1 p)
          in
          span "encode" "core" "vrp.apply" (fun () -> Vrp.apply r p);
          span "validate" "ir" "validate.program" (fun () ->
              Ogc_ir.Validate.program p);
          let fs = Vrp.fixpoint_stats r in
          let rounds =
            List.fold_left
              (fun a f -> a + f.Regalloc.fa_iterations)
              0 info.Regalloc.fallocs
          in
          add_into tot "rounds" (float_of_int rounds);
          add_into tot "spill"
            (float_of_int (Regalloc.spill_slots_bytes info));
          add_into tot "visits" (float_of_int fs.Vrp.visits);
          add_into tot "vrounds" (float_of_int fs.Vrp.rounds))
        ins;
      let g = find0 tot in
      let ms k = g k *. 1000.0 /. float_of_int (Array.length ins) in
      let shares =
        [ ("minic", g "lower" /. op_s); ("regalloc", g "alloc" /. op_s);
          ("core", (g "cleanup" +. g "vrp" +. g "encode") /. op_s);
          ("ir", g "validate" /. op_s) ]
      in
      ( [ ("minic.lower_ms", ms "lower"); ("regalloc.alloc_ms", ms "alloc");
          ("regalloc.rounds", g "rounds");
          ("regalloc.spill_bytes", g "spill");
          ("core.cleanup_ms", ms "cleanup"); ("core.vrp_ms", ms "vrp");
          ("core.encode_ms", ms "encode"); ("core.vrp_visits", g "visits");
          ("core.vrp_rounds", g "vrounds");
          ("ir.validate_ms", ms "validate");
          ("trace.overhead_pct", overhead_pct ~timed_s ~traced_s:!traced_s) ]
        @ share_metrics shares,
        [ ("perfbench", Spans.document ()) ] )
    end
  in
  { setups; timed_s; ops; main = "op"; failures = failures_list (); energy;
    rss_mb; digest; layer;
    samples =
      List.map
        (fun m -> (m, Array.length ins))
        [ "minic.lower_ms"; "regalloc.alloc_ms"; "core.cleanup_ms";
          "core.vrp_ms"; "core.encode_ms"; "ir.validate_ms" ];
    exact =
      [ "regalloc.rounds"; "regalloc.spill_bytes"; "core.vrp_visits";
        "core.vrp_rounds" ];
    docs }
