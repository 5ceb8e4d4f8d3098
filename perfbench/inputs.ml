(* The benchmark's inputs, all frozen in perfbench/: the generated-program
   pools (perfbench/inputs/, written once by mkpool.exe), a copy of
   [ogc loadgen]'s traffic model, and the client-side profile builder of
   [ogc submit --push-profile auto].  Nothing here calls lib/fuzz or
   lib/fleet, so a later change to those libraries leaves the inputs of
   parent and change identical. *)

module J = Ogc_json.Json
module Workload = Ogc_workloads.Workload
module Protocol = Ogc_server.Protocol

(* --- frozen pools --------------------------------------------------------- *)

let marker = "//== program "

(* A pool file is a comment header followed by programs, each introduced
   by a [//== program N] line; the file ends with a newline. *)
let load_pool dir family =
  let path = Filename.concat dir (family ^ ".mc") in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let progs = ref [] and cur = Buffer.create 4096 and inside = ref false in
  let flush () =
    if !inside then progs := Buffer.contents cur :: !progs;
    Buffer.clear cur
  in
  List.iter
    (fun l ->
      if String.starts_with ~prefix:marker l then begin
        flush ();
        inside := true
      end
      else if !inside then begin
        Buffer.add_string cur l;
        Buffer.add_char cur '\n'
      end)
    (String.split_on_char '\n' (String.sub text 0 (String.length text - 1)));
  flush ();
  Array.of_list (List.rev !progs)

(* --- ogc loadgen's traffic model ------------------------------------------ *)

(* Copied from lib/fleet/loadgen.ml ([source_of], [cold_line],
   [request_line]) with one change: a cold line's program id is the
   line's own index (offset by a per-seed base) rather than a draw from a
   six-program set, so every cold line is a distinct program that misses
   and every warm line replays an earlier line byte for byte and hits —
   the hit ratio stays at loadgen's warm_ratio however long the run. *)
let template pid =
  Printf.sprintf
    {|
    int source = %d;
    int main() {
      int acc = 0;
      for (int i = 0; i < %d; i++) {
        int x = (source + i * %d) & 0xFF;
        acc = acc + (x & %d);
      }
      emit(acc & 0xFFFF);
      return 0;
    }
    |}
    (101 + (17 * pid))
    (40 + (8 * (pid mod 5)))
    (3 + pid)
    (0x0F + ((pid mod 3) * 0x30))

let warm_ratio = 0.5
let vrs_share = 0.7
let costs = [| 30; 50; 70; 90; 110 |]

(* Keeps [17 * pid + 101] inside MiniC's 32-bit int for every seed. *)
let pid_base seed = (seed land 0x3ff) * 100_000

type line = { root : int; text : string; source : string }
(** [root] is the index of the cold line this one replays ([= i] for a
    cold line). *)

let cold_line ~pid rs i =
  let source = template pid in
  let pass_members =
    if Random.State.float rs 1.0 < vrs_share then
      [ ("pass", J.Str "vrs");
        ("cost", J.Int costs.(Random.State.int rs (Array.length costs))) ]
    else if Random.State.bool rs then [ ("pass", J.Str "vrp") ]
    else []
  in
  ( source,
    J.to_string ~indent:false
      (J.Obj
         ([ ("proto", J.Int Protocol.proto_version);
            ("id", J.Str (Printf.sprintf "r%d" i));
            ("source", J.Str source) ]
         @ pass_members)) )

(* Request [i] of stream [salt] is a pure function of (seed, salt, i). *)
let request ~seed ~salt ~pid0 i =
  let rec gen i =
    let rs = Random.State.make [| seed; salt; i |] in
    if i > 0 && Random.State.float rs 1.0 < warm_ratio then
      gen (Random.State.int rs i)
    else
      let source, text = cold_line ~pid:(pid0 + i) rs i in
      { root = i; text; source }
  in
  gen i

let stream ~seed ~salt ~pid0 n = Array.init n (request ~seed ~salt ~pid0)

(* --- sessions of the online-specialization loop --------------------------- *)

let vrs_request ?(extra = []) source =
  J.to_string ~indent:false
    (J.Obj
       ([ ("proto", J.Int Protocol.proto_version); ("source", J.Str source);
          ("pass", J.Str "vrs"); ("input", J.Str "train") ]
       @ extra))

(* The profile delta [ogc submit --push-profile auto] builds (bin/ogc.ml
   [auto_profile_delta]), made with the same public calls: compile, VRS
   front-half analysis for the candidate points, one interpreter run
   with the block-count and value hooks. *)
type span = { span : 'a. string -> string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ _ f -> f ()) }

let profile_delta ?(spans = untraced) source =
  let span = spans.span in
  let module Profile = Ogc_pass.Profile in
  let module Interp = Ogc_ir.Interp in
  let p =
    span "minic" "minic.compile" (fun () -> Ogc_minic.Minic.compile source)
  in
  if Ogc_ir.Prog.find_global p "input_scale" <> None then
    Workload.set_scale p Workload.Train;
  let a = span "core" "vrs.analyze" (fun () -> Ogc_core.Vrs.analyze p) in
  let hooks : (int, int64 -> unit) Hashtbl.t = Hashtbl.create 16 in
  let obs = Hashtbl.create 16 in
  List.iter
    (fun iid ->
      let tbl : (int64, int ref) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace obs iid tbl;
      Hashtbl.replace hooks iid (fun v ->
          match Hashtbl.find_opt tbl v with
          | Some r -> incr r
          | None -> Hashtbl.replace tbl v (ref 1)))
    (Ogc_core.Vrs.candidate_iids a);
  let counts : Interp.bb_counts = Hashtbl.create 64 in
  let out =
    span "ir" "interp.profile_run" (fun () ->
        Interp.run ~bb_counts:counts ~profile:hooks p)
  in
  let prof = Profile.create () in
  Hashtbl.iter (fun fn arr -> Hashtbl.replace prof.Profile.p_bb fn arr) counts;
  prof.Profile.p_total <- out.Interp.steps;
  Hashtbl.iter
    (fun iid tbl ->
      match Hashtbl.fold (fun v r acc -> (v, !r) :: acc) tbl [] with
      | [] -> ()
      | [ (0L, n) ] -> Hashtbl.replace prof.Profile.p_zeros iid n
      | entries -> Hashtbl.replace prof.Profile.p_values iid entries)
    obs;
  (p, a, Profile.to_json prof, out.Interp.checksum)
