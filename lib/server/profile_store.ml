(* Per-program accumulated execution profiles (the `profile` op).

   Keyed by the request's {!Protocol.route_key} — the program-identity
   digest — so every option variant of one program shares a single
   accumulated profile, exactly as they share a primary shard.  Each
   accepted push merges the client's delta into the accumulator and
   bumps the program's epoch; the epoch then salts the cache keys of
   profile-dependent artifacts, which is what turns "fresher profile"
   into "recompute the profile-dependent suffix".

   A published profile is never written again: a push merges into a
   copy and publishes the copy, so a request reads the published value
   without copying it, and the epoch it sees is the epoch of the very
   counts it consumes.

   Bounded, with exact LRU eviction over programs: a fleet fed by a
   fuzzing client must not grow a profile per discarded program forever,
   and a program that is still pushed or submitted keeps its profile.
   Each eviction is counted and logged. *)

module J = Ogc_json.Json
module Log = Ogc_obs.Log
module Lru = Ogc_exec.Lru
module Profile = Ogc_pass.Profile

type t = {
  m : Mutex.t;
  programs : (string, Profile.t) Lru.t;  (* route_key -> published *)
  mutable pushes : int;
}

let create ?(capacity = 256) () =
  { m = Mutex.create (); programs = Lru.create capacity; pushes = 0 }

(* Merge a client delta (already decoded — decoding happens outside the
   lock) into a copy of the program's profile, bump the copy's epoch and
   publish it.  Returns the new epoch. *)
let push t key delta =
  let epoch, evicted =
    Mutex.protect t.m (fun () ->
        let acc =
          match Lru.find t.programs key with
          | Some p -> Profile.copy p
          | None -> Profile.create ()
        in
        Profile.merge_into acc delta;
        acc.Profile.p_epoch <- Profile.epoch acc + 1;
        t.pushes <- t.pushes + 1;
        (Profile.epoch acc, Lru.add t.programs key acc))
  in
  Option.iter
    (fun (k, p) ->
      Log.warn "ogc-serve: profile evicted"
        ~fields:[ ("route_key", J.Str k); ("epoch", J.Int (Profile.epoch p)) ])
    evicted;
  epoch

let find t key = Mutex.protect t.m (fun () -> Lru.find t.programs key)

let stats t =
  Mutex.protect t.m (fun () ->
      (Lru.length t.programs, t.pushes, Lru.evictions t.programs))
