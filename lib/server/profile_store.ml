(* Per-program accumulated execution profiles (the `profile` op).

   Keyed by the request's {!Protocol.route_key} — the program-identity
   digest — so every option variant of one program shares a single
   accumulated profile, exactly as they share a primary shard.  Each
   accepted push merges the client's delta into the accumulator and
   bumps the program's epoch; the epoch then salts the cache keys of
   profile-dependent artifacts, which is what turns "fresher profile"
   into "recompute the profile-dependent suffix".

   Bounded (FIFO eviction over programs): a fleet fed by a fuzzing
   client must not grow a profile per discarded program forever. *)

module Profile = Ogc_pass.Profile

type t = {
  m : Mutex.t;
  capacity : int;
  programs : (string, Profile.t) Hashtbl.t;  (* route_key -> accumulator *)
  order : string Queue.t;  (* insertion order: FIFO eviction *)
  mutable pushes : int;
}

let create ?(capacity = 256) () =
  {
    m = Mutex.create ();
    capacity = max capacity 1;
    programs = Hashtbl.create 16;
    order = Queue.create ();
    pushes = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Merge a client delta (already decoded — decoding happens outside the
   lock) into the program's accumulator and bump its epoch.  Returns the
   new epoch. *)
let push t key delta =
  locked t (fun () ->
      let acc =
        match Hashtbl.find_opt t.programs key with
        | Some p -> p
        | None ->
          while Hashtbl.length t.programs >= t.capacity do
            match Queue.take_opt t.order with
            | Some old -> Hashtbl.remove t.programs old
            | None -> Hashtbl.reset t.programs
          done;
          let p = Profile.create () in
          Hashtbl.replace t.programs key p;
          Queue.add key t.order;
          p
      in
      Profile.merge_into acc delta;
      acc.Profile.p_epoch <- Profile.epoch acc + 1;
      t.pushes <- t.pushes + 1;
      Profile.epoch acc)

(* A deep copy: what a request consumes must never alias the
   accumulator a concurrent push is mutating. *)
let find t key =
  locked t (fun () -> Option.map Profile.copy (Hashtbl.find_opt t.programs key))

let stats t = locked t (fun () -> (Hashtbl.length t.programs, t.pushes))
