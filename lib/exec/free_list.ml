(* A mutex-guarded list of idle buffers, most recently handed back
   first.  The lock covers only the list operations: making, using and
   resetting a buffer happen outside it. *)

type 'a t = { m : Mutex.t; mutable idle : 'a list }

(* Idle buffers kept per list; a run that finds none makes a new one. *)
let keep = 8

let create () = { m = Mutex.create (); idle = [] }

let take t fits =
  Mutex.protect t.m (fun () ->
      let rec pick acc = function
        | [] -> None
        | x :: rest when fits x ->
          t.idle <- List.rev_append acc rest;
          Some x
        | x :: rest -> pick (x :: acc) rest
      in
      pick [] t.idle)

let give t x =
  Mutex.protect t.m (fun () ->
      t.idle <- x :: List.filteri (fun i _ -> i < keep - 1) t.idle)

let with_ t ~fits ~make ~reset f =
  let x = match take t fits with Some x -> x | None -> make () in
  Fun.protect
    ~finally:(fun () ->
      reset x;
      give t x)
    (fun () -> f x)
