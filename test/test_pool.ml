(* Domain pool tests: deterministic ordering, exception propagation, and
   the OGC_JOBS / sequential fallback contract. *)

module Pool = Ogc_exec.Pool

let heavy i =
  (* Enough work per task that workers genuinely interleave. *)
  let acc = ref 0 in
  for j = 0 to 20_000 do
    acc := (!acc * 31) + ((i * j) land 0xFFFF)
  done;
  (i, !acc)

let test_order_matches_sequential () =
  let xs = List.init 97 Fun.id in
  let seq = List.map heavy xs in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        true
        (Pool.map ~jobs heavy xs = seq))
    [ 1; 2; 4; 8 ]

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 42 ]
    (Pool.map ~jobs:4 (fun x -> x * 2) [ 21 ]);
  (* More workers than tasks must not deadlock or duplicate. *)
  Alcotest.(check (list int)) "3 tasks, 8 jobs" [ 1; 2; 3 ]
    (Pool.map ~jobs:8 (fun x -> x) [ 1; 2; 3 ])

let test_exception_propagation () =
  (* Both index 3 and index 7 fail; the lowest index must win so the
     error is independent of scheduling. *)
  let f i = if i = 3 || i = 7 then failwith (Printf.sprintf "task %d" i) else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d raises first failure" jobs)
        (Failure "task 3")
        (fun () -> ignore (Pool.map ~jobs f (List.init 16 Fun.id))))
    [ 1; 4 ]

let test_all_tasks_finish_despite_failure () =
  (* A failing task must not abandon the rest of the queue: successful
     siblings still ran (observable through the side effect below). *)
  let ran = Array.make 8 false in
  (try
     ignore
       (Pool.map ~jobs:2
          (fun i ->
            ran.(i) <- true;
            if i = 0 then failwith "boom")
          (List.init 8 Fun.id))
   with Failure _ -> ());
  Alcotest.(check bool) "later tasks still executed" true
    (Array.for_all Fun.id ran)

let test_jobs_env_fallback () =
  Unix.putenv "OGC_JOBS" "1";
  Alcotest.(check (option int)) "OGC_JOBS=1 parsed" (Some 1)
    (Pool.jobs_from_env ());
  Alcotest.(check int) "default_jobs honours OGC_JOBS=1" 1
    (Pool.default_jobs ());
  Alcotest.(check int) "resolve None -> env" 1 (Pool.resolve_jobs None);
  (* The sequential fallback still computes the same answers. *)
  let xs = List.init 10 Fun.id in
  Alcotest.(check bool) "sequential fallback maps" true
    (Pool.map (fun x -> x + 1) xs = List.map (fun x -> x + 1) xs);
  Unix.putenv "OGC_JOBS" "not-a-number";
  Alcotest.(check (option int)) "garbage ignored" None (Pool.jobs_from_env ());
  Unix.putenv "OGC_JOBS" "0";
  Alcotest.(check (option int)) "zero ignored" None (Pool.jobs_from_env ());
  Unix.putenv "OGC_JOBS" "3";
  Alcotest.(check int) "OGC_JOBS=3" 3 (Pool.default_jobs ());
  Alcotest.(check int) "explicit jobs wins over env" 2
    (Pool.resolve_jobs (Some 2));
  Alcotest.(check int) "explicit 0 means auto" 3 (Pool.resolve_jobs (Some 0));
  Unix.putenv "OGC_JOBS" ""

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel order = sequential order" `Quick
            test_order_matches_sequential;
          Alcotest.test_case "empty / singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "queue drains past a failure" `Quick
            test_all_tasks_finish_despite_failure;
          Alcotest.test_case "OGC_JOBS fallback" `Quick test_jobs_env_fallback;
        ] );
    ]
