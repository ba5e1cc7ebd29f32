(* The benchmark's own helpers: the tail-percentile rule, span self-time
   arithmetic, and the determinism of the modelled figures. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let one_to n = List.init n (fun i -> float_of_int (i + 1))

let beyond_count t xs =
  List.length (List.filter (fun x -> x > t.Stats.value) xs)

let test_tail_ten_beyond () =
  (* Shuffled 1..100: p99 has one sample beyond it, p90 exactly ten. *)
  let xs = List.rev (one_to 100) in
  let t = Stats.tail xs in
  check_float "value" 90.0 t.Stats.value;
  check_float "percentile" 90.0 t.Stats.percentile;
  check_int "count" 100 t.Stats.count;
  check_int "beyond" 10 t.Stats.beyond;
  check_int "ten samples beyond" 10 (beyond_count t xs);
  let t = Stats.tail (one_to 1000) in
  check_float "p99 of 1000" 990.0 t.Stats.value;
  check_float "p99 label" 99.0 t.Stats.percentile;
  let t = Stats.tail (one_to 20_000) in
  check_float "the ladder stops at p99" 19_800.0 t.Stats.value;
  check_int "p99 of 20000: 200 beyond" 200 t.Stats.beyond;
  let t = Stats.tail (one_to 999) in
  check_float "999 samples: p99 has nine beyond, so p90" 90.0
    t.Stats.percentile;
  check_float "p90 of 999" 900.0 t.Stats.value

let test_tail_small_samples () =
  let t = Stats.tail (one_to 20) in
  check_float "twenty samples: the median has ten beyond" 10.0 t.Stats.value;
  check_int "ten beyond" 10 (beyond_count t (one_to 20));
  let t = Stats.tail (List.rev (one_to 13)) in
  check_float "thirteen samples: no rung has ten beyond, the median" 7.0
    t.Stats.value;
  check_float "labelled p50" 50.0 t.Stats.percentile;
  check_int "its support stated" 6 t.Stats.beyond;
  check_int "count stated" 13 t.Stats.count;
  check_float "maximum kept" 13.0 t.Stats.max;
  check_float "one sample" 4.0 (Stats.tail [ 4.0 ]).Stats.value;
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.tail: no samples")
    (fun () -> ignore (Stats.tail []))

let test_median_percentile () =
  check_float "odd median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check_float "nearest-rank p99 of 16" 16.0 (Stats.percentile 99.0 (one_to 16));
  check_float "nearest-rank p50 of 10" 5.0 (Stats.percentile 50.0 (one_to 10))

let span id parent name start stop =
  { Spans.id; parent; name; req = 0; start; stop }

(* root [0,10] with children a [1,4] and b [5,9]; b has child c [6,7]. *)
let tree =
  [
    span 2 (Some 0) "a" 1.0 4.0;
    span 3 (Some 1) "c" 6.0 7.0;
    span 1 (Some 0) "b" 5.0 9.0;
    span 0 None "root" 0.0 10.0;
  ]

let test_self_times () =
  let self = Spans.self_times tree in
  let of_name n = snd (List.find (fun (s, _) -> s.Spans.name = n) self) in
  check_float "root" 3.0 (of_name "root");
  check_float "a" 3.0 (of_name "a");
  check_float "b" 3.0 (of_name "b");
  check_float "c" 1.0 (of_name "c");
  check_float "self times sum to the root's duration" 10.0
    (List.fold_left (fun a (_, t) -> a +. t) 0.0 self);
  (* Two requests' trees with the same span ids: summed per name. *)
  let by_name = Spans.self_by_name [ tree; tree ] in
  check_float "per name over both trees" 6.0 (by_name "b");
  check_float "absent name" 0.0 (by_name "nothing")

let test_recorder_nesting () =
  let r = Spans.recorder ~req:7 () in
  Spans.with_span r "outer" (fun () ->
      Spans.with_span r "inner" ignore;
      Spans.with_span r "inner" ignore);
  (try Spans.with_span r "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let spans = Spans.spans r in
  let outer = List.find (fun s -> s.Spans.name = "outer") spans in
  check_int "four spans" 4 (List.length spans);
  List.iter
    (fun (s : Spans.span) ->
      check_int "request id" 7 s.Spans.req;
      let expected =
        if s.Spans.name = "inner" then Some outer.Spans.id else None
      in
      Alcotest.(check (option int))
        ("parent of " ^ s.Spans.name)
        expected s.Spans.parent)
    spans;
  let off = Spans.recorder ~enabled:false ~req:0 () in
  Spans.with_span off "x" ignore;
  check_int "disabled recorder keeps nothing" 0 (List.length (Spans.spans off))

let test_modelled_deterministic () =
  let soak () =
    Option.get
      (Modelled.of_soak
         (fst (Sim.run_campaign_timed ~seed:5 ~entries:1_500 ())))
  in
  let a = soak () and b = soak () in
  Alcotest.(check bool) "soak: same seed, same modelled figures" true (a = b);
  check_int "soak bound" Modelled.expected_bound a.Modelled.bound;
  let smp () =
    let _, _, cmp = Smp.Soak.run_compare ~seed:5 ~entries:1_500 ~cores:4 () in
    cmp.Smp.Soak.cmp_shielded
  in
  Alcotest.(check bool)
    "smp: same seed, same shielded tail" true
    (smp () = smp ())

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail: ten beyond" `Quick test_tail_ten_beyond;
          Alcotest.test_case "tail: small samples" `Quick
            test_tail_small_samples;
          Alcotest.test_case "median and percentile" `Quick
            test_median_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times on a synthetic tree" `Quick
            test_self_times;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ( "modelled",
        [
          Alcotest.test_case "one seed, identical figures" `Quick
            test_modelled_deterministic;
        ] );
    ]
