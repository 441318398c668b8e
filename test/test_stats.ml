(* Tests for summaries, tables and series rendering. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flo = Alcotest.float 1e-9

let summary_basics () =
  let s = Stats.Summary.of_ints [ 1; 2; 3; 4; 5 ] in
  check int "count" 5 s.count;
  check flo "mean" 3.0 s.mean;
  check flo "min" 1.0 s.min;
  check flo "max" 5.0 s.max;
  check flo "median" 3.0 s.p50

let summary_empty () =
  let s = Stats.Summary.of_floats [] in
  check int "empty count" 0 s.count;
  check flo "empty mean" 0.0 s.mean

let summary_single () =
  let s = Stats.Summary.of_floats [ 7.5 ] in
  check flo "single p99" 7.5 s.p99;
  check flo "single stddev" 0.0 s.stddev

let percentile_interpolates () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  check flo "p0" 10.0 (Stats.Summary.percentile sorted 0.0);
  check flo "p100" 40.0 (Stats.Summary.percentile sorted 1.0);
  check flo "p50 interpolated" 25.0 (Stats.Summary.percentile sorted 0.5)

let percentile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Stats.Summary.percentile [||] 0.5));
  Alcotest.check_raises "out of range" (Invalid_argument "Summary.percentile: q out of range")
    (fun () -> ignore (Stats.Summary.percentile [| 1.0 |] 1.5))

let summary_percentiles_order =
  QCheck.Test.make ~name:"summary: p50 <= p95 <= p99 <= max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_exclusive 1000.0))
    (fun samples ->
      let s = Stats.Summary.of_floats samples in
      s.p50 <= s.p95 +. 1e-9 && s.p95 <= s.p99 +. 1e-9 && s.p99 <= s.max +. 1e-9
      && s.min <= s.p50 +. 1e-9)

(* [of_counts] of a list's histogram is [of_ints] of the list, under
   structural float equality: the same additions in the same order. *)
let histogram l =
  List.sort_uniq compare l |> List.map (fun v -> (v, List.length (List.filter (( = ) v) l)))

let samples_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return []);
        (2, map (fun v -> [ v ]) (int_range (-50) 5_000));
        (4, list_size (int_range 1 300) (int_bound 4));
        (3, list_size (int_range 1 100) (int_range (-1_000) 100_000));
      ])

let samples = QCheck.make ~print:QCheck.Print.(list int) samples_gen

let summary_of_counts =
  QCheck.Test.make ~name:"summary: of_counts (histogram l) = of_ints l" ~count:500 samples
    (fun l -> Stats.Summary.of_counts (histogram l) = Stats.Summary.of_ints l)

(* Dense and table-held values alike come back ascending, and the
   multiset's summary is the list's. *)
let multiset_matches_list =
  QCheck.Test.make ~name:"multiset: to_list sorts, summary = of_ints" ~count:500 samples (fun l ->
      let l = List.map abs l in
      let m = Stats.Multiset.create () in
      List.iter (Stats.Multiset.add m) l;
      Stats.Multiset.to_list m = List.sort compare l
      && Stats.Multiset.to_counts m = histogram l
      && Stats.Multiset.summary m = Stats.Summary.of_ints l)

let of_counts_rejects () =
  Alcotest.check_raises "negative count" (Invalid_argument "Summary.of_counts: negative count")
    (fun () -> ignore (Stats.Summary.of_counts [ (3, -1) ]));
  Alcotest.check_raises "negative value" (Invalid_argument "Multiset.add: negative value") (fun () ->
      Stats.Multiset.add (Stats.Multiset.create ()) (-1))

let table_renders_aligned () =
  let t =
    Stats.Table.create ~title:"demo"
      ~columns:[ ("name", Stats.Table.Left); ("value", Stats.Table.Right) ]
  in
  Stats.Table.add_row t [ "alpha"; "1" ];
  Stats.Table.add_rule t;
  Stats.Table.add_row t [ "b"; "22" ];
  let out = Stats.Table.render t in
  check bool "has title" true (String.length out > 0 && String.sub out 0 7 = "== demo");
  (* all lines (after the title) share a width *)
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length (List.tl lines) in
  check bool "aligned columns" true (List.for_all (fun w -> w = List.hd widths) widths)

let table_rejects_bad_rows () =
  let t = Stats.Table.create ~title:"x" ~columns:[ ("a", Stats.Table.Left) ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: 2 cells for 1 columns")
    (fun () -> Stats.Table.add_row t [ "1"; "2" ])

let table_csv () =
  let t =
    Stats.Table.create ~title:"csv"
      ~columns:[ ("k", Stats.Table.Left); ("v", Stats.Table.Left) ]
  in
  Stats.Table.add_row t [ "plain"; "1" ];
  Stats.Table.add_row t [ "com,ma"; "quo\"te" ];
  Stats.Table.add_rule t;
  let csv = Stats.Table.to_csv t in
  check Alcotest.string "csv escaping" "k,v\nplain,1\n\"com,ma\",\"quo\"\"te\"\n" csv

let table_cells () =
  check Alcotest.string "int" "42" (Stats.Table.cell_int 42);
  check Alcotest.string "float" "3.14" (Stats.Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "bool" "yes" (Stats.Table.cell_bool true);
  check Alcotest.string "time inf" "inf" (Stats.Table.cell_time max_int)

let series_renders () =
  let s = Stats.Series.create ~title:"t" ~x_label:"x" ~y_label:"y" in
  for i = 0 to 10 do
    Stats.Series.add_point s ~x:(float_of_int i) ~y:(float_of_int (i * i))
  done;
  Stats.Series.add_series s ~name:"other" [ (0.0, 5.0); (10.0, 5.0) ];
  let out = Stats.Series.render ~width:40 ~height:8 s in
  check bool "contains legend" true
    (String.length out > 0
    && (let contains hay needle =
          let nl = String.length needle in
          let rec go i = i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        contains out "[*] y" && contains out "[o] other" && contains out "data:"))

let series_csv () =
  let s = Stats.Series.create ~title:"curve" ~x_label:"t" ~y_label:"err" in
  Stats.Series.add_point s ~x:1.0 ~y:2.5;
  Stats.Series.add_point s ~x:2.0 ~y:0.0;
  Stats.Series.add_series s ~name:"base" [ (1.0, 3.0) ];
  check Alcotest.string "csv"
    "series,x,y\nerr,1,2.5\nerr,2,0\nbase,1,3\n"
    (Stats.Series.to_csv s);
  check Alcotest.string "title accessor" "curve" (Stats.Series.title s)

let series_empty () =
  let s = Stats.Series.create ~title:"none" ~x_label:"x" ~y_label:"y" in
  let out = Stats.Series.render s in
  check bool "handles empty" true (String.length out > 0)

let suite =
  [
    Alcotest.test_case "summary: basics" `Quick summary_basics;
    Alcotest.test_case "summary: empty" `Quick summary_empty;
    Alcotest.test_case "summary: singleton" `Quick summary_single;
    Alcotest.test_case "percentile: interpolation" `Quick percentile_interpolates;
    Alcotest.test_case "percentile: validation" `Quick percentile_rejects;
    QCheck_alcotest.to_alcotest summary_percentiles_order;
    QCheck_alcotest.to_alcotest summary_of_counts;
    QCheck_alcotest.to_alcotest multiset_matches_list;
    Alcotest.test_case "summary: of_counts validation" `Quick of_counts_rejects;
    Alcotest.test_case "table: aligned rendering" `Quick table_renders_aligned;
    Alcotest.test_case "table: arity validation" `Quick table_rejects_bad_rows;
    Alcotest.test_case "table: csv escaping" `Quick table_csv;
    Alcotest.test_case "table: cell formatters" `Quick table_cells;
    Alcotest.test_case "series: ascii rendering" `Quick series_renders;
    Alcotest.test_case "series: csv export" `Quick series_csv;
    Alcotest.test_case "series: empty input" `Quick series_empty;
  ]
