(* Tests for the text-rendering utilities: Text_table, Csv, Ascii_plot;
   and the one line moas_sim prints when an input file is corrupt. *)

module Table = Mutil.Text_table
module Csv = Mutil.Csv
module Plot = Mutil.Ascii_plot

let test_table_contains_cells () =
  let s =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  List.iter
    (fun needle -> Testutil.check_contains ~what:"table" s needle)
    [ "name"; "value"; "alpha"; "beta"; "22" ]

let test_table_rectangular () =
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Text_table.render: row 0 has 1 cells, expected 2")
    (fun () -> ignore (Table.render ~header:[ "a"; "b" ] [ [ "only" ] ]))

let test_table_alignment () =
  let s =
    Table.render
      ~align:[ Table.Right; Table.Left ]
      ~header:[ "n"; "label" ]
      [ [ "1"; "x" ]; [ "100"; "y" ] ]
  in
  (* the right-aligned numeric column pads on the left *)
  Testutil.check_contains ~what:"aligned table" s "|   1 |"

let test_table_lines_equal_width () =
  let s =
    Table.render ~header:[ "a"; "bb" ] [ [ "ccc"; "d" ]; [ "e"; "ffff" ] ]
  in
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> l <> "")
    |> List.map String.length
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all lines same width" 1 (List.length widths)

let test_cells () =
  Alcotest.(check string) "float cell" "3.14" (Table.float_cell 3.14159);
  Alcotest.(check string) "float cell decimals" "3.1416"
    (Table.float_cell ~decimals:4 3.14159);
  Alcotest.(check string) "percent" "12.30%" (Table.percent_cell 0.123);
  Alcotest.(check string) "percent decimals" "12.3%"
    (Table.percent_cell ~decimals:1 0.123)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_document () =
  let doc = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4,5" ] ] in
  Alcotest.(check string) "document" "x,y\n1,2\n3,\"4,5\"\n" doc

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "moas_test" ".csv" in
  Csv.write_file ~path ~header:[ "a" ] [ [ "b" ] ];
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file contents" "a\nb\n" contents

let test_plot_renders () =
  let s =
    Plot.plot ~title:"t"
      [
        { Plot.label = "up"; points = [ (0.0, 0.0); (10.0, 10.0) ] };
        { Plot.label = "down"; points = [ (0.0, 10.0); (10.0, 0.0) ] };
      ]
  in
  Testutil.check_contains ~what:"plot" s "t";
  Testutil.check_contains ~what:"plot legend" s "up";
  Testutil.check_contains ~what:"plot legend" s "down";
  Testutil.check_contains ~what:"plot glyph" s "*";
  Testutil.check_contains ~what:"plot glyph" s "o"

let test_plot_single_point () =
  (* degenerate input must not divide by zero *)
  let s = Plot.plot ~title:"p" [ { Plot.label = "dot"; points = [ (1.0, 1.0) ] } ] in
  Testutil.check_contains ~what:"single point plot" s "dot"

let test_plot_empty_series () =
  let s = Plot.plot ~title:"e" [ { Plot.label = "none"; points = [] } ] in
  Testutil.check_contains ~what:"empty plot" s "none"

let test_bar_chart () =
  let s = Plot.bar_chart ~title:"bars" [ ("a", 2.0); ("b", 4.0) ] in
  Testutil.check_contains ~what:"bar chart" s "bars";
  Testutil.check_contains ~what:"bar chart" s "####";
  (* the larger bar is twice as long *)
  let count_hashes line =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line
  in
  let lines = String.split_on_char '\n' s in
  let a_line = List.find (fun l -> Testutil.contains l "a ") lines in
  let b_line = List.find (fun l -> Testutil.contains l "b ") lines in
  Alcotest.(check int) "proportional bars" (2 * count_hashes a_line)
    (count_hashes b_line)

let prop_csv_row_arity =
  Testutil.qtest "csv row joins with commas outside quotes"
    QCheck2.Gen.(list_size (int_range 1 5) (string_size ~gen:printable (int_range 0 8)))
    (fun cells ->
      let line = Csv.row_to_string cells in
      (* unquoted commas in the output = cells - 1 *)
      let commas_outside =
        let in_quotes = ref false and n = ref 0 in
        String.iter
          (fun c ->
            if c = '"' then in_quotes := not !in_quotes
            else if c = ',' && not !in_quotes then incr n)
          line;
        !n
      in
      commas_outside = List.length cells - 1)

(* ---------------- moas_sim on a corrupt input ---------------- *)

(* Run moas_sim (built beside the tests) with stdout dropped: its exit
   status and what it wrote to stderr. *)
let moas_sim args =
  let err = Filename.temp_file "moas_sim" ".err" in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s"
         (Filename.quote
            (Filename.concat (Filename.dirname Sys.executable_name) "../bin/moas_sim.exe"))
         args (Filename.quote err))
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, text)

(* One octet in the middle of the file flipped. *)
let corrupt_copy write =
  let path = Filename.temp_file "moas_sim" ".bin" in
  write path;
  let data = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let mid = Bytes.length data / 2 in
  Bytes.set_uint8 data mid (Bytes.get_uint8 data mid lxor 0x5a);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data);
  path

let test_corrupt_inputs () =
  List.iter
    (fun (what, write, args) ->
      let path = corrupt_copy write in
      let status, err = moas_sim (args path) in
      Sys.remove path;
      Alcotest.(check int) (what ^ ": exit status") 1 status;
      let prefix = Printf.sprintf "moas_sim: %s: corrupt %s: " path what in
      Alcotest.(check bool) (what ^ ": " ^ err) true
        (String.starts_with ~prefix err
        && String.index err '\n' = String.length err - 1))
    [
      ( "store",
        (fun path -> Collect.Store.write_file path (Lazy.force Testutil.collect_smoke_store)),
        Printf.sprintf "collect --store %s --query min_visibility=1" );
      ( "checkpoint",
        (fun path ->
          Stream.Checkpoint.write_file path
            (Stream.Monitor.empty_snapshot Stream.Monitor.default_config)),
        Printf.sprintf "monitor --smoke --resume %s" );
    ]

let () =
  Alcotest.run "text_output"
    [
      ( "text_table",
        [
          Alcotest.test_case "cells present" `Quick test_table_contains_cells;
          Alcotest.test_case "rectangularity" `Quick test_table_rectangular;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "uniform width" `Quick test_table_lines_equal_width;
          Alcotest.test_case "formatting helpers" `Quick test_cells;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escape;
          Alcotest.test_case "document" `Quick test_csv_document;
          Alcotest.test_case "file write" `Quick test_csv_roundtrip_file;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "renders series" `Quick test_plot_renders;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
          Alcotest.test_case "empty series" `Quick test_plot_empty_series;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
        ] );
      ("properties", [ prop_csv_row_arity ]);
      ( "moas_sim",
        [ Alcotest.test_case "corrupt store and checkpoint" `Quick test_corrupt_inputs ] );
    ]
