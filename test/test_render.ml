(* Output-engine suite: the render kernel's digit writers and escaping, and
   the templated tile splicer against the per-cell reference renderer it
   replaced.  The QCheck properties pin itoa/ftoa to string_of_int /
   round-trip float parsing; the differential cases prove the templated
   to_csv_dir is byte-identical to the naive renderer for every domain
   count and copy count, on generated workloads and on a hand-built
   database full of quote-needing strings; a committed golden pins the
   RFC-4180 escaping bytes themselves. *)

module Value = Mirage_sql.Value
module Schema = Mirage_sql.Schema
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Render = Mirage_engine.Render
module Scale_out = Mirage_core.Scale_out
module Driver = Mirage_core.Driver
module Par = Mirage_par.Par

let buf_str f =
  let b = Render.Buf.create 8 in
  f b;
  Render.Buf.contents b

(* --- itoa ------------------------------------------------------------------ *)

let test_itoa_cases () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "itoa %d" n)
        (string_of_int n)
        (buf_str (fun b -> Render.Buf.itoa b n)))
    [
      0; 1; -1; 9; 10; 11; 99; 100; 101; -9; -10; -99; -100; 4096;
      999_999_999; 1_000_000_000; max_int; min_int; max_int - 1; min_int + 1;
    ]

let prop_itoa =
  QCheck.Test.make ~name:"itoa = string_of_int" ~count:2000
    QCheck.(int)
    (fun n -> buf_str (fun b -> Render.Buf.itoa b n) = string_of_int n)

(* --- ftoa ------------------------------------------------------------------ *)

(* the unified float format, pinned byte-for-byte: shortest round-trip
   decimal, integral values as bare digits (the committed goldens' %.17g
   images), specials as nan/inf *)
let test_ftoa_pinned () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string)
        (Printf.sprintf "float_repr %h" f)
        want (Render.float_repr f);
      Alcotest.(check string)
        (Printf.sprintf "ftoa %h" f)
        want
        (buf_str (fun b -> Render.Buf.ftoa b f)))
    [
      (0.0, "0");
      (-0.0, "-0");
      (1.0, "1");
      (-1.0, "-1");
      (0.5, "0.5");
      (-2.25, "-2.25");
      (0.1, "0.1");
      (1.0 /. 3.0, "0.3333333333333333");
      (1234.5, "1234.5");
      (43250.0, "43250");
      (1e22, "1e+22");
      (5e-324, "5e-324");
      (nan, "nan");
      (infinity, "inf");
      (neg_infinity, "-inf");
    ]

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> float_of_int i /. 64.0) (int_range (-1_000_000) 1_000_000));
        (2, map float_of_int (int_range (-1_000_000_000) 1_000_000_000));
        (2, float);
        (1, oneofl [ 0.0; -0.0; 1e308; -1e308; 5e-324; 4.2e18; 1.5e16 ]);
      ])

let prop_ftoa_roundtrip =
  QCheck.Test.make ~name:"float_of_string (float_repr f) = f" ~count:2000
    (QCheck.make float_gen) (fun f ->
      let s = Render.float_repr f in
      let f' = float_of_string s in
      if Float.is_nan f then Float.is_nan f'
      else f' = f && 1.0 /. f' = 1.0 /. f (* sign of zero survives *))

let prop_ftoa_buf_agrees =
  QCheck.Test.make ~name:"Buf.ftoa = float_repr" ~count:2000
    (QCheck.make float_gen) (fun f ->
      buf_str (fun b -> Render.Buf.ftoa b f) = Render.float_repr f)

(* --- CSV escaping ---------------------------------------------------------- *)

let test_csv_escape_cases () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) (Printf.sprintf "csv_escape %S" s) want
        (Render.csv_escape s))
    [
      ("", "");
      ("plain", "plain");
      ("with space", "with space");
      ("a,b", "\"a,b\"");
      ("say \"hi\"", "\"say \"\"hi\"\"\"");
      ("line\nbreak", "\"line\nbreak\"");
      ("cr\rhere", "\"cr\rhere\"");
      (",", "\",\"");
      ("\"", "\"\"\"\"");
    ];
  (* unquoted entries are returned physically — pool escaping never copies
     the common case *)
  let s = "no-quoting-needed" in
  Alcotest.(check bool) "physical reuse" true (Render.csv_escape s == s)

(* RFC-4180 unquote as an independent model: escape must invert *)
let csv_unescape s =
  let n = String.length s in
  if n = 0 || s.[0] <> '"' then s
  else begin
    let b = Buffer.create n in
    let i = ref 1 in
    while !i < n - 1 do
      if s.[!i] = '"' && !i + 1 < n - 1 && s.[!i + 1] = '"' then begin
        Buffer.add_char b '"';
        i := !i + 2
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let prop_csv_escape_roundtrip =
  QCheck.Test.make ~name:"csv_escape round-trips through RFC-4180 unquote"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(
         string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; 'z' ]) (0 -- 12)))
    (fun s -> csv_unescape (Render.csv_escape s) = s)

(* --- templated splicer vs reference renderer ------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  dir

(* every file of [dir] as (name, bytes), sorted; removes the directory *)
let collect dir =
  let files = Array.to_list (Sys.readdir dir) |> List.sort compare in
  let all = List.map (fun f -> (f, read_file (Filename.concat dir f))) files in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir;
  all

let check_same_files ~label ~reference got =
  Alcotest.(check (list string))
    (label ^ ": same file set")
    (List.map fst reference) (List.map fst got);
  List.iter2
    (fun (f, want) (_, got) ->
      if not (String.equal want got) then
        Alcotest.failf "%s: %s differs (%d bytes vs %d reference bytes)" label
          f (String.length got) (String.length want))
    reference got

let check_identical_on ~pool ~label ~db ~copies =
  let dir_t = temp_dir "mirage_tpl" and dir_r = temp_dir "mirage_ref" in
  Scale_out.to_csv_dir ~pool ~db ~copies ~dir:dir_t ();
  Scale_out.Reference.to_csv_dir ~db ~copies ~dir:dir_r ();
  let tpl = collect dir_t in
  check_same_files ~label ~reference:(collect dir_r) tpl

let check_identical ~label ~db ~copies ~domains =
  Par.with_pool ~domains (fun pool ->
      check_identical_on ~pool ~label ~db ~copies)

(* a schema exercising every splice shape: keys (pk + fk, one nullable),
   dictionary strings that need quoting, floats, NULLs and a wide fixed
   tail around interleaved key columns *)
let special_db () =
  let dim =
    {
      Schema.tname = "dim";
      pk = "d_key";
      nonkeys =
        [ { Schema.cname = "d_label"; domain_size = 4; kind = Schema.Kstring } ];
      fks = [];
      row_count = 4;
    }
  in
  let fact =
    {
      Schema.tname = "fact";
      pk = "f_key";
      nonkeys =
        [
          { Schema.cname = "f_note"; domain_size = 5; kind = Schema.Kstring };
          { Schema.cname = "f_ratio"; domain_size = 8; kind = Schema.Kfloat };
          { Schema.cname = "f_count"; domain_size = 8; kind = Schema.Kint };
        ];
      fks = [ { Schema.fk_col = "f_dim"; references = "dim" } ];
      row_count = 8;
    }
  in
  let schema = Schema.make [ dim; fact ] in
  let db = Db.create schema in
  Db.put_cols db "dim"
    [
      ("d_key", Col.of_ints [| 1; 2; 3; 4 |]);
      ( "d_label",
        Col.of_strings
          [| "plain"; "comma, inside"; "quote \"q\" here"; "multi\nline" |] );
    ];
  let null3 n =
    let b = Col.Bitset.create n in
    Col.Bitset.set b 3;
    b
  in
  Db.put_cols db "fact"
    [
      ("f_key", Col.of_ints [| 1; 2; 3; 4; 5; 6; 7; 8 |]);
      ( "f_note",
        Col.of_strings ~nulls:(null3 8)
          [| "a"; "b,c"; "d\r\n"; ""; "\""; "x"; "y,"; ",z" |] );
      ( "f_ratio",
        Col.of_floats ~nulls:(null3 8)
          [| 0.5; -2.25; 1.0 /. 3.0; 0.0; 1e22; -0.0; 42.0; 0.1 |] );
      (* a Boxed column: the fallback arms must splice identically *)
      ( "f_count",
        Col.Boxed
          [|
            Value.Int 7; Value.Null; Value.Str "n,a"; Value.Float 2.5;
            Value.Int (-3); Value.Str "plain"; Value.Null; Value.Int 0;
          |] );
      ("f_dim", Col.of_ints ~nulls:(null3 8) [| 1; 2; 3; 0; 4; 1; 2; 3 |]);
    ];
  db

let test_special_identity () =
  let db = special_db () in
  List.iter
    (fun (copies, domains) ->
      check_identical
        ~label:(Printf.sprintf "special copies=%d domains=%d" copies domains)
        ~db ~copies ~domains)
    [ (1, 1); (3, 1); (3, 2); (16, 2) ]

(* the templated writer, Db.to_csv and tile_db must agree on the same bytes
   even with quote-needing cells in play *)
let test_special_matches_tile_db () =
  let db = special_db () in
  let copies = 3 in
  let tiled = Scale_out.tile_db ~db ~copies in
  let dir = Filename.temp_file "mirage_tiledb" "" in
  Sys.remove dir;
  Scale_out.to_csv_dir ~db ~copies ~dir ();
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let got = read_file (Filename.concat dir (tname ^ ".csv")) in
      Alcotest.(check bool)
        (tname ^ ".csv matches Db.to_csv of tile_db")
        true
        (String.equal got (Db.to_csv tiled tname));
      Sys.remove (Filename.concat dir (tname ^ ".csv")))
    (Schema.tables (Db.schema db));
  Sys.rmdir dir

(* committed golden with quote-needing strings: pins the escaping bytes.
   Regenerate with MIRAGE_UPDATE_GOLDENS=1 from the source test/ dir. *)
let test_quote_golden () =
  let db = special_db () in
  let dir = Filename.temp_file "mirage_quote" "" in
  Sys.remove dir;
  Scale_out.to_csv_dir ~db ~copies:2 ~dir ();
  let update = Sys.getenv_opt "MIRAGE_UPDATE_GOLDENS" <> None in
  if update then
    Mirage_engine.Sink.mkdir_p (Filename.concat "goldens" "quote");
  List.iter
    (fun tname ->
      let got = read_file (Filename.concat dir (tname ^ ".csv")) in
      let golden =
        List.fold_left Filename.concat "goldens" [ "quote"; tname ^ ".csv" ]
      in
      if update then
        Out_channel.with_open_bin golden (fun oc ->
            Out_channel.output_string oc got)
      else begin
        let want = read_file golden in
        if not (String.equal want got) then
          Alcotest.failf "goldens/quote/%s.csv: bytes differ (%d vs %d golden)"
            tname (String.length got) (String.length want)
      end;
      Sys.remove (Filename.concat dir (tname ^ ".csv")))
    [ "dim"; "fact" ];
  Sys.rmdir dir

let test_nested_dir () =
  let base = Filename.temp_file "mirage_nested" "" in
  Sys.remove base;
  let dir = Filename.concat (Filename.concat base "deep") "er" in
  let db = special_db () in
  Scale_out.to_csv_dir ~db ~copies:1 ~dir ();
  Alcotest.(check bool) "nested dir created" true (Sys.is_directory dir);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat base "deep");
  Sys.rmdir base

(* --- generated workloads: SSB + TPC-H, domains × copies ------------------- *)

let generate make ~sf =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with seed = 42; batch_size = 1_000_000; domains = 1 }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> r.Driver.r_db

let test_workload_identity name make ~sf () =
  let db = generate make ~sf in
  List.iter
    (fun domains ->
      List.iter
        (fun copies ->
          check_identical
            ~label:(Printf.sprintf "%s domains=%d copies=%d" name domains copies)
            ~db ~copies ~domains)
        [ 1; 3; 16 ])
    [ 1; 2; 4 ]

(* --- failures and rewrites of the claim-loop writer ------------------------ *)

let tpch_db = lazy (generate Mirage_workloads.Tpch.make ~sf:0.05)

(* lineitem.csv is a symlink to /dev/full and one lineitem tile is larger
   than the channel buffer, so a flush fails while other workers still hold
   rendered tiles waiting for their turn: the export must raise Sys_error
   rather than hang, and the same resident pool must then export correct
   bytes *)
let test_write_failure () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let db = Lazy.force tpch_db in
  List.iter
    (fun domains ->
      let pool = Par.get ~domains () in
      let dir = temp_dir "mirage_full" in
      Sys.mkdir dir 0o755;
      Unix.symlink "/dev/full" (Filename.concat dir "lineitem.csv");
      let raised =
        match Scale_out.to_csv_dir ~pool ~db ~copies:8 ~dir () with
        | () -> false
        | exception Sys_error _ -> true
      in
      (* never read the files back: reading /dev/full never ends *)
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      Alcotest.(check bool)
        (Printf.sprintf "Sys_error at domains=%d" domains)
        true raised;
      check_identical_on ~pool
        ~label:(Printf.sprintf "after failure, domains=%d" domains)
        ~db ~copies:3)
    [ 1; 2; 4 ]

(* a smaller export over a larger one truncates every file *)
let test_rewrite_fewer_copies () =
  let db = Lazy.force tpch_db in
  List.iter
    (fun domains ->
      let pool = Par.get ~domains () in
      let dir = temp_dir "mirage_rewrite" and dir_r = temp_dir "mirage_ref" in
      Scale_out.to_csv_dir ~pool ~db ~copies:3 ~dir ();
      Scale_out.to_csv_dir ~pool ~db ~copies:1 ~dir ();
      Scale_out.Reference.to_csv_dir ~db ~copies:1 ~dir:dir_r ();
      let got = collect dir in
      check_same_files
        ~label:(Printf.sprintf "copies 3 then 1, domains=%d" domains)
        ~reference:(collect dir_r) got)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "render"
    [
      ( "kernel",
        [
          Alcotest.test_case "itoa boundary cases" `Quick test_itoa_cases;
          QCheck_alcotest.to_alcotest prop_itoa;
          Alcotest.test_case "ftoa pinned format" `Quick test_ftoa_pinned;
          QCheck_alcotest.to_alcotest prop_ftoa_roundtrip;
          QCheck_alcotest.to_alcotest prop_ftoa_buf_agrees;
          Alcotest.test_case "csv_escape cases" `Quick test_csv_escape_cases;
          QCheck_alcotest.to_alcotest prop_csv_escape_roundtrip;
        ] );
      ( "template",
        [
          Alcotest.test_case "special chars: templated = reference" `Quick
            test_special_identity;
          Alcotest.test_case "special chars: matches tile_db render" `Quick
            test_special_matches_tile_db;
          Alcotest.test_case "quote-needing golden bytes" `Quick
            test_quote_golden;
          Alcotest.test_case "nested output directories" `Quick test_nested_dir;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "ssb domains 1/2/4 x copies 1/3/16" `Slow
            (test_workload_identity "ssb" Mirage_workloads.Ssb.make ~sf:0.1);
          Alcotest.test_case "tpch domains 1/2/4 x copies 1/3/16" `Slow
            (test_workload_identity "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
        ] );
      ( "writer",
        [
          Alcotest.test_case "write failure raises Sys_error, pool reusable"
            `Slow test_write_failure;
          Alcotest.test_case "fewer copies over a larger export" `Slow
            test_rewrite_fewer_copies;
        ] );
    ]
