(* Crash-safe chunked export: sink unit tests (CRC, manifest, fault
   injection, stale-file hygiene) and end-to-end resume byte-identity on
   generated SSB / TPC-H databases across domain counts. *)

module Sink = Mirage_engine.Sink
module Budget = Mirage_util.Budget
module Driver = Mirage_core.Driver
module Diag = Mirage_core.Diag
module Scale_out = Mirage_core.Scale_out
module Sql_export = Mirage_core.Sql_export
module Par = Mirage_par.Par
module Schema = Mirage_sql.Schema
module Db = Mirage_engine.Db

let fresh_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Sink.mkdir_p base;
  base

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let tmp_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".tmp")

let put_string w s =
  Sink.put w (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* --- unit: crc32 ---------------------------------------------------------- *)

let test_crc32 () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int)
    "known answer" 0xCBF43926
    (Sink.crc32 b ~pos:0 ~len:(Bytes.length b));
  (* incremental over a split equals one-shot *)
  let c1 = Sink.crc32 b ~pos:0 ~len:4 in
  let c2 = Sink.crc32 ~crc:c1 b ~pos:4 ~len:5 in
  Alcotest.(check int) "incremental" 0xCBF43926 c2;
  Alcotest.(check int) "empty is zero" 0 (Sink.crc32 b ~pos:0 ~len:0)

(* --- unit: manifest round trip -------------------------------------------- *)

let test_manifest_roundtrip () =
  let dir = fresh_dir "mirage_sink_rt" in
  let t = Sink.create ~dir ~run_id:"rt-1" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "hello,world\n");
  Sink.write_shard t ~name:"a.csv.1" (fun w -> put_string w "more\n");
  Sink.finish t;
  let t2 = Sink.create ~resume:true ~dir ~run_id:"rt-1" () in
  Alcotest.(check int) "resumed both" 2 (Sink.resumed_shards t2);
  Alcotest.(check bool) "a.csv.0 done" true (Sink.is_done t2 "a.csv.0");
  Alcotest.(check bool) "a.csv.1 done" true (Sink.is_done t2 "a.csv.1");
  Alcotest.(check bool) "unknown not done" false (Sink.is_done t2 "a.csv.2");
  let names = List.map (fun s -> s.Sink.sh_name) (Sink.completed t2) in
  Alcotest.(check (list string)) "commit order" [ "a.csv.0"; "a.csv.1" ] names;
  let sizes = List.map (fun s -> s.Sink.sh_bytes) (Sink.completed t2) in
  Alcotest.(check (list int)) "sizes" [ 12; 5 ] sizes;
  (* a write_shard for a committed name is a no-op *)
  Sink.write_shard t2 ~name:"a.csv.0" (fun _ -> Alcotest.fail "re-rendered");
  rm_rf dir

let test_run_id_mismatch () =
  let dir = fresh_dir "mirage_sink_id" in
  let t = Sink.create ~dir ~run_id:"old" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "x\n");
  let t2 = Sink.create ~resume:true ~dir ~run_id:"new" () in
  Alcotest.(check int) "fresh start" 0 (Sink.resumed_shards t2);
  Alcotest.(check bool) "nothing done" false (Sink.is_done t2 "a.csv.0");
  Alcotest.(check bool)
    "stale manifest removed" false
    (Sys.file_exists (Sink.manifest_path ~dir));
  rm_rf dir

let test_stale_tmp_cleanup () =
  let dir = fresh_dir "mirage_sink_tmp" in
  write_file (Filename.concat dir "dead.csv.3.tmp") "half a shard";
  write_file (Filename.concat dir "MANIFEST.json.tmp") "half a manifest";
  let _ = Sink.create ~dir ~run_id:"x" () in
  Alcotest.(check (list string)) "tmp files removed" [] (tmp_files dir);
  rm_rf dir

let test_resume_drops_bad_size () =
  let dir = fresh_dir "mirage_sink_size" in
  let t = Sink.create ~dir ~run_id:"s" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "0123456789\n");
  (* truncate behind the manifest's back, as a torn disk would *)
  write_file (Filename.concat dir "a.csv.0") "0123";
  let t2 = Sink.create ~resume:true ~dir ~run_id:"s" () in
  Alcotest.(check bool)
    "mismatched shard re-rendered" false
    (Sink.is_done t2 "a.csv.0");
  rm_rf dir

let test_mkdir_p_concurrent () =
  let base = fresh_dir "mirage_mkdir" in
  let target = Filename.concat (Filename.concat base "a") "b" in
  (* both domains race the same nested creation; the loser must treat the
     winner's directory as success *)
  Par.with_pool ~domains:2 @@ fun pool ->
  Par.run pool 2 (fun _ -> Sink.mkdir_p target);
  Alcotest.(check bool) "created" true (Sys.is_directory target);
  Sink.mkdir_p target;
  rm_rf base

(* --- unit: fault injection ------------------------------------------------- *)

let test_enospc_no_orphans () =
  let dir = fresh_dir "mirage_sink_enospc" in
  let backend =
    Sink.faulty
      { Sink.no_faults with enospc_after_bytes = Some 8 }
      Sink.os_backend
  in
  let t = Sink.create ~backend ~dir ~run_id:"e" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "0123456789\n");
  let failed =
    match
      Sink.write_shard t ~name:"a.csv.1" (fun w ->
          put_string w "this write crosses the injected capacity\n")
    with
    | () -> false
    | exception Sink.Io_failure _ -> true
  in
  Alcotest.(check bool) "Io_failure raised" true failed;
  Alcotest.(check (list string)) "no orphaned temp files" [] (tmp_files dir);
  Alcotest.(check bool)
    "committed shard intact" true
    (Sys.file_exists (Filename.concat dir "a.csv.0"));
  (* the manifest still checkpoints exactly the committed prefix *)
  let t2 = Sink.create ~resume:true ~dir ~run_id:"e" () in
  Alcotest.(check int) "resume sees one shard" 1 (Sink.resumed_shards t2);
  rm_rf dir

let test_short_writes_byte_exact () =
  let dir = fresh_dir "mirage_sink_short" in
  let backend = Sink.faulty { Sink.no_faults with short_writes = true } Sink.os_backend in
  let t = Sink.create ~backend ~dir ~run_id:"s" () in
  let payload = String.concat "," (List.init 200 string_of_int) ^ "\n" in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w payload);
  Alcotest.(check string)
    "partial writes drained" payload
    (read_file (Filename.concat dir "a.csv.0"));
  rm_rf dir

let test_crash_leaves_tmp_then_resume () =
  let dir = fresh_dir "mirage_sink_crash" in
  let backend =
    Sink.faulty { Sink.no_faults with crash_after_shards = Some 1 } Sink.os_backend
  in
  let t = Sink.create ~backend ~dir ~run_id:"c" () in
  Sink.write_shard t ~name:"a.csv.0" (fun w -> put_string w "first\n");
  let crashed =
    match Sink.write_shard t ~name:"a.csv.1" (fun w -> put_string w "second\n") with
    | () -> false
    | exception Sink.Injected_crash _ -> true
  in
  Alcotest.(check bool) "crash raised" true crashed;
  Alcotest.(check (list string))
    "kill leaves the temp file" [ "a.csv.1.tmp" ] (tmp_files dir);
  (* restart: stale tmp swept, committed prefix resumed, rest re-rendered *)
  let t2 = Sink.create ~resume:true ~dir ~run_id:"c" () in
  Alcotest.(check (list string)) "tmp swept on resume" [] (tmp_files dir);
  Alcotest.(check int) "one shard resumed" 1 (Sink.resumed_shards t2);
  Sink.write_shard t2 ~name:"a.csv.1" (fun w -> put_string w "second\n");
  Alcotest.(check string)
    "identical after resume" "first\nsecond\n"
    (read_file (Filename.concat dir "a.csv.0")
    ^ read_file (Filename.concat dir "a.csv.1"));
  rm_rf dir

(* --- end-to-end: generated workloads -------------------------------------- *)

let generate make ~sf =
  let workload, ref_db, prod_env = make ~sf ~seed:7 in
  let config =
    { Driver.default_config with seed = 42; batch_size = 1_000_000; domains = 1 }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Error d -> Alcotest.fail (Mirage_core.Diag.to_string d)
  | Ok r -> (workload, r)

let concat_shards dir tname =
  let rec go k acc =
    let p = Filename.concat dir (Printf.sprintf "%s.csv.%d" tname k) in
    if Sys.file_exists p then go (k + 1) (acc ^ read_file p) else acc
  in
  go 0 ""

let table_names db =
  List.map (fun (t : Schema.table) -> t.Schema.tname) (Schema.tables (Db.schema db))

(* shard fan-out small enough to be quick, large enough that the fact table
   splits into several shards *)
let chunk_rows_for db =
  let largest =
    List.fold_left (fun m t -> max m (Db.row_count db t)) 1 (table_names db)
  in
  max 1 (largest / 2)

(* the whole chunked export after generation: open, then finish *)
let export_chunked ?pool ?backend ?resume ?compress ?interrupt ~db ~copies
    ~chunk_rows ~dir ~run_id () =
  Scale_out.finish_csv_export ~db
    (Scale_out.open_csv_export ?pool ?backend ?resume ?compress ?interrupt
       ~copies ~chunk_rows ~dir ~run_id ())

let check_chunked_identity ~label ~db ~copies ~domains =
  let mono = fresh_dir "mirage_mono" and chunk = fresh_dir "mirage_chunk" in
  Scale_out.to_csv_dir ~db ~copies ~dir:mono ();
  Par.with_pool ~domains (fun pool ->
      let rep =
        export_chunked ~pool ~db ~copies ~chunk_rows:(chunk_rows_for db)
          ~dir:chunk ~run_id:label ()
      in
      Alcotest.(check int) (label ^ ": nothing resumed") 0 rep.Scale_out.cr_resumed);
  List.iter
    (fun t ->
      let m = read_file (Filename.concat mono (t ^ ".csv")) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s chunked = monolithic" label t)
        true
        (String.equal m (concat_shards chunk t)))
    (table_names db);
  rm_rf mono;
  rm_rf chunk

let check_crash_resume ~label ~db ~copies ~domains ~crash_after =
  let mono = fresh_dir "mirage_mono" and chunk = fresh_dir "mirage_chunk" in
  Scale_out.to_csv_dir ~db ~copies ~dir:mono ();
  let chunk_rows = chunk_rows_for db in
  let run_id = label ^ "-resume" in
  (* run 1: killed after [crash_after] committed shards *)
  let crashed =
    Par.with_pool ~domains (fun pool ->
        let backend =
          Sink.faulty
            { Sink.no_faults with crash_after_shards = Some crash_after }
            Sink.os_backend
        in
        match
          export_chunked ~pool ~backend ~db ~copies ~chunk_rows ~dir:chunk
            ~run_id ()
        with
        | _ -> false
        | exception Sink.Injected_crash _ -> true)
  in
  Alcotest.(check bool) (label ^ ": run 1 crashed") true crashed;
  (* run 2: resume from the manifest, clean backend *)
  Par.with_pool ~domains (fun pool ->
      let rep =
        export_chunked ~pool ~resume:true ~db ~copies ~chunk_rows ~dir:chunk
          ~run_id ()
      in
      Alcotest.(check int)
        (label ^ ": committed prefix resumed")
        crash_after rep.Scale_out.cr_resumed);
  Alcotest.(check (list string)) (label ^ ": no temp files") [] (tmp_files chunk);
  List.iter
    (fun t ->
      let m = read_file (Filename.concat mono (t ^ ".csv")) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s resumed run byte-identical" label t)
        true
        (String.equal m (concat_shards chunk t)))
    (table_names db);
  rm_rf mono;
  rm_rf chunk

let test_workload_chunked name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_chunked_identity
        ~label:(Printf.sprintf "%s domains=%d" name domains)
        ~db ~copies:3 ~domains)
    [ 1; 2; 4 ]

let test_workload_crash_resume name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_crash_resume
        ~label:(Printf.sprintf "%s domains=%d" name domains)
        ~db ~copies:3 ~domains ~crash_after:2)
    [ 1; 2; 4 ]

let test_sql_chunked_identity () =
  let workload, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db and env = r.Driver.r_env in
  let mono = fresh_dir "mirage_sqlm" and chunk = fresh_dir "mirage_sqlc" in
  Sql_export.export_dir ~db ~workload ~env ~dir:mono;
  (* crash mid-export, then resume *)
  let crashed =
    let backend =
      Sink.faulty { Sink.no_faults with crash_after_shards = Some 2 } Sink.os_backend
    in
    match
      Sql_export.export_chunked ~backend ~db ~workload ~env ~dir:chunk
        ~chunk_rows:700 ~run_id:"sql" ()
    with
    | _ -> false
    | exception Sink.Injected_crash _ -> true
  in
  Alcotest.(check bool) "sql run 1 crashed" true crashed;
  let _, resumed =
    Sql_export.export_chunked ~resume:true ~db ~workload ~env ~dir:chunk
      ~chunk_rows:700 ~run_id:"sql" ()
  in
  Alcotest.(check int) "sql shards resumed" 2 resumed;
  let rec cat k acc =
    let p = Filename.concat chunk (Printf.sprintf "data.sql.%d" k) in
    if Sys.file_exists p then cat (k + 1) (acc ^ read_file p) else acc
  in
  Alcotest.(check bool)
    "data.sql chunked = monolithic" true
    (String.equal (read_file (Filename.concat mono "data.sql")) (cat 0 ""));
  Alcotest.(check bool)
    "schema.sql written" true
    (String.equal
       (read_file (Filename.concat mono "schema.sql"))
       (read_file (Filename.concat chunk "schema.sql")));
  rm_rf mono;
  rm_rf chunk

(* --- concurrent per-table exports ----------------------------------------- *)

(* every table exported by its own concurrent [export_table] call, as the
   overlapped scheduler does, then [finish]: the nested shard regions share
   one pool and the result must equal the monolithic writer *)
let check_sharded_identity ~label ~db ~copies ~domains =
  let mono = fresh_dir "mirage_mono" and shard = fresh_dir "mirage_shard" in
  Scale_out.to_csv_dir ~db ~copies ~dir:mono ();
  Par.with_pool ~domains (fun pool ->
      let h =
        Scale_out.open_csv_export ~pool ~copies
          ~chunk_rows:(chunk_rows_for db) ~dir:shard ~run_id:label ()
      in
      let tables = Array.of_list (table_names db) in
      Par.run pool (Array.length tables) (fun i ->
          Scale_out.export_table h ~db tables.(i));
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s exported before finish" label t)
            true
            (Sys.file_exists (Filename.concat shard (t ^ ".csv.0"))))
        (table_names db);
      let rep = Scale_out.finish_csv_export h ~db in
      Alcotest.(check int) (label ^ ": nothing resumed") 0 rep.Scale_out.cr_resumed);
  List.iter
    (fun t ->
      let m = read_file (Filename.concat mono (t ^ ".csv")) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s sharded = monolithic" label t)
        true
        (String.equal m (concat_shards shard t)))
    (table_names db);
  rm_rf mono;
  rm_rf shard

let test_workload_sharded name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_sharded_identity
        ~label:(Printf.sprintf "%s sharded domains=%d" name domains)
        ~db ~copies:3 ~domains)
    [ 1; 2; 4 ]

(* --- gzip round trip: the reference decompressor is the oracle ------------- *)

let gunzip_bytes label s =
  let gz = Filename.temp_file "mirage_gz" ".gz" in
  let out = Filename.temp_file "mirage_gz" ".out" in
  write_file gz s;
  let rc =
    Sys.command
      (Printf.sprintf "gzip -dc %s > %s 2>/dev/null" (Filename.quote gz)
         (Filename.quote out))
  in
  let r = if rc = 0 then Some (read_file out) else None in
  Sys.remove gz;
  Sys.remove out;
  match r with
  | Some s -> s
  | None -> Alcotest.fail (label ^ ": gzip -d rejected the stream")

let concat_gz_shards dir tname =
  (* shard index order is manifest (seq) order per table *)
  let rec go k acc =
    let p = Filename.concat dir (Printf.sprintf "%s.csv.%d.gz" tname k) in
    if Sys.file_exists p then go (k + 1) (acc ^ read_file p) else acc
  in
  go 0 ""

let check_gzip_roundtrip ~label ~db ~copies ~domains =
  let mono = fresh_dir "mirage_mono" and gzd = fresh_dir "mirage_gzd" in
  Scale_out.to_csv_dir ~db ~copies ~dir:mono ();
  Par.with_pool ~domains (fun pool ->
      ignore
        (export_chunked ~pool ~compress:true ~db ~copies
           ~chunk_rows:(chunk_rows_for db) ~dir:gzd ~run_id:label ()));
  List.iter
    (fun t ->
      let m = read_file (Filename.concat mono (t ^ ".csv")) in
      let cat = concat_gz_shards gzd t in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s gz shards present" label t)
        true (cat <> "");
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s gunzipped concatenation = monolithic" label t)
        true
        (String.equal m (gunzip_bytes (label ^ "/" ^ t) cat)))
    (table_names db);
  rm_rf mono;
  rm_rf gzd

let test_workload_gzip name make ~sf () =
  let _, r = generate make ~sf in
  let db = r.Driver.r_db in
  List.iter
    (fun domains ->
      check_gzip_roundtrip
        ~label:(Printf.sprintf "%s gz domains=%d" name domains)
        ~db ~copies:3 ~domains)
    [ 1; 2; 4 ]

(* --- budget breach racing the per-domain shard writers -------------------- *)

let test_budget_race_sharded () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let copies = 3 in
  let chunk_rows = chunk_rows_for db in
  List.iter
    (fun domains ->
      let label = Printf.sprintf "race domains=%d" domains in
      let dir = fresh_dir "mirage_race" in
      let run_id = label in
      (* the deadline token is already expired; the countdown delays the
         first check so several writers are mid-shard across domains when
         the breach lands *)
      let token =
        Budget.start { Budget.no_limits with Budget.deadline_s = Some 0.0 }
      in
      let polls = Atomic.make 0 in
      let interrupt () =
        if Atomic.fetch_and_add polls 1 >= 3 * domains then Budget.check token
      in
      let tripped =
        Par.with_pool ~domains (fun pool ->
            match
              export_chunked ~pool ~interrupt ~db ~copies ~chunk_rows ~dir
                ~run_id ()
            with
            | _ -> false
            | exception Budget.Exceeded _ -> true)
      in
      Alcotest.(check bool) (label ^ ": budget tripped") true tripped;
      Alcotest.(check (list string))
        (label ^ ": no orphaned temp files")
        [] (tmp_files dir);
      (* every shard the manifest committed is on disk at its recorded size *)
      let t2 = Sink.create ~resume:true ~dir ~run_id () in
      let committed = Sink.completed t2 in
      List.iter
        (fun (s : Sink.shard) ->
          let p = Filename.concat dir s.Sink.sh_name in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s exists" label s.Sink.sh_name)
            true (Sys.file_exists p);
          Alcotest.(check int)
            (Printf.sprintf "%s: %s size matches manifest" label s.Sink.sh_name)
            s.Sink.sh_bytes
            (let st = Unix.stat p in
             st.Unix.st_size))
        committed;
      (* a clean resume completes the export byte-identically *)
      let mono = fresh_dir "mirage_mono" in
      Scale_out.to_csv_dir ~db ~copies ~dir:mono ();
      Par.with_pool ~domains (fun pool ->
          let rep =
            export_chunked ~pool ~resume:true ~db ~copies ~chunk_rows ~dir
              ~run_id ()
          in
          Alcotest.(check int)
            (label ^ ": committed shards resumed")
            (List.length committed) rep.Scale_out.cr_resumed);
      List.iter
        (fun t ->
          let m = read_file (Filename.concat mono (t ^ ".csv")) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s resumed run byte-identical" label t)
            true
            (String.equal m (concat_shards dir t)))
        (table_names db);
      rm_rf mono;
      rm_rf dir)
    [ 1; 2; 4 ]

(* --- stale shards of the other compression form --------------------------- *)

(* a gzip export and then a raw one into the same directory (and the
   reverse) must leave exactly the second run's manifest shards: the sweep
   removes every shard of the form not being written, not only indices past
   the new shard count.  Deleting each table's first-run shard 0 leaves the
   gap a killed run of concurrent writers can leave behind. *)
let test_other_form_swept () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let form compress = if compress then "gzip" else "raw" in
  List.iter
    (fun (first, second) ->
      let label = form first ^ " then " ^ form second in
      let dir = fresh_dir "mirage_forms" in
      let run compress =
        ignore
          (export_chunked ~compress ~db ~copies:3
             ~chunk_rows:(chunk_rows_for db) ~dir ~run_id:(form compress) ())
      in
      run first;
      let gaps =
        List.filter
          (fun t ->
            let shard k =
              Filename.concat dir
                (Printf.sprintf "%s.csv.%d%s" t k (if first then ".gz" else ""))
            in
            Sys.file_exists (shard 1)
            && begin
                 Sys.remove (shard 0);
                 true
               end)
          (table_names db)
      in
      Alcotest.(check bool) (label ^ ": gap left") true (gaps <> []);
      run second;
      let committed =
        Sink.completed (Sink.create ~resume:true ~dir ~run_id:(form second) ())
        |> List.map (fun (sh : Sink.shard) -> sh.Sink.sh_name)
        |> List.sort compare
      in
      let on_disk =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               f <> Filename.basename (Sink.manifest_path ~dir))
        |> List.sort compare
      in
      Alcotest.(check bool) (label ^ ": shards written") true (committed <> []);
      Alcotest.(check (list string))
        (label ^ ": only the manifest's shards remain")
        committed on_disk;
      rm_rf dir)
    [ (true, false); (false, true) ]

(* --- big-column backend is representation-blind ---------------------------- *)

let test_big_rows_representation_blind () =
  let module Col = Mirage_engine.Col in
  let export db =
    let dir = fresh_dir "mirage_repr" in
    Scale_out.to_csv_dir ~db ~copies:2 ~dir ();
    let bytes =
      String.concat "\x00"
        (List.map
           (fun t -> read_file (Filename.concat dir (t ^ ".csv")))
           (table_names db))
    in
    rm_rf dir;
    bytes
  in
  let saved = Col.big_rows () in
  Fun.protect
    ~finally:(fun () -> Col.set_big_rows saved)
    (fun () ->
      let _, r_small = generate Mirage_workloads.Ssb.make ~sf:0.05 in
      let heap_bytes = export r_small.Driver.r_db in
      (* rerun the whole pipeline with a threshold low enough that every
         table-sized structure takes the Bigarray path *)
      Col.set_big_rows 8;
      let _, r_big = generate Mirage_workloads.Ssb.make ~sf:0.05 in
      let big_bytes = export r_big.Driver.r_db in
      Alcotest.(check bool)
        "big-column and heap columns generate identical bytes" true
        (String.equal heap_bytes big_bytes))

(* --- budget: typed degradation, not exceptions ----------------------------- *)

let test_deadline_typed_diag () =
  let workload, ref_db, prod_env = Mirage_workloads.Ssb.make ~sf:0.05 ~seed:7 in
  let config =
    { Driver.default_config with
      seed = 42;
      domains = 1;
      budget = { Budget.no_limits with Budget.deadline_s = Some 0.0 } }
  in
  match Driver.generate ~config workload ~ref_db ~prod_env with
  | Ok _ -> Alcotest.fail "expected a budget breach"
  | Error d ->
      Alcotest.(check string) "stage" "budget" (Diag.stage_name d.Diag.d_stage);
      Alcotest.(check int) "exit code" 3 (Diag.exit_code d)

let test_export_deadline_no_orphans () =
  let _, r = generate Mirage_workloads.Ssb.make ~sf:0.05 in
  let db = r.Driver.r_db in
  let dir = fresh_dir "mirage_deadline" in
  let token =
    Budget.start { Budget.no_limits with Budget.deadline_s = Some 0.0 }
  in
  let tripped =
    match
      export_chunked
        ~interrupt:(fun () -> Budget.check token)
        ~db ~copies:2 ~chunk_rows:100 ~dir ~run_id:"dl" ()
    with
    | _ -> false
    | exception Budget.Exceeded (Budget.Deadline _) -> true
  in
  Alcotest.(check bool) "deadline tripped during export" true tripped;
  Alcotest.(check (list string)) "no temp files left" [] (tmp_files dir);
  rm_rf dir

let () =
  Alcotest.run "sink"
    [
      ( "unit",
        [
          Alcotest.test_case "crc32 known answers" `Quick test_crc32;
          Alcotest.test_case "manifest round trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "run_id mismatch starts fresh" `Quick
            test_run_id_mismatch;
          Alcotest.test_case "stale tmp files swept" `Quick test_stale_tmp_cleanup;
          Alcotest.test_case "size mismatch re-renders" `Quick
            test_resume_drops_bad_size;
          Alcotest.test_case "mkdir_p concurrent creation" `Quick
            test_mkdir_p_concurrent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "ENOSPC leaves no orphans" `Quick
            test_enospc_no_orphans;
          Alcotest.test_case "short writes drain byte-exact" `Quick
            test_short_writes_byte_exact;
          Alcotest.test_case "crash leaves tmp; resume sweeps and completes"
            `Quick test_crash_leaves_tmp_then_resume;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "ssb chunked = monolithic, domains 1/2/4" `Slow
            (test_workload_chunked "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case "tpch chunked = monolithic, domains 1/2/4" `Slow
            (test_workload_chunked "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case "ssb crash+resume byte-identity, domains 1/2/4"
            `Slow
            (test_workload_crash_resume "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case "tpch crash+resume byte-identity, domains 1/2/4"
            `Slow
            (test_workload_crash_resume "tpch" Mirage_workloads.Tpch.make
               ~sf:0.05);
          Alcotest.test_case "data.sql crash+resume identity" `Slow
            test_sql_chunked_identity;
          Alcotest.test_case "ssb sharded = monolithic, domains 1/2/4" `Slow
            (test_workload_sharded "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case "tpch sharded = monolithic, domains 1/2/4" `Slow
            (test_workload_sharded "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case
            "ssb gzip shards gunzip to monolithic, domains 1/2/4" `Slow
            (test_workload_gzip "ssb" Mirage_workloads.Ssb.make ~sf:0.05);
          Alcotest.test_case
            "tpch gzip shards gunzip to monolithic, domains 1/2/4" `Slow
            (test_workload_gzip "tpch" Mirage_workloads.Tpch.make ~sf:0.05);
          Alcotest.test_case "big-column backend is representation-blind" `Slow
            test_big_rows_representation_blind;
          Alcotest.test_case "other compression form swept, both directions"
            `Slow test_other_form_swept;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline yields typed Diag (exit 3)" `Quick
            test_deadline_typed_diag;
          Alcotest.test_case "export deadline leaves no orphans" `Quick
            test_export_deadline_no_orphans;
          Alcotest.test_case
            "budget breach racing sharded writers, domains 1/2/4" `Slow
            test_budget_race_sharded;
        ] );
    ]
