(* One benchmark run in one process.

     worker.exe --workload ssb|tpch|tpcds --sf F --seed N --domains D
       --out DIR [--chunk-rows R] [--copies K] [--compress]
       [--trace FILE] [--setup-only]

   The run calls the library's public API in the order `mirage generate`
   does: <Workload>.make, Driver.generate (with Scale_out.export_table as
   the on_table_ready hook when the export is chunked), then
   Scale_out.finish_csv_export or Scale_out.to_csv_dir, then
   Driver.measure_errors.  It prints one JSON object on stdout.  With
   --trace, spans recorded around those calls are written to FILE as Chrome
   trace-event JSON (opens in Perfetto).  --setup-only stops after the
   set-up phase.  The output directory must be empty or absent: the export
   never resumes. *)

module Driver = Mirage_core.Driver
module Scale_out = Mirage_core.Scale_out
module Solve_cache = Mirage_core.Solve_cache
module Error = Mirage_core.Error
module Par = Mirage_par.Par

let now = Unix.gettimeofday
let t_proc = now ()

(* ---- arguments ---- *)

let workload = ref ""
let sf = ref 0.0
let seed = ref 7
let domains = ref 1
let out = ref ""
let chunk_rows = ref 0
let copies = ref 1
let compress = ref false
let trace = ref ""
let setup_only = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ssb|tpch|tpcds");
      ("--sf", Arg.Set_float sf, "scale factor");
      ("--seed", Arg.Set_int seed, "generation seed");
      ("--domains", Arg.Set_int domains, "domain-pool width");
      ("--out", Arg.Set_string out, "output directory");
      ("--chunk-rows", Arg.Set_int chunk_rows, "streamed chunks (0: monolithic)");
      ("--copies", Arg.Set_int copies, "export tiles");
      ("--compress", Arg.Set compress, "gzip shards");
      ("--trace", Arg.Set_string trace, "Chrome trace-event output file");
      ("--setup-only", Arg.Set setup_only, "stop after set-up");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "worker.exe --workload W --sf F --seed N --domains D --out DIR [options]"

let tracing = !trace <> ""

(* ---- host-drift probe ---- *)

(* A fixed integer loop (~0.2 s on a 2-core x86-64 VM), timed just before
   the run so a slow set can be attributed to the host.  Reported beside the
   run; never used to adjust a metric. *)
let probe () =
  let x = ref 1 in
  for i = 1 to 100_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x)

(* ---- spans ---- *)

type span = {
  name : string;
  tid : int;
  t0 : float;
  t1 : float;
  args : (string * string) list;  (* values already JSON-encoded *)
}

(* export_table hooks run on worker domains: one lock around the list *)
let spans = ref []
let spans_m = Mutex.create ()

let record ?(args = []) name t0 t1 =
  let s = { name; tid = (Domain.self () :> int); t0; t1; args } in
  Mutex.lock spans_m;
  spans := s :: !spans;
  Mutex.unlock spans_m

let num f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
let int = string_of_int
let str s = Printf.sprintf "%S" s

let obj fields =
  "{" ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let write_trace file =
  let us t = num ((t -. t_proc) *. 1e6) in
  let event s =
    obj
      [
        ("name", str s.name); ("ph", str "X"); ("pid", "1");
        ("tid", int s.tid); ("ts", us s.t0);
        ("dur", num ((s.t1 -. s.t0) *. 1e6)); ("args", obj s.args);
      ]
  in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  output_string oc
    (String.concat ",\n" (List.rev_map event !spans));
  output_string oc "\n]}\n";
  close_out oc

(* ---- the run ---- *)

(* The reference database and workload are the same in every run; --seed
   varies only the generation.  Reference seeds move CP time and peak RSS
   far more than generation seeds do (see README.md). *)
let ref_seed = 7

let make () =
  let seed = ref_seed in
  match !workload with
  | "ssb" -> Mirage_workloads.Ssb.make ~sf:!sf ~seed
  | "tpch" -> Mirage_workloads.Tpch.make ~sf:!sf ~seed
  | "tpcds" -> Mirage_workloads.Tpcds.make ~sf:!sf ~seed
  | w -> failwith ("unknown workload " ^ w)

(* peak resident set of this process, in kB *)
let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let timing_args (r : Driver.result) cache =
  let t = r.Driver.r_timings in
  [
    ("t_extract", num t.Driver.t_extract); ("t_decouple", num t.Driver.t_decouple);
    ("t_cdf", num t.Driver.t_cdf); ("t_gd", num t.Driver.t_gd);
    ("t_acc", num t.Driver.t_acc); ("t_cs", num t.Driver.t_cs);
    ("t_cp", num t.Driver.t_cp); ("t_pf", num t.Driver.t_pf);
    ("t_total", num t.Driver.t_total); ("t_cpu", num t.Driver.t_cpu);
    ("domains_used", int t.Driver.domains_used);
    ("cp_solves", int t.Driver.cp_solves); ("cp_nodes", int t.Driver.cp_nodes);
    ("cp_restarts", int t.Driver.cp_restarts); ("cp_props", int t.Driver.cp_props);
    ("cp_cache_hits", int t.Driver.cp_cache_hits);
    ("batch_alloc_bytes", int t.Driver.batch_alloc_bytes);
    ("peak_bytes", int r.Driver.r_peak_bytes);
    ("cache_hits", int (Solve_cache.hits cache));
    ("cache_misses", int (Solve_cache.misses cache));
  ]

let () =
  let p0 = now () in
  if not !setup_only then probe ();
  let t0 = now () in
  record "host.probe" p0 t0;
  let workload_t, ref_db, prod_env = make () in
  let t1 = now () in
  let pool = Par.get ~domains:!domains () in
  let t2 = now () in
  record "setup" t0 t2;
  record "workloads.make" t0 t1;
  record "par.get" t1 t2;
  let setup =
    [
      ("probe_s", num (t0 -. p0)); ("make_s", num (t1 -. t0));
      ("spawn_s", num (t2 -. t1)); ("setup_s", num (t2 -. t0));
    ]
  in
  if !setup_only then print_endline (obj setup)
  else begin
    let cache = Solve_cache.create () in
    let chunk = if !chunk_rows > 0 then Some !chunk_rows else None in
    let e0 = now () in
    (* chunked runs export live, as `mirage generate --chunk-rows` does under
       the default overlap schedule: the sink opens before generation and
       each table streams out the moment its last FK edge commits *)
    let live =
      Option.map
        (fun c ->
          let run_id =
            Printf.sprintf "%s-sf%g-seed%d-copies%d-chunk%d%s" !workload !sf
              !seed !copies c
              (if !compress then "-gz" else "")
          in
          Scale_out.open_csv_export ~pool ~resume:false ~compress:!compress
            ~copies:!copies ~chunk_rows:c ~dir:!out ~run_id ())
        chunk
    in
    let on_table_ready =
      Option.map
        (fun h db tname ->
          if tracing then begin
            let s0 = now () in
            Scale_out.export_table h ~db tname;
            record ~args:[ ("table", str tname) ] "export_table" s0 (now ())
          end
          else Scale_out.export_table h ~db tname)
        live
    in
    let on_attempt_abort =
      Option.map (fun h () -> Scale_out.abort_csv_export h) live
    in
    let config =
      {
        Driver.default_config with
        Driver.batch_size = 1_000_000;
        seed = !seed;
        domains = !domains;
        cache = Some cache;
        chunk_rows = chunk;
        on_table_ready;
        on_attempt_abort;
      }
    in
    let g0 = now () in
    match Driver.generate ~config workload_t ~ref_db ~prod_env with
    | Error d ->
        prerr_endline ("generation failed: " ^ Mirage_core.Diag.to_string d);
        exit 2
    | Ok r ->
        let g1 = now () in
        let db = r.Driver.r_db in
        (match live with
        | Some h -> ignore (Scale_out.finish_csv_export h ~db)
        | None -> Scale_out.to_csv_dir ~pool ~db ~copies:!copies ~dir:!out ());
        let e1 = now () in
        let errs = Driver.measure_errors r in
        let v1 = now () in
        let hwm_kb = vm_hwm_kb () in
        let exact, inexact =
          List.partition (fun (e : Error.query_error) -> e.Error.qe_relative = 0.0) errs
        in
        record ~args:(timing_args r cache) "generate" g0 g1;
        record "export.tail" g1 e1;
        record
          ~args:
            [ ("queries", int (List.length errs)); ("exact", int (List.length exact)) ]
          "verify" e1 v1;
        let csv_bytes = Scale_out.csv_bytes ~db ~copies:!copies () in
        if tracing then write_trace !trace;
        print_endline
          (obj
             (setup
             @ [
                 ("e2e_s", num (e1 -. e0)); ("verify_s", num (v1 -. e1));
                 ("vm_hwm_kb", int hwm_kb); ("csv_bytes", int csv_bytes);
                 ("queries", int (List.length errs));
                 ("exact", int (List.length exact));
                 ( "inexact",
                   "["
                   ^ String.concat ", "
                       (List.map (fun (e : Error.query_error) -> str e.Error.qe_name) inexact)
                   ^ "]" );
               ]))
  end
