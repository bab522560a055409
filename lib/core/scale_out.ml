module Schema = Mirage_sql.Schema
module Value = Mirage_sql.Value
module Col = Mirage_engine.Col
module Db = Mirage_engine.Db
module Render = Mirage_engine.Render
module Par = Mirage_par.Par
module Sink = Mirage_engine.Sink

let cell_null nulls i =
  match nulls with Some b -> Col.Bitset.get b i | None -> false

(* key offset per column of [tbl] for tile [t]: pk shifts by t·|R|, each FK by
   t·|referenced table| *)
let key_offsets db (tbl : Schema.table) t =
  let n = Db.row_count db tbl.Schema.tname in
  (tbl.Schema.pk, t * n)
  :: List.map
       (fun (f : Schema.fk) ->
         (f.Schema.fk_col, t * Db.row_count db f.Schema.references))
       tbl.Schema.fks

(* --- line templates --------------------------------------------------------

   A tile differs from the base tile only at key cells (shifted by an integer
   per tile), so the base rows are rendered ONCE into [fixed] — every
   non-key cell, separator and newline, pre-escaped — leaving a splice point
   per non-null key cell.  Emitting tile [t] is then a strict alternation of
   memcpy (fragment i, ending at [ends.(i)]) and an in-place itoa of
   [base.(i) + t * per_tile.(which.(i))]: per-tile work is
   O(bytes + rows·key_cols) with no per-cell allocation, instead of
   re-rendering all O(rows·cols) cells through [string_of_int].

   Templates are immutable after construction and shared read-only across
   the domains of the tile pipeline. *)
type template = {
  fixed : Bytes.t;  (* all fixed fragments, concatenated in emit order *)
  ends : int array;  (* end offset in [fixed] of the fragment before splice i *)
  base : int array;  (* unshifted key value at splice i *)
  which : int array;  (* key slot of splice i, indexes [per_tile] *)
  per_tile : int array;  (* per key slot: key shift per tile *)
}

(* [?lo]/[?rows] restrict the template to a row window — chunked streaming
   builds one template per chunk, and concatenating the windows' emissions
   for a tile reproduces the whole-table template's bytes for that tile
   exactly (the window only bounds which base rows render; key shifts are
   still per whole-table tile) *)
let build_template ?(lo = 0) ?rows db (tbl : Schema.table) =
  let tname = tbl.Schema.tname in
  let n = Db.row_count db tname in
  let nrows = match rows with Some r -> r | None -> n - lo in
  let names = Schema.column_names tbl in
  (* key slots in key_offsets order; duplicate columns (a PK doubling as an
     FK) keep the first entry, matching the per-cell renderer's assoc lookup *)
  let slots = List.mapi (fun j (c, per) -> (c, (j, per))) (key_offsets db tbl 1) in
  let per_tile = Array.of_list (List.map (fun (_, (_, per)) -> per) slots) in
  let buf = Render.Buf.create (1 lsl 16) in
  let max_splices = nrows * Array.length per_tile in
  let s_end = Array.make max_splices 0
  and s_base = Array.make max_splices 0
  and s_which = Array.make max_splices 0 in
  let m = ref 0 in
  let splice which base =
    s_end.(!m) <- Render.Buf.length buf;
    s_base.(!m) <- base;
    s_which.(!m) <- which;
    incr m
  in
  (* one emitter per column, representation and key slot resolved once; key
     cells register a splice, everything else renders into the template *)
  let emitters =
    Array.of_list
      (List.map
         (fun c ->
           let col = Db.col db tname c in
           match (List.assoc_opt c slots, col) with
           | Some (j, _), Col.Ints { data; nulls } ->
               fun i -> if not (cell_null nulls i) then splice j data.(i)
           | Some (j, _), Col.Big_ints { data; nulls } ->
               fun i ->
                 if not (cell_null nulls i) then
                   splice j (Bigarray.Array1.unsafe_get data i)
           | Some (j, _), Col.Boxed vs -> (
               fun i ->
                 match vs.(i) with
                 | Value.Int x -> splice j x
                 | Value.Null -> ()
                 | Value.Float f -> Render.Buf.ftoa buf f
                 | Value.Str s -> Render.Buf.add_string buf (Render.csv_escape s))
           | _, Col.Ints { data; nulls } ->
               fun i -> if not (cell_null nulls i) then Render.Buf.itoa buf data.(i)
           | _, Col.Floats { data; nulls } ->
               fun i -> if not (cell_null nulls i) then Render.Buf.ftoa buf data.(i)
           | _, Col.Dict { codes; pool; nulls } ->
               let epool = Render.csv_pool pool in
               fun i ->
                 if not (cell_null nulls i) then
                   Render.Buf.add_string buf epool.(codes.(i))
           | _, Col.Big_ints { data; nulls } ->
               fun i ->
                 if not (cell_null nulls i) then
                   Render.Buf.itoa buf (Bigarray.Array1.unsafe_get data i)
           | _, Col.Big_floats { data; nulls } ->
               fun i ->
                 if not (cell_null nulls i) then
                   Render.Buf.ftoa buf (Bigarray.Array1.unsafe_get data i)
           | _, Col.Big_dict { codes; pool; nulls } ->
               let epool = Render.csv_pool pool in
               fun i ->
                 if not (cell_null nulls i) then
                   Render.Buf.add_string buf
                     epool.(Bigarray.Array1.unsafe_get codes i)
           | _, Col.Boxed vs -> (
               fun i ->
                 match vs.(i) with
                 | Value.Null -> ()
                 | Value.Int x -> Render.Buf.itoa buf x
                 | Value.Float f -> Render.Buf.ftoa buf f
                 | Value.Str s -> Render.Buf.add_string buf (Render.csv_escape s)))
         names)
  in
  let ncols = Array.length emitters in
  for i = lo to lo + nrows - 1 do
    for c = 0 to ncols - 1 do
      if c > 0 then Render.Buf.add_char buf ',';
      emitters.(c) i
    done;
    Render.Buf.add_char buf '\n'
  done;
  {
    fixed = Render.Buf.to_bytes buf;
    ends = Array.sub s_end 0 !m;
    base = Array.sub s_base 0 !m;
    which = Array.sub s_which 0 !m;
    per_tile;
  }

(* splice one tile into [buf] (cleared first): memcpy fragments verbatim,
   re-render only the shifted keys *)
let emit_tile buf tpl ~tile =
  Render.Buf.clear buf;
  let m = Array.length tpl.base in
  let offs = Array.map (fun per -> tile * per) tpl.per_tile in
  let pos = ref 0 in
  for i = 0 to m - 1 do
    let e = Array.unsafe_get tpl.ends i in
    Render.Buf.add_subbytes buf tpl.fixed ~pos:!pos ~len:(e - !pos);
    pos := e;
    Render.Buf.itoa buf
      (Array.unsafe_get tpl.base i
      + Array.unsafe_get offs (Array.unsafe_get tpl.which i))
  done;
  Render.Buf.add_subbytes buf tpl.fixed ~pos:!pos
    ~len:(Bytes.length tpl.fixed - !pos)

let csv_header names = String.concat "," (List.map Render.csv_escape names)

(* The one claim loop behind every CSV export: each worker slot of [pool]
   owns one render buffer and claims items [0 .. n-1], in order, from a
   shared counter until they run out.  The first failure stops further
   claims; items already claimed finish or fail on their own, and the
   failure re-raises after the region drains. *)
let claim_loop pool n body =
  let next = Atomic.make 0 and stopped = Atomic.make false in
  if n > 0 then
    Par.run_workers pool (fun slot ->
        let buf = Render.Buf.create (1 lsl 16) in
        try
          let continue = ref true in
          while !continue do
            let i = Atomic.fetch_and_add next 1 in
            if i >= n || Atomic.get stopped then continue := false
            else body ~slot ~buf i
          done
        with e ->
          Atomic.set stopped true;
          raise e)

(* Tile [t] of a table is spliced into the claiming worker's buffer, then
   appended to the table's one channel once [turn] reaches [t], so the file
   is written strictly in tile order whatever the domain count.  A worker
   claims its next tile only after writing this one: at most [Par.size
   pool] tiles are resident.  A failed render or write is published in
   [failed] before it re-raises, so every worker waiting for a turn that
   will never come re-raises it too instead of blocking. *)
let to_csv_dir ?(pool = Par.sequential) ~db ~copies ~dir () =
  if copies < 1 then invalid_arg "Scale_out.to_csv_dir: copies must be >= 1";
  Sink.mkdir_p dir;
  List.iter
    (fun (tbl : Schema.table) ->
      let tpl = build_template db tbl in
      let oc = open_out (Filename.concat dir (tbl.Schema.tname ^ ".csv")) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (csv_header (Schema.column_names tbl));
          output_char oc '\n';
          let m = Mutex.create () and cv = Condition.create () in
          let turn = ref 0 and failed = ref None in
          claim_loop pool copies (fun ~slot:_ ~buf tile ->
              try
                emit_tile buf tpl ~tile;
                Mutex.lock m;
                while !turn <> tile && Option.is_none !failed do
                  Condition.wait cv m
                done;
                let err = !failed in
                Mutex.unlock m;
                Option.iter raise err;
                Render.Buf.output oc buf;
                Mutex.lock m;
                incr turn;
                Condition.broadcast cv;
                Mutex.unlock m
              with e ->
                Mutex.lock m;
                if Option.is_none !failed then failed := Some e;
                Condition.broadcast cv;
                Mutex.unlock m;
                raise e);
          close_out oc))
    (Schema.tables (Db.schema db))

(* --- crash-safe chunked export ---------------------------------------------

   Same templates, but the bytes go through the Sink layer shard-at-a-time:
   shard [k] of a table holds a contiguous run of tiles sized to
   [chunk_rows], shard 0 additionally carries the header, so
   [cat table.csv.0 table.csv.1 ...] is byte-for-byte the monolithic
   [to_csv_dir] output.  The shard is the unit of parallelism: each worker
   slot owns one render buffer and an exclusive output stream for whichever
   shard it claims, so N domains hold N shard files open and write
   concurrently, while the manifest's [seq] keeps concatenation order
   deterministic.  Shards committed in the manifest are skipped without
   rendering — that, plus per-shard determinism, is what makes a resumed
   run byte-identical to an uninterrupted one. *)

module Gz = Mirage_engine.Gz

type chunk_report = {
  cr_shards : int;
  cr_resumed : int;
  cr_bytes : int;
  cr_tables : (string * (int * int)) list;
}

let shard_name ?(compress = false) tname k =
  Printf.sprintf "%s.csv.%d%s" tname k (if compress then ".gz" else "")

(* table name of a committed shard: the prefix before ".csv." *)
let shard_table name =
  let n = String.length name in
  let rec find i =
    if i + 5 > n then n
    else if String.sub name i 5 = ".csv." then i
    else find (i + 1)
  in
  String.sub name 0 (find 0)

(* per-table (raw, on-disk) byte totals straight from the manifest — the CLI
   summary reads these instead of a second stat pass *)
let table_totals sink schema =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Sink.shard) ->
      let t = shard_table s.Sink.sh_name in
      let raw, disk =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl t)
      in
      Hashtbl.replace tbl t (raw + s.Sink.sh_raw, disk + s.Sink.sh_bytes))
    (Sink.completed sink);
  List.filter_map
    (fun (t : Schema.table) ->
      Option.map
        (fun b -> (t.Schema.tname, b))
        (Hashtbl.find_opt tbl t.Schema.tname))
    (Schema.tables schema)

(* run [body] with a payload writer: plain [Sink.put], or gzip-compressed
   with the raw byte count reported to the manifest *)
let with_payload ~compress w body =
  if not compress then
    body (fun b ~pos ~len -> Sink.put w b ~pos ~len)
  else begin
    let gz = Gz.create (fun b ~pos ~len -> Sink.put w b ~pos ~len) in
    body (fun b ~pos ~len ->
        Sink.add_raw w len;
        Gz.write gz b ~pos ~len);
    Gz.finish gz
  end

(* delete the shards of [tname] an earlier run left behind that would
   corrupt concatenation: indices from [nshards] on in the form being
   written (a different chunk count), and every index of the other
   compression form.  The directory is listed rather than probed index by
   index, because a killed run of concurrent writers can leave gaps. *)
let remove_surplus_shards ~dir ~compress tname nshards =
  let stale f =
    let gz = Filename.check_suffix f ".gz" in
    let f = if gz then Filename.chop_suffix f ".gz" else f in
    match Filename.extension f with
    | "" -> false
    | ext -> (
        let k = String.sub ext 1 (String.length ext - 1) in
        match int_of_string_opt k with
        | Some k' when string_of_int k' = k && k' >= 0 ->
            Filename.remove_extension f = tname ^ ".csv"
            && (gz <> compress || k' >= nshards)
        | _ -> false)
  in
  Array.iter
    (fun f ->
      if stale f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

(* shard layout: tables in schema order, [tiles_per_shard] tiles per shard,
   global [seq] in concatenation order *)
type shard_unit = {
  u_table : Schema.table;
  u_name : string;
  u_seq : int;
  u_lo : int;  (* first tile *)
  u_tiles : int;
  u_header : bool;
}

let shard_units ~db ~copies ~chunk_rows ~compress schema =
  let seq = ref 0 in
  List.concat_map
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let rows = Db.row_count db tname in
      let tiles_per_shard = max 1 (chunk_rows / max 1 rows) in
      let nshards = (copies + tiles_per_shard - 1) / tiles_per_shard in
      List.init nshards (fun k ->
          let lo = k * tiles_per_shard in
          let s = !seq in
          incr seq;
          {
            u_table = tbl;
            u_name = shard_name ~compress tname k;
            u_seq = s;
            u_lo = lo;
            u_tiles = min copies (lo + tiles_per_shard) - lo;
            u_header = k = 0;
          }))
    (Schema.tables schema)

(* --- live (per-table) export -------------------------------------------------

   The overlapped scheduler exports a table the moment its last FK edge
   commits, while other tables still generate.  A [live_export] is the
   shared state of such a run: the sink, the memoized shard layout, which
   tables have been claimed, and which shard names this generation attempt
   wrote (so an aborted attempt can retract exactly those).  [export_table]
   is idempotent and safe to call concurrently from pool tasks: each call
   owns its render buffers and templates, and all cross-call state is
   behind one mutex. *)

type live_export = {
  le_sink : Sink.t;
  le_pool : Par.pool;
  le_compress : bool;
  le_interrupt : unit -> unit;
  le_copies : int;
  le_chunk_rows : int;
  le_dir : string;
  le_m : Mutex.t;  (* guards the three mutable fields below *)
  mutable le_units : shard_unit list option;
      (* full shard layout, memoized at the first export: row counts are
         final once key generation starts, and the global [seq] needs every
         table's count *)
  le_claimed : (string, unit) Hashtbl.t;  (* tables exported (or in flight) *)
  mutable le_written : string list;  (* shards committed by this attempt *)
}

let le_locked h f =
  Mutex.lock h.le_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.le_m) f

let open_csv_export ?(pool = Par.sequential) ?backend ?(resume = false)
    ?(compress = false) ?(interrupt = fun () -> ()) ~copies ~chunk_rows ~dir
    ~run_id () =
  if copies < 1 then invalid_arg "Scale_out.open_csv_export: copies must be >= 1";
  if chunk_rows < 1 then
    invalid_arg "Scale_out.open_csv_export: chunk_rows must be >= 1";
  {
    le_sink = Sink.create ?backend ~resume ~dir ~run_id ();
    le_pool = pool;
    le_compress = compress;
    le_interrupt = interrupt;
    le_copies = copies;
    le_chunk_rows = chunk_rows;
    le_dir = dir;
    le_m = Mutex.create ();
    le_units = None;
    le_claimed = Hashtbl.create 8;
    le_written = [];
  }

let le_units h ~db =
  match h.le_units with
  | Some units -> units
  | None ->
      let units =
        shard_units ~db ~copies:h.le_copies ~chunk_rows:h.le_chunk_rows
          ~compress:h.le_compress (Db.schema db)
      in
      h.le_units <- Some units;
      units

(* render one claimed shard through the worker's [buf] into its own sink
   stream.  A table with a template in [tpls] (it fits one chunk, or its
   columns live on the heap anyway) splices every tile from it; any other
   table has [rows > chunk_rows], which forces one tile per shard, and that
   tile streams through per-window templates so the worker's resident bytes
   stay O(chunk) — the concatenated windows are byte-for-byte what the
   whole-table template would have emitted. *)
let render_unit h ~db ~buf ~tpls u =
  Sink.write_shard h.le_sink ~seq:u.u_seq ~name:u.u_name (fun w ->
      with_payload ~compress:h.le_compress w (fun put ->
          let emit tpl ~tile =
            h.le_interrupt ();
            emit_tile buf tpl ~tile;
            put (Render.Buf.unsafe_bytes buf) ~pos:0
              ~len:(Render.Buf.length buf)
          in
          if u.u_header then begin
            let hdr = csv_header (Schema.column_names u.u_table) ^ "\n" in
            put (Bytes.unsafe_of_string hdr) ~pos:0 ~len:(String.length hdr)
          end;
          match Hashtbl.find_opt tpls u.u_table.Schema.tname with
          | Some tpl ->
              for tile = u.u_lo to u.u_lo + u.u_tiles - 1 do
                emit tpl ~tile
              done
          | None ->
              Array.iter
                (fun (lo, len) ->
                  emit (build_template ~lo ~rows:len db u.u_table) ~tile:u.u_lo)
                (Chunk_plan.ranges
                   ~rows:(Db.row_count db u.u_table.Schema.tname)
                   ~chunk_rows:h.le_chunk_rows)))

(* claim every table of [tnames] not claimed yet and render its pending
   shards: each worker slot owns one render buffer and claims whole shards,
   in concatenation order, from a shared counter.  The first failure stops
   further claims; in-flight shards abort at their own interrupt poll or
   I/O error.  The shards this call committed are recorded for
   [abort_csv_export] on success and failure alike; on failure the claims
   are released so a later call (the finish pass) retries the tables. *)
let render_tables h ~db tnames =
  let claimed, units =
    le_locked h (fun () ->
        let claimed =
          List.filter (fun t -> not (Hashtbl.mem h.le_claimed t)) tnames
        in
        List.iter (fun t -> Hashtbl.replace h.le_claimed t ()) claimed;
        ( claimed,
          List.filter
            (fun u -> List.mem u.u_table.Schema.tname claimed)
            (le_units h ~db) ))
  in
  let pending =
    Array.of_list
      (List.filter (fun u -> not (Sink.is_done h.le_sink u.u_name)) units)
  in
  let written = Array.make (Par.size h.le_pool) [] in
  let record () =
    h.le_written <-
      Array.fold_left (fun acc l -> List.rev_append l acc) h.le_written written
  in
  let run () =
    (* whole-table templates are built before the region: [Lazy.force] is
       not domain-safe, and every pending shard of such a table needs one *)
    let tpls = Hashtbl.create 8 in
    Array.iter
      (fun u ->
        let tname = u.u_table.Schema.tname in
        let rows = Db.row_count db tname in
        if
          (rows <= h.le_chunk_rows || rows < Col.big_rows ())
          && not (Hashtbl.mem tpls tname)
        then Hashtbl.replace tpls tname (build_template db u.u_table))
      pending;
    claim_loop h.le_pool (Array.length pending) (fun ~slot ~buf i ->
        h.le_interrupt ();
        render_unit h ~db ~buf ~tpls pending.(i);
        written.(slot) <- pending.(i).u_name :: written.(slot));
    List.iter
      (fun tname ->
        remove_surplus_shards ~dir:h.le_dir ~compress:h.le_compress tname
          (List.length
             (List.filter (fun u -> u.u_table.Schema.tname = tname) units)))
      claimed
  in
  match run () with
  | () -> le_locked h record
  | exception e ->
      le_locked h (fun () ->
          List.iter (Hashtbl.remove h.le_claimed) claimed;
          record ());
      raise e

let export_table h ~db tname = render_tables h ~db [ tname ]

let abort_csv_export h =
  let names =
    le_locked h (fun () ->
        let names = h.le_written in
        h.le_written <- [];
        Hashtbl.reset h.le_claimed;
        names)
  in
  Sink.forget h.le_sink names

(* every table still unclaimed goes into one shard queue, so the finish
   pass keeps all workers busy across table boundaries *)
let finish_csv_export h ~db =
  let schema = Db.schema db in
  render_tables h ~db
    (List.map
       (fun (t : Schema.table) -> t.Schema.tname)
       (Schema.tables schema));
  let units = le_locked h (fun () -> le_units h ~db) in
  Sink.finish h.le_sink;
  {
    cr_shards = List.length units;
    cr_resumed = Sink.resumed_shards h.le_sink;
    cr_bytes = Sink.bytes_written h.le_sink;
    cr_tables = table_totals h.le_sink schema;
  }

(* exact CSV output size without rendering: fixed template bytes per tile
   plus the decimal width of every spliced key — the uniform basis for the
   bench harness's mb_per_s *)
let decimal_width x =
  if x = 0 then 1
  else begin
    let n = ref (if x < 0 then 1 else 0) in
    let x = ref (abs x) in
    while !x > 0 do
      incr n;
      x := !x / 10
    done;
    !n
  end

let csv_bytes ~db ~copies () =
  if copies < 1 then invalid_arg "Scale_out.csv_bytes: copies must be >= 1";
  let chunk_rows = Col.big_rows () in
  List.fold_left
    (fun acc (tbl : Schema.table) ->
      let rows = Db.row_count db tbl.Schema.tname in
      let header = String.length (csv_header (Schema.column_names tbl)) + 1 in
      let total = ref header in
      (* template per row window, never per whole table — the count is a
         sum over (window, tile) cells, so the order change vs the old
         whole-table template is invisible in the total *)
      Array.iter
        (fun (lo, len) ->
          let tpl = build_template ~lo ~rows:len db tbl in
          let fixed = Bytes.length tpl.fixed in
          let m = Array.length tpl.base in
          for t = 0 to copies - 1 do
            let splices = ref 0 in
            for i = 0 to m - 1 do
              splices :=
                !splices
                + decimal_width
                    (Array.unsafe_get tpl.base i
                    + t
                      * Array.unsafe_get tpl.per_tile
                          (Array.unsafe_get tpl.which i))
            done;
            total := !total + fixed + !splices
          done)
        (Chunk_plan.ranges ~rows ~chunk_rows);
      acc + !total)
    0
    (Schema.tables (Db.schema db))

(* --- reference renderer -----------------------------------------------------

   The pre-template per-cell renderer, kept verbatim (same per-cell
   [string_of_int] allocation profile) with only the cell formatting policy
   updated to the shared kernel's, so the differential tests and the [emit]
   benchmark compare templated splicing against exactly what it replaced.
   It writes with a plain sequential loop: an oracle with no concurrency. *)
module Reference = struct
  let add_cell buf = function
    | Value.Null -> ()
    | Value.Int x -> Buffer.add_string buf (string_of_int x)
    | Value.Float x -> Buffer.add_string buf (Render.float_repr x)
    | Value.Str s -> Buffer.add_string buf (Render.csv_escape s)

  (* per-column CSV cell writer: the representation (and the tile's key
     offset) is resolved once, not per cell; key columns are integer, so only
     the [Ints] and [Boxed] arms apply the offset *)
  let cell_renderer buf ~offset col =
    match col with
    | Col.Ints { data; nulls } ->
        fun i ->
          if not (cell_null nulls i) then
            Buffer.add_string buf (string_of_int (data.(i) + offset))
    | Col.Floats { data; nulls } ->
        fun i ->
          if not (cell_null nulls i) then
            Buffer.add_string buf (Render.float_repr data.(i))
    | Col.Dict { codes; pool; nulls } ->
        let epool = Render.csv_pool pool in
        fun i ->
          if not (cell_null nulls i) then Buffer.add_string buf epool.(codes.(i))
    | Col.Big_ints { data; nulls } ->
        fun i ->
          if not (cell_null nulls i) then
            Buffer.add_string buf
              (string_of_int (Bigarray.Array1.get data i + offset))
    | Col.Big_floats { data; nulls } ->
        fun i ->
          if not (cell_null nulls i) then
            Buffer.add_string buf (Render.float_repr (Bigarray.Array1.get data i))
    | Col.Big_dict { codes; pool; nulls } ->
        let epool = Render.csv_pool pool in
        fun i ->
          if not (cell_null nulls i) then
            Buffer.add_string buf epool.(Bigarray.Array1.get codes i)
    | Col.Boxed vs -> (
        fun i ->
          match vs.(i) with
          | Value.Int x -> Buffer.add_string buf (string_of_int (x + offset))
          | v -> add_cell buf v)

  (* render one tile of [tbl] into [buf] (cleared first), re-rendering every
     cell through allocating conversions *)
  let render_tile buf db tbl ~tile =
    Buffer.clear buf;
    let tname = tbl.Schema.tname in
    let n = Db.row_count db tname in
    let offsets = key_offsets db tbl tile in
    let renderers =
      Array.of_list
        (List.map
           (fun c ->
             let offset =
               match List.assoc_opt c offsets with Some o -> o | None -> 0
             in
             cell_renderer buf ~offset (Db.col db tname c))
           (Schema.column_names tbl))
    in
    let ncols = Array.length renderers in
    for i = 0 to n - 1 do
      for c = 0 to ncols - 1 do
        if c > 0 then Buffer.add_char buf ',';
        renderers.(c) i
      done;
      Buffer.add_char buf '\n'
    done

  let to_csv_dir ~db ~copies ~dir () =
    if copies < 1 then
      invalid_arg "Scale_out.Reference.to_csv_dir: copies must be >= 1";
    Sink.mkdir_p dir;
    let buf = Buffer.create (1 lsl 16) in
    List.iter
      (fun (tbl : Schema.table) ->
        let oc = open_out (Filename.concat dir (tbl.Schema.tname ^ ".csv")) in
        output_string oc (csv_header (Schema.column_names tbl));
        output_char oc '\n';
        for tile = 0 to copies - 1 do
          render_tile buf db tbl ~tile;
          Buffer.output_buffer oc buf
        done;
        close_out oc)
      (Schema.tables (Db.schema db))
end

(* [copies] tiles of one stored column as a single typed column;
   [offset_of t] is the key shift of tile [t] (0 for non-key columns) *)
let tile_col ~copies ~offset_of col =
  let n = Col.length col in
  let total = copies * n in
  let tile_nulls nulls =
    Option.map
      (fun b ->
        let ob = Col.Bitset.create total in
        for t = 0 to copies - 1 do
          let base = t * n in
          for i = 0 to n - 1 do
            if Col.Bitset.get b i then Col.Bitset.set ob (base + i)
          done
        done;
        ob)
      nulls
  in
  match col with
  | Col.Ints { data; nulls } ->
      let out = Array.make total 0 in
      for t = 0 to copies - 1 do
        let off = offset_of t in
        let base = t * n in
        if off = 0 then Array.blit data 0 out base n
        else for i = 0 to n - 1 do out.(base + i) <- data.(i) + off done
      done;
      Col.of_ints ?nulls:(tile_nulls nulls) out
  | Col.Floats { data; nulls } ->
      let out = Array.make total 0.0 in
      for t = 0 to copies - 1 do
        Array.blit data 0 out (t * n) n
      done;
      Col.of_floats ?nulls:(tile_nulls nulls) out
  | Col.Dict { codes; pool; nulls } ->
      let out = Array.make total 0 in
      for t = 0 to copies - 1 do
        Array.blit codes 0 out (t * n) n
      done;
      Col.dict ?nulls:(tile_nulls nulls) ~codes:out ~pool ()
  | Col.Big_ints { data; nulls } ->
      let out = Col.alloc_int_big total in
      for t = 0 to copies - 1 do
        let off = offset_of t in
        let base = t * n in
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set out (base + i)
            (Bigarray.Array1.unsafe_get data i + off)
        done
      done;
      Col.Big_ints { data = out; nulls = tile_nulls nulls }
  | Col.Big_floats { data; nulls } ->
      let out = Col.alloc_float_big total in
      for t = 0 to copies - 1 do
        let base = t * n in
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set out (base + i)
            (Bigarray.Array1.unsafe_get data i)
        done
      done;
      Col.Big_floats { data = out; nulls = tile_nulls nulls }
  | Col.Big_dict { codes; pool; nulls } ->
      let out = Col.alloc_int_big total in
      for t = 0 to copies - 1 do
        let base = t * n in
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set out (base + i)
            (Bigarray.Array1.unsafe_get codes i)
        done
      done;
      Col.Big_dict { codes = out; pool; nulls = tile_nulls nulls }
  | Col.Boxed vs ->
      (* offset-0 tiles reuse the source array — Array.concat copies, so
         sharing is safe and the common unshifted case allocates nothing
         beyond the concatenation itself *)
      let shifted off =
        if off = 0 then vs
        else
          Array.map
            (function Value.Int x -> Value.Int (x + off) | v -> v)
            vs
      in
      Col.Boxed (Array.concat (List.init copies (fun t -> shifted (offset_of t))))

let tile_db ~db ~copies =
  if copies < 1 then invalid_arg "Scale_out.tile_db: copies must be >= 1";
  let schema = Db.schema db in
  let out = Db.create schema in
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      let cols =
        List.map
          (fun c ->
            let col = Db.col db tname c in
            let offset_of =
              match List.assoc_opt c (key_offsets db tbl 1) with
              | Some per_tile -> fun t -> t * per_tile
              | None -> fun _ -> 0
            in
            (c, tile_col ~copies ~offset_of col))
          (Schema.column_names tbl)
      in
      Db.put_cols out tname cols)
    (Schema.tables schema);
  out

let scaled_rows db ~copies =
  List.map
    (fun (tbl : Schema.table) ->
      (tbl.Schema.tname, copies * Db.row_count db tbl.Schema.tname))
    (Schema.tables (Db.schema db))
