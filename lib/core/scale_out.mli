(** Linear scale-out of a generated database (the paper's terabyte-generation
    claim, §8.1.2).

    A generated database [D'] is {e tiled}: copy [t] shifts every primary key
    and foreign key by [t·|R|], keeping each tile self-contained.  Every
    selection cardinality, join cardinality and join-distinct count scales
    exactly by the number of copies, so an instantiated workload whose
    constraints are multiplied by [copies] replays exactly on the tiled
    database; non-key domain sizes stay at the base size (value multisets are
    repeated).

    Tiles are produced a few at a time, so writing CSVs needs memory
    proportional to one tile per domain regardless of the target size.

    {2 Templated rendering}

    Because tiles differ only at key cells, the CSV writer renders each base
    row {e once} into a line template: fixed byte fragments (non-key cells,
    separators, newlines — pre-escaped) with a splice point per non-null key
    cell.  Emitting tile [t] alternates fragment memcpys with in-place
    {!Mirage_engine.Render.Buf.itoa} of the shifted keys, so per-tile cost is
    O(bytes + rows·key_cols) with zero per-cell allocation, instead of
    re-rendering O(rows·cols) cells through [string_of_int].  Templates are
    immutable and shared read-only across the exporting domains.  Output is
    byte-identical to the per-cell {!Reference} renderer for every domain
    count and copy count. *)

val to_csv_dir :
  ?pool:Mirage_par.Par.pool ->
  db:Mirage_engine.Db.t ->
  copies:int ->
  dir:string ->
  unit ->
  unit
(** Writes [<table>.csv] per table with [copies] tiles each, creating [dir]
    (and missing parents) if needed.  Tables go one at a time.  Within a
    table, each worker slot of [pool] claims tiles from a shared counter
    (the same claim loop as the chunked export), splices its tile from the
    table's line template into its own buffer, and appends it to the
    table's file when every earlier tile has been written.  So the output
    bytes are independent of the domain count, and at most one tile per
    domain is resident.  Cells follow the shared render-kernel policy:
    RFC-4180 quoting only where required, round-trip floats
    ({!Mirage_engine.Render.float_repr}).
    @raise Invalid_argument if [copies < 1].
    @raise Sys_error on an I/O error; no domain is left waiting, and the
    file being written is closed. *)

type chunk_report = {
  cr_shards : int;  (** shard files the export comprises, across tables *)
  cr_resumed : int;  (** shards skipped because the manifest had them *)
  cr_bytes : int;  (** bytes written by this process (excludes resumed) *)
  cr_tables : (string * (int * int)) list;
      (** per table in schema order: (raw CSV bytes, bytes on disk) summed
          over the manifest's committed shards — identical numbers unless
          compression is on *)
}

(** {2 Crash-safe chunked export}

    The chunked variant of {!to_csv_dir}, written as an open /
    export-table / finish protocol so the overlapped pipeline scheduler
    ({!Driver.config.schedule}) can export a table the moment its last FK
    edge commits, while other tables still generate.  Calling
    {!finish_csv_export} right after {!open_csv_export} exports the whole
    database after generation; either way the shard layout, manifest and
    bytes are the same. *)

type live_export
(** An open chunked-export run accepting tables one at a time. *)

val open_csv_export :
  ?pool:Mirage_par.Par.pool ->
  ?backend:Mirage_engine.Sink.backend ->
  ?resume:bool ->
  ?compress:bool ->
  ?interrupt:(unit -> unit) ->
  copies:int ->
  chunk_rows:int ->
  dir:string ->
  run_id:string ->
  unit ->
  live_export
(** Open the sink (creating [dir], loading the manifest under [~resume])
    before generation starts.  The shard layout is computed lazily at the
    first {!export_table} or {!finish_csv_export} call — row counts are
    final once key generation starts.

    Each table is emitted as shard files [<table>.csv.0], [<table>.csv.1],
    … of at most [chunk_rows] rows' worth of tiles each (at least one tile
    per shard), through a {!Mirage_engine.Sink} run — temp file + atomic
    rename + manifest checkpoint per shard.  Shard 0 carries the CSV
    header, so concatenating a table's shards in index order reproduces the
    monolithic [to_csv_dir] file byte-for-byte.  Each worker slot of [pool]
    claims whole shards from a shared queue and streams its shard through
    its own exclusive {!Mirage_engine.Sink.write_shard}, so N domains keep
    N shard files open and write concurrently; the manifest's [seq] field
    keeps concatenation order deterministic.

    With [~compress:true] every shard is a gzip member named
    [<table>.csv.<k>.gz] ({!Mirage_engine.Gz}); concatenating a table's
    shards yields a valid multi-member gzip file whose decompression is the
    monolithic CSV, and the manifest records both raw and compressed sizes.

    With [~resume:true] and a matching [run_id], shards recorded in
    [dir/MANIFEST.json] are skipped without rendering, and the remaining
    shards come out byte-identical to an uninterrupted run (rendering is
    deterministic per shard).  [run_id] must encode everything that changes
    the bytes (seed, scale, chunk size, compression).  [interrupt] is
    polled before every claimed shard and every tile or row window, so a
    budget breach aborts mid-shard leaving only committed, size-verified
    shards in the manifest and no temp files.

    Tables larger than [chunk_rows] rows never materialize a whole-table
    template: their shards are single tiles (the layout guarantees it), and
    each tile streams through per-chunk templates built over
    {!Chunk_plan.ranges} row windows — resident bytes stay O(chunk) per
    worker while the concatenated output is unchanged.

    @raise Invalid_argument if [copies < 1] or [chunk_rows < 1]. *)

val export_table : live_export -> db:Mirage_engine.Db.t -> string -> unit
(** Render and commit every shard of one table (skipping shards the
    manifest already has).  Idempotent — a table already exported (or
    currently exporting) is skipped — and safe to call concurrently from
    pool tasks: each call owns its render buffers and templates; shared
    bookkeeping is mutex-protected.  The table's columns must be final
    when called (the driver's [on_table_ready] guarantees it).  On an
    exception the claim is released so a later call (the finish pass)
    retries the table.
    @raise Mirage_engine.Sink.Io_failure on I/O errors (no temp files left
    behind). *)

val abort_csv_export : live_export -> unit
(** Retract every shard committed by this generation attempt — delete the
    files, drop their manifest entries ({!Mirage_engine.Sink.forget}) and
    forget all table claims — because the attempt died and the retry will
    generate different bytes.  Shards {e resumed} from a previous run are
    kept: they already hold the final deterministic output.  Wired to the
    driver's [on_attempt_abort]. *)

val finish_csv_export :
  live_export -> db:Mirage_engine.Db.t -> chunk_report
(** Export every table never claimed (or released by a failure) through
    one shared shard queue, remove stale shards left by earlier runs (a
    different chunk count, or the other compression form), mark the
    manifest complete and return the report.  After this the concatenation
    contract of {!open_csv_export} holds verbatim.
    @raise Mirage_engine.Sink.Io_failure on I/O errors (no temp files left
    behind). *)

val csv_bytes : db:Mirage_engine.Db.t -> copies:int -> unit -> int
(** Exact byte size of the CSV export ({!to_csv_dir} or, equivalently, the
    concatenated chunked-export shards) without rendering it: template
    fixed bytes per tile plus the decimal width of every spliced key.
    Templates are built one {!Mirage_engine.Col.big_rows} row window at a
    time, so the count itself runs in O(window) heap on enormous tables.
    The bench harness derives its MB/s from this, uniformly across
    experiments.
    @raise Invalid_argument if [copies < 1]. *)

module Reference : sig
  val to_csv_dir :
    db:Mirage_engine.Db.t -> copies:int -> dir:string -> unit -> unit
  (** The pre-template renderer: every cell of every tile re-rendered
      through per-cell allocating conversions, written by a plain
      sequential loop.  Kept as the differential oracle for the
      byte-identity tests and as the sequential baseline the [emit]
      benchmark measures the templated engine against.  Same output bytes,
      same escaping policy. *)
end

val tile_db : db:Mirage_engine.Db.t -> copies:int -> Mirage_engine.Db.t
(** In-memory tiled database (for verification and tests; memory grows with
    [copies], unlike {!to_csv_dir}). *)

val scaled_rows : Mirage_engine.Db.t -> copies:int -> (string * int) list
(** Row count per table after tiling. *)
