(** Export the synthetic environment as standard SQL.

    The paper replays the instantiated workload on PostgreSQL; this module
    produces the artifacts to do the same with any DBMS: DDL for the schema,
    CSV-backed COPY/INSERT data, and the instantiated query templates
    rendered as SQL (PK–FK joins as INNER/LEFT JOIN, semi joins as EXISTS,
    anti joins as NOT EXISTS, FK projections as SELECT DISTINCT, aggregates
    as GROUP BY). *)

val ddl : Mirage_sql.Schema.t -> string
(** CREATE TABLE statements with primary/foreign keys. *)

val inserts : Mirage_engine.Db.t -> table:string -> string
(** Multi-row INSERT statements for one table (batches of 500 rows),
    rendered on the shared kernel ({!Mirage_engine.Render}): digits written
    in place, string pools SQL-escaped once per distinct entry, floats in
    the unified round-trip format. *)

val query_sql :
  Mirage_relalg.Plan.t ->
  schema:Mirage_sql.Schema.t ->
  env:Mirage_sql.Pred.Env.t ->
  (string, string) result
(** The plan rendered as a SELECT statement with the environment's parameter
    values inlined.  Subquery aliases are numbered [q1], [q2], … afresh on
    every call, so equal inputs give equal text.  Errors on unbound
    parameters. *)

val export_dir :
  db:Mirage_engine.Db.t ->
  workload:Workload.t ->
  env:Mirage_sql.Pred.Env.t ->
  dir:string ->
  unit
(** Writes [schema.sql], [data.sql] and [queries.sql] into [dir]. *)

val export_chunked :
  ?backend:Mirage_engine.Sink.backend ->
  ?resume:bool ->
  ?interrupt:(unit -> unit) ->
  db:Mirage_engine.Db.t ->
  workload:Workload.t ->
  env:Mirage_sql.Pred.Env.t ->
  dir:string ->
  chunk_rows:int ->
  run_id:string ->
  unit ->
  int * int
(** Crash-safe variant of {!export_dir}: the data stream is emitted as
    shards [data.sql.0], [data.sql.1], … of at most [chunk_rows] rows each
    (rounded down to whole 500-row INSERT batches, so no shard splits a
    statement) through a {!Mirage_engine.Sink} run — temp file + atomic
    rename + manifest checkpoint per shard.  Concatenating the shards in
    index order reproduces the monolithic [data.sql] byte-for-byte.  With
    [~resume:true] and a matching [run_id], committed shards are skipped
    without rendering.  Returns [(shards, resumed)].
    @raise Mirage_engine.Sink.Io_failure on I/O errors. *)
