(** Row chunking for streamed generation and export.

    A table's rows are cut into fixed-size chunks: chunk [i] covers rows
    [[i·chunk_rows, min((i+1)·chunk_rows, rows))].  The layout is a pure
    function of [(rows, chunk_rows)] — independent of domain count, budget
    interrupts and resume points — which is what makes the streamed
    pipeline byte-identical to the monolithic one: every stage visits the
    same rows in the same order, merely yielding between chunks instead of
    after the whole table.  The chunked CSV export slices template
    construction by the same ranges, so no table-sized buffer exists
    between the CDF sampler and the sink. *)

val ranges : rows:int -> chunk_rows:int -> (int * int) array
(** [(lo, len)] per chunk, in row order; [rows = 0] yields no chunks.
    @raise Invalid_argument when [chunk_rows < 1]. *)
