(** Plan evaluation.

    [analyze] evaluates a plan bottom-up and records, for every operator view
    (preorder-indexed), its output cardinality — and for join views the
    paper's uniform join statistics: [jcc] = number of matched row pairs,
    [jdc] = number of distinct PK values occurring in matched pairs
    (§2.2, Table 2).  This is exactly what the workload parser extracts from
    the production database and what error measurement re-extracts from the
    synthetic one. *)

type join_stat = {
  jcc : int;
  jdc : int;
  left_card : int;  (** |V_l| *)
  right_card : int;  (** |V_r| *)
}

type analysis = {
  result : Rel.t;
  cards : int array;  (** output size per preorder view index *)
  join_stats : (int * join_stat) list;  (** per join view index *)
}

val run : Db.t -> env:Mirage_sql.Pred.Env.t -> Mirage_relalg.Plan.t -> Rel.t
(** Evaluate and return the final relation. *)

val analyze : Db.t -> env:Mirage_sql.Pred.Env.t -> Mirage_relalg.Plan.t -> analysis

val root_mask :
  Db.t -> env:Mirage_sql.Pred.Env.t -> table:string -> Mirage_relalg.Plan.t ->
  Col.Bitset.t
(** The rows of [table] that appear in the plan's output, one bit per row,
    without materialising the plan (child-view membership in key
    generation).  Supported shapes: [Table table]; [Select] over [table]'s
    columns; [Join] with [table] on one side only, as the FK table on the
    right or the PK table on the left.  A join turns the other side's own
    root mask into the set of its key values and tests each surviving root
    row's key: Inner, semi and the outer join preserving the other side
    keep hits, anti joins keep misses, outer joins preserving the root keep
    every row.  NULL keys never hit; duplicate keys on the other side count
    once.  Rows are kept one by one, so rows sharing a PK value may differ.
    @raise Invalid_argument on other shapes (projections, aggregates, joins
    that drop the root's columns), on non-int key columns, and — once a
    surviving row evaluates them — on predicates over other tables' columns
    or unbound parameters. *)

val count_select :
  Db.t -> env:Mirage_sql.Pred.Env.t -> table:string -> Mirage_sql.Pred.t -> int
(** [count_select db ~env ~table p] = |σ_p(table)|, the popcount of
    {!root_mask} of [Select (p, Table table)]. *)

val timed_run :
  Db.t -> env:Mirage_sql.Pred.Env.t -> Mirage_relalg.Plan.t -> Rel.t * float
(** Result plus wall-clock seconds (for the Fig. 12 latency experiment). *)
