module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Parser = Mirage_sql.Parser
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan
module Db = Mirage_engine.Db
module Col = Mirage_engine.Col
module Exec = Mirage_engine.Exec
module Ir = Mirage_core.Ir
module Diag = Mirage_core.Diag
module Decouple = Mirage_core.Decouple
module Cdf = Mirage_core.Cdf
module Nonkey = Mirage_core.Nonkey
module Acc = Mirage_core.Acc
module Rewrite = Mirage_core.Rewrite
module Extract = Mirage_core.Extract
module Keygen = Mirage_core.Keygen
module Workload = Mirage_core.Workload

module Str_ext = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

let schema =
  Schema.make
    [
      {
        Schema.tname = "s";
        pk = "s_pk";
        nonkeys = [ { Schema.cname = "s1"; domain_size = 4; kind = Schema.Kint } ];
        fks = [];
        row_count = 4;
      };
      {
        Schema.tname = "t";
        pk = "t_pk";
        nonkeys =
          [
            { Schema.cname = "t1"; domain_size = 5; kind = Schema.Kint };
            { Schema.cname = "t2"; domain_size = 4; kind = Schema.Kint };
            { Schema.cname = "tt"; domain_size = 3; kind = Schema.Kstring };
          ];
        fks = [ { Schema.fk_col = "t_fk"; references = "s" } ];
        row_count = 8;
      };
    ]

let dom t c = (Schema.nonkey (Schema.table schema t) c).Schema.domain_size
let table_rows t = (Schema.table schema t).Schema.row_count

let scc table pred rows =
  { Ir.scc_table = table; scc_pred = Parser.pred pred; scc_rows = rows; scc_source = "test" }

(* --- Decouple (§4.1) ------------------------------------------------------ *)

let test_decouple_single_literal () =
  let d = Decouple.run schema ~dom ~table_rows [ scc "t" "t1 > $p" 6 ] in
  Alcotest.(check int) "one ucc" 1 (List.length d.Decouple.uccs);
  Alcotest.(check int) "no acc" 0 (List.length d.Decouple.accs)

let test_decouple_arith_to_acc () =
  let d = Decouple.run schema ~dom ~table_rows [ scc "t" "t1 - t2 > $p" 5 ] in
  Alcotest.(check int) "one acc" 1 (List.length d.Decouple.accs);
  let a = List.hd d.Decouple.accs in
  Alcotest.(check int) "rows kept" 5 a.Ir.acc_rows

let test_decouple_fig5_v9 () =
  (* (t1 <= p4 or t2 = p5) and t1 - t2 < p6 with |V| = 1: the kept clause is
     the unary one (cheapest), the arith clause becomes universal, the
     eliminated literal gets a sentinel *)
  let d =
    Decouple.run schema ~dom ~table_rows
      [ scc "t" "(t1 <= $p4 or t2 = $p5) and t1 - t2 < $p6" 1 ]
  in
  Alcotest.(check int) "exactly one ucc" 1 (List.length d.Decouple.uccs);
  let u = List.hd d.Decouple.uccs in
  Alcotest.(check int) "count preserved" 1 u.Ir.ucc_rows;
  Alcotest.(check string) "on t1" "t1" u.Ir.ucc_col;
  (* p6 eliminated as universe *)
  (match Pred.Env.find "p6" d.Decouple.fixed_env with
  | Some (Pred.Env.Scalar (Value.Float f)) ->
      Alcotest.(check bool) "p6 = +inf" true (f > 1e17)
  | _ -> Alcotest.fail "p6 not bound");
  (* p5 eliminated as empty (value 0 outside cardinality space) *)
  match Pred.Env.find "p5" d.Decouple.fixed_env with
  | Some (Pred.Env.Scalar (Value.Int 0)) -> ()
  | _ -> Alcotest.fail "p5 not bound to the empty sentinel"

let test_decouple_fig5_v10_demorgan () =
  (* t1 <> p7 or t2 <> p8 with |V| = 5 over |T| = 8: rule 3 gives the
     complement intersection with count 3, as equality UCCs plus a bound
     group *)
  let d =
    Decouple.run schema ~dom ~table_rows [ scc "t" "t1 <> $p7 or t2 <> $p8" 5 ]
  in
  Alcotest.(check int) "two eq uccs" 2 (List.length d.Decouple.uccs);
  List.iter
    (fun (u : Ir.ucc) -> Alcotest.(check int) "complement count" 3 u.Ir.ucc_rows)
    d.Decouple.uccs;
  match d.Decouple.bound with
  | [ b ] ->
      Alcotest.(check int) "bound rows" 3 b.Ir.br_rows;
      Alcotest.(check int) "two cells" 2 (List.length b.Ir.br_cells)
  | _ -> Alcotest.fail "expected one bound group"

let test_decouple_key_column_skipped () =
  let d = Decouple.run schema ~dom ~table_rows [ scc "t" "t_fk = $p" 2 ] in
  Alcotest.(check int) "skipped" 1 (List.length d.Decouple.skipped)

let test_decouple_conflicting_param_counts () =
  let sccs = [ scc "t" "t1 = $p" 3; scc "t" "t1 = $p" 5 ] in
  let d = Decouple.run schema ~dom ~table_rows sccs in
  Alcotest.(check int) "kept one" 1 (List.length d.Decouple.uccs);
  Alcotest.(check int) "conflict reported" 1 (List.length d.Decouple.skipped)

let test_decouple_double_bind_guard () =
  (* $p is kept as a forced UCC and also appears in an OR clause whose
     elimination would sentinel-bind it; the guard must keep the counted
     constraint and drop the sentinel binding *)
  let d =
    Decouple.run schema ~dom ~table_rows
      [ scc "t" "t1 = $p" 3; scc "t" "t1 = $p or t2 > $q" 5 ]
  in
  Alcotest.(check bool) "p not sentinel-bound" false
    (List.mem_assoc "p" (Pred.Env.bindings d.Decouple.fixed_env));
  Alcotest.(check bool) "double bind reported" true
    (List.exists
       (fun (d : Diag.t) ->
         Str_ext.contains d.Diag.d_message "both eliminated and kept")
       d.Decouple.skipped)

let test_sentinels () =
  let lit cmp = Pred.Cmp { col = "t1"; cmp; arg = Pred.Param "p" } in
  let u = Decouple.universe_sentinel Schema.Kint ~dom:5 in
  let e = Decouple.empty_sentinel Schema.Kint ~dom:5 in
  Alcotest.(check bool) "gt universe = 0" true
    (u (lit Pred.Gt) = Some (Pred.Env.Scalar (Value.Int 0)));
  Alcotest.(check bool) "le universe = dom" true
    (u (lit Pred.Le) = Some (Pred.Env.Scalar (Value.Int 5)));
  Alcotest.(check bool) "eq has no universe" true (u (lit Pred.Eq) = None);
  Alcotest.(check bool) "eq empty = 0" true
    (e (lit Pred.Eq) = Some (Pred.Env.Scalar (Value.Int 0)));
  Alcotest.(check bool) "neq has no empty" true (e (lit Pred.Neq) = None)

(* --- Cdf (§4.2-4.3) ------------------------------------------------------- *)

let no_elements _ = []
let no_key _ = None

let ucc table col lit rows =
  { Ir.ucc_table = table; ucc_col = col; ucc_lit = lit; ucc_rows = rows; ucc_source = "test" }

let cmp_lit col cmp p = Pred.Cmp { col; cmp; arg = Pred.Param p }

let layout_exn = function Ok l -> l | Error m -> Alcotest.failf "cdf failed: %s" m

(* evaluate a UCC against a layout: count rows its instantiated parameter
   selects in the value multiset *)
let count_in_layout (l : Cdf.layout) lit =
  let card p =
    match Cdf.lookup_param_card l p with Some v -> v | None -> Alcotest.failf "no card for %s" p
  in
  let counts = l.Cdf.l_value_counts in
  let sum_where f =
    let s = ref 0 in
    Array.iteri (fun i c -> if f (i + 1) then s := !s + c) counts;
    !s
  in
  match lit with
  | Pred.Cmp { cmp = Pred.Le; arg = Pred.Param p; _ } -> sum_where (fun v -> v <= card p)
  | Pred.Cmp { cmp = Pred.Lt; arg = Pred.Param p; _ } -> sum_where (fun v -> v < card p)
  | Pred.Cmp { cmp = Pred.Gt; arg = Pred.Param p; _ } -> sum_where (fun v -> v > card p)
  | Pred.Cmp { cmp = Pred.Ge; arg = Pred.Param p; _ } -> sum_where (fun v -> v >= card p)
  | Pred.Cmp { cmp = Pred.Eq; arg = Pred.Param p; _ } -> sum_where (fun v -> v = card p)
  | Pred.Cmp { cmp = Pred.Neq; arg = Pred.Param p; _ } -> sum_where (fun v -> v <> card p)
  | _ -> Alcotest.fail "unsupported literal in test"

let test_cdf_example_46 () =
  (* Example 4.6: |T| = 8, dom 5, UCCs t1>p2=6, t1<=p4=1, t1=p7=3 *)
  let uccs =
    [
      ucc "t" "t1" (cmp_lit "t1" Pred.Gt "p2") 6;
      ucc "t" "t1" (cmp_lit "t1" Pred.Le "p4") 1;
      ucc "t" "t1" (cmp_lit "t1" Pred.Eq "p7") 3;
    ]
  in
  let l =
    layout_exn
      (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8 ~uccs
         ~elements:no_elements ~param_key:no_key ())
  in
  Alcotest.(check int) "total rows" 8 (Array.fold_left ( + ) 0 l.Cdf.l_value_counts);
  Alcotest.(check int) "all 5 values present" 5
    (Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 l.Cdf.l_value_counts);
  List.iter
    (fun (u : Ir.ucc) ->
      let expected =
        match u.Ir.ucc_lit with
        | Pred.Cmp { cmp = Pred.Gt; _ } -> 6
        | Pred.Cmp { cmp = Pred.Le; _ } -> 1
        | _ -> 3
      in
      Alcotest.(check int) "ucc satisfied" expected (count_in_layout l u.Ir.ucc_lit))
    uccs

let test_cdf_equal_counts_share_value () =
  let uccs =
    [
      ucc "t" "t1" (cmp_lit "t1" Pred.Eq "a") 4;
      ucc "t" "t1" (cmp_lit "t1" Pred.Eq "b") 4;
    ]
  in
  let key p = Some (Value.Int (if p = "a" || p = "b" then 2 else 0)) in
  let l =
    layout_exn
      (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8 ~uccs
         ~elements:no_elements ~param_key:key ())
  in
  Alcotest.(check (option int)) "same value" (Cdf.lookup_param_card l "a")
    (Cdf.lookup_param_card l "b")

let test_cdf_string_rendering_order () =
  let uccs = [ ucc "t" "tt" (cmp_lit "tt" Pred.Le "p") 5 ] in
  let l =
    layout_exn
      (Cdf.build ~table:"t" ~col:"tt" ~kind:Schema.Kstring ~dom:3 ~rows:8 ~uccs
         ~elements:no_elements ~param_key:no_key ())
  in
  (* rendering preserves order *)
  let r1 = l.Cdf.l_render 1 and r2 = l.Cdf.l_render 2 in
  Alcotest.(check bool) "lexicographic" true (Value.compare r1 r2 < 0)

let test_cdf_infeasible_inputs () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "count > rows" true
    (is_err
       (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8
          ~uccs:[ ucc "t" "t1" (cmp_lit "t1" Pred.Eq "p") 9 ]
          ~elements:no_elements ~param_key:no_key ()));
  Alcotest.(check bool) "dom > rows" true
    (is_err
       (Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:9 ~rows:8 ~uccs:[]
          ~elements:no_elements ~param_key:no_key ()))

let test_cdf_default_layout () =
  let l = Cdf.default_layout ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:5 ~rows:8 in
  Alcotest.(check int) "rows" 8 (Array.fold_left ( + ) 0 l.Cdf.l_value_counts);
  Array.iter (fun c -> Alcotest.(check bool) "every value present" true (c > 0))
    l.Cdf.l_value_counts

let prop_cdf_satisfies_random_anchor_sets =
  (* random consistent F-anchors (from a production-like column) are always
     satisfied exactly: Theorem 6.1 *)
  QCheck.Test.make ~name:"random anchor sets reproduce exactly" ~count:200
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Mirage_util.Rng.create seed in
      let rows = 40 + Mirage_util.Rng.int rng 60 in
      let dom = 2 + Mirage_util.Rng.int rng 10 in
      (* fabricate a production column and derive true counts *)
      let data = Array.init rows (fun _ -> 1 + Mirage_util.Rng.int rng dom) in
      let dom_actual = Array.to_list data |> List.sort_uniq compare |> List.length in
      let n_anchors = 1 + Mirage_util.Rng.int rng 3 in
      let uccs =
        List.init n_anchors (fun i ->
            let pv = 1 + Mirage_util.Rng.int rng dom in
            let cnt = Array.fold_left (fun a v -> if v <= pv then a + 1 else a) 0 data in
            ( ucc "t" "t1" (cmp_lit "t1" Pred.Le (Printf.sprintf "p%d" i)) cnt,
              cnt ))
      in
      match
        Cdf.build ~table:"t" ~col:"t1" ~kind:Schema.Kint ~dom:dom_actual ~rows
          ~uccs:(List.map fst uccs) ~elements:no_elements ~param_key:no_key ()
      with
      | Error _ -> false
      | Ok l ->
          List.for_all
            (fun ((u : Ir.ucc), cnt) -> count_in_layout l u.Ir.ucc_lit = cnt)
            uccs)

(* --- Nonkey (§4.3) --------------------------------------------------------- *)

let test_nonkey_preserves_multisets () =
  let t = Schema.table schema "t" in
  let layouts =
    List.map
      (fun (c : Schema.column) ->
        ( c.Schema.cname,
          Cdf.default_layout ~table:"t" ~col:c.Schema.cname ~kind:c.Schema.kind
            ~dom:c.Schema.domain_size ~rows:8 ))
      t.Schema.nonkeys
  in
  let cols =
    Nonkey.generate ~rng:(Mirage_util.Rng.create 3) ~table:t ~rows:8 ~layouts
      ~bound:[] ~param_values:(fun _ -> None) ()
  in
  Alcotest.(check int) "pk + 3 nonkeys" 4 (List.length cols);
  List.iter
    (fun (name, col) ->
      Alcotest.(check int) (name ^ " length") 8 (Mirage_engine.Col.length col);
      Alcotest.(check bool) (name ^ " no nulls") true
        (Array.for_all
           (fun v -> v <> Value.Null)
           (Mirage_engine.Col.to_values col)))
    cols

let test_nonkey_bound_rows () =
  let t = Schema.table schema "t" in
  let mk col =
    (col, Cdf.default_layout ~table:"t" ~col ~kind:Schema.Kint
            ~dom:(Schema.nonkey t col).Schema.domain_size ~rows:8)
  in
  let layouts = [ mk "t1"; mk "t2"; ("tt", Cdf.default_layout ~table:"t" ~col:"tt" ~kind:Schema.Kstring ~dom:3 ~rows:8) ] in
  let bound =
    [ { Ir.br_table = "t"; br_cells = [ ("t1", "p7"); ("t2", "p8") ]; br_rows = 1;
        br_source = "test" } ]
  in
  let param_values p = if p = "p7" then Some [ 4 ] else if p = "p8" then Some [ 2 ] else None in
  let cols =
    Nonkey.generate ~rng:(Mirage_util.Rng.create 4) ~table:t ~rows:8 ~layouts ~bound
      ~param_values ()
  in
  let t1 = Mirage_engine.Col.to_values (List.assoc "t1" cols)
  and t2 = Mirage_engine.Col.to_values (List.assoc "t2" cols) in
  (* count rows where t1=4 and t2=2 simultaneously: at least the bound one *)
  let joint = ref 0 in
  Array.iteri
    (fun i v -> if v = Value.Int 4 && t2.(i) = Value.Int 2 then incr joint)
    t1;
  Alcotest.(check bool) "bound row present" true (!joint >= 1)

(* --- Acc (§4.4) ------------------------------------------------------------ *)

let test_acc_threshold_exact () =
  let values = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let t = Acc.choose_threshold ~cmp:Pred.Gt ~target:2 values in
  Alcotest.(check int) "exactly 2 greater" 2
    (Array.fold_left (fun a v -> if v > t then a + 1 else a) 0 values);
  let t = Acc.choose_threshold ~cmp:Pred.Le ~target:4 values in
  Alcotest.(check int) "exactly 4 at most" 4
    (Array.fold_left (fun a v -> if v <= t then a + 1 else a) 0 values)

let test_acc_threshold_extremes () =
  let values = [| 1.0; 2.0; 3.0 |] in
  let t = Acc.choose_threshold ~cmp:Pred.Gt ~target:0 values in
  Alcotest.(check int) "none greater" 0
    (Array.fold_left (fun a v -> if v > t then a + 1 else a) 0 values);
  let t = Acc.choose_threshold ~cmp:Pred.Gt ~target:3 values in
  Alcotest.(check int) "all greater" 3
    (Array.fold_left (fun a v -> if v > t then a + 1 else a) 0 values)

let prop_acc_threshold_best_effort =
  QCheck.Test.make ~name:"threshold minimises deviation" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (int_range 0 10)) (int_range 0 30))
    (fun (vals, target) ->
      let values = Array.of_list (List.map float_of_int vals) in
      let target = min target (Array.length values) in
      let t = Acc.choose_threshold ~cmp:Pred.Le ~target values in
      let count = Array.fold_left (fun a v -> if v <= t then a + 1 else a) 0 values in
      (* achieved count is within the best achievable deviation: check no
         single distinct value does strictly better *)
      let distinct = Array.to_list values |> List.sort_uniq compare in
      let best =
        List.fold_left
          (fun best d ->
            let c = Array.fold_left (fun a v -> if v <= d then a + 1 else a) 0 values in
            min best (abs (c - target)))
          (abs (0 - target))
          distinct
      in
      abs (count - target) <= best)

(* --- Rewrite (§3) ----------------------------------------------------------- *)

let join left right =
  Plan.Join { jt = Plan.Inner; pk_table = "s"; fk_table = "t"; fk_col = "t_fk"; left; right }

let test_rewrite_pushes_conjuncts () =
  let plan = Plan.Select (Parser.pred "s1 < $a and t1 > $b", join (Plan.Table "s") (Plan.Table "t")) in
  let r = Rewrite.push_down schema plan in
  Alcotest.(check bool) "pushed down" true (Rewrite.is_pushed_down r.Rewrite.rw_plan);
  Alcotest.(check int) "no aux" 0 (List.length r.Rewrite.rw_aux)

let test_rewrite_or_across_makes_aux () =
  let plan = Plan.Select (Parser.pred "s1 < $a or t1 > $b", join (Plan.Table "s") (Plan.Table "t")) in
  let r = Rewrite.push_down schema plan in
  Alcotest.(check int) "one aux complement" 1 (List.length r.Rewrite.rw_aux);
  (* the aux joins the complements: sigma(s1>=a) x sigma(t1<=b) *)
  match r.Rewrite.rw_aux with
  | [ Plan.Join { left = Plan.Select (pl, _); right = Plan.Select (pr, _); _ } ] ->
      Alcotest.(check bool) "left negated" true
        (String.length (Pred.to_string pl) > 0 && Pred.columns pl = [ "s1" ]);
      Alcotest.(check bool) "right negated" true (Pred.columns pr = [ "t1" ])
  | _ -> Alcotest.fail "unexpected aux shape"

let test_rewrite_nested_or_marginals () =
  (* pushable conjunct + mixed OR: the negated literal on the filtered side
     must be recorded as a marginal *)
  let plan =
    Plan.Select
      ( Parser.pred "(s1 < $a or t1 > $b) and t2 = $c",
        join (Plan.Table "s") (Plan.Table "t") )
  in
  let r = Rewrite.push_down schema plan in
  Alcotest.(check int) "aux" 1 (List.length r.Rewrite.rw_aux);
  Alcotest.(check bool) "marginal recorded for t side" true
    (List.exists (fun (t, _) -> t = "t") r.Rewrite.rw_marginals)

let test_rewrite_two_mixed_clauses_unsupported () =
  let plan =
    Plan.Select
      ( Parser.pred "(s1 < $a or t1 > $b) and (s1 > $c or t2 < $d)",
        join (Plan.Table "s") (Plan.Table "t") )
  in
  Alcotest.(check bool) "unsupported" true
    (try ignore (Rewrite.push_down schema plan); false
     with Rewrite.Unsupported _ -> true)

(* --- Extract ---------------------------------------------------------------- *)

let test_child_view_classification () =
  (match Extract.child_view_of ~table:"s" (Plan.Table "s") with
  | Ir.Cv_full "s" -> ()
  | _ -> Alcotest.fail "full");
  (match Extract.child_view_of ~table:"t" (Plan.Select (Parser.pred "t1 > 1", Plan.Table "t")) with
  | Ir.Cv_select _ -> ()
  | _ -> Alcotest.fail "select");
  match Extract.child_view_of ~table:"t" (join (Plan.Table "s") (Plan.Table "t")) with
  | Ir.Cv_subplan _ -> ()
  | _ -> Alcotest.fail "subplan"

let mini_db () =
  let ints l = Array.of_list (List.map (fun x -> Value.Int x) l) in
  let db = Db.create schema in
  Db.put db "s" [ ("s_pk", ints [ 1; 2; 3; 4 ]); ("s1", ints [ 10; 20; 30; 40 ]) ];
  Db.put db "t"
    [
      ("t_pk", ints [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      ("t_fk", ints [ 1; 2; 2; 3; 3; 3; 4; 4 ]);
      ("t1", ints [ 1; 2; 3; 4; 4; 4; 5; 3 ]);
      ("t2", ints [ 1; 2; 2; 2; 3; 4; 1; 3 ]);
      ("tt", Array.of_list (List.map (fun s -> Value.Str s) [ "a"; "b"; "c"; "a"; "b"; "c"; "a"; "b" ]));
    ];
  db

let test_extract_trivial_jcc_dropped () =
  (* full-table left view: the jcc is implied and must be dropped *)
  let w =
    Workload.make schema
      [ { Workload.q_name = "q"; q_plan = join (Plan.Table "s") (Plan.Select (Parser.pred "t1 > $p", Plan.Table "t")) } ]
  in
  let env = Pred.Env.add_scalar "p" (Value.Int 2) Pred.Env.empty in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  Alcotest.(check int) "no join constraints" 0 (List.length ex.Extract.ir.Ir.joins)

let test_extract_semi_yields_jdc () =
  let plan =
    Plan.Join
      {
        jt = Plan.Left_semi;
        pk_table = "s";
        fk_table = "t";
        fk_col = "t_fk";
        left = Plan.Select (Parser.pred "s1 < $p", Plan.Table "s");
        right = Plan.Table "t";
      }
  in
  let w = Workload.make schema [ { Workload.q_name = "q"; q_plan = plan } ] in
  let env = Pred.Env.add_scalar "p" (Value.Int 30) Pred.Env.empty in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  match ex.Extract.ir.Ir.joins with
  | [ jc ] ->
      Alcotest.(check (option int)) "jdc = matched distinct" (Some 2) jc.Ir.jc_jdc;
      Alcotest.(check (option int)) "no jcc for semi" None jc.Ir.jc_jcc
  | l -> Alcotest.failf "expected 1 join constraint, got %d" (List.length l)

let test_extract_pcc_on_direct_join () =
  let plan =
    Plan.Project
      { cols = [ "t_fk" ];
        input = join (Plan.Select (Parser.pred "s1 < $p", Plan.Table "s")) (Plan.Table "t") }
  in
  let w = Workload.make schema [ { Workload.q_name = "q"; q_plan = plan } ] in
  let env = Pred.Env.add_scalar "p" (Value.Int 30) Pred.Env.empty in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  Alcotest.(check bool) "some constraint has a jdc" true
    (List.exists (fun jc -> jc.Ir.jc_jdc <> None) ex.Extract.ir.Ir.joins)

let test_extract_range_conjunction_split () =
  let plan = Plan.Select (Parser.pred "t1 >= $a and t1 <= $b", Plan.Table "t") in
  let w = Workload.make schema [ { Workload.q_name = "q"; q_plan = plan } ] in
  let env =
    Pred.Env.add_scalar "a" (Value.Int 2)
      (Pred.Env.add_scalar "b" (Value.Int 4) Pred.Env.empty)
  in
  let ex = Extract.run w ~ref_db:(mini_db ()) ~prod_env:env in
  (* the BETWEEN splits into two marginal SCCs *)
  Alcotest.(check int) "two marginal sccs" 2 (List.length ex.Extract.ir.Ir.sccs);
  List.iter
    (fun (s : Ir.scc) ->
      Alcotest.(check bool) "marked as range split" true
        (String.length s.Ir.scc_source >= 6))
    ex.Extract.ir.Ir.sccs

(* --- Keygen membership ------------------------------------------------------ *)

let test_membership_forms () =
  let db = mini_db () in
  let env = Pred.Env.add_scalar "p" (Value.Int 2) Pred.Env.empty in
  let full = Keygen.membership ~db ~env ~table:"t" (Ir.Cv_full "t") in
  Alcotest.(check int) "full covers all" 8 (Col.Bitset.count full);
  let sel =
    Keygen.membership ~db ~env ~table:"t"
      (Ir.Cv_select { cv_table = "t"; cv_pred = Parser.pred "t1 > $p" })
  in
  Alcotest.(check int) "select filters" 6 (Col.Bitset.count sel);
  let sub =
    Keygen.membership ~db ~env ~table:"t"
      (Ir.Cv_subplan { cv_plan = join (Plan.Table "s") (Plan.Table "t"); cv_table = "t" })
  in
  Alcotest.(check int) "subplan pks" 8 (Col.Bitset.count sub)

(* --- SQL export --------------------------------------------------------------- *)

let test_sql_ddl () =
  let sql = Mirage_core.Sql_export.ddl schema in
  Alcotest.(check bool) "has pk" true
    (String.length sql > 0
    && Str_ext.contains sql "s_pk BIGINT PRIMARY KEY"
    && Str_ext.contains sql "t_fk BIGINT REFERENCES s")

let test_sql_inserts_escaping () =
  let esc_schema =
    Schema.make
      [
        {
          Schema.tname = "x";
          pk = "x_pk";
          nonkeys = [ { Schema.cname = "x1"; domain_size = 2; kind = Schema.Kstring } ];
          fks = [];
          row_count = 1;
        };
      ]
  in
  let db = Db.create esc_schema in
  Db.put db "x"
    [ ("x_pk", [| Value.Int 1 |]); ("x1", [| Value.Str "o'neil" |]) ];
  let sql = Mirage_core.Sql_export.inserts db ~table:"x" in
  Alcotest.(check bool) "quote doubled" true (Str_ext.contains sql "'o''neil'")

let test_sql_query_shapes () =
  let env =
    Pred.Env.of_list
      [
        ("p", Pred.Env.Scalar (Value.Int 3));
        ("l", Pred.Env.Vlist []);
      ]
  in
  let check plan needle =
    match Mirage_core.Sql_export.query_sql plan ~schema ~env with
    | Ok sql ->
        Alcotest.(check bool) (needle ^ " in " ^ sql) true (Str_ext.contains sql needle)
    | Error m -> Alcotest.failf "sql failed: %s" m
  in
  check (Plan.Select (Parser.pred "t1 < $p", Plan.Table "t")) "WHERE t1 < 3";
  check
    (Plan.Join
       { jt = Plan.Left_semi; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
         left = Plan.Table "s"; right = Plan.Table "t" })
    "EXISTS";
  check
    (Plan.Join
       { jt = Plan.Left_anti; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
         left = Plan.Table "s"; right = Plan.Table "t" })
    "NOT EXISTS";
  check
    (Plan.Aggregate
       { group_by = [ "t1" ]; aggs = [ (Plan.Sum, "t2") ]; input = Plan.Table "t" })
    "GROUP BY t1";
  (* empty IN list must not produce invalid SQL *)
  check (Plan.Select (Parser.pred "t1 in $l", Plan.Table "t")) "WHERE FALSE";
  match
    Mirage_core.Sql_export.query_sql
      (Plan.Select (Parser.pred "t1 < $nope", Plan.Table "t"))
      ~schema ~env
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound parameter accepted"

(* subquery aliases restart per call: the same plan renders the same text
   whatever the process rendered before *)
let test_sql_query_aliases_stable () =
  let env = Pred.Env.of_list [ ("p", Pred.Env.Scalar (Value.Int 3)) ] in
  let plan =
    Plan.Join
      { jt = Plan.Left_semi; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
        left = Plan.Table "s";
        right = Plan.Select (Parser.pred "t1 < $p", Plan.Table "t") }
  in
  let render () =
    match Mirage_core.Sql_export.query_sql plan ~schema ~env with
    | Ok sql -> sql
    | Error m -> Alcotest.failf "sql failed: %s" m
  in
  let first = render () in
  Alcotest.(check string) "same plan, same text" first (render ())

(* --- Keygen on the paper's running example (Figs. 8-10) -------------------- *)

let test_keygen_paper_example () =
  (* S = {1..4}, T rows 1..8; two join constraints like V5 and V8 of Fig. 7:
     an equi join between filtered views (jcc 3, jdc 2 via PCC) and a
     left-outer join with the arithmetic view *)
  let db = mini_db () in
  let env =
    Pred.Env.of_list
      [
        ("p1", Pred.Env.Scalar (Value.Int 30));
        ("p2", Pred.Env.Scalar (Value.Int 2));
      ]
  in
  let edge = { Ir.e_pk_table = "s"; e_fk_table = "t"; e_fk_col = "t_fk" } in
  let constraints =
    [
      {
        Ir.jc_edge = edge;
        jc_left = Ir.Cv_select { cv_table = "s"; cv_pred = Parser.pred "s1 < $p1" };
        jc_right = Ir.Cv_select { cv_table = "t"; cv_pred = Parser.pred "t1 > $p2" };
        jc_jcc = Some 3;
        jc_jdc = Some 2;
        jc_source = "v5";
      };
      {
        Ir.jc_edge = edge;
        jc_left = Ir.Cv_full "s";
        jc_right = Ir.Cv_select { cv_table = "t"; cv_pred = Parser.pred "t1 >= 4" };
        jc_jcc = Some 4;
        jc_jdc = Some 3;
        jc_source = "v8";
      };
    ]
  in
  let times = Keygen.fresh_times () in
  match
    Keygen.populate_edge ~rng:(Mirage_util.Rng.create 5) ~db ~env ~edge ~constraints
      ~batch_size:1000 ~cp_max_nodes:100_000 ~times ()
  with
  | Error f -> Alcotest.fail (Diag.to_string f.Keygen.kf_diag)
  | Ok (fk_vec, notices) ->
      let fk = Col.Ivec.to_array fk_vec in
      (* the per-edge CP summary is Info severity; resize notices are not *)
      let resizes =
        List.filter (fun d -> d.Mirage_core.Diag.d_severity <> Mirage_core.Diag.Info) notices
      in
      Alcotest.(check int) "no resize notices" 0 (List.length resizes);
      (* verify both constraints on the populated column *)
      let t1 = Db.column db "t" "t1" in
      let s1 = Db.column db "s" "s1" in
      let in_vl1 pk = (match s1.(pk - 1) with Value.Int v -> v < 30 | _ -> false) in
      let matched1 = ref [] in
      Array.iteri
        (fun i pk ->
          match t1.(i) with
          | Value.Int t1v when t1v > 2 && in_vl1 pk ->
              matched1 := pk :: !matched1
          | _ -> ())
        fk;
      Alcotest.(check int) "v5 jcc" 3 (List.length !matched1);
      Alcotest.(check int) "v5 jdc" 2 (List.length (List.sort_uniq compare !matched1));
      let matched2 = ref [] in
      Array.iteri
        (fun i pk ->
          match t1.(i) with
          | Value.Int t1v when t1v >= 4 -> matched2 := pk :: !matched2
          | _ -> ())
        fk;
      Alcotest.(check int) "v8 jcc" 4 (List.length !matched2);
      Alcotest.(check int) "v8 jdc" 3 (List.length (List.sort_uniq compare !matched2))

(* --- cross-partition solve cache ------------------------------------------- *)

module Solve_cache = Mirage_core.Solve_cache
module Cp = Mirage_cp.Cp

let cache_model names =
  (* a small transportation system; [names] only relabels the variables and
     must not affect the fingerprint *)
  let m = Cp.create () in
  let xs =
    Array.init 6 (fun i -> Cp.var m ~name:names.(i) ~lo:0 ~hi:50)
  in
  Cp.linear_eq m [ (1, xs.(0)); (1, xs.(1)); (1, xs.(2)) ] 30;
  Cp.linear_eq m [ (1, xs.(3)); (1, xs.(4)); (1, xs.(5)) ] 20;
  Cp.linear_le m [ (1, xs.(0)); (1, xs.(3)) ] 25;
  Cp.imply_pos m xs.(1) xs.(4);
  m

let test_solve_cache_hit_renamed () =
  let m1 = cache_model [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let m2 = cache_model [| "u"; "v"; "w"; "x"; "y"; "z" |] in
  Alcotest.(check string)
    "renamed systems share a fingerprint" (Cp.fingerprint m1) (Cp.fingerprint m2);
  let cache = Solve_cache.create () in
  let o1, st1 = Solve_cache.solve ~cache m1 in
  let o2, st2 = Solve_cache.solve ~cache m2 in
  Alcotest.(check bool) "first solve ran search" true (st1 <> None);
  Alcotest.(check bool) "second solve was a cache hit" true (st2 = None);
  Alcotest.(check int) "hits" 1 (Solve_cache.hits cache);
  Alcotest.(check int) "misses" 1 (Solve_cache.misses cache);
  match (o1, o2) with
  | Cp.Sat f1, Cp.Sat f2 ->
      Alcotest.(check (array int))
        "identical solutions" (Cp.solution_of_fun m1 f1) (Cp.solution_of_fun m2 f2)
  | _ -> Alcotest.fail "expected both solves Sat"

let test_solve_cache_distinct_systems_miss () =
  let m1 = cache_model [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let m2 = cache_model [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  Cp.linear_le m2 [ (1, Cp.var m2 ~lo:0 ~hi:1) ] 1;
  Alcotest.(check bool) "different structure, different fingerprint" true
    (Cp.fingerprint m1 <> Cp.fingerprint m2);
  let cache = Solve_cache.create () in
  ignore (Solve_cache.solve ~cache m1);
  ignore (Solve_cache.solve ~cache m2);
  Alcotest.(check int) "no hits" 0 (Solve_cache.hits cache);
  (* same options replayed: now it hits *)
  ignore (Solve_cache.solve ~cache m1);
  Alcotest.(check int) "replay hits" 1 (Solve_cache.hits cache);
  (* different solve options must not share entries *)
  ignore (Solve_cache.solve ~cache ~max_nodes:12_345 m1);
  Alcotest.(check int) "options are part of the key" 1 (Solve_cache.hits cache)

let test_solve_cache_driver_identity () =
  (* end-to-end: the generated database is bit-identical with the cache on
     and off (the cache only skips work, never changes outcomes) *)
  let db = mini_db () in
  let env =
    Pred.Env.of_list
      [
        ("p1", Pred.Env.Scalar (Value.Int 30));
        ("p2", Pred.Env.Scalar (Value.Int 2));
        ("p3", Pred.Env.Scalar (Value.Int 2));
      ]
  in
  let queries =
    [
      { Workload.q_name = "q1";
        q_plan =
          Plan.Join
            { jt = Plan.Inner; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
              left = Plan.Select (Parser.pred "s1 < $p1", Plan.Table "s");
              right = Plan.Select (Parser.pred "t1 > $p2", Plan.Table "t") } };
      { Workload.q_name = "q2";
        q_plan = Plan.Select (Parser.pred "t2 = $p3", Plan.Table "t") };
    ]
  in
  let workload = Workload.make schema queries in
  let gen cache_on =
    let config =
      { Mirage_core.Driver.default_config with
        Mirage_core.Driver.solve_cache = cache_on; seed = 11 }
    in
    match Mirage_core.Driver.generate ~config workload ~ref_db:db ~prod_env:env with
    | Ok r -> r
    | Error d -> Alcotest.failf "generation failed: %s" (Diag.to_string d)
  in
  let on = gen true and off = gen false in
  List.iter
    (fun (tbl : Schema.table) ->
      let tname = tbl.Schema.tname in
      Alcotest.(check int)
        (tname ^ " row count")
        (Db.row_count off.Mirage_core.Driver.r_db tname)
        (Db.row_count on.Mirage_core.Driver.r_db tname);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s identical with cache on/off" tname c)
            true
            (Db.column off.Mirage_core.Driver.r_db tname c
            = Db.column on.Mirage_core.Driver.r_db tname c))
        (Schema.column_names tbl))
    (Schema.tables (Db.schema on.Mirage_core.Driver.r_db))

(* --- randomized end-to-end fuzz --------------------------------------------- *)

let prop_random_applications_regenerate =
  (* random production databases + random query mixes over the S/T schema:
     generation must not crash and must reproduce the constraints almost
     exactly (the only slack is ACC ties on tiny tables) *)
  QCheck.Test.make ~name:"random applications regenerate with tiny error" ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Mirage_util.Rng.create seed in
      let n_s = 4 + Mirage_util.Rng.int rng 12 in
      let n_t = 20 + Mirage_util.Rng.int rng 60 in
      let fuzz_schema =
        Schema.make
          [
            {
              Schema.tname = "s";
              pk = "s_pk";
              nonkeys = [ { Schema.cname = "s1"; domain_size = 4; kind = Schema.Kint } ];
              fks = [];
              row_count = n_s;
            };
            {
              Schema.tname = "t";
              pk = "t_pk";
              nonkeys =
                [
                  { Schema.cname = "t1"; domain_size = 5; kind = Schema.Kint };
                  { Schema.cname = "t2"; domain_size = 4; kind = Schema.Kint };
                ];
              fks = [ { Schema.fk_col = "t_fk"; references = "s" } ];
              row_count = n_t;
            };
          ]
      in
      let db = Db.create fuzz_schema in
      let ints f = Array.init n_t (fun i -> Value.Int (f i)) in
      Db.put db "s"
        [
          ("s_pk", Array.init n_s (fun i -> Value.Int (i + 1)));
          ("s1", Array.init n_s (fun _ -> Value.Int (Mirage_util.Rng.int_in rng 1 40)));
        ];
      Db.put db "t"
        [
          ("t_pk", ints (fun i -> i + 1));
          ("t_fk", ints (fun _ -> Mirage_util.Rng.int_in rng 1 n_s));
          ("t1", ints (fun _ -> Mirage_util.Rng.int_in rng 1 5));
          ("t2", ints (fun _ -> Mirage_util.Rng.int_in rng 1 4));
        ];
      let jt =
        match Mirage_util.Rng.int rng 4 with
        | 0 -> Plan.Inner
        | 1 -> Plan.Left_outer
        | 2 -> Plan.Left_semi
        | _ -> Plan.Left_anti
      in
      let queries =
        [
          { Workload.q_name = "f1";
            q_plan =
              Plan.Join
                { jt; pk_table = "s"; fk_table = "t"; fk_col = "t_fk";
                  left = Plan.Select (Parser.pred "s1 < $f_a", Plan.Table "s");
                  right = Plan.Select (Parser.pred "t1 > $f_b", Plan.Table "t") } };
          { Workload.q_name = "f2";
            q_plan = Plan.Select (Parser.pred "t1 <= $f_c or t2 = $f_d", Plan.Table "t") };
        ]
      in
      let workload = Workload.make fuzz_schema queries in
      let prod_env =
        Pred.Env.of_list
          [
            ("f_a", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 5 40)));
            ("f_b", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 1 4)));
            ("f_c", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 1 4)));
            ("f_d", Pred.Env.Scalar (Value.Int (Mirage_util.Rng.int_in rng 1 4)));
          ]
      in
      match Mirage_core.Driver.generate workload ~ref_db:db ~prod_env with
      | Error _ -> false
      | Ok r ->
          List.for_all
            (fun (e : Mirage_core.Error.query_error) -> e.Mirage_core.Error.qe_relative < 0.05)
            (Mirage_core.Driver.measure_errors r))

let () =
  Alcotest.run "core"
    [
      ( "decouple",
        [
          Alcotest.test_case "single literal" `Quick test_decouple_single_literal;
          Alcotest.test_case "arith to acc" `Quick test_decouple_arith_to_acc;
          Alcotest.test_case "paper Fig5 V9" `Quick test_decouple_fig5_v9;
          Alcotest.test_case "paper Fig5 V10 De Morgan" `Quick test_decouple_fig5_v10_demorgan;
          Alcotest.test_case "key column skipped" `Quick test_decouple_key_column_skipped;
          Alcotest.test_case "conflicting counts" `Quick test_decouple_conflicting_param_counts;
          Alcotest.test_case "sentinels" `Quick test_sentinels;
          Alcotest.test_case "double-bind guard" `Quick test_decouple_double_bind_guard;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "Example 4.6" `Quick test_cdf_example_46;
          Alcotest.test_case "equal counts share value" `Quick test_cdf_equal_counts_share_value;
          Alcotest.test_case "string order" `Quick test_cdf_string_rendering_order;
          Alcotest.test_case "infeasible inputs" `Quick test_cdf_infeasible_inputs;
          Alcotest.test_case "default layout" `Quick test_cdf_default_layout;
          QCheck_alcotest.to_alcotest prop_cdf_satisfies_random_anchor_sets;
        ] );
      ( "nonkey",
        [
          Alcotest.test_case "multisets" `Quick test_nonkey_preserves_multisets;
          Alcotest.test_case "bound rows" `Quick test_nonkey_bound_rows;
        ] );
      ( "acc",
        [
          Alcotest.test_case "exact thresholds" `Quick test_acc_threshold_exact;
          Alcotest.test_case "extremes" `Quick test_acc_threshold_extremes;
          QCheck_alcotest.to_alcotest prop_acc_threshold_best_effort;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "pushes conjuncts" `Quick test_rewrite_pushes_conjuncts;
          Alcotest.test_case "or-across aux" `Quick test_rewrite_or_across_makes_aux;
          Alcotest.test_case "nested marginals" `Quick test_rewrite_nested_or_marginals;
          Alcotest.test_case "two mixed unsupported" `Quick test_rewrite_two_mixed_clauses_unsupported;
        ] );
      ( "extract",
        [
          Alcotest.test_case "child view classification" `Quick test_child_view_classification;
          Alcotest.test_case "trivial jcc dropped" `Quick test_extract_trivial_jcc_dropped;
          Alcotest.test_case "semi yields jdc" `Quick test_extract_semi_yields_jdc;
          Alcotest.test_case "pcc on direct join" `Quick test_extract_pcc_on_direct_join;
          Alcotest.test_case "range conjunction split" `Quick test_extract_range_conjunction_split;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "membership forms" `Quick test_membership_forms;
          Alcotest.test_case "paper Figs 8-10 example" `Quick test_keygen_paper_example;
          Alcotest.test_case "solve cache: renamed systems hit" `Quick
            test_solve_cache_hit_renamed;
          Alcotest.test_case "solve cache: keying" `Quick
            test_solve_cache_distinct_systems_miss;
          Alcotest.test_case "solve cache: driver identity" `Quick
            test_solve_cache_driver_identity;
        ] );
      ( "sql-export",
        [
          Alcotest.test_case "ddl" `Quick test_sql_ddl;
          Alcotest.test_case "insert escaping" `Quick test_sql_inserts_escaping;
          Alcotest.test_case "query shapes" `Quick test_sql_query_shapes;
          Alcotest.test_case "query aliases per call" `Quick
            test_sql_query_aliases_stable;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_random_applications_regenerate ] );
    ]
