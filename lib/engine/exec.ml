module Value = Mirage_sql.Value
module Pred = Mirage_sql.Pred
module Like = Mirage_sql.Like
module Schema = Mirage_sql.Schema
module Plan = Mirage_relalg.Plan

type join_stat = { jcc : int; jdc : int; left_card : int; right_card : int }

type analysis = {
  result : Rel.t;
  cards : int array;
  join_stats : (int * join_stat) list;
}

let vnull nulls p =
  match nulls with Some b -> Col.Bitset.get b p | None -> false

(* ------------------------------------------------------------------ *)
(* Compiled predicates.

   A predicate is compiled once per operator into an [int -> bool] closure
   over logical row ids, resolving column views, parameters and dictionary
   pools a single time instead of per row.  Resolution happens lazily on the
   first row a literal actually evaluates, which preserves the legacy
   per-row semantics exactly: an unbound parameter or out-of-scope column
   only raises if some row reaches that literal, so empty relations and
   short-circuited branches never raise. *)

type scope = { find : string -> Rel.view }

let scope_of_rel ~missing (rel : Rel.t) =
  let idx = Hashtbl.create (Array.length rel.Rel.views) in
  Array.iter (fun v -> Hashtbl.replace idx v.Rel.vname v) rel.Rel.views;
  {
    find =
      (fun c ->
        match Hashtbl.find_opt idx c with
        | Some v -> v
        | None -> invalid_arg (missing c));
  }

let lazy_lit build =
  let cell = ref None in
  fun i ->
    let f =
      match !cell with
      | Some f -> f
      | None ->
          let f = build () in
          cell := Some f;
          f
    in
    f i

let int_test cmp y =
  match cmp with
  | Pred.Eq -> fun x -> x = y
  | Pred.Neq -> fun x -> x <> y
  | Pred.Lt -> fun x -> x < y
  | Pred.Le -> fun x -> x <= y
  | Pred.Gt -> fun x -> x > y
  | Pred.Ge -> fun x -> x >= y

let compile_cmp ~env scope col cmp arg =
  lazy_lit (fun () ->
      let arg_v = Pred.resolve_scalar ~env arg in
      let v = scope.find col in
      let sel = v.Rel.vsel in
      match (v.Rel.vcol, arg_v) with
      | Col.Ints { data; nulls }, Value.Int y ->
          let ok = int_test cmp y in
          fun i ->
            let p = sel.(i) in
            p >= 0 && (not (vnull nulls p)) && ok data.(p)
      | Col.Ints { data; nulls }, Value.Float y ->
          fun i ->
            let p = sel.(i) in
            p >= 0
            && (not (vnull nulls p))
            && Pred.cmp_holds cmp (Stdlib.compare (float_of_int data.(p)) y)
      | Col.Floats { data; nulls }, Value.Float y ->
          fun i ->
            let p = sel.(i) in
            p >= 0
            && (not (vnull nulls p))
            && Pred.cmp_holds cmp (Stdlib.compare data.(p) y)
      | Col.Floats { data; nulls }, Value.Int y ->
          let yf = float_of_int y in
          fun i ->
            let p = sel.(i) in
            p >= 0
            && (not (vnull nulls p))
            && Pred.cmp_holds cmp (Stdlib.compare data.(p) yf)
      | Col.Dict { codes; pool; nulls }, Value.Str y ->
          let verdict =
            Array.map (fun s -> Pred.cmp_holds cmp (String.compare s y)) pool
          in
          fun i ->
            let p = sel.(i) in
            p >= 0 && (not (vnull nulls p)) && verdict.(codes.(p))
      | _, _ ->
          fun i -> (
            match Value.cmp_sql (Rel.get_view v i) arg_v with
            | Some c -> Pred.cmp_holds cmp c
            | None -> false))

let compile_in ~env scope col neg arg =
  lazy_lit (fun () ->
      let v = scope.find col in
      let sel = v.Rel.vsel in
      (* the legacy evaluator resolves the list only once a non-NULL value
         reaches the literal — keep that, so an unbound list parameter over
         an all-NULL column still never raises *)
      let elems = ref None in
      let get_elems () =
        match !elems with
        | Some vs -> vs
        | None ->
            let vs = Pred.resolve_list ~env arg in
            elems := Some vs;
            vs
      in
      match v.Rel.vcol with
      | Col.Ints { data; nulls } ->
          let table = ref None in
          let member x =
            let set, floats =
              match !table with
              | Some p -> p
              | None ->
                  let vs = get_elems () in
                  let set = Hashtbl.create (List.length vs + 1) in
                  List.iter
                    (function
                      | Value.Int n -> Hashtbl.replace set n () | _ -> ())
                    vs;
                  let floats =
                    List.filter_map
                      (function Value.Float f -> Some f | _ -> None)
                      vs
                  in
                  let p = (set, floats) in
                  table := Some p;
                  p
            in
            Hashtbl.mem set x
            || List.exists
                 (fun f -> Stdlib.compare (float_of_int x) f = 0)
                 floats
          in
          fun i ->
            let p = sel.(i) in
            if p < 0 || vnull nulls p then false
            else
              let m = member data.(p) in
              if neg then not m else m
      | Col.Dict { codes; pool; nulls } ->
          let verdict = ref None in
          let get_verdict () =
            match !verdict with
            | Some a -> a
            | None ->
                let vs = get_elems () in
                let a =
                  Array.map
                    (fun s ->
                      let m =
                        List.exists
                          (fun x -> Value.cmp_sql (Value.Str s) x = Some 0)
                          vs
                      in
                      if neg then not m else m)
                    pool
                in
                verdict := Some a;
                a
          in
          fun i ->
            let p = sel.(i) in
            if p < 0 || vnull nulls p then false
            else (get_verdict ()).(codes.(p))
      | _ ->
          fun i -> (
            match Rel.get_view v i with
            | Value.Null -> false
            | vv ->
                let m =
                  List.exists
                    (fun x -> Value.cmp_sql vv x = Some 0)
                    (get_elems ())
                in
                if neg then not m else m))

let compile_like ~env scope col neg arg =
  lazy_lit (fun () ->
      let arg_v = Pred.resolve_scalar ~env arg in
      let v = scope.find col in
      let sel = v.Rel.vsel in
      match (v.Rel.vcol, arg_v) with
      | Col.Dict { codes; pool; nulls }, Value.Str pattern ->
          (* one LIKE match per distinct pool entry, not per row *)
          let verdict =
            Array.map
              (fun s ->
                let m = Like.matches ~pattern s in
                if neg then not m else m)
              pool
          in
          fun i ->
            let p = sel.(i) in
            p >= 0 && (not (vnull nulls p)) && verdict.(codes.(p))
      | _, Value.Str pattern ->
          fun i -> (
            match Rel.get_view v i with
            | Value.Str s ->
                let m = Like.matches ~pattern s in
                if neg then not m else m
            | _ -> false)
      | _, _ -> fun _ -> false)

let rec compile_arith scope = function
  | Pred.Acol c -> (
      let v = scope.find c in
      let sel = v.Rel.vsel in
      match v.Rel.vcol with
      | Col.Ints { data; nulls } ->
          fun i ->
            let p = sel.(i) in
            if p < 0 || vnull nulls p then None
            else Some (float_of_int data.(p))
      | Col.Floats { data; nulls } ->
          fun i ->
            let p = sel.(i) in
            if p < 0 || vnull nulls p then None else Some data.(p)
      | Col.Big_ints { data; nulls } ->
          fun i ->
            let p = sel.(i) in
            if p < 0 || vnull nulls p then None
            else Some (float_of_int (Bigarray.Array1.unsafe_get data p))
      | Col.Big_floats { data; nulls } ->
          fun i ->
            let p = sel.(i) in
            if p < 0 || vnull nulls p then None
            else Some (Bigarray.Array1.unsafe_get data p)
      | Col.Dict _ | Col.Big_dict _ -> fun _ -> None
      | Col.Boxed vs ->
          fun i ->
            let p = sel.(i) in
            if p < 0 then None else Value.to_float vs.(p))
  | Pred.Aconst f ->
      let r = Some f in
      fun _ -> r
  | Pred.Aadd (a, b) -> lift2 ( +. ) scope a b
  | Pred.Asub (a, b) -> lift2 ( -. ) scope a b
  | Pred.Amul (a, b) -> lift2 ( *. ) scope a b
  | Pred.Adiv (a, b) ->
      let fa = compile_arith scope a and fb = compile_arith scope b in
      fun i -> (
        match (fa i, fb i) with
        | Some x, Some y when y <> 0.0 -> Some (x /. y)
        | _ -> None)

and lift2 op scope a b =
  let fa = compile_arith scope a and fb = compile_arith scope b in
  fun i ->
    match (fa i, fb i) with
    | Some x, Some y -> Some (op x y)
    | _ -> None

let compile_arith_cmp ~env scope expr cmp arg =
  lazy_lit (fun () ->
      let arg_v = Pred.resolve_scalar ~env arg in
      let f = compile_arith scope expr in
      match Value.to_float arg_v with
      | None -> fun _ -> false
      | Some y -> (
          fun i ->
            match f i with
            | Some x -> Pred.cmp_holds cmp (Stdlib.compare x y)
            | None -> false))

let compile_literal ~env scope = function
  | Pred.Cmp { col; cmp; arg } -> compile_cmp ~env scope col cmp arg
  | Pred.In { col; neg; arg } -> compile_in ~env scope col neg arg
  | Pred.Like { col; neg; arg } -> compile_like ~env scope col neg arg
  | Pred.Arith_cmp { expr; cmp; arg } ->
      compile_arith_cmp ~env scope expr cmp arg

let rec compile ~env scope = function
  | Pred.True -> fun _ -> true
  | Pred.False -> fun _ -> false
  | Pred.Lit l -> compile_literal ~env scope l
  | Pred.And ps -> (
      match List.map (compile ~env scope) ps with
      | [] -> fun _ -> true
      | [ f ] -> f
      | fs -> fun i -> List.for_all (fun f -> f i) fs)
  | Pred.Or ps -> (
      match List.map (compile ~env scope) ps with
      | [] -> fun _ -> false
      | [ f ] -> f
      | fs -> fun i -> List.exists (fun f -> f i) fs)
  | Pred.Not p ->
      let f = compile ~env scope p in
      fun i -> not (f i)

(* ------------------------------------------------------------------ *)
(* Operators *)

let scan db tname =
  let tschema = Schema.table (Db.schema db) tname in
  let names = Schema.column_names tschema in
  Rel.of_cols (List.map (fun c -> (c, Db.col db tname c)) names)

let filter_rel ~env pred (rel : Rel.t) =
  let scope =
    scope_of_rel rel ~missing:(Printf.sprintf "Exec: column %s not in scope")
  in
  let p = compile ~env scope pred in
  let n = Rel.card rel in
  let keep = Array.make n 0 in
  let nk = ref 0 in
  for i = 0 to n - 1 do
    if p i then begin
      keep.(!nk) <- i;
      incr nk
    end
  done;
  Rel.select rel (Array.sub keep 0 !nk)

(* Int key index shared by [join] and [root_mask]: key -> slot, [-1] when
   absent.  [n] keys spanning at most [n] values (an unfiltered PK column)
   index a dense array over their range, so it never outgrows one word per
   key; a key set ([~set:true], slot 0 for every key) spanning at most [64n]
   values a bitset, at most 8 bytes per key; anything sparser a Hashtbl. *)
type key_index =
  | Dense of { lo : int; hi : int; slots : int array }
  | Bits of { lo : int; hi : int; bits : Col.Bitset.t }
  | Sparse of (int, int) Hashtbl.t

let key_find ix k =
  match ix with
  | Dense { lo; hi; slots } ->
      if k >= lo && k <= hi then Array.unsafe_get slots (k - lo) else -1
  | Bits { lo; hi; bits } ->
      if k >= lo && k <= hi && Col.Bitset.get bits (k - lo) then 0 else -1
  | Sparse h -> ( match Hashtbl.find_opt h k with Some v -> v | None -> -1)

let key_add ix k v =
  match ix with
  | Dense { lo; slots; _ } -> slots.(k - lo) <- v
  | Bits { lo; bits; _ } -> Col.Bitset.set bits (k - lo)
  | Sparse h -> Hashtbl.replace h k v

(* [iter f] calls [f slot key] once per non-NULL key; a first pass sizes the
   index, a second fills it with [add] *)
let build_index ?(set = false) iter add =
  let n = ref 0 and lo = ref max_int and hi = ref min_int in
  iter (fun _ k ->
      incr n;
      if k < !lo then lo := k;
      if k > !hi then hi := k);
  let span = !hi - !lo and lo = !lo and hi = !hi in
  let ix =
    if span < 0 || span >= (if set then 64 else 1) * !n then
      Sparse (Hashtbl.create (max 16 !n))
    else if set then Bits { lo; hi; bits = Col.Bitset.create (span + 1) }
    else Dense { lo; hi; slots = Array.make (span + 1) (-1) }
  in
  iter (add ix);
  ix

(* (is NULL, key) readers over the physical rows of an int column *)
let int_keys = function
  | Col.Ints { data; nulls } -> Some (vnull nulls, Array.unsafe_get data)
  | Col.Big_ints { data; nulls } ->
      Some (vnull nulls, Bigarray.Array1.unsafe_get data)
  | _ -> None

(* PK–FK hash join.  The left relation carries [pk_table]'s primary key
   column, the right relation the foreign key column.  Row-pair order
   replicates the legacy row-major evaluator exactly: right rows ascending,
   and within one right row the matching left rows in the (descending)
   bucket order the index build produced.  Returns the joined relation for
   the requested join type plus the uniform (jcc, jdc) statistics:
   jcc = matched pairs, jdc = distinct matched key values. *)
let join ~jt ~pk_col ~fk_col (left : Rel.t) (right : Rel.t) =
  let lv = Rel.view left (Rel.col_index left pk_col) in
  let rv = Rel.view right (Rel.col_index right fk_col) in
  let nleft = Rel.card left and nright = Rel.card right in
  let left_matched = Array.make nleft false in
  let right_matched = Array.make nright false in
  let jcc = ref 0 in
  let jdc = ref 0 in
  (* growable matched-pair buffers, in legacy emission order *)
  let cap = ref (max 16 nright) in
  let pl = ref (Array.make !cap 0) in
  let pr = ref (Array.make !cap 0) in
  let np = ref 0 in
  let push l r =
    if !np = !cap then begin
      let c = !cap * 2 in
      let nl = Array.make c 0 and nr = Array.make c 0 in
      Array.blit !pl 0 nl 0 !np;
      Array.blit !pr 0 nr 0 !np;
      pl := nl;
      pr := nr;
      cap := c
    end;
    !pl.(!np) <- l;
    !pr.(!np) <- r;
    incr np
  in
  let (lnull, lkey), (rnull, rkey) =
    match (int_keys lv.Rel.vcol, int_keys rv.Rel.vcol) with
    | Some l, Some r -> (l, r)
    | _ ->
        (* other representations: intern boxed keys as ints, so keys match
           by structural equality (legacy behaviour) *)
        let ids = Hashtbl.create nleft in
        let reader c =
          ( Col.is_null c,
            fun p ->
              let v = Col.get c p in
              match Hashtbl.find_opt ids v with
              | Some id -> id
              | None ->
                  let id = Hashtbl.length ids in
                  Hashtbl.add ids v id;
                  id )
        in
        (reader lv.Rel.vcol, reader rv.Rel.vcol)
  in
  (* [head] maps a key to its last left row and [next] chains each left row
     to the previous one with the same key, so a bucket walks in descending
     row order *)
  let lsel = lv.Rel.vsel and rsel = rv.Rel.vsel in
  let next = Array.make nleft (-1) in
  let head =
    build_index
      (fun f ->
        for li = 0 to nleft - 1 do
          let p = lsel.(li) in
          if p >= 0 && not (lnull p) then f li (lkey p)
        done)
      (fun ix li k ->
        next.(li) <- key_find ix k;
        key_add ix k li)
  in
  for ri = 0 to nright - 1 do
    let p = rsel.(ri) in
    if p >= 0 && not (rnull p) then begin
      let h = key_find head (rkey p) in
      if h >= 0 then begin
        (* a chain's head is matched iff its key already was *)
        if not left_matched.(h) then incr jdc;
        right_matched.(ri) <- true;
        let li = ref h in
        while !li >= 0 do
          incr jcc;
          left_matched.(!li) <- true;
          push !li ri;
          li := next.(!li)
        done
      end
    end
  done;
  let pairs_l = Array.sub !pl 0 !np and pairs_r = Array.sub !pr 0 !np in
  let rows_where flags wanted =
    let n = Array.length flags in
    let buf = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if flags.(i) = wanted then begin
        buf.(!k) <- i;
        incr k
      end
    done;
    Array.sub buf 0 !k
  in
  let nulls n = Array.make n (-1) in
  let combine lkeep rkeep =
    let lrel = Rel.select left lkeep and rrel = Rel.select right rkeep in
    {
      Rel.rcard = Array.length lkeep;
      views = Array.append lrel.Rel.views rrel.Rel.views;
    }
  in
  let rel =
    match jt with
    | Plan.Inner -> combine pairs_l pairs_r
    | Plan.Left_outer ->
        let ul = rows_where left_matched false in
        combine
          (Array.append pairs_l ul)
          (Array.append pairs_r (nulls (Array.length ul)))
    | Plan.Right_outer ->
        let ur = rows_where right_matched false in
        combine
          (Array.append pairs_l (nulls (Array.length ur)))
          (Array.append pairs_r ur)
    | Plan.Full_outer ->
        let ul = rows_where left_matched false in
        let ur = rows_where right_matched false in
        combine
          (Array.concat [ pairs_l; ul; nulls (Array.length ur) ])
          (Array.concat [ pairs_r; nulls (Array.length ul); ur ])
    | Plan.Left_semi -> Rel.select left (rows_where left_matched true)
    | Plan.Right_semi -> Rel.select right (rows_where right_matched true)
    | Plan.Left_anti -> Rel.select left (rows_where left_matched false)
    | Plan.Right_anti -> Rel.select right (rows_where right_matched false)
  in
  let stat =
    { jcc = !jcc; jdc = !jdc; left_card = nleft; right_card = nright }
  in
  (rel, stat)

let float_at_view (v : Rel.view) i =
  let p = v.Rel.vsel.(i) in
  if p < 0 then None else Col.float_at v.Rel.vcol p

(* hash aggregation: group rows by the group-by columns and fold each
   aggregate function; output columns are the group keys followed by one
   column per aggregate named "<fn>_<col>" *)
let aggregate ~group_by ~aggs (rel : Rel.t) =
  let gvs = List.map (fun c -> Rel.view rel (Rel.col_index rel c)) group_by in
  let avs =
    List.map (fun (f, c) -> (f, Rel.view rel (Rel.col_index rel c))) aggs
  in
  let n_aggs = List.length avs in
  let groups = Hashtbl.create 64 in
  for i = 0 to Rel.card rel - 1 do
    let key = List.map (fun v -> Rel.get_view v i) gvs in
    let accs =
      match Hashtbl.find_opt groups key with
      | Some a -> a
      | None ->
          let a = Array.make n_aggs (0, 0.0, infinity, neg_infinity) in
          Hashtbl.add groups key a;
          a
    in
    List.iteri
      (fun k (_, v) ->
        let cnt, sum, mn, mx = accs.(k) in
        match float_at_view v i with
        | Some x -> accs.(k) <- (cnt + 1, sum +. x, min mn x, max mx x)
        | None -> accs.(k) <- (cnt + 1, sum, mn, mx))
      avs
  done;
  let agg_name (f, c) =
    let fn =
      match f with
      | Plan.Count -> "count"
      | Plan.Sum -> "sum"
      | Plan.Avg -> "avg"
      | Plan.Min -> "min"
      | Plan.Max -> "max"
    in
    fn ^ "_" ^ c
  in
  let cols =
    Array.of_list (group_by @ List.map (fun (f, c) -> agg_name (f, c)) aggs)
  in
  let rows =
    Hashtbl.fold
      (fun key accs acc ->
        let agg_vals =
          List.mapi
            (fun k (f, _) ->
              let cnt, sum, mn, mx = accs.(k) in
              match f with
              | Plan.Count -> Value.Int cnt
              | Plan.Sum -> Value.Float sum
              | Plan.Avg ->
                  if cnt = 0 then Value.Null
                  else Value.Float (sum /. float_of_int cnt)
              | Plan.Min -> if cnt = 0 then Value.Null else Value.Float mn
              | Plan.Max -> if cnt = 0 then Value.Null else Value.Float mx)
            avs
        in
        Array.of_list (key @ agg_vals) :: acc)
      groups []
  in
  Rel.of_rows cols (Array.of_list rows)

let analyze db ~env plan =
  let n = Plan.size plan in
  let cards = Array.make n 0 in
  let join_stats = ref [] in
  let counter = ref 0 in
  let rec go p =
    let idx = !counter in
    incr counter;
    let rel =
      match p with
      | Plan.Table t -> scan db t
      | Plan.Select (pred, q) -> filter_rel ~env pred (go q)
      | Plan.Project { cols; input } -> Rel.distinct_on (go input) cols
      | Plan.Aggregate { group_by; aggs; input } ->
          aggregate ~group_by ~aggs (go input)
      | Plan.Join { jt; pk_table; fk_col; left; right; _ } ->
          let lrel = go left in
          let rrel = go right in
          let pk_col = (Schema.table (Db.schema db) pk_table).Schema.pk in
          let rel, stat = join ~jt ~pk_col ~fk_col lrel rrel in
          join_stats := (idx, stat) :: !join_stats;
          rel
    in
    cards.(idx) <- Rel.card rel;
    rel
  in
  let result = go plan in
  { result; cards; join_stats = List.rev !join_stats }

let run db ~env plan = (analyze db ~env plan).result

(* clear the rows of [m] failing [f]; [f] only sees rows still set *)
let keep_where m f =
  for i = 0 to Col.Bitset.length m - 1 do
    if Col.Bitset.get m i && not (f i) then Col.Bitset.clear m i
  done;
  m

let rec root_mask db ~env ~table plan =
  let unsupported () =
    invalid_arg
      (Printf.sprintf "Exec.root_mask: %s is not a select/join chain over %s"
         (Plan.node_label plan) table)
  in
  let keys tbl col =
    match int_keys (Db.col db tbl col) with
    | Some k -> k
    | None -> unsupported ()
  in
  match plan with
  | Plan.Table t when t = table ->
      let m = Col.Bitset.create (Db.row_count db table) in
      for i = 0 to Col.Bitset.length m - 1 do
        Col.Bitset.set m i
      done;
      m
  | Plan.Select (pred, q) ->
      let scope =
        scope_of_rel (scan db table)
          ~missing:(Printf.sprintf "Exec: column %s not in scope")
      in
      keep_where (root_mask db ~env ~table q) (compile ~env scope pred)
  | Plan.Table _ | Plan.Project _ | Plan.Aggregate _ -> unsupported ()
  | Plan.Join { jt; pk_table; fk_table; fk_col; left; right } -> (
      let pk_col = (Schema.table (Db.schema db) pk_table).Schema.pk in
      let on side = List.mem table (Plan.tables side) in
      (* the root's side and key column, the other side's root and key
         column, and which root rows survive: [Some true] those whose key
         hits the other side's keys, [Some false] the misses, [None] all *)
      let side, probe, other, other_table, other_col, keep =
        if table = fk_table && on right && not (on left) then
          ( right, fk_col, left, pk_table, pk_col,
            match jt with
            | Plan.Inner | Plan.Left_outer | Plan.Right_semi -> Some true
            | Plan.Right_anti -> Some false
            | Plan.Right_outer | Plan.Full_outer -> None
            | Plan.Left_semi | Plan.Left_anti -> unsupported () )
        else if table = pk_table && on left && not (on right) then
          ( left, pk_col, right, fk_table, fk_col,
            match jt with
            | Plan.Inner | Plan.Right_outer | Plan.Left_semi -> Some true
            | Plan.Left_anti -> Some false
            | Plan.Left_outer | Plan.Full_outer -> None
            | Plan.Right_semi | Plan.Right_anti -> unsupported () )
        else unsupported ()
      in
      let m = root_mask db ~env ~table side in
      match keep with
      | None -> m
      | Some keep_hits ->
          let om = root_mask db ~env ~table:other_table other in
          let onull, okey = keys other_table other_col in
          let set =
            build_index ~set:true
              (fun f ->
                for p = 0 to Col.Bitset.length om - 1 do
                  if Col.Bitset.get om p && not (onull p) then f p (okey p)
                done)
              (fun ix _ k -> key_add ix k 0)
          in
          let null, key = keys table probe in
          keep_where m (fun i ->
              ((not (null i)) && key_find set (key i) >= 0) = keep_hits))

let count_select db ~env ~table pred =
  Col.Bitset.count (root_mask db ~env ~table (Plan.Select (pred, Plan.Table table)))

let timed_run db ~env plan =
  let t0 = Unix.gettimeofday () in
  let r = run db ~env plan in
  let t1 = Unix.gettimeofday () in
  (r, t1 -. t0)
