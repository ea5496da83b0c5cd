type 'v t =
  | Begin of { txn : int; version : int }
  | Update of { txn : int; key : string; value : 'v option }
  | Commit of { txn : int; final_version : int }
  | Rollback of { txn : int; keep : int }
  | Abort of { txn : int }
  | Advance_update of int
  | Advance_query of int
  | Collect of { collect : int; query : int }
  | Checkpoint of {
      items : (string * (int * 'v option) list) list;
      u : int;
      q : int;
      g : int;
    }

let pp pp_v ppf = function
  | Begin { txn; version } -> Format.fprintf ppf "begin(T%d, v%d)" txn version
  | Update { txn; key; value = Some v } ->
      Format.fprintf ppf "update(T%d, %s := %a)" txn key pp_v v
  | Update { txn; key; value = None } ->
      Format.fprintf ppf "update(T%d, delete %s)" txn key
  | Commit { txn; final_version } ->
      Format.fprintf ppf "commit(T%d, v%d)" txn final_version
  | Rollback { txn; keep } ->
      Format.fprintf ppf "rollback(T%d, keep %d)" txn keep
  | Abort { txn } -> Format.fprintf ppf "abort(T%d)" txn
  | Advance_update v -> Format.fprintf ppf "advance-u(%d)" v
  | Advance_query v -> Format.fprintf ppf "advance-q(%d)" v
  | Collect { collect; query } ->
      Format.fprintf ppf "collect(v%d, q=%d)" collect query
  | Checkpoint { items; u; q; g } ->
      Format.fprintf ppf "checkpoint(%d items, u=%d q=%d g=%d)"
        (List.length items) u q g
