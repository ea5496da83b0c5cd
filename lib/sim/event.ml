type abort_reason =
  [ `Deadlock | `Node_down of int | `Rpc_timeout of int | `Version_mismatch ]

type query_kind = [ `Read | `Scan | `Select | `Join ]

type t =
  | Spawn of { name : string }
  | Nemesis_crash of { site : int }
  | Nemesis_recover of { site : int }
  | Nemesis_partition of { a : int; b : int }
  | Nemesis_heal of { a : int; b : int }
  | Nemesis_slow of { src : int; dst : int; extra : float }
  | Nemesis_restore of { src : int; dst : int }
  | Root_down of { root : int }
  | Sub_start of { txn : int; site : int; version : int }
  | Mtf of {
      txn : int;
      site : int;
      version : int;
      at_commit : bool;
      copied : int;
    }
  | Sub_rollback of { txn : int; site : int }
  | Savepoint_rollback of { txn : int; root : int }
  | Version_mismatch of { txn : int; root : int }
  | Commit of { txn : int; root : int; version : int }
  | Abort of { txn : int; root : int; reason : abort_reason }
  | Session_retry of { root : int; backoff : float }
  | Query_start of { query : int; site : int; version : int; kind : query_kind }
  | Query_done of { query : int; root : int; kind : query_kind }
  | Adv_start of { site : int; newu : int }
  | Set_u of { site : int; u : int }
  | Set_q of { site : int; q : int }
  | Phase1_done of { site : int; newq : int; duration : float }
  | Phase2_done of { site : int; newg : int; duration : float }
  | Collected of { site : int; g : int }
  | Adv_abandon of { site : int; round : int; ahead : int }
  | Crashed of { site : int }
  | Recovered of { site : int; u : int; q : int; g : int }
  | Checkpoint of { site : int; log_records : int }
  | Backup_in_sync of { part : int; site : int }
  | Backup_demoted of { part : int; site : int; why : string }
  | Promoted of { part : int; site : int; was : int; u : int; q : int; g : int }
  | No_backup of { part : int; site : int }
  | Rejoined of { part : int; site : int }
  | Backup_read of { part : int; site : int }
  | Rpc_call of { src : int; dst : int }
  | Rpc_reply of { src : int; dst : int; rtt : float }
  | Rpc_timeout of { src : int; dst : int }
  | Envelope of { src : int }
  | Disk_force of { site : int; records : int }

let tag = function
  | Spawn _ -> "spawn"
  | Nemesis_crash _ | Nemesis_recover _ | Nemesis_partition _ | Nemesis_heal _
  | Nemesis_slow _ | Nemesis_restore _ ->
      "nemesis"
  | Root_down _ | Sub_start _ | Mtf _ | Sub_rollback _ | Savepoint_rollback _
  | Version_mismatch _ | Commit _ | Abort _ ->
      "txn"
  | Session_retry _ -> "session"
  | Query_start _ | Query_done _ -> "query"
  | Adv_start _ | Set_u _ | Set_q _ | Phase1_done _ | Phase2_done _
  | Collected _ | Adv_abandon _ ->
      "advance"
  | Crashed _ | Recovered _ -> "crash"
  | Checkpoint _ -> "checkpoint"
  | Backup_in_sync _ | Backup_demoted _ | Promoted _ | No_backup _
  | Rejoined _ | Backup_read _ ->
      "repl"
  | Rpc_call _ | Rpc_reply _ | Rpc_timeout _ | Envelope _ -> "net"
  | Disk_force _ -> "wal"

let site = function
  | Spawn _ | Query_done _ -> None
  | Nemesis_partition { a = s; _ } | Nemesis_heal { a = s; _ } -> Some s
  | Nemesis_slow { src = s; _ } | Nemesis_restore { src = s; _ }
  | Rpc_call { src = s; _ } | Rpc_reply { src = s; _ }
  | Rpc_timeout { src = s; _ } | Envelope { src = s } ->
      Some s
  | Root_down { root = s } | Savepoint_rollback { root = s; _ }
  | Version_mismatch { root = s; _ } | Commit { root = s; _ }
  | Abort { root = s; _ } | Session_retry { root = s; _ } ->
      Some s
  | Nemesis_crash { site } | Nemesis_recover { site } | Crashed { site }
  | Sub_start { site; _ } | Mtf { site; _ } | Sub_rollback { site; _ }
  | Query_start { site; _ } | Adv_start { site; _ } | Set_u { site; _ }
  | Set_q { site; _ } | Phase1_done { site; _ } | Phase2_done { site; _ }
  | Collected { site; _ } | Adv_abandon { site; _ } | Recovered { site; _ }
  | Checkpoint { site; _ } | Backup_in_sync { site; _ }
  | Backup_demoted { site; _ } | Promoted { site; _ } | No_backup { site; _ }
  | Rejoined { site; _ } | Backup_read { site; _ } | Disk_force { site; _ } ->
      Some site

let pp_reason ppf = function
  | `Deadlock -> Format.pp_print_string ppf "deadlock"
  | `Node_down n -> Format.fprintf ppf "node %d down" n
  | `Rpc_timeout n -> Format.fprintf ppf "rpc to node %d timed out" n
  | `Version_mismatch -> Format.pp_print_string ppf "version mismatch"

let kind_prefix = function
  | `Read -> ""
  | `Scan -> "scan "
  | `Select -> "select "
  | `Join -> "join "

let pp ?(name = fun _ -> None) ppf ev =
  let who subject =
    match (name subject, subject) with
    | Some n, _ -> n
    | None, `Txn id -> "T" ^ string_of_int id
    | None, `Query id -> "Q" ^ string_of_int id
  in
  let txn id = who (`Txn id) and query id = who (`Query id) in
  let p fmt = Format.fprintf ppf fmt in
  match ev with
  | Spawn { name } -> p "%s" name
  | Nemesis_crash { site } -> p "crash node%d" site
  | Nemesis_recover { site } -> p "recover node%d" site
  | Nemesis_partition { a; b } -> p "partition node%d<->node%d" a b
  | Nemesis_heal { a; b } -> p "heal node%d<->node%d" a b
  | Nemesis_slow { src; dst; extra } ->
      p "slow node%d->node%d (+%g)" src dst extra
  | Nemesis_restore { src; dst } -> p "restore node%d->node%d" src dst
  | Root_down { root } -> p "node%d: update rejected, root down" root
  | Sub_start { txn = t; site; version } ->
      p "%s: subtransaction at node%d starts in version %d" (txn t) site version
  | Mtf { txn = t; site; version; at_commit; _ } ->
      p "%s: moveToFuture(%d) at node%d (%s)" (txn t) version site
        (if at_commit then "commit time" else "data access")
  | Sub_rollback { txn = t; site } ->
      p "%s: savepoint rollback at node%d" (txn t) site
  | Savepoint_rollback { txn = t; root } ->
      p "%s: rolled back to a savepoint (root node%d)" (txn t) root
  | Version_mismatch { txn = t; root } ->
      p "%s: version mismatch at commit (root node%d)" (txn t) root
  | Commit { txn = t; root; version } ->
      p "%s: committed in version %d (root node%d)" (txn t) version root
  | Abort { txn = t; root; reason } ->
      p "%s: aborted at root node%d (%a)" (txn t) root pp_reason reason
  | Session_retry { root; backoff } ->
      p "node%d: session retry after backoff %g" root backoff
  | Query_start { query = q; site; version; kind } ->
      p "%s: %sstarts at node%d with version %d" (query q) (kind_prefix kind)
        site version
  | Query_done { query = q; kind; _ } ->
      p "%s: %scompleted" (query q) (kind_prefix kind)
  | Adv_start { site; newu } ->
      p "node%d: initiates advancement to u=%d" site newu
  | Set_u { site; u } -> p "node%d: u := %d" site u
  | Set_q { site; q } -> p "node%d: q := %d" site q
  | Phase1_done { site; newq; _ } ->
      p "node%d: phase 1 complete, advance-q(%d)" site newq
  | Phase2_done { site; newg; _ } ->
      p "node%d: phase 2 complete, garbage-collect(%d)" site newg
  | Collected { site; g } -> p "node%d: collected version %d" site g
  | Adv_abandon { site; round; ahead } ->
      p "node%d: abandons coordination of round %d (node%d is ahead)" site
        round ahead
  | Crashed { site } -> p "node%d: crashed" site
  | Recovered { site; u; q; g } ->
      p "node%d: recovered (u=%d q=%d g=%d)" site u q g
  | Checkpoint { site; log_records } ->
      p "node%d: checkpoint (log reset to %d records)" site log_records
  | Backup_in_sync { part; site } ->
      p "partition %d: backup site%d caught up, back in sync" part site
  | Backup_demoted { part; site; why } ->
      p "partition %d: backup site%d demoted (%s)" part site why
  | Promoted { part; site; was; u; q; g } ->
      p "partition %d: site%d promoted to primary (was site%d; u=%d q=%d g=%d)"
        part site was u q g
  | No_backup { part; site } ->
      p "partition %d: primary site%d down, no backup eligible" part site
  | Rejoined { part; site } ->
      p "partition %d: site%d rejoins as backup (resyncing)" part site
  | Backup_read { part; site } ->
      p "partition %d: read served by backup site%d" part site
  | Rpc_call { src; dst } -> p "rpc node%d->node%d" src dst
  | Rpc_reply { src; dst; rtt } ->
      p "rpc node%d->node%d replied after %g" src dst rtt
  | Rpc_timeout { src; dst } -> p "rpc node%d->node%d timed out" src dst
  | Envelope { src } -> p "envelope from node%d" src
  | Disk_force { site; records } ->
      p "node%d: log force of %d records" site records
