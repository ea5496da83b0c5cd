(* Flat-executor op lists run as session transactions, so tests that
   generate [Update_exec.op] workloads retry them through the one
   at-most-once path, [Session.txn]. *)

module Update = Ava3.Update_exec

let run s ops =
  Session.txn s (fun c ->
      List.iter
        (function
          | Update.Read { node; key } -> ignore (Session.read c ~node key)
          | Update.Write { node; key; value } -> Session.write c ~node key value
          | Update.Read_modify_write { node; key; f } ->
              Session.rmw c ~node key f
          | Update.Delete { node; key } -> Session.delete c ~node key
          | Update.Pause d -> Session.pause c d
          | Update.Begin_at _ -> invalid_arg "Flat_txn.run: Begin_at")
        ops)

let committed = function Session.Committed _ -> true | Session.Failed _ -> false
