let read_time = 0.1
let write_time = 0.2

(* Domain-local: parallel sweep workers each allocate from their own
   counter, so concurrent engine runs never contend and a run observes
   the same strictly increasing id sequence regardless of how many other
   domains are active (ids only need uniqueness within one engine). *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_txn_id () =
  let c = Domain.DLS.get counter in
  incr c;
  !c

let retry ~max_attempts ~backoff attempt =
  let rec go n =
    match attempt () with
    | `Committed -> Workload.Db_intf.Committed
    | `Aborted ->
        if n >= max_attempts then Workload.Db_intf.Aborted
        else begin
          Sim.Engine.sleep backoff;
          go (n + 1)
        end
  in
  go 1
