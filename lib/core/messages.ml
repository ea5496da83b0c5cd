type 'v t =
  | Advance_u of { newu : int }
  | Ack_advance_u of { newu : int }
  | Advance_q of { newq : int }
  | Ack_advance_q of { newq : int }
  | Garbage_collect of { newg : int }
  | Relay of { sites : int array; nparts : int; pos : int; inner : 'v t }
  | Relay_ack of { root : int; inner : 'v t }
  | Ship of {
      part : int;
      epoch : int;
      from_ : int;
      records : 'v Wal.Record.t list;
    }
  | Ship_ack of { part : int; epoch : int; upto : int }

(* The protocol meaning of a message, with relay framing stripped: what the
   abandonment rule and round comparisons care about.  Log-shipping frames
   are not advancement-protocol messages; they pass through unchanged and
   callers match them explicitly. *)
let rec payload = function
  | (Relay { inner; _ } | Relay_ack { inner; _ }) -> payload inner
  | m -> m
