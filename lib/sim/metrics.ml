(* Log2-bucketed histogram.  Bucket 0 is reserved for exact zeros;
   bucket i >= 1 covers (2^(i-18), 2^(i-17)] with the frexp exponent
   clamped to [-16, 25], so the array has 1 + 42 slots.  Negative values
   (a backend reporting a slightly negative elapsed time, e.g. clock
   skew) are underflow: they are tallied in [h_neg] — never in the
   exact-zero bucket — while still contributing to count/sum/min/max. *)

let exp_min = -16
let exp_max = 25
let bucket_count = 1 + (exp_max - exp_min + 1)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_neg : int;
  slots : int array;
}

let hist_create () =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_neg = 0;
    slots = Array.make bucket_count 0;
  }

let hist_add h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  if v < 0.0 then
    (* Underflow: counted on its own so a negative sample can never
       masquerade as an exact-zero-latency one. *)
    h.h_neg <- h.h_neg + 1
  else begin
    let idx =
      if v = 0.0 then 0
      else
        (* frexp exponent read straight off the IEEE bits: for a normal v the
           biased exponent is bits[62:52] and frexp's e is (biased - 1022), so
           this avoids frexp's float-pair allocation on the hot record path.
           Subnormals give e = -1022 here instead of their true exponent, but
           both clamp to [exp_min] identically. *)
        let e =
          (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52)
          land 0x7ff)
          - 1022
        in
        1 + max 0 (min (exp_max - exp_min) (e - exp_min))
    in
    h.slots.(idx) <- h.slots.(idx) + 1
  end

(* Inclusive upper bound of bucket [i]: frexp puts v in (2^(e-1), 2^e]. *)
let bucket_le i = if i = 0 then 0.0 else Float.ldexp 1.0 (i - 1 + exp_min)

(* A node's integer counters share one array, one slot each, so adding a
   counter means naming its slot here and reading it in [snapshot].  The
   slots from [mtf_items_copied] on are read only through their totals:
   the snapshot and its JSON keep their fixed shape. *)
let commits = 0
let aborts_deadlock = 1
let aborts_node_down = 2
let aborts_rpc_timeout = 3
let aborts_version_mismatch = 4
let root_down_rejections = 5
let queries = 6
let mtf_data_access = 7
let mtf_commit_time = 8
let version_mismatches = 9
let advancements = 10
let rpc_calls = 11
let rpc_timeouts = 12
let envelopes = 13
let disk_forces = 14
let records_forced = 15
let savepoint_rollbacks = 16
let session_retries = 17
let mtf_items_copied = 18
let backup_reads = 19
let demotions = 20
let promotions = 21
let slot_count = 22

type node_metrics = {
  c : int array;
  mutable session_backoff : float;
  phase1_duration : hist;
  phase2_duration : hist;
  rpc_latency : hist;
}

type t = node_metrics array

let create ~nodes =
  if nodes <= 0 then invalid_arg "Metrics.create: need at least one node";
  Array.init nodes (fun _ ->
      {
        c = Array.make slot_count 0;
        session_backoff = 0.0;
        phase1_duration = hist_create ();
        phase2_duration = hist_create ();
        rpc_latency = hist_create ();
      })

let at t node =
  if node < 0 || node >= Array.length t then
    invalid_arg "Metrics: no such node";
  t.(node)

let add t node slot n =
  let c = (at t node).c in
  c.(slot) <- c.(slot) + n

let record t (ev : Event.t) =
  match ev with
  | Commit { root; _ } -> add t root commits 1
  | Abort { root; reason; _ } ->
      add t root
        (match reason with
        | `Deadlock -> aborts_deadlock
        | `Node_down _ -> aborts_node_down
        | `Rpc_timeout _ -> aborts_rpc_timeout
        | `Version_mismatch -> aborts_version_mismatch)
        1
  | Root_down { root } -> add t root root_down_rejections 1
  | Query_done { root; _ } -> add t root queries 1
  | Mtf { site; at_commit; copied; _ } ->
      add t site (if at_commit then mtf_commit_time else mtf_data_access) 1;
      add t site mtf_items_copied copied
  | Version_mismatch { root; _ } -> add t root version_mismatches 1
  | Phase1_done { site; duration; _ } ->
      hist_add (at t site).phase1_duration duration
  | Phase2_done { site; duration; _ } ->
      add t site advancements 1;
      hist_add (at t site).phase2_duration duration
  | Rpc_call { src; _ } -> add t src rpc_calls 1
  | Rpc_reply { src; rtt; _ } -> hist_add (at t src).rpc_latency rtt
  | Rpc_timeout { src; _ } -> add t src rpc_timeouts 1
  | Envelope { src } -> add t src envelopes 1
  | Disk_force { site; records } ->
      add t site disk_forces 1;
      add t site records_forced records
  | Savepoint_rollback { root; _ } -> add t root savepoint_rollbacks 1
  | Session_retry { root; backoff } ->
      add t root session_retries 1;
      let m = at t root in
      m.session_backoff <- m.session_backoff +. backoff
  | Backup_read { site; _ } -> add t site backup_reads 1
  | Backup_demoted { site; _ } -> add t site demotions 1
  | Promoted { site; _ } -> add t site promotions 1
  | Spawn _ | Nemesis_crash _ | Nemesis_recover _ | Nemesis_partition _
  | Nemesis_heal _ | Nemesis_slow _ | Nemesis_restore _ | Sub_start _
  | Sub_rollback _ | Query_start _ | Adv_start _ | Set_u _ | Set_q _
  | Collected _ | Adv_abandon _ | Crashed _ | Recovered _ | Checkpoint _
  | Backup_in_sync _ | No_backup _ | Rejoined _ ->
      ()

let hist_merge_into ~into:a b =
  a.h_count <- a.h_count + b.h_count;
  a.h_sum <- a.h_sum +. b.h_sum;
  if b.h_min < a.h_min then a.h_min <- b.h_min;
  if b.h_max > a.h_max then a.h_max <- b.h_max;
  a.h_neg <- a.h_neg + b.h_neg;
  Array.iteri (fun i c -> a.slots.(i) <- a.slots.(i) + c) b.slots

let merge_into ~into src =
  if Array.length into <> Array.length src then
    invalid_arg "Metrics.merge_into: node counts differ";
  Array.iteri
    (fun i (s : node_metrics) ->
      let d = into.(i) in
      Array.iteri (fun slot n -> d.c.(slot) <- d.c.(slot) + n) s.c;
      d.session_backoff <- d.session_backoff +. s.session_backoff;
      hist_merge_into ~into:d.phase1_duration s.phase1_duration;
      hist_merge_into ~into:d.phase2_duration s.phase2_duration;
      hist_merge_into ~into:d.rpc_latency s.rpc_latency)
    src

let sum f t = Array.fold_left (fun acc m -> acc + f m) 0 t
let total slot t = sum (fun m -> m.c.(slot)) t

let node_aborts m =
  m.c.(aborts_deadlock) + m.c.(aborts_node_down) + m.c.(aborts_rpc_timeout)
  + m.c.(aborts_version_mismatch)

let total_commits = total commits
let total_aborts t = sum node_aborts t
let total_queries = total queries
let total_mtf_data_access = total mtf_data_access
let total_mtf_commit_time = total mtf_commit_time
let total_version_mismatches = total version_mismatches
let total_advancements = total advancements
let total_disk_forces = total disk_forces
let total_records_forced = total records_forced
let total_savepoint_rollbacks = total savepoint_rollbacks
let total_session_retries = total session_retries
let total_mtf_items_copied = total mtf_items_copied
let total_envelopes = total envelopes
let total_backup_reads = total backup_reads
let total_demotions = total demotions
let total_promotions = total promotions

let total_session_backoff t =
  Array.fold_left (fun acc m -> acc +. m.session_backoff) 0.0 t

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  neg : int;
  buckets : (float * int) list;
}

type node_snapshot = {
  node : int;
  commits : int;
  aborts_deadlock : int;
  aborts_node_down : int;
  aborts_rpc_timeout : int;
  aborts_version_mismatch : int;
  root_down_rejections : int;
  queries : int;
  mtf_data_access : int;
  mtf_commit_time : int;
  version_mismatches : int;
  advancements : int;
  phase1_duration : hist_snapshot;
  phase2_duration : hist_snapshot;
  rpc_calls : int;
  rpc_timeouts : int;
  rpc_latency : hist_snapshot;
  envelopes : int;
  disk_forces : int;
  records_forced : int;
  savepoint_rollbacks : int;
  session_retries : int;
  session_backoff : float;
}

type snapshot = node_snapshot list

let hist_snapshot h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = (if h.h_count = 0 then 0.0 else h.h_min);
    max = (if h.h_count = 0 then 0.0 else h.h_max);
    neg = h.h_neg;
    buckets =
      Array.to_list h.slots
      |> List.mapi (fun i c -> (bucket_le i, c))
      |> List.filter (fun (_, c) -> c > 0);
  }

let snapshot t =
  Array.to_list t
  |> List.mapi (fun node (m : node_metrics) ->
         let c = m.c in
         {
           node;
           commits = c.(commits);
           aborts_deadlock = c.(aborts_deadlock);
           aborts_node_down = c.(aborts_node_down);
           aborts_rpc_timeout = c.(aborts_rpc_timeout);
           aborts_version_mismatch = c.(aborts_version_mismatch);
           root_down_rejections = c.(root_down_rejections);
           queries = c.(queries);
           mtf_data_access = c.(mtf_data_access);
           mtf_commit_time = c.(mtf_commit_time);
           version_mismatches = c.(version_mismatches);
           advancements = c.(advancements);
           phase1_duration = hist_snapshot m.phase1_duration;
           phase2_duration = hist_snapshot m.phase2_duration;
           rpc_calls = c.(rpc_calls);
           rpc_timeouts = c.(rpc_timeouts);
           rpc_latency = hist_snapshot m.rpc_latency;
           envelopes = c.(envelopes);
           disk_forces = c.(disk_forces);
           records_forced = c.(records_forced);
           savepoint_rollbacks = c.(savepoint_rollbacks);
           session_retries = c.(session_retries);
           session_backoff = m.session_backoff;
         })

let aborts_total (ns : node_snapshot) =
  ns.aborts_deadlock + ns.aborts_node_down + ns.aborts_rpc_timeout
  + ns.aborts_version_mismatch

(* JSON rendering: %.12g is lossless for every value we emit (counts,
   sums of simulated times, power-of-two bounds) and never prints the
   inf/nan forms JSON forbids, since inputs are finite. *)
let jf x = Printf.sprintf "%.12g" x

let hist_json b (h : hist_snapshot) =
  Buffer.add_string b
    (Printf.sprintf
       {|{"count":%d,"sum":%s,"min":%s,"max":%s,"neg":%d,"buckets":[|}
       h.count (jf h.sum) (jf h.min) (jf h.max) h.neg);
  List.iteri
    (fun i (le, c) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf {|{"le":%s,"count":%d}|} (jf le) c))
    h.buckets;
  Buffer.add_string b "]}"

let node_json b (ns : node_snapshot) =
  Buffer.add_string b
    (Printf.sprintf
       {|{"node":%d,"commits":%d,"aborts":{"deadlock":%d,"node_down":%d,"rpc_timeout":%d,"version_mismatch":%d,"total":%d},"root_down_rejections":%d,"queries":%d,"mtf":{"data_access":%d,"commit_time":%d},"version_mismatches":%d,"advancements":%d,"phase1_duration":|}
       ns.node ns.commits ns.aborts_deadlock ns.aborts_node_down
       ns.aborts_rpc_timeout ns.aborts_version_mismatch (aborts_total ns)
       ns.root_down_rejections ns.queries ns.mtf_data_access
       ns.mtf_commit_time ns.version_mismatches ns.advancements);
  hist_json b ns.phase1_duration;
  Buffer.add_string b {|,"phase2_duration":|};
  hist_json b ns.phase2_duration;
  Buffer.add_string b
    (Printf.sprintf {|,"rpc":{"calls":%d,"timeouts":%d,"latency":|}
       ns.rpc_calls ns.rpc_timeouts);
  hist_json b ns.rpc_latency;
  Buffer.add_string b
    (Printf.sprintf
       {|},"envelopes":%d,"wal":{"forces":%d,"records_forced":%d},"session":{"savepoint_rollbacks":%d,"retries":%d,"backoff_time":%s}}|}
       ns.envelopes ns.disk_forces ns.records_forced ns.savepoint_rollbacks
       ns.session_retries (jf ns.session_backoff))

let to_json (s : snapshot) =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i ns ->
      if i > 0 then Buffer.add_char b ',';
      node_json b ns)
    s;
  Buffer.add_char b ']';
  Buffer.contents b
