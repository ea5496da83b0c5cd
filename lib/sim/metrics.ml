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

type node_metrics = {
  mutable commits : int;
  mutable aborts_deadlock : int;
  mutable aborts_node_down : int;
  mutable aborts_rpc_timeout : int;
  mutable aborts_version_mismatch : int;
  mutable root_down_rejections : int;
  mutable queries : int;
  mutable mtf_data_access : int;
  mutable mtf_commit_time : int;
  mutable version_mismatches : int;
  mutable advancements : int;
  phase1_duration : hist;
  phase2_duration : hist;
  mutable rpc_calls : int;
  mutable rpc_timeouts : int;
  rpc_latency : hist;
  mutable envelopes : int;
  mutable disk_forces : int;
  mutable records_forced : int;
  mutable savepoint_rollbacks : int;
  mutable session_retries : int;
  mutable session_backoff : float;
}

type t = node_metrics array

let create ~nodes =
  if nodes <= 0 then invalid_arg "Metrics.create: need at least one node";
  Array.init nodes (fun _ ->
      {
        commits = 0;
        aborts_deadlock = 0;
        aborts_node_down = 0;
        aborts_rpc_timeout = 0;
        aborts_version_mismatch = 0;
        root_down_rejections = 0;
        queries = 0;
        mtf_data_access = 0;
        mtf_commit_time = 0;
        version_mismatches = 0;
        advancements = 0;
        phase1_duration = hist_create ();
        phase2_duration = hist_create ();
        rpc_calls = 0;
        rpc_timeouts = 0;
        rpc_latency = hist_create ();
        envelopes = 0;
        disk_forces = 0;
        records_forced = 0;
        savepoint_rollbacks = 0;
        session_retries = 0;
        session_backoff = 0.0;
      })

let node_count t = Array.length t

let at t node =
  if node < 0 || node >= Array.length t then
    invalid_arg "Metrics: no such node";
  t.(node)

let record_commit t ~node =
  let m = at t node in
  m.commits <- m.commits + 1

let record_abort t ~node reason =
  let m = at t node in
  match reason with
  | `Deadlock -> m.aborts_deadlock <- m.aborts_deadlock + 1
  | `Node_down _ -> m.aborts_node_down <- m.aborts_node_down + 1
  | `Rpc_timeout _ -> m.aborts_rpc_timeout <- m.aborts_rpc_timeout + 1
  | `Version_mismatch ->
      m.aborts_version_mismatch <- m.aborts_version_mismatch + 1

let record_root_down t ~node =
  let m = at t node in
  m.root_down_rejections <- m.root_down_rejections + 1

let record_query t ~node =
  let m = at t node in
  m.queries <- m.queries + 1

let record_mtf t ~node ~at_commit =
  let m = at t node in
  if at_commit then m.mtf_commit_time <- m.mtf_commit_time + 1
  else m.mtf_data_access <- m.mtf_data_access + 1

let record_version_mismatch t ~node =
  let m = at t node in
  m.version_mismatches <- m.version_mismatches + 1

let record_phase1_duration t ~node d = hist_add (at t node).phase1_duration d
let record_phase2_duration t ~node d = hist_add (at t node).phase2_duration d

let record_advancement t ~node =
  let m = at t node in
  m.advancements <- m.advancements + 1

let record_rpc_call t ~node =
  let m = at t node in
  m.rpc_calls <- m.rpc_calls + 1

let record_rpc_latency t ~node d = hist_add (at t node).rpc_latency d

let record_rpc_timeout t ~node =
  let m = at t node in
  m.rpc_timeouts <- m.rpc_timeouts + 1

let record_envelope t ~node =
  let m = at t node in
  m.envelopes <- m.envelopes + 1

let record_disk_force t ~node ~records =
  let m = at t node in
  m.disk_forces <- m.disk_forces + 1;
  m.records_forced <- m.records_forced + records

let record_savepoint_rollback t ~node =
  let m = at t node in
  m.savepoint_rollbacks <- m.savepoint_rollbacks + 1

let record_session_retry t ~node ~backoff =
  let m = at t node in
  m.session_retries <- m.session_retries + 1;
  m.session_backoff <- m.session_backoff +. backoff

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
      d.commits <- d.commits + s.commits;
      d.aborts_deadlock <- d.aborts_deadlock + s.aborts_deadlock;
      d.aborts_node_down <- d.aborts_node_down + s.aborts_node_down;
      d.aborts_rpc_timeout <- d.aborts_rpc_timeout + s.aborts_rpc_timeout;
      d.aborts_version_mismatch <-
        d.aborts_version_mismatch + s.aborts_version_mismatch;
      d.root_down_rejections <-
        d.root_down_rejections + s.root_down_rejections;
      d.queries <- d.queries + s.queries;
      d.mtf_data_access <- d.mtf_data_access + s.mtf_data_access;
      d.mtf_commit_time <- d.mtf_commit_time + s.mtf_commit_time;
      d.version_mismatches <- d.version_mismatches + s.version_mismatches;
      d.advancements <- d.advancements + s.advancements;
      hist_merge_into ~into:d.phase1_duration s.phase1_duration;
      hist_merge_into ~into:d.phase2_duration s.phase2_duration;
      d.rpc_calls <- d.rpc_calls + s.rpc_calls;
      d.rpc_timeouts <- d.rpc_timeouts + s.rpc_timeouts;
      hist_merge_into ~into:d.rpc_latency s.rpc_latency;
      d.envelopes <- d.envelopes + s.envelopes;
      d.disk_forces <- d.disk_forces + s.disk_forces;
      d.records_forced <- d.records_forced + s.records_forced;
      d.savepoint_rollbacks <- d.savepoint_rollbacks + s.savepoint_rollbacks;
      d.session_retries <- d.session_retries + s.session_retries;
      d.session_backoff <- d.session_backoff +. s.session_backoff)
    src

let sum f t = Array.fold_left (fun acc m -> acc + f m) 0 t

let node_aborts m =
  m.aborts_deadlock + m.aborts_node_down + m.aborts_rpc_timeout
  + m.aborts_version_mismatch

let total_commits t = sum (fun m -> m.commits) t
let total_aborts t = sum node_aborts t
let total_root_down t = sum (fun m -> m.root_down_rejections) t
let total_queries t = sum (fun m -> m.queries) t
let total_mtf_data_access t = sum (fun m -> m.mtf_data_access) t
let total_mtf_commit_time t = sum (fun m -> m.mtf_commit_time) t
let total_version_mismatches t = sum (fun m -> m.version_mismatches) t
let total_advancements t = sum (fun m -> m.advancements) t
let total_rpc_calls t = sum (fun m -> m.rpc_calls) t
let total_rpc_timeouts t = sum (fun m -> m.rpc_timeouts) t
let total_disk_forces t = sum (fun m -> m.disk_forces) t
let total_records_forced t = sum (fun m -> m.records_forced) t
let total_savepoint_rollbacks t = sum (fun m -> m.savepoint_rollbacks) t
let total_session_retries t = sum (fun m -> m.session_retries) t

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
         {
           node;
           commits = m.commits;
           aborts_deadlock = m.aborts_deadlock;
           aborts_node_down = m.aborts_node_down;
           aborts_rpc_timeout = m.aborts_rpc_timeout;
           aborts_version_mismatch = m.aborts_version_mismatch;
           root_down_rejections = m.root_down_rejections;
           queries = m.queries;
           mtf_data_access = m.mtf_data_access;
           mtf_commit_time = m.mtf_commit_time;
           version_mismatches = m.version_mismatches;
           advancements = m.advancements;
           phase1_duration = hist_snapshot m.phase1_duration;
           phase2_duration = hist_snapshot m.phase2_duration;
           rpc_calls = m.rpc_calls;
           rpc_timeouts = m.rpc_timeouts;
           rpc_latency = hist_snapshot m.rpc_latency;
           envelopes = m.envelopes;
           disk_forces = m.disk_forces;
           records_forced = m.records_forced;
           savepoint_rollbacks = m.savepoint_rollbacks;
           session_retries = m.session_retries;
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
