(* 4-ary min-heap keyed by (time, seq), stored as three parallel arrays:
   an unboxed float array for times, an int array for sequence numbers,
   and a payload array.  Compared to the binary record-based heap this
   replaces, a push/pop touches no per-entry record (no allocation, no
   pointer chase per compare), sift-up/down shift entries into the hole
   instead of swapping, and the 4-way branching halves the tree depth.

   (time, seq) is a strict total order — seq is unique per engine — so
   neither the arity nor the layout can change pop order: the sequence
   of popped entries is identical to the old heap's. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
      (* written into every payload slot the heap no longer owns, so popped
         events (and the closures they carry) become collectable immediately
         instead of living until the slot is overwritten by a later push *)
}

let create ~dummy () =
  { times = [||]; seqs = [||]; data = [||]; len = 0; dummy }

let is_empty t = t.len = 0
let size t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.times.(i) t.seqs.(i) t.data.(i)
  done

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make new_cap nan in
  let seqs = Array.make new_cap (-1) in
  let data = Array.make new_cap t.dummy in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.data <- data

let push t ~time ~seq payload =
  if t.len = Array.length t.data then grow t;
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- t.seqs.(parent);
      t.data.(!i) <- t.data.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.data.(!i) <- payload

(* Place (time, seq, payload) — the displaced last entry — into the hole
   at the root, shifting the smallest child up at each level. *)
let sift_down t time seq payload =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let base = (!i * 4) + 1 in
    if base >= t.len then continue := false
    else begin
      let last = min (base + 3) (t.len - 1) in
      let s = ref base in
      for c = base + 1 to last do
        let ct = t.times.(c) and st = t.times.(!s) in
        if ct < st || (ct = st && t.seqs.(c) < t.seqs.(!s)) then s := c
      done;
      let st = t.times.(!s) in
      if st < time || (st = time && t.seqs.(!s) < seq) then begin
        t.times.(!i) <- st;
        t.seqs.(!i) <- t.seqs.(!s);
        t.data.(!i) <- t.data.(!s);
        i := !s
      end
      else continue := false
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.data.(!i) <- payload

let remove_min t =
  t.len <- t.len - 1;
  let n = t.len in
  if n > 0 then begin
    let lt = t.times.(n) and ls = t.seqs.(n) and lp = t.data.(n) in
    t.data.(n) <- t.dummy;
    sift_down t lt ls lp
  end
  else t.data.(0) <- t.dummy

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) and payload = t.data.(0) in
    remove_min t;
    Some (time, seq, payload)
  end

let min_time t = t.times.(0)

let pop_unsafe t =
  let payload = t.data.(0) in
  remove_min t;
  payload

let slot_is_vacant t i =
  i >= Array.length t.data || t.data.(i) == t.dummy
