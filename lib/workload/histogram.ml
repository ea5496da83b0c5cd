type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = [||]; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let cap = max 64 (2 * Array.length t.samples) in
    let fresh = Array.make cap 0.0 in
    Array.blit t.samples 0 fresh 0 t.len;
    t.samples <- fresh
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let mean t = if t.len = 0 then 0.0 else fold ( +. ) 0.0 t /. float_of_int t.len
let max_value t = if t.len = 0 then 0.0 else fold max neg_infinity t

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.len in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    let rank = int_of_float (ceil (p *. float_of_int t.len)) in
    let index = max 0 (min (t.len - 1) (rank - 1)) in
    t.samples.(index)
  end

let merge a b =
  let t = create () in
  for i = 0 to a.len - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.len - 1 do
    add t b.samples.(i)
  done;
  t

let summary t =
  if t.len = 0 then "n=0"
  else
    Printf.sprintf "n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f" t.len
      (mean t) (percentile t 0.50) (percentile t 0.95) (percentile t 0.99)
      (max_value t)

let pp ppf t = Format.pp_print_string ppf (summary t)
