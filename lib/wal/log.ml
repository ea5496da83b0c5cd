type 'v t = {
  mutable rev : 'v Record.t list;
  mutable count : int;
  mutable durable : int;
}

let create () = { rev = []; count = 0; durable = 0 }

let append t r =
  t.rev <- r :: t.rev;
  t.count <- t.count + 1

let length t = t.count
let records t = List.rev t.rev

let slice t ~from_ ~upto =
  if from_ < 0 || upto > t.count || from_ > upto then
    invalid_arg "Log.slice: bad range";
  (* [rev] is newest-first: drop the tail beyond [upto], keep
     [upto - from_] records, and flip back to append order. *)
  let rec drop n l =
    if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
  in
  let rec take n l acc =
    if n = 0 then acc
    else match l with [] -> acc | r :: tl -> take (n - 1) tl (r :: acc)
  in
  take (upto - from_) (drop (t.count - upto) t.rev) []

let truncate t =
  t.rev <- [];
  t.count <- 0;
  t.durable <- 0

let durable_length t = t.durable

let mark_durable_to t n =
  if n > t.count then invalid_arg "Log.mark_durable_to: beyond end of log";
  if n > t.durable then t.durable <- n

let mark_all_durable t = t.durable <- t.count

let drop_volatile t =
  let dropped = t.count - t.durable in
  if dropped > 0 then begin
    let rec drop n l =
      if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
    in
    t.rev <- drop dropped t.rev;
    t.count <- t.durable
  end;
  dropped
