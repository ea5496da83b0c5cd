let render ~header ~rows =
  let all = header :: rows in
  let columns = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let pad cell w = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
  let rtrim s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  let line row =
    String.concat "  " (List.mapi (fun c cell -> pad cell (List.nth widths c)) row)
    |> rtrim
    |> fun s -> s ^ "\n"
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths) ^ "\n"
  in
  line header ^ rule ^ String.concat "" (List.map line rows)

let print ~title ~header ~rows =
  Printf.printf "\n== %s ==\n%s%!" title (render ~header ~rows)

let verdict name = function
  | [] -> Printf.printf "%s: all checks passed\n" name
  | violations ->
      List.iter (Printf.printf "%s VIOLATION: %s\n" name) violations;
      exit 1

(* ------------------------------------------------------------------ *)
(* Experiment metrics sink                                             *)
(* ------------------------------------------------------------------ *)

type metrics_record = {
  experiment : string;
  label : string;
  metrics : Sim.Metrics.snapshot;
}

(* Experiments record from inside [Sim.Pool.map] workers, so the sink is
   mutex-protected; arrival order depends on domain scheduling, which is
   why [metrics_records] sorts. *)
let sink_lock = Mutex.create ()
let sink : metrics_record list ref = ref []

let record_metrics ~experiment ~label metrics =
  Mutex.lock sink_lock;
  sink := { experiment; label; metrics } :: !sink;
  Mutex.unlock sink_lock

let metrics_records () =
  Mutex.lock sink_lock;
  let records = !sink in
  Mutex.unlock sink_lock;
  List.stable_sort
    (fun a b ->
      match compare a.experiment b.experiment with
      | 0 -> compare a.label b.label
      | c -> c)
    records

let clear_metrics () =
  Mutex.lock sink_lock;
  sink := [];
  Mutex.unlock sink_lock

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let metrics_to_json records =
  let one r =
    Printf.sprintf "{\"experiment\":\"%s\",\"label\":\"%s\",\"nodes\":%s}"
      (json_escape r.experiment) (json_escape r.label)
      (Sim.Metrics.to_json r.metrics)
  in
  "[" ^ String.concat "," (List.map one records) ^ "]"
