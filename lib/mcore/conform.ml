(* DES-vs-domains conformance harness.

   Both backends implement the same protocol; on a deterministic
   schedule — events executed one at a time, each run to completion —
   they must therefore agree on every observable: commit decisions and
   versions, every value read, advancement outcomes, and the final
   per-site version numbers and store contents.  [check] drives one
   seeded workload through lib/core's simulator and through
   lib/mcore's Backend (single worker, no concurrency) and diffs the
   two observation streams.

   The harness is the oracle link that lets the DES vouch for the
   multicore backend's logic: anything the two disagree on is a bug in
   one of them, found without ever reasoning about interleavings.  The
   concurrency-only failure modes (which sequential conformance cannot
   see, by design) are covered separately by [convict_racy_twin], which
   runs genuinely parallel queries against a concurrent advancer on the
   pin-skipping twin and demands that a query be caught reading a
   collected version. *)

(* ---- Workloads --------------------------------------------------------- *)

type event =
  | Update of { root : int; ops : (int * int Backend.op) list }
  | Query of { root : int; reads : (int * string) list }
  | Advance of { coordinator : int }

type workload = {
  seed : int;
  sites : int;
  preload : (int * (string * int) list) list;
  events : event list;
}

(* Everything flows from Sim.Rng, so a workload is a pure function of its
   seed — the two backends are fed literally the same value. *)
let generate ~seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let sites = Sim.Rng.int_in rng 3 5 in
  let keys_per_site = 6 in
  let key s k = Printf.sprintf "n%d-k%d" s k in
  let preload =
    List.init sites (fun s ->
        (s, List.init keys_per_site (fun k -> (key s k, Sim.Rng.int rng 100))))
  in
  let fresh = ref 1000 in
  let random_site () = Sim.Rng.int rng sites in
  let random_key s = key s (Sim.Rng.int rng keys_per_site) in
  let event _ =
    let r = Sim.Rng.int rng 100 in
    if r < 60 then begin
      let root = random_site () in
      let nops = Sim.Rng.int_in rng 1 4 in
      let ops =
        List.init nops (fun _ ->
            let s = random_site () in
            let k = random_key s in
            let kind = Sim.Rng.int rng 10 in
            if kind < 3 then (s, Backend.Read k)
            else if kind < 9 then begin
              incr fresh;
              (s, Backend.Write (k, !fresh))
            end
            else (s, Backend.Delete k))
      in
      Update { root; ops }
    end
    else if r < 85 then begin
      let root = random_site () in
      let nreads = Sim.Rng.int_in rng 1 5 in
      Query
        {
          root;
          reads =
            List.init nreads (fun _ ->
                let s = random_site () in
                (s, random_key s));
        }
    end
    else Advance { coordinator = random_site () }
  in
  { seed; sites; preload; events = List.init 40 event }

(* ---- Observations ------------------------------------------------------ *)

type observation =
  | Committed of { final_version : int; reads : (string * int option) list }
  | Aborted
  | Queried of { version : int; values : (int * string * int option) list }
  | Advanced of [ `Busy | `Completed of int ]

type site_state = {
  s_u : int;
  s_q : int;
  s_g : int;
  s_items : (string * (int * int option) list) list;
}

type run = {
  observations : observation list;
  final : site_state list;
}

let pp_value = function None -> "-" | Some v -> string_of_int v

let pp_observation = function
  | Committed { final_version; reads } ->
      Printf.sprintf "committed v%d reads[%s]" final_version
        (String.concat "; "
           (List.map (fun (k, v) -> k ^ "=" ^ pp_value v) reads))
  | Aborted -> "aborted"
  | Queried { version; values } ->
      Printf.sprintf "query v%d [%s]" version
        (String.concat "; "
           (List.map
              (fun (s, k, v) -> Printf.sprintf "%d:%s=%s" s k (pp_value v))
              values))
  | Advanced `Busy -> "advance: busy"
  | Advanced (`Completed newu) -> Printf.sprintf "advanced to u=%d" newu

let pp_items items =
  String.concat "; "
    (List.map
       (fun (k, vs) ->
         Printf.sprintf "%s{%s}" k
           (String.concat ","
              (List.map
                 (fun (ver, v) -> Printf.sprintf "%d:%s" ver (pp_value v))
                 vs)))
       items)

(* ---- The DES side ------------------------------------------------------ *)

let des_op site = function
  | Backend.Read key -> Ava3.Update_exec.Read { node = site; key }
  | Backend.Write (key, value) -> Ava3.Update_exec.Write { node = site; key; value }
  | Backend.Delete key -> Ava3.Update_exec.Delete { node = site; key }

let run_des ?(gc_renumber = true) w =
  let engine = Sim.Engine.create ~trace:false () in
  let config = { Ava3.Config.default with gc_renumber } in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~nodes:w.sites ()
  in
  List.iter (fun (site, items) -> Ava3.Cluster.load db ~node:site items) w.preload;
  (* One event at a time, each run to quiescence: the deterministic
     schedule both backends can realise. *)
  let in_process f =
    let result = ref None in
    Sim.Engine.spawn engine (fun () -> result := Some (f ()));
    Sim.Engine.run engine;
    match !result with
    | Some v -> v
    | None -> failwith "Conform.run_des: event did not run to completion"
  in
  let observe = function
    | Update { root; ops } -> (
        let ops = List.map (fun (s, op) -> des_op s op) ops in
        match in_process (fun () -> Ava3.Cluster.run_update db ~root ~ops) with
        | Ava3.Update_exec.Committed ci ->
            Committed { final_version = ci.final_version; reads = ci.reads }
        | Ava3.Update_exec.Aborted _ | Ava3.Update_exec.Root_down _ -> Aborted)
    | Query { root; reads } ->
        let r = in_process (fun () -> Ava3.Cluster.run_query db ~root ~reads) in
        Queried { version = r.version; values = r.values }
    | Advance { coordinator } ->
        Advanced
          (in_process (fun () -> Ava3.Cluster.advance_and_wait db ~coordinator))
  in
  let observations = List.map observe w.events in
  let final =
    List.init w.sites (fun i ->
        let n = Ava3.Cluster.node db i in
        {
          s_u = Ava3.Node_state.u n;
          s_q = Ava3.Node_state.q n;
          s_g = Ava3.Node_state.g n;
          s_items =
            Vstore.Store.snapshot_items
              (Vstore.Store.snapshot (Ava3.Node_state.store n));
        })
  in
  { observations; final }

(* ---- The domains side -------------------------------------------------- *)

let run_mcore ?(gc_renumber = true) ?(skip_pin_recheck = false) w =
  let b : int Backend.t =
    Backend.create ~gc_renumber ~skip_pin_recheck ~sites:w.sites ()
  in
  List.iter (fun (site, items) -> Backend.load b ~site items) w.preload;
  let wk = Backend.worker b in
  let observe = function
    | Update { root; ops } -> (
        match Backend.run_update wk ~root ~ops with
        | Backend.Committed ci ->
            Committed { final_version = ci.final_version; reads = ci.reads }
        | Backend.Aborted _ -> Aborted)
    | Query { root; reads } ->
        let r = Backend.run_query wk ~root ~reads in
        Queried { version = r.q_version; values = r.values }
    | Advance { coordinator } -> Advanced (Backend.advance wk ~coordinator)
  in
  let observations = List.map observe w.events in
  let final =
    List.init w.sites (fun i ->
        let s = Backend.site b i in
        {
          s_u = Backend.u s;
          s_q = Backend.q s;
          s_g = Backend.g s;
          s_items = Mstore.snapshot_items (Backend.store s);
        })
  in
  { observations; final }

(* ---- Comparison -------------------------------------------------------- *)

let diff ~des ~mcore =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let nd = List.length des.observations
  and nm = List.length mcore.observations in
  if nd <> nm then add "observation counts differ: des %d, mcore %d" nd nm
  else
    List.iteri
      (fun i (d, m) ->
        if d <> m then
          add "event %d: des {%s} vs mcore {%s}" i (pp_observation d)
            (pp_observation m))
      (List.combine des.observations mcore.observations);
  let fd = List.length des.final and fm = List.length mcore.final in
  if fd <> fm then add "site counts differ: des %d, mcore %d" fd fm
  else
    List.iteri
      (fun i (d, m) ->
        if (d.s_u, d.s_q, d.s_g) <> (m.s_u, m.s_q, m.s_g) then
          add "site %d versions: des (u=%d q=%d g=%d) vs mcore (u=%d q=%d g=%d)"
            i d.s_u d.s_q d.s_g m.s_u m.s_q m.s_g;
        if d.s_items <> m.s_items then
          add "site %d store: des [%s] vs mcore [%s]" i (pp_items d.s_items)
            (pp_items m.s_items))
      (List.combine des.final mcore.final);
  List.rev !problems

type stats = {
  events : int;
  commits : int;
  aborts : int;
  queries : int;
  advances : int;
  busy : int;
}

let stats_of_run r =
  List.fold_left
    (fun acc -> function
      | Committed _ -> { acc with commits = acc.commits + 1 }
      | Aborted -> { acc with aborts = acc.aborts + 1 }
      | Queried _ -> { acc with queries = acc.queries + 1 }
      | Advanced (`Completed _) -> { acc with advances = acc.advances + 1 }
      | Advanced `Busy -> { acc with busy = acc.busy + 1 })
    {
      events = List.length r.observations;
      commits = 0;
      aborts = 0;
      queries = 0;
      advances = 0;
      busy = 0;
    }
    r.observations

let check ?(gc_renumber = true) ?(skip_pin_recheck = false) ~seed () =
  let w = generate ~seed in
  let des = run_des ~gc_renumber w in
  let mc = run_mcore ~gc_renumber ~skip_pin_recheck w in
  match diff ~des ~mcore:mc with
  | [] -> Ok (stats_of_run des)
  | problems -> Error problems

(* ---- Convicting the pin-skipping twin --------------------------------- *)

(* The twin is sequentially indistinguishable from the real backend (and
   [check ~skip_pin_recheck:true] passing is itself part of the test:
   sequential conformance must NOT convict it).  Under real parallelism
   a whole advancement round fits in its window between reading q and
   bumping its slot: Phase 2 finds the slot empty, Phase 3 collects the
   version, and the query goes on to read it.  [Backend.run_query]'s
   guard then finds g >= v at the root and raises once the query has
   released its counts.

   One domain loops [Backend.advance] while the others query one site.
   The widened window dominates each query, so even on a single hardware
   core a querier preempted inside it lets the advancer run rounds.  The
   advancer stops when the queriers have all stopped or the deadline
   passes, whichever comes first. *)
let convict_racy_twin ?(domains = 4) ?(seconds = 10.0) ?(twin = true) () =
  if domains < 2 then
    invalid_arg "Conform.convict_racy_twin: need an advancer and a querier";
  let b : int Backend.t = Backend.create ~sites:1 ~skip_pin_recheck:twin () in
  Backend.load b ~site:0 [ ("x", 1) ];
  let caught = Atomic.make None in
  let stop = Atomic.make false in
  let querying = Atomic.make (domains - 1) in
  let deadline = Unix.gettimeofday () +. seconds in
  let querier () =
    let wk = Backend.worker b in
    (try
       while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
         ignore (Backend.run_query wk ~root:0 ~reads:[ (0, "x") ]
                 : int Backend.query_result)
       done
     with Invalid_argument msg ->
       (* Caught in the act; no need for the others to keep going. *)
       ignore (Atomic.compare_and_set caught None (Some msg) : bool);
       Atomic.set stop true);
    Atomic.decr querying
  in
  let advancer () =
    let wk = Backend.worker b in
    while Atomic.get querying > 0 && Unix.gettimeofday () < deadline do
      ignore (Backend.advance wk ~coordinator:0 : [ `Busy | `Completed of int ])
    done
  in
  let workers =
    Domain.spawn advancer :: List.init (domains - 1) (fun _ -> Domain.spawn querier)
  in
  List.iter Domain.join workers;
  let residue = Backend.check_quiescent b in
  match Atomic.get caught with
  | None -> residue
  | Some msg -> ("a query raised: " ^ msg) :: residue
