type witness =
  | Disjoint_supports of Bitset.t array
  | Min_cut

type task_verdict =
  | Certified of witness
  | Refuted of Platform.proc list

type report = {
  rs_epsilon : int;
  rs_resists : bool;
  rs_tasks : task_verdict array;
  rs_counterexample : (Platform.proc list * Dag.task list) option;
}

exception Family_overflow of Dag.task

(* -- kill-set families ------------------------------------------------- *)

(* A family is an antichain of processor sets, all of cardinal <= epsilon:
   the minimal crash sets (of interesting size) starving one replica.  It
   is one flat [int array], [nw] words per set and [bits] processors per
   word, in the order [finish] lists them: one heap block whatever its
   size, and every set operation is a loop over plain ints. *)

(* 62, not 63: every mask stays a non-negative [int] *)
let bits = 62

let set_count ~nw fam = Array.length fam / nw

(* the family whose only set is {p} *)
let singleton ~nw p =
  let f = Array.make nw 0 in
  f.(p / bits) <- 1 lsl (p mod bits);
  f

let set_cardinal ~nw fam i =
  let c = ref 0 in
  for k = i * nw to (i * nw) + nw - 1 do
    let x = ref (Array.unsafe_get fam k) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr c
    done
  done;
  !c

let set_elements ~nw fam i =
  let acc = ref [] in
  for w = nw - 1 downto 0 do
    let x = fam.((i * nw) + w) in
    for b = bits - 1 downto 0 do
      if x land (1 lsl b) <> 0 then acc := ((w * bits) + b) :: !acc
    done
  done;
  !acc

(* A builder collects candidate sets in the order they are generated,
   each distinct set once (open addressing over candidate indices; a
   slot is taken iff its stamp is the current round's), then keeps the
   minimal ones.  One builder serves every family operation of a task. *)
type builder = {
  nw : int;
  mutable buf : int array;
      (** candidates, [nw] words each; the set at index [len] is scratch *)
  mutable len : int;
  mutable slots : int array;
  mutable stamps : int array;
  mutable round : int;
}

let builder nw =
  {
    nw;
    buf = Array.make (64 * nw) 0;
    len = 0;
    slots = Array.make 256 0;
    stamps = Array.make 256 0;
    round = 1;
  }

let reset b =
  b.len <- 0;
  b.round <- b.round + 1

let reserve b =
  let need = (b.len + 1) * b.nw in
  if need > Array.length b.buf then begin
    let buf = Array.make (2 * need) 0 in
    Array.blit b.buf 0 buf 0 (b.len * b.nw);
    b.buf <- buf
  end

let home b i =
  let h = ref 0 in
  for k = i * b.nw to (i * b.nw) + b.nw - 1 do
    h := (!h * 0x2545F4914F6CDD1) + Array.unsafe_get b.buf k
  done;
  let h = !h * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 31)) land (Array.length b.slots - 1)

let same b i j =
  let nw = b.nw and buf = b.buf in
  let k = ref 0 in
  while
    !k < nw
    && Array.unsafe_get buf ((i * nw) + !k)
       = Array.unsafe_get buf ((j * nw) + !k)
  do
    incr k
  done;
  !k = nw

(* index of the candidate equal to candidate [i], or the free slot where
   [i] belongs, as [-1 - slot] *)
let rec probe b i s =
  if b.stamps.(s) <> b.round then -1 - s
  else if same b b.slots.(s) i then b.slots.(s)
  else probe b i ((s + 1) land (Array.length b.slots - 1))

let take b s =
  b.slots.(s) <- b.len;
  b.stamps.(s) <- b.round;
  b.len <- b.len + 1

(* keep the scratch candidate unless it was generated before *)
let commit b =
  if 2 * (b.len + 1) > Array.length b.slots then begin
    let size = 4 * Array.length b.slots in
    b.slots <- Array.make size 0;
    b.stamps <- Array.make size 0;
    let n = b.len in
    b.len <- 0;
    for i = 0 to n - 1 do
      let s = probe b i (home b i) in
      take b (-1 - s)
    done
  end;
  let s = probe b b.len (home b b.len) in
  if s < 0 then take b (-1 - s)

let push b fam i =
  reserve b;
  Array.blit fam (i * b.nw) b.buf (b.len * b.nw) b.nw;
  commit b

(* the union of [a]'s set [i] and [c]'s set [j], if within [epsilon] *)
let push_union b ~epsilon a i c j =
  reserve b;
  let nw = b.nw and buf = b.buf in
  let base = b.len * nw in
  let card = ref 0 and k = ref 0 in
  while !card <= epsilon && !k < nw do
    let w =
      Array.unsafe_get a ((i * nw) + !k) lor Array.unsafe_get c ((j * nw) + !k)
    in
    Array.unsafe_set buf (base + !k) w;
    let x = ref w in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr card
    done;
    incr k
  done;
  if !card <= epsilon then commit b

let subset_of b y x =
  let nw = b.nw and buf = b.buf in
  let k = ref 0 in
  while
    !k < nw
    && Array.unsafe_get buf ((y * nw) + !k)
       land lnot (Array.unsafe_get buf ((x * nw) + !k))
       = 0
  do
    incr k
  done;
  !k = nw

(* The minimal candidates, latest first generated first: the list an
   incremental fold returns when it prepends each set that no kept set
   covers and drops the kept sets the new one covers, since the minimal
   elements of a finite family are unique.  With [overflow = (limit,
   task)], raise [Family_overflow task] iff that fold's antichain would
   have exceeded [limit] sets at some step: candidate [x] is in it from
   its own generation until the first generation of a proper subset, so
   only more than [limit] candidates can overflow. *)
let finish ?overflow b =
  let n = b.len and nw = b.nw in
  let card = Array.init n (set_cardinal ~nw b.buf) in
  let top = Array.fold_left max 0 card in
  (* candidates by increasing cardinal, by index within a cardinal *)
  let start = Array.make (top + 2) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) card;
  for c = 1 to top + 1 do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let fill = Array.sub start 0 (top + 1) in
  let order = Array.make n 0 in
  for x = 0 to n - 1 do
    let c = card.(x) in
    order.(fill.(c)) <- x;
    fill.(c) <- fill.(c) + 1
  done;
  let minimal = Array.make n false in
  (match overflow with
  | Some (limit, task) when n > limit ->
      (* [d]: the first generated proper subset of [x], or [n] *)
      let delta = Array.make (n + 1) 0 in
      for x = 0 to n - 1 do
        let d = ref n in
        for p = 0 to start.(card.(x)) - 1 do
          let y = order.(p) in
          if y < !d && subset_of b y x then d := y
        done;
        minimal.(x) <- !d = n;
        if !d > x then begin
          delta.(x) <- delta.(x) + 1;
          delta.(!d) <- delta.(!d) - 1
        end
      done;
      let alive = ref 0 in
      for x = 0 to n - 1 do
        alive := !alive + delta.(x);
        if !alive > limit then raise (Family_overflow task)
      done
  | _ ->
      (* a candidate with a proper subset has a minimal one: test [x]
         against the minimal candidates of smaller cardinal only *)
      let kept = Array.make n 0 and nk = ref 0 in
      for c = 0 to top do
        let below = !nk in
        for p = start.(c) to start.(c + 1) - 1 do
          let x = order.(p) in
          let j = ref 0 in
          while !j < below && not (subset_of b kept.(!j) x) do
            incr j
          done;
          if !j = below then begin
            minimal.(x) <- true;
            kept.(!nk) <- x;
            incr nk
          end
        done
      done);
  let out = ref [] in
  for x = 0 to n - 1 do
    if minimal.(x) then out := x :: !out
  done;
  let out = Array.of_list !out in
  let fam = Array.make (Array.length out * nw) 0 in
  Array.iteri (fun i x -> Array.blit b.buf (x * nw) fam (i * nw) nw) out;
  fam

(* Minimal unions of one set per family: the crash sets killing both of
   two (conjunctions of) replicas.  Truncated to [epsilon]. *)
let cross b ~epsilon ~max_family task acc fam =
  let nw = b.nw in
  reset b;
  for i = 0 to set_count ~nw acc - 1 do
    for j = 0 to set_count ~nw fam - 1 do
      push_union b ~epsilon acc i fam j
    done
  done;
  finish ~overflow:(max_family, task) b

(* [fam] with every set of [sets] added in order *)
let add_all b fam sets =
  let nw = b.nw in
  reset b;
  for i = set_count ~nw fam - 1 downto 0 do
    push b fam i
  done;
  for i = 0 to set_count ~nw sets - 1 do
    push b sets i
  done;
  finish b

(* the first set of least cardinal *)
let smallest_of ~nw fam =
  let best = ref (-1) and best_card = ref max_int in
  for i = 0 to set_count ~nw fam - 1 do
    let c = set_cardinal ~nw fam i in
    if c < !best_card then begin
      best := i;
      best_card := c
    end
  done;
  if !best < 0 then None else Some (set_elements ~nw fam !best)

(* -- survival relation ------------------------------------------------- *)

let survivors_of_graph sg ~crashed =
  let sched = Supply_graph.schedule sg in
  let dag = Schedule.dag sched in
  let v = Dag.task_count dag in
  let eps1 = Schedule.epsilon sched + 1 in
  let m = Platform.proc_count (Schedule.platform sched) in
  let dead = Array.make m false in
  List.iter (fun p -> if p >= 0 && p < m then dead.(p) <- true) crashed;
  let alive = Array.init v (fun _ -> Array.make eps1 false) in
  Array.iter
    (fun task ->
      let preds = Dag.pred_tasks dag task in
      Array.iteri
        (fun i (r : Schedule.replica) ->
          alive.(task).(i) <-
            (not dead.(r.Schedule.r_proc))
            && List.for_all
                 (fun pred ->
                   List.exists
                     (fun j -> alive.(pred).(j))
                     (Supply_graph.supplier_indices sg ~task ~replica:i ~pred))
                 preds)
        (Schedule.replicas sched task))
    (Dag.topological_order dag);
  alive

let survivors sched ~crashed =
  survivors_of_graph (Supply_graph.build sched) ~crashed

let starved_of alive =
  let starved = ref [] in
  Array.iteri
    (fun task rs ->
      if not (Array.exists Fun.id rs) then starved := task :: !starved)
    alive;
  List.rev !starved

let starved_tasks sched ~crashed = starved_of (survivors sched ~crashed)

(* -- certification ----------------------------------------------------- *)

type per_task = {
  pt_fams : int array array;  (** per replica, its minimal kill sets *)
  pt_supports : Bitset.t array option;  (** per replica, a closed support *)
  pt_verdict : task_verdict;
}

let certify ?epsilon ?domains ?(max_family = 65536) sched =
  let dag = Schedule.dag sched in
  let platform = Schedule.platform sched in
  let m = Platform.proc_count platform in
  let v = Dag.task_count dag in
  let eps1 = Schedule.epsilon sched + 1 in
  let epsilon =
    match epsilon with
    | Some e -> min (max e 0) m
    | None -> min (Schedule.epsilon sched) m
  in
  let nw = max 1 ((m + bits - 1) / bits) in
  let sg = Supply_graph.build sched in
  let fams = Array.init v (fun _ -> [||]) in
  let supports = Array.make v None in
  let verdicts = Array.make v (Certified Min_cut) in

  let pairwise_disjoint sets =
    let n = Array.length sets in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if not (Bitset.disjoint sets.(i) sets.(j)) then ok := false
      done
    done;
    !ok
  in

  (* Certify one task, reading only strictly earlier levels. *)
  let process task =
    let b = builder nw in
    let cross = cross b ~epsilon ~max_family task in
    let empty = Array.make nw 0 (* the family {∅} *) in
    let preds = Dag.pred_tasks dag task in
    let rs = Schedule.replicas sched task in
    let fam_r = Array.make eps1 [||] in
    let supp_r = Array.make eps1 (Bitset.create m) in
    let supp_ok = ref true in
    Array.iteri
      (fun i (r : Schedule.replica) ->
        let proc = r.Schedule.r_proc in
        let fam = ref (if epsilon >= 1 then singleton ~nw proc else [||]) in
        let supp = Bitset.singleton m proc in
        List.iter
          (fun pred ->
            match Supply_graph.supplier_indices sg ~task ~replica:i ~pred with
            | [] ->
                (* no supply at all: the replica starves unconditionally *)
                fam := empty;
                supp_ok := false
            | sups ->
                (* crash sets starving this input: kill every supplier *)
                let via =
                  List.fold_left
                    (fun acc j -> cross acc fams.(pred).(j))
                    empty sups
                in
                fam := add_all b !fam via;
                (* support witness: follow the supplier with the smallest
                   support, preferring co-located hand-offs on ties *)
                let best =
                  List.fold_left
                    (fun best j ->
                      match best with
                      | None -> Some j
                      | Some b ->
                          let cb =
                            match supports.(pred) with
                            | Some sp -> Bitset.cardinal sp.(b)
                            | None -> max_int
                          and cj =
                            match supports.(pred) with
                            | Some sp -> Bitset.cardinal sp.(j)
                            | None -> max_int
                          in
                          if cj < cb then Some j else best)
                    None sups
                in
                (match (best, supports.(pred)) with
                | Some b, Some sp -> Bitset.union_into ~into:supp sp.(b)
                | _ -> supp_ok := false))
          preds;
        fam_r.(i) <- !fam;
        supp_r.(i) <- supp)
      rs;
    (* killing the task = killing every replica *)
    let task_fam = Array.fold_left cross empty fam_r in
    let verdict =
      match smallest_of ~nw task_fam with
      | Some s -> Refuted s
      | None ->
          if !supp_ok && eps1 >= epsilon + 1 && pairwise_disjoint supp_r then
            Certified (Disjoint_supports (Array.map Bitset.copy supp_r))
          else Certified Min_cut
    in
    {
      pt_fams = fam_r;
      pt_supports = (if !supp_ok then Some supp_r else None);
      pt_verdict = verdict;
    }
  in

  (* Level-synchronous bottom-up sweep: tasks of one precedence level are
     independent given the levels below, so wide levels fan out over
     domains. *)
  let level = Array.make v 0 in
  Array.iter
    (fun task ->
      List.iter
        (fun pred -> level.(task) <- max level.(task) (level.(pred) + 1))
        (Dag.pred_tasks dag task))
    (Dag.topological_order dag);
  let max_level = Array.fold_left max 0 level in
  let by_level = Array.make (max_level + 1) [] in
  (* reverse topological iteration keeps each level list in increasing
     topological position *)
  Array.iter
    (fun task -> by_level.(level.(task)) <- task :: by_level.(level.(task)))
    (Dag.reverse_topological_order dag);
  Array.iter
    (fun tasks ->
      let results =
        if List.compare_length_with tasks 8 >= 0 then
          Parallel.map ?domains process tasks
        else List.map process tasks
      in
      List.iter2
        (fun task pt ->
          fams.(task) <- pt.pt_fams;
          supports.(task) <- pt.pt_supports;
          verdicts.(task) <- pt.pt_verdict)
        tasks results)
    by_level;

  (* smallest refuting crash set over all tasks *)
  let counterexample =
    Array.fold_left
      (fun best verdict ->
        match (verdict, best) with
        | Refuted s, None -> Some s
        | Refuted s, Some b when List.length s < List.length b -> Some s
        | _ -> best)
      None verdicts
    |> Option.map (fun crashed ->
           (crashed, starved_of (survivors_of_graph sg ~crashed)))
  in
  {
    rs_epsilon = epsilon;
    rs_resists = counterexample = None;
    rs_tasks = verdicts;
    rs_counterexample = counterexample;
  }

let pp_verdict ppf = function
  | Certified (Disjoint_supports supports) ->
      Format.fprintf ppf "certified (disjoint supports:";
      Array.iter (fun s -> Format.fprintf ppf " %a" Bitset.pp s) supports;
      Format.fprintf ppf ")"
  | Certified Min_cut -> Format.fprintf ppf "certified (min-cut)"
  | Refuted crashed ->
      Format.fprintf ppf "REFUTED by crash {%s}"
        (String.concat "," (List.map string_of_int crashed))
