(* The ownership / transfer-safety tier: one positive and one negative
   fixture per rule (including the aliased-binding use-after-transfer
   and the single-root SPSC false-positive guard), the inventory
   round-trips, and the repo self-check against the committed
   tools/lint/ownership.txt.

   Fixtures are type-checked in-process against the stdlib environment
   (same harness as test_lint_domain); transfer points match by dotted
   suffix, so a fixture-local [module Spsc] stands in for
   [Planck_util.Spsc]. Fixture files live under [lib/] so the tier's
   lib-only scope applies. *)

module Index = Planck_lint_lib.Lint_cmt_index
module Deep = Planck_lint_lib.Lint_deep_rules
module Own = Planck_lint_lib.Lint_ownership_rules
module Finding = Planck_lint_lib.Lint_finding

let index_of sources =
  let ix = Index.load ~dirs:[] in
  List.iter
    (fun (unit_name, file, source) ->
      Index.add_typed_source ix ~unit_name ~file ~source)
    sources;
  ix

let prepare source =
  Deep.prepare ~hot_roots:[]
    (index_of [ ("Fix", "lib/fix/fix.ml", source) ])

let syms ~rule findings =
  List.filter_map
    (fun f ->
      if String.equal f.Finding.rule rule then Some f.Finding.symbol else None)
    findings
  |> List.sort_uniq String.compare

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* A fixture-local SPSC stand-in: the rules match transfer points by
   dotted suffix, so [Fix.Spsc.push] is a transfer point too. *)
let spsc_prelude =
  {|
module Spsc = struct
  type 'a t = { mutable d : 'a option }
  let create () = { d = None }
  let push t v = t.d <- Some v
  let pop t = t.d
end
|}

(* ---- use-after-transfer ---- *)

let uat_fixture =
  spsc_prelude
  ^ {|
type frame = { mutable seq : int }
type tag = { label : int }
let chan : frame Spsc.t = Spsc.create ()
let ichan : tag Spsc.t = Spsc.create ()
let consume (_ : frame) = ()
let bad f = Spsc.push chan f; f.seq <- f.seq + 1
let bad_alias f = let g = f in Spsc.push chan g; f.seq
let ok_before f = let n = f.seq in Spsc.push chan f; n
let ok_call f = Spsc.push chan f; consume f
let ok_imm r = Spsc.push ichan r; r.label
|}

let test_use_after_transfer () =
  let fs = Own.findings (prepare uat_fixture) in
  Alcotest.(check (list string))
    "the direct and the aliased stale use fire; the use-before, the \
     plain call and the immutable payload do not"
    [ "Fix.bad.f"; "Fix.bad_alias.g" ]
    (syms ~rule:"use-after-transfer" fs)

let timer_fixture =
  {|
type timer = { mutable armed : bool }
module Timer = struct
  let cancel (t : timer) = t.armed <- false
  let rearm (t : timer) = t.armed <- true
end
let bad t = Timer.cancel t; t.armed
let ok t = Timer.cancel t; Timer.rearm t
|}

let test_timer_cancel_is_transfer () =
  let fs = Own.findings (prepare timer_fixture) in
  Alcotest.(check (list string))
    "reading the record after cancel fires; handing it to rearm (the \
     reuse idiom) does not"
    [ "Fix.bad.t" ]
    (syms ~rule:"use-after-transfer" fs)

(* ---- spsc-role-confinement ---- *)

let spsc_bad_fixture =
  spsc_prelude
  ^ {|
let chan : int Spsc.t = Spsc.create ()
let shard_loop () = Spsc.push chan 1
let launch () = ignore (Domain.spawn shard_loop)
let inject () = Spsc.push chan 2
let consume () = Spsc.pop chan
|}

let test_spsc_two_producer_roots_fire () =
  let fs = Own.findings (prepare spsc_bad_fixture) in
  Alcotest.(check (list string))
    "a shard-root push plus a main-side push on one channel fires for \
     the producer role only"
    [ "Fix.chan:producer" ]
    (syms ~rule:"spsc-role-confinement" fs)

(* The false-positive guard: N shard instances of ONE shard-body def
   are a single root to the callgraph, and a single root driving both
   roles is statically clean — that case belongs to the dynamic
   [Spsc.set_debug] check, not this rule. *)
let spsc_single_root_fixture =
  spsc_prelude
  ^ {|
let chan : int Spsc.t = Spsc.create ()
let worker () = Spsc.push chan 1; ignore (Spsc.pop chan)
let launch () = ignore (Domain.spawn worker)
|}

let test_spsc_single_root_is_clean () =
  let fs = Own.findings (prepare spsc_single_root_fixture) in
  Alcotest.(check (list string))
    "one root on both roles stays clean (dynamic check's territory)" []
    (syms ~rule:"spsc-role-confinement" fs)

(* ---- blocking-in-shard-body ---- *)

let blocking_fixture =
  {|
let m = Mutex.create ()
let body () = Mutex.lock m; Mutex.unlock m
let launch () = ignore (Domain.spawn body)
let report () = print_endline "done"
|}

let test_blocking_in_shard_body () =
  let dr = prepare blocking_fixture in
  let fs = Own.findings dr in
  Alcotest.(check (list string))
    "Mutex.lock in the spawned closure fires; the cold reporter and \
     Mutex.unlock do not"
    [ "Fix.body:Mutex.lock" ]
    (syms ~rule:"blocking-in-shard-body" fs);
  let f =
    List.find
      (fun f -> String.equal f.Finding.rule "blocking-in-shard-body")
      fs
  in
  Alcotest.(check bool)
    "the finding cites the witness chain from the shard root" true
    (contains ~needle:"Fix.launch -> Fix.body" f.Finding.message)

(* ---- release-leak ---- *)

let leak_fixture =
  {|
module Buffer_pool = struct
  let try_alloc (_ : unit) ~bytes_:(_ : int) = true
  let release (_ : unit) ~bytes_:(_ : int) = ()
end
let bad p n =
  if Buffer_pool.try_alloc p ~bytes_:n then begin
    if n > 9000 then failwith "oversize";
    Buffer_pool.release p ~bytes_:n
  end
let ok p n =
  if Buffer_pool.try_alloc p ~bytes_:n then
    if n > 9000 then begin
      Buffer_pool.release p ~bytes_:n;
      failwith "oversize"
    end
    else Buffer_pool.release p ~bytes_:n
let ok_guarded p n =
  if Buffer_pool.try_alloc p ~bytes_:n then begin
    (try failwith "absorbed" with _ -> ());
    Buffer_pool.release p ~bytes_:n
  end
|}

let test_release_leak () =
  let fs = Own.findings (prepare leak_fixture) in
  Alcotest.(check (list string))
    "the raise before release fires; release-then-raise and a raise \
     absorbed by try do not"
    [ "Fix.bad" ]
    (syms ~rule:"release-leak" fs)

(* ---- inventory formats ---- *)

let test_inventory_round_trip () =
  let dr = prepare spsc_bad_fixture in
  let entries = Own.inventory dr in
  let kinds = List.map (fun e -> (e.Own.o_kind, e.Own.o_symbol)) entries in
  Alcotest.(check bool)
    "producer, consumer and transfer-site facts are inventoried" true
    (List.mem ("spsc-producer", "Fix.chan:Fix.shard_loop") kinds
    && List.mem ("spsc-producer", "Fix.chan:Fix.inject") kinds
    && List.mem ("spsc-consumer", "Fix.chan:Fix.consume") kinds
    && List.mem ("transfer-site", "Fix.shard_loop:Spsc.push") kinds);
  let path = Filename.temp_file "planck_ownership" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Own.inventory_text entries);
      close_out oc;
      let loaded =
        match Own.load_inventory path with
        | Ok pairs -> pairs
        | Error e -> Alcotest.failf "inventory should parse: %s" e
      in
      Alcotest.(check (list (pair string string)))
        "text format round-trips to (kind, symbol)" kinds loaded);
  let doc = Own.inventory_text entries in
  Alcotest.(check bool)
    "text inventory names the facts and the attributed roots" true
    (contains ~needle:"\nspsc-producer Fix.chan:Fix.shard_loop -- " doc
    && contains ~needle:"(main)" doc)

(* ---- repo self-check ----

   Same build-tree convention as test_lint_domain: the committed
   inventory must match what the tier computes from the current cmts —
   adding a transfer/SPSC/blocking site without regenerating
   tools/lint/ownership.txt fails here. *)
let test_committed_inventory_current () =
  let root = Filename.dirname (Sys.getcwd ()) in
  let committed = Filename.concat root "tools/lint/ownership.txt" in
  if Sys.file_exists (Filename.concat root "lib") && Sys.file_exists committed
  then begin
    let ix = Index.load ~dirs:[ root ] in
    if Index.unit_count ix > 0 then begin
      let dr = Deep.prepare ix in
      let computed =
        List.map (fun e -> (e.Own.o_kind, e.Own.o_symbol)) (Own.inventory dr)
      in
      let loaded =
        match Own.load_inventory committed with
        | Ok pairs -> pairs
        | Error e -> Alcotest.failf "committed inventory unreadable: %s" e
      in
      Alcotest.(check (list (pair string string)))
        "tools/lint/ownership.txt is current (regenerate with planck_lint \
         --ownership-out)"
        computed loaded
    end
  end

let tests =
  [
    Alcotest.test_case "use-after-transfer fires, aliases tracked" `Quick
      test_use_after_transfer;
    Alcotest.test_case "Timer.cancel is a transfer point" `Quick
      test_timer_cancel_is_transfer;
    Alcotest.test_case "spsc-role-confinement: two producer roots" `Quick
      test_spsc_two_producer_roots_fire;
    Alcotest.test_case "spsc-role-confinement: single-root guard" `Quick
      test_spsc_single_root_is_clean;
    Alcotest.test_case "blocking-in-shard-body with witness chain" `Quick
      test_blocking_in_shard_body;
    Alcotest.test_case "release-leak on the exception edge" `Quick
      test_release_leak;
    Alcotest.test_case "inventory round-trips" `Quick test_inventory_round_trip;
    Alcotest.test_case "committed inventory is current" `Quick
      test_committed_inventory_current;
  ]
