(* Alcotest cuts a long case name to fit 80 columns less the widest
   suite name of the run, so the cut moves with the set of suites an
   executable holds. Pin it to one 14-character suite column for every
   test executable, the width the case names have always been printed
   at, so a case keeps its printed name whichever executable runs it.
   An explicit ALCOTEST_COLUMNS still wins. On exit each executable
   prints its own wall time, one "<name>: <s> s wall time" line, so a
   log of the parallel run says which executable is the floor. *)
let name_column = 14

let run name suites =
  let widest =
    List.fold_left (fun m (s, _) -> max m (String.length s)) 0 suites
  in
  let start = Unix.gettimeofday () in
  at_exit (fun () ->
      (* after Alcotest's report, which is still in Format's buffer *)
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "%s: %.1f s wall time\n%!" name
        (Unix.gettimeofday () -. start));
  if Sys.getenv_opt "ALCOTEST_COLUMNS" = None then
    Unix.putenv "ALCOTEST_COLUMNS" (string_of_int (80 - name_column + widest));
  Alcotest.run name suites
