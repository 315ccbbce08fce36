(* Alcotest cuts a long case name to fit 80 columns less the widest
   suite name of the run, so the cut moves with the set of suites an
   executable holds. Pin it to one 14-character suite column for every
   test executable, the width the case names have always been printed
   at, so a case keeps its printed name whichever executable runs it.
   An explicit ALCOTEST_COLUMNS still wins. *)
let name_column = 14

let run name suites =
  let widest =
    List.fold_left (fun m (s, _) -> max m (String.length s)) 0 suites
  in
  if Sys.getenv_opt "ALCOTEST_COLUMNS" = None then
    Unix.putenv "ALCOTEST_COLUMNS" (string_of_int (80 - name_column + widest));
  Alcotest.run name suites
