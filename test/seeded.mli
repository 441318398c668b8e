(** QCheck properties on a fixed seed. *)

val to_alcotest : QCheck2.Test.t -> unit Alcotest.test_case
(** [Seeded.to_alcotest] with the random state seeded from a
    hash of the property's name, so two runs of the suite on one tree
    draw the same cases ([QCHECK_SEED] is not read). A wider search of
    a theorem property's space is the seed scan,
    [dune exec test/theorems/scan.exe -- SPACE FROM TO]. *)
