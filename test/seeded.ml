let to_alcotest (QCheck2.Test.Test cell as t) =
  let seed = Hashtbl.hash (QCheck2.Test.get_name cell) in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
