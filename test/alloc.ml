let counted () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words f =
  let idle =
    let w0 = counted () in
    counted () -. w0
  in
  let w0 = counted () in
  f ();
  counted () -. w0 -. idle
