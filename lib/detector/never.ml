let create () =
  {
    Detector.name = "never";
    suspects = (fun _ -> false);
    subscribe = (fun _ -> ());
  }
