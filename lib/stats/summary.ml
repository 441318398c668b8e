type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }

(* Linear interpolation between closest ranks of a sorted sample of
   size [n] whose [i]-th element is [nth i]. *)
let interpolate n nth q =
  if n = 1 then nth 0
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = min (int_of_float rank) (n - 2) in
    let frac = rank -. float_of_int lo in
    nth lo +. (frac *. (nth (lo + 1) -. nth lo))
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if q < 0. || q > 1. then invalid_arg "Summary.percentile: q out of range";
  interpolate n (Array.get sorted) q

let of_floats samples =
  match samples with
  | [] -> empty
  | _ ->
      let arr = Array.of_list samples in
      Array.sort compare arr;
      let n = Array.length arr in
      let sum = Array.fold_left ( +. ) 0. arr in
      let mean = sum /. float_of_int n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. arr
        /. float_of_int n
      in
      {
        count = n;
        mean;
        stddev = sqrt var;
        min = arr.(0);
        max = arr.(n - 1);
        p50 = percentile arr 0.5;
        p95 = percentile arr 0.95;
        p99 = percentile arr 0.99;
      }

let of_ints samples = of_floats (List.map float_of_int samples)

(* [of_floats] of the expanded multiset without expanding it: the sums
   run over the values in ascending order, each added once per copy, so
   every float operation is the one [of_floats] performs. *)
let of_counts counts =
  if List.exists (fun (_, c) -> c < 0) counts then invalid_arg "Summary.of_counts: negative count";
  let counts =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.filter (fun (_, c) -> c > 0) counts)
    |> Array.of_list
  in
  let n = Array.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  if n = 0 then empty
  else begin
    let fold f init =
      Array.fold_left
        (fun acc (v, c) ->
          let x = float_of_int v in
          let acc = ref acc in
          for _ = 1 to c do
            acc := f !acc x
          done;
          !acc)
        init counts
    in
    let mean = fold ( +. ) 0. /. float_of_int n in
    let var = fold (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. /. float_of_int n in
    (* The [i]-th element of the ascending expansion, by cumulative count. *)
    let nth i =
      let rec go k before =
        let v, c = counts.(k) in
        if i < before + c then float_of_int v else go (k + 1) (before + c)
      in
      go 0 0
    in
    {
      count = n;
      mean;
      stddev = sqrt var;
      min = nth 0;
      max = nth (n - 1);
      p50 = interpolate n nth 0.5;
      p95 = interpolate n nth 0.95;
      p99 = interpolate n nth 0.99;
    }
  end
