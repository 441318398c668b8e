(* Values below [dense_limit] count in [dense] (grown by doubling to cover
   the largest such value seen); larger values, rare latency outliers,
   count in [sparse]. Both start empty so an unused multiset costs a few
   words. *)
let dense_limit = 1024

type t = { mutable dense : int array; mutable sparse : (int, int) Hashtbl.t option }

let create () = { dense = [||]; sparse = None }

let grow t v =
  let size = ref (max 16 (Array.length t.dense)) in
  while !size <= v do
    size := 2 * !size
  done;
  let dense = Array.make !size 0 in
  Array.blit t.dense 0 dense 0 (Array.length t.dense);
  t.dense <- dense

let add_sparse t v =
  let tbl =
    match t.sparse with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        t.sparse <- Some tbl;
        tbl
  in
  Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0)

let[@lint.hot] add t v =
  if v < 0 then invalid_arg "Multiset.add: negative value";
  if v >= dense_limit then add_sparse t v
  else begin
    if v >= Array.length t.dense then grow t v;
    t.dense.(v) <- t.dense.(v) + 1
  end

let to_counts t =
  let large =
    match t.sparse with
    | None -> []
    (* The sort is load-bearing: the fold enumerates in hash order. *)
    | Some tbl -> Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [] |> List.sort compare
  in
  let acc = ref large in
  for v = Array.length t.dense - 1 downto 0 do
    let c = t.dense.(v) in
    if c > 0 then acc := (v, c) :: !acc
  done;
  !acc

let to_list t = List.concat_map (fun (v, c) -> List.init c (fun _ -> v)) (to_counts t)
let summary t = Summary.of_counts (to_counts t)
