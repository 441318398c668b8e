type t = {
  title : string;
  x_label : string;
  y_label : string;
  mutable primary : (float * float) list; (* newest first *)
  mutable extra : (string * (float * float) list) list; (* insertion order *)
}

let create ~title ~x_label ~y_label =
  { title; x_label; y_label; primary = []; extra = [] }

let add_point t ~x ~y = t.primary <- (x, y) :: t.primary
let add_series t ~name points = t.extra <- t.extra @ [ (name, points) ]

let marks = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

(* The plot area, in characters. *)
let width = 72
let height = 16

let render t =
  let named =
    (t.y_label, List.rev t.primary)
    :: List.map (fun (name, pts) -> (name, List.sort compare pts)) t.extra
  in
  let named = List.filter (fun (_, pts) -> pts <> []) named in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "-- %s --\n" t.title);
  if named = [] then begin
    Buffer.add_string buf "  (no data)\n";
    Buffer.contents buf
  end
  else begin
    let all = List.concat_map snd named in
    let xs = List.map fst all and ys = List.map snd all in
    let fmin l = List.fold_left min (List.hd l) l
    and fmax l = List.fold_left max (List.hd l) l in
    let x0 = fmin xs and x1 = fmax xs in
    let y0 = min 0.0 (fmin ys) and y1 = fmax ys in
    let y1 = if y1 = y0 then y0 +. 1.0 else y1 in
    let x1 = if x1 = x0 then x0 +. 1.0 else x1 in
    let grid = Array.make_matrix height width ' ' in
    let plot mark (x, y) =
      let cx = int_of_float ((x -. x0) /. (x1 -. x0) *. float_of_int (width - 1)) in
      let cy = int_of_float ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1)) in
      let cx = max 0 (min (width - 1) cx) and cy = max 0 (min (height - 1) cy) in
      grid.(height - 1 - cy).(cx) <- mark
    in
    List.iteri (fun si (_, pts) -> List.iter (plot marks.(si mod Array.length marks)) pts) named;
    Buffer.add_string buf (Printf.sprintf "  y: %s  (%.1f .. %.1f)\n" t.y_label y0 y1);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Buffer.add_string buf (String.init width (fun c -> row.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("  +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf (Printf.sprintf "  x: %s  (%.1f .. %.1f)\n" t.x_label x0 x1);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "  [%c] %s\n" marks.(si mod Array.length marks) name))
      named;
    (* Raw data columns for post-processing. *)
    Buffer.add_string buf "  data:\n";
    List.iter
      (fun (name, pts) ->
        List.iter
          (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "    %s %g %g\n" name x y))
          pts)
      named;
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "series,x,y\n";
  let dump name pts =
    List.iter (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%s,%g,%g\n" name x y)) pts
  in
  dump t.y_label (List.rev t.primary);
  List.iter (fun (name, pts) -> dump name pts) t.extra;
  Buffer.contents buf

let title t = t.title

let pp ppf t =
  Format.pp_print_string ppf (render t);
  Format.pp_print_string ppf "\n"

