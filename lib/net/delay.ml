type t =
  | Fixed of int
  | Uniform of int * int
  | Exponential of float * int
  | Partial_synchrony of { gst : Sim.Time.t; pre : int * int; post : int * int }

let clamp_pos d = if d < 1 then 1 else d

let uniform rng lo hi =
  if lo > hi then invalid_arg "Delay: empty uniform range";
  clamp_pos (Sim.Rng.int_in rng lo hi)

let sample t rng ~now =
  match t with
  | Fixed d -> clamp_pos d
  | Uniform (lo, hi) -> uniform rng lo hi
  | Exponential (mean, cap) ->
      let d = int_of_float (Float.round (Sim.Rng.exponential rng ~mean)) in
      clamp_pos (min d cap)
  | Partial_synchrony { gst; pre; post } ->
      let lo, hi = if now < gst then pre else post in
      uniform rng lo hi

let upper_bound_after t after =
  match t with
  | Fixed d -> Some (clamp_pos d)
  | Uniform (_, hi) -> Some (clamp_pos hi)
  | Exponential (_, cap) -> Some (clamp_pos cap)
  | Partial_synchrony { gst; pre = _, pre_hi; post = _, post_hi } ->
      if after >= gst then Some (clamp_pos post_hi)
      else Some (clamp_pos (max pre_hi post_hi))
