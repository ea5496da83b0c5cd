type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }

let sample t rng =
  let v =
    match t with
    | Constant c -> c
    | Uniform { lo; hi } -> lo +. Sim.Rng.float rng (hi -. lo)
    | Exponential { mean; floor } ->
        let tail = mean -. floor in
        if tail <= 0.0 then floor
        else floor +. Sim.Rng.exponential rng ~mean:tail
  in
  if v < 0.0 then 0.0 else v

let mean = function
  | Constant c -> c
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean; _ } -> mean
