let nominal = 5.0
let threshold = 0.8
let alpha = 1.6

let raw_delay v = v /. ((v -. threshold) ** alpha)

let raw_nominal = raw_delay nominal

let delay_ratio v =
  if v <= threshold then invalid_arg "Vdd.delay_ratio: supply below threshold";
  raw_delay v /. raw_nominal

let scale_for_stretch s =
  if s <= 1. then nominal
  else begin
    (* delay_ratio is monotonically decreasing in v on (vt, nominal];
       bisect for delay_ratio v = s. *)
    let lo = ref 1.0 and hi = ref nominal in
    if delay_ratio !lo <= s then !lo
    else begin
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if delay_ratio mid > s then lo := mid else hi := mid
      done;
      !hi
    end
  end

let power_factor v = v *. v /. (nominal *. nominal)

let stretch ~enc_budget ~enc_achieved ~clock_ns ~critical_ns =
  let enc_part = if enc_achieved <= 0. then 1. else enc_budget /. enc_achieved in
  let clock_part = if critical_ns <= 0. then 1. else clock_ns /. critical_ns in
  Float.max 1. (enc_part *. clock_part)
