type ge_state = { mutable in_bad : bool }

type t =
  | None_
  | Bernoulli of { rng : Stats.Rng.t; p : float }
  | Gilbert of {
      rng : Stats.Rng.t;
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
      state : ge_state;
    }
  | Dynamic of dyn

and dyn = { mutable current : t }

let none = None_

let check_prob name p =
  if p < 0. || p > 1. then invalid_arg (Printf.sprintf "Loss_model: %s out of [0,1]" name)

let bernoulli ~rng ~p =
  check_prob "p" p;
  Bernoulli { rng; p }

let gilbert_elliott ~rng ~p_good_to_bad ~p_bad_to_good ~loss_good ~loss_bad =
  check_prob "p_good_to_bad" p_good_to_bad;
  check_prob "p_bad_to_good" p_bad_to_good;
  check_prob "loss_good" loss_good;
  check_prob "loss_bad" loss_bad;
  Gilbert
    {
      rng;
      p_gb = p_good_to_bad;
      p_bg = p_bad_to_good;
      loss_good;
      loss_bad;
      state = { in_bad = false };
    }

let dynamic initial = Dynamic { current = initial }

let set_dynamic t m =
  match t with
  | Dynamic d ->
      (match m with
      | Dynamic _ -> invalid_arg "Loss_model.set_dynamic: nested dynamic model"
      | _ -> ());
      d.current <- m
  | _ -> invalid_arg "Loss_model.set_dynamic: not a dynamic model"

let rec drops_packet = function
  | None_ -> false
  | Bernoulli { rng; p } -> p > 0. && Stats.Rng.bernoulli rng p
  | Gilbert g ->
      (* Advance the chain, then draw loss for the current state. *)
      if g.state.in_bad then begin
        if Stats.Rng.bernoulli g.rng g.p_bg then g.state.in_bad <- false
      end
      else if Stats.Rng.bernoulli g.rng g.p_gb then g.state.in_bad <- true;
      let p = if g.state.in_bad then g.loss_bad else g.loss_good in
      p > 0. && Stats.Rng.bernoulli g.rng p
  | Dynamic d -> drops_packet d.current

let rec loss_rate_hint = function
  | None_ -> 0.
  | Bernoulli { p; _ } -> p
  | Gilbert g ->
      let denom = g.p_gb +. g.p_bg in
      if denom = 0. then
        (* Frozen chain: with both transition probabilities zero the
           process never leaves its initial (good) state, so there is no
           stationary mix to average — the long-run loss rate is exactly
           the good-state loss.  (With p_bg = 0 but p_gb > 0 the formula
           below correctly yields loss_bad: the chain is absorbed in the
           bad state.) *)
        g.loss_good
      else begin
        let pi_bad = g.p_gb /. denom in
        ((1. -. pi_bad) *. g.loss_good) +. (pi_bad *. g.loss_bad)
      end
  | Dynamic d -> loss_rate_hint d.current

let rec in_bad = function
  | None_ | Bernoulli _ -> false
  | Gilbert g -> g.state.in_bad
  | Dynamic d -> in_bad d.current

let rec describe = function
  | None_ -> "none"
  | Bernoulli { p; _ } -> Printf.sprintf "bernoulli(p=%g)" p
  | Gilbert g ->
      Printf.sprintf
        "gilbert-elliott(p_gb=%g, p_bg=%g, loss_good=%g, loss_bad=%g, \
         stationary=%g%s)"
        g.p_gb g.p_bg g.loss_good g.loss_bad
        (loss_rate_hint (Gilbert g))
        (if g.state.in_bad then ", in bad state" else "")
  | Dynamic d -> Printf.sprintf "dynamic(%s)" (describe d.current)
