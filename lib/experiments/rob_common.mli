(** Shared harness of the Byzantine robustness suite (rob04–rob07,
    DESIGN.md §10): a fig09-style dumbbell with 32 honest receivers and
    at most one adversarial receiver, measured as mean honest goodput
    over the post-attack window, with and without the {!Tfmcc_core.Defense}
    layer. *)

type attack = Understater | Overstater | Rtt_liar | Spammer

val attacks : attack list

(** One run of the attack matrix. *)
type cell = {
  c_attack : string;
  c_defense : bool;
  c_goodput_kbps : float;
  c_forged_reports : int;
  c_rejects : int;
  c_outlier_rejects : int;
  c_quarantines : int;
  c_damped : int;
  c_clr_changes : int;
  c_failovers : int;
  c_starvations : int;
  c_samples : (float * float) list;
}

val run_cell :
  mode:Scenario.mode ->
  seed:int ->
  ?attack:attack ->
  defense:bool ->
  unit ->
  cell
(** Runs one cell on a private observability sink (no attacker when
    [attack] is omitted — the baseline). *)

val degradation : baseline:cell -> cell -> float
(** Percent of honest goodput lost versus the matching baseline. *)

type row = {
  r_attack : string;
  r_off : cell;
  r_on : cell;
  r_off_deg : float;
  r_on_deg : float;
}

type scorecard = { base_off : cell; base_on : cell; rows : row list }

val scorecard : mode:Scenario.mode -> seed:int -> scorecard
(** The full matrix: both baselines plus every attack with defenses off
    and on (10 runs). *)

val scorecard_lines : scorecard -> string list
(** Human-readable per-attack degradation table (the chaos scorecard). *)

val attack_series :
  id:string -> attack:attack -> mode:Scenario.mode -> seed:int -> Series.t list
(** The rob04–rob06 experiment body: one attack, defenses off vs on. *)
