//! # gmip-prop
//!
//! GPU domain propagation and the batched fix-and-propagate primal
//! heuristic — the two remaining "recast B&B work as wide, regular device
//! kernels" items of the reproduction's roadmap.
//!
//! **Propagation.** Iterated activity-based bound tightening is a pure
//! nnz-proportional sparse kernel (Sofranac et al., "Accelerating Domain
//! Propagation over Sparse Matrices"): per row, min/max activities under
//! the current box; per coefficient, a residual-activity candidate bound
//! with integral rounding; per round, a reduction deciding fixpoint or
//! infeasibility. [`Propagator::propagate`] runs that loop to fixpoint on
//! the host (the exact, deterministic reference), and [`charge_wave`]
//! charges the matching fused batched launches — `prop.activity` /
//! `prop.tighten` / `prop.reduce`, one trio per lockstep round across
//! every lane of a wave superstep — against the shared device-resident
//! CSR matrix, exactly like the `wave.*` / `fo.*` kernel classes.
//!
//! **Soundness.** Every tightening is the classic optimality-preserving
//! activity argument (the same formulas as gmip-core's root presolve):
//! a candidate bound is only applied when *every* feasible point of the
//! node's box satisfies it, so no integer-feasible point — in particular
//! no optimum — is ever cut off. Integral rounding uses floor/ceil with a
//! 1e-9 tolerance so a bound sitting exactly on an integer is never
//! rounded past it. Bounds are monotone non-widening; the loop terminates
//! on the first zero-tightening round.
//!
//! **Fix-and-propagate.** The diving heuristic of Çördük et al.
//! ("GPU-Accelerated Primal Heuristics for MIP") evaluated lane-parallel:
//! round the most fractional LP value, fix it, propagate; on a
//! contradiction repair with the opposite rounding; abort when both
//! roundings fail. Every surviving candidate is re-checked against the
//! instance (`is_integer_feasible`) before it is ever offered as an
//! incumbent — the heuristic can only ever *add* feasible points.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use gmip_gpu::{Accel, DEFAULT_STREAM};
use gmip_lp::BoundChange;
use gmip_problems::{Constraint, MipInstance, Sense};
use gmip_trace::names;

/// Numeric tolerance of the activity arithmetic (matches root presolve).
const TOL: f64 = 1e-9;

/// Outcome of one propagation-to-fixpoint call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropOutcome {
    /// The box propagated to a contradiction: the node is infeasible and
    /// no LP work needs to be spent on it.
    pub infeasible: bool,
    /// Rounds executed, including the final zero-tightening round that
    /// proves the fixpoint (the device has to run it to observe "no
    /// change").
    pub rounds: usize,
    /// Strict bound tightenings applied.
    pub tightenings: usize,
}

/// Outcome of one fix-and-propagate dive.
#[derive(Debug, Clone)]
pub struct FixPropOutcome {
    /// A feasible `(source-sense objective, point)` candidate, re-checked
    /// with [`MipInstance::is_integer_feasible`] — `None` when the dive
    /// aborted.
    pub candidate: Option<(f64, Vec<f64>)>,
    /// Total propagation rounds spent across all fixings (device-charge
    /// input).
    pub rounds: usize,
    /// Fixings repaired by taking the opposite rounding.
    pub repairs: usize,
    /// The dive hit an integer infeasibility (both roundings propagate to
    /// a contradiction) or the final point failed the exact feasibility
    /// re-check.
    pub aborted: bool,
}

/// What one [`Propagator::propagate_round`] sweep concluded for a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundStep {
    /// The sweep hit a contradiction; the lane's box is infeasible.
    Infeasible,
    /// A zero-tightening sweep: the lane reached its fixpoint.
    Fixpoint,
    /// At least one bound moved; the lane stays in the next round.
    Tightened,
}

/// Per-lane mutable state of a lockstep propagation wave, built once per
/// [`Propagator::propagate_wave`] call: one dispatch item per lane.
#[derive(Debug)]
struct RoundCell<'a> {
    bx: &'a mut (Vec<f64>, Vec<f64>),
    out: &'a mut PropOutcome,
    /// The lane's fixpoint or contradiction landed: later rounds skip it.
    done: bool,
}

/// One lane's starting point for a [`Propagator::dive_wave`] dispatch.
#[derive(Debug, Clone, Copy)]
pub struct DiveSeed<'a> {
    /// The fractional point to round from (typically the node LP relaxation
    /// solution).
    pub x0: &'a [f64],
    /// The lane's lower bounds.
    pub lb0: &'a [f64],
    /// The lane's upper bounds.
    pub ub0: &'a [f64],
}

/// Activity-based bound propagation over an instance's rows, reusable
/// across every node of a search (the matrix is immutable; only the box
/// changes per node).
#[derive(Debug, Clone)]
pub struct Propagator {
    instance: MipInstance,
    integral: Vec<bool>,
    nnz: usize,
}

impl Propagator {
    /// Builds a propagator over `instance`'s constraint rows.
    pub fn new(instance: &MipInstance) -> Self {
        let integral = instance.vars.iter().map(|v| v.ty.is_integral()).collect();
        let nnz = instance.cons.iter().map(|c| c.coeffs.len()).sum();
        Self {
            instance: instance.clone(),
            integral,
            nnz,
        }
    }

    /// Structural nonzeros of the constraint matrix (device-charge input).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.instance.num_vars()
    }

    /// The node's box: instance bounds overridden by the node's cumulative
    /// bound changes.
    pub fn node_box(&self, bounds: &[BoundChange]) -> (Vec<f64>, Vec<f64>) {
        let mut lb: Vec<f64> = self.instance.vars.iter().map(|v| v.lb).collect();
        let mut ub: Vec<f64> = self.instance.vars.iter().map(|v| v.ub).collect();
        for bc in bounds {
            lb[bc.var] = bc.lb;
            ub[bc.var] = bc.ub;
        }
        (lb, ub)
    }

    /// Renders a (tightened) box as a cumulative bound-change list against
    /// the instance box — the payload shape every LP backend already
    /// accepts via `apply_node_bounds`.
    pub fn bound_changes(&self, lb: &[f64], ub: &[f64]) -> Vec<BoundChange> {
        let mut out = Vec::new();
        for (j, v) in self.instance.vars.iter().enumerate() {
            if lb[j] != v.lb || ub[j] != v.ub {
                out.push(BoundChange {
                    var: j,
                    lb: lb[j],
                    ub: ub[j],
                });
            }
        }
        out
    }

    /// Iterated activity-based bound propagation of `lb`/`ub` to fixpoint
    /// (or `max_rounds`). Bounds only ever tighten — monotone
    /// non-widening — and integral bounds are rounded inward with a 1e-9
    /// tolerance, so every reduction is optimality-preserving.
    pub fn propagate(&self, lb: &mut [f64], ub: &mut [f64], max_rounds: usize) -> PropOutcome {
        let mut rounds = 0usize;
        let mut tightenings = 0usize;
        for _ in 0..max_rounds {
            rounds += 1;
            match self.propagate_round(lb, ub, &mut tightenings) {
                RoundStep::Infeasible => {
                    return PropOutcome {
                        infeasible: true,
                        rounds,
                        tightenings,
                    }
                }
                RoundStep::Fixpoint => break,
                RoundStep::Tightened => {}
            }
        }
        PropOutcome {
            infeasible: false,
            rounds,
            tightenings,
        }
    }

    /// One full activity/tighten sweep over every constraint — the unit a
    /// lockstep wave round dispatches per lane. Tightened bounds feed the
    /// activities of later rows *within* the sweep (that interleaving is
    /// part of the deterministic reference semantics, which is why the
    /// wave parallelizes across lanes per round, never across the kernel
    /// phases inside one lane's round). Returns early on a contradiction,
    /// keeping the partial tightenings applied.
    fn propagate_round(
        &self,
        lb: &mut [f64],
        ub: &mut [f64],
        tightenings: &mut usize,
    ) -> RoundStep {
        let mut changed = false;
        for con in &self.instance.cons {
            let act = activity(&con.coeffs, lb, ub);
            match tighten_row(con, &self.integral, act, lb, ub, tightenings) {
                None => return RoundStep::Infeasible,
                Some(moved) => changed |= moved,
            }
        }
        if changed {
            RoundStep::Tightened
        } else {
            RoundStep::Fixpoint
        }
    }

    /// Lockstep propagation of a whole wave of boxes through the
    /// accelerator's **executing** backend: per round, one
    /// [`Accel::dispatch`] runs one propagation round for every
    /// still-iterating lane (a lane whose fixpoint or contradiction landed
    /// is skipped inside its item), then [`charge_wave`] charges the
    /// matching `prop.activity` / `prop.tighten` / `prop.reduce` kernel
    /// trios — exactly the charges the per-lane
    /// [`Self::propagate`]-then-[`charge_wave`] pattern produced, with
    /// bit-identical boxes and outcomes. The lane items are built once per
    /// call, so a round allocates nothing.
    pub fn propagate_wave(
        &self,
        accel: &Accel,
        boxes: &mut [(Vec<f64>, Vec<f64>)],
        max_rounds: usize,
    ) -> Vec<PropOutcome> {
        let width = boxes.len();
        let mut outs = vec![
            PropOutcome {
                infeasible: false,
                rounds: 0,
                tightenings: 0,
            };
            width
        ];
        if width == 0 || max_rounds == 0 {
            return outs;
        }
        let mut cells: Vec<RoundCell<'_>> = boxes
            .iter_mut()
            .zip(outs.iter_mut())
            .map(|(bx, out)| RoundCell {
                bx,
                out,
                done: false,
            })
            .collect();
        for _ in 0..max_rounds {
            if cells.iter().all(|cell| cell.done) {
                break;
            }
            // Execution only — the simulated trios are charged once below
            // through `charge_wave`, the single pinned charging path.
            accel.dispatch(
                "prop.round",
                &mut cells,
                |_, cell| {
                    if cell.done {
                        return;
                    }
                    cell.out.rounds += 1;
                    let (lb, ub) = &mut *cell.bx;
                    match self.propagate_round(lb, ub, &mut cell.out.tightenings) {
                        RoundStep::Infeasible => {
                            cell.out.infeasible = true;
                            cell.done = true;
                        }
                        RoundStep::Fixpoint => cell.done = true,
                        RoundStep::Tightened => {}
                    }
                },
                &[],
                DEFAULT_STREAM,
            );
        }
        let rounds: Vec<usize> = outs.iter().map(|o| o.rounds).collect();
        charge_wave(accel, self.nnz, self.num_vars(), &rounds);
        outs
    }

    /// Lane-parallel fix-and-propagate dives through the accelerator's
    /// executing backend: one `heur.dive` [`Accel::dispatch`] runs
    /// [`Self::fix_and_propagate`] per seed, its outcome the lane's item.
    /// Dives are charge-free here — callers keep charging [`charge_wave`]
    /// with the returned rounds, as they did around the sequential loop.
    pub fn dive_wave(
        &self,
        accel: &Accel,
        seeds: &[DiveSeed<'_>],
        int_tol: f64,
        max_rounds: usize,
    ) -> Vec<FixPropOutcome> {
        if seeds.is_empty() {
            return Vec::new();
        }
        let mut outs: Vec<FixPropOutcome> = seeds
            .iter()
            .map(|_| FixPropOutcome {
                candidate: None,
                rounds: 0,
                repairs: 0,
                aborted: false,
            })
            .collect();
        accel.dispatch(
            "heur.dive",
            &mut outs,
            |i, out| {
                let s = &seeds[i];
                *out = self.fix_and_propagate(s.x0, s.lb0, s.ub0, int_tol, max_rounds);
            },
            &[],
            DEFAULT_STREAM,
        );
        outs
    }

    /// Fix-and-propagate dive from LP point `x0` inside box `lb0`/`ub0`:
    /// round the most fractional integral variable, fix it, propagate; on
    /// a contradiction repair with the opposite rounding; abort when both
    /// roundings fail. The surviving point is re-checked exactly before it
    /// becomes a candidate.
    pub fn fix_and_propagate(
        &self,
        x0: &[f64],
        lb0: &[f64],
        ub0: &[f64],
        int_tol: f64,
        max_rounds: usize,
    ) -> FixPropOutcome {
        let mut lb = lb0.to_vec();
        let mut ub = ub0.to_vec();
        let mut x: Vec<f64> = x0
            .iter()
            .enumerate()
            .map(|(j, &v)| v.clamp(lb[j], ub[j]))
            .collect();
        let mut rounds = 0usize;
        let mut repairs = 0usize;
        let ints: Vec<usize> = (0..x.len()).filter(|&j| self.integral[j]).collect();

        for _ in 0..=ints.len() {
            // Most fractional still-free integral variable (ties to the
            // smallest index — deterministic).
            let next = ints
                .iter()
                .copied()
                .filter(|&j| ub[j] - lb[j] > int_tol)
                .filter(|&j| (x[j] - x[j].round()).abs() > int_tol)
                .max_by(|&a, &b| {
                    let fa = (x[a] - x[a].round()).abs();
                    let fb = (x[b] - x[b].round()).abs();
                    fa.partial_cmp(&fb)
                        .expect("fractionality is never NaN")
                        .then(b.cmp(&a))
                });
            let Some(j) = next else { break };
            let primary = x[j].round().clamp(lb[j], ub[j]);
            let mut trial_lb = lb.clone();
            let mut trial_ub = ub.clone();
            trial_lb[j] = primary;
            trial_ub[j] = primary;
            let out = self.propagate(&mut trial_lb, &mut trial_ub, max_rounds);
            rounds += out.rounds;
            if out.infeasible {
                // Repair: the opposite rounding (ceil if we floored and
                // vice versa), if it is distinct and inside the box.
                let alt = if primary >= x[j] {
                    x[j].floor()
                } else {
                    x[j].ceil()
                };
                if (alt - primary).abs() < 0.5 || alt < lb[j] - TOL || alt > ub[j] + TOL {
                    return FixPropOutcome {
                        candidate: None,
                        rounds,
                        repairs,
                        aborted: true,
                    };
                }
                let mut alt_lb = lb.clone();
                let mut alt_ub = ub.clone();
                alt_lb[j] = alt;
                alt_ub[j] = alt;
                let alt_out = self.propagate(&mut alt_lb, &mut alt_ub, max_rounds);
                rounds += alt_out.rounds;
                if alt_out.infeasible {
                    return FixPropOutcome {
                        candidate: None,
                        rounds,
                        repairs,
                        aborted: true,
                    };
                }
                repairs += 1;
                lb = alt_lb;
                ub = alt_ub;
            } else {
                lb = trial_lb;
                ub = trial_ub;
            }
            for (k, v) in x.iter_mut().enumerate() {
                *v = v.clamp(lb[k], ub[k]);
            }
        }

        // Snap integral values and re-check exactly against the instance —
        // the only gate through which a candidate may leave.
        let mut p = x;
        for &j in &ints {
            p[j] = p[j].round().clamp(lb[j], ub[j]);
        }
        if self.instance.is_integer_feasible(&p, 1e-6) {
            let obj = self.instance.objective_value(&p);
            FixPropOutcome {
                candidate: Some((obj, p)),
                rounds,
                repairs,
                aborted: false,
            }
        } else {
            FixPropOutcome {
                candidate: None,
                rounds,
                repairs,
                aborted: true,
            }
        }
    }
}

/// One row of a propagation sweep, given its activity bounds `(min, max)`
/// under the box: the feasibility check, then the residual-activity
/// tightening of every variable in the row with integral bounds rounded
/// inward — the `prop.tighten` kernel's per-row work, shared with
/// gmip-core's root presolve. `None` on a contradiction (partial tightenings
/// stay applied), else whether a bound moved; every strict tightening bumps
/// `tightenings`.
#[inline]
pub fn tighten_row(
    con: &Constraint,
    integral: &[bool],
    (min_act, max_act): (f64, f64),
    lb: &mut [f64],
    ub: &mut [f64],
    tightenings: &mut usize,
) -> Option<bool> {
    // For ≤ rows (and the ≤ side of =): a_j > 0 caps x_j from above,
    // a_j < 0 from below; for ≥ rows, symmetric with the max activity.
    let le_side = con.sense != Sense::Ge;
    let ge_side = con.sense != Sense::Le;
    if (le_side && min_act > con.rhs + TOL) || (ge_side && max_act < con.rhs - TOL) {
        return None;
    }
    let mut changed = false;
    for &(j, a) in &con.coeffs {
        if a.abs() < TOL {
            continue;
        }
        if le_side && min_act.is_finite() {
            if a > 0.0 {
                let rest = min_act - a * lb[j];
                let mut cand = (con.rhs - rest) / a;
                if integral[j] {
                    cand = (cand + TOL).floor();
                }
                if cand < ub[j] - TOL {
                    ub[j] = cand;
                    *tightenings += 1;
                    changed = true;
                }
            } else {
                let rest = min_act - a * ub[j];
                let mut cand = (con.rhs - rest) / a;
                if integral[j] {
                    cand = (cand - TOL).ceil();
                }
                if cand > lb[j] + TOL {
                    lb[j] = cand;
                    *tightenings += 1;
                    changed = true;
                }
            }
        }
        if ge_side && max_act.is_finite() {
            if a > 0.0 {
                let rest = max_act - a * ub[j];
                let mut cand = (con.rhs - rest) / a;
                if integral[j] {
                    cand = (cand - TOL).ceil();
                }
                if cand > lb[j] + TOL {
                    lb[j] = cand;
                    *tightenings += 1;
                    changed = true;
                }
            } else {
                let rest = max_act - a * lb[j];
                let mut cand = (con.rhs - rest) / a;
                if integral[j] {
                    cand = (cand + TOL).floor();
                }
                if cand < ub[j] - TOL {
                    ub[j] = cand;
                    *tightenings += 1;
                    changed = true;
                }
            }
        }
        if lb[j] > ub[j] + 1e-7 {
            return None;
        }
    }
    Some(changed)
}

/// Row activity bounds under the current box (worst-case per coefficient
/// sign — the `prop.activity` kernel's per-row work).
pub fn activity(coeffs: &[(usize, f64)], lb: &[f64], ub: &[f64]) -> (f64, f64) {
    let mut min = 0.0;
    let mut max = 0.0;
    for &(j, a) in coeffs {
        if a > 0.0 {
            min += a * lb[j];
            max += a * ub[j];
        } else {
            min += a * ub[j];
            max += a * lb[j];
        }
    }
    (min, max)
}

/// Charges the fused batched launches of `rounds_per_lane` lockstep
/// propagation rounds on `accel`: per round, one `prop.activity` and one
/// `prop.tighten` launch at sparse throughput (cost ∝ nnz, the shared CSR
/// matrix) plus one `prop.reduce` launch over the variable vector — the
/// same launch shape as the `fo.*` kernel classes. Lanes drop out of later
/// rounds as their fixpoints land (the batch narrows, like retiring wave
/// lanes). Returns the total charged ns.
pub fn charge_wave(accel: &Accel, nnz: usize, num_vars: usize, rounds_per_lane: &[usize]) -> f64 {
    let max_rounds = rounds_per_lane.iter().copied().max().unwrap_or(0);
    if max_rounds == 0 {
        // Fast path: an empty wave (or one whose every lane did zero
        // rounds) charges nothing — no device lock, no allocation, no
        // launches. Hot on propagation-free strategies that still call in.
        return 0.0;
    }
    // Every lane of a round carries the identical pre-reduced cost pair;
    // round r's batch is the lanes with k > r rounds, a count that only
    // shrinks as fixpoints land.
    let (nnz, num_vars) = (nnz as f64, num_vars as f64);
    let trio = [
        (names::PROP_KERNEL_ACTIVITY, (2.0 * nnz, 12.0 * nnz), true),
        (names::PROP_KERNEL_TIGHTEN, (4.0 * nnz, 16.0 * nnz), true),
        (
            names::PROP_KERNEL_REDUCE,
            (num_vars, 16.0 * num_vars),
            false,
        ),
    ];
    let mut total = 0.0;
    accel.with(|d| {
        for r in 0..max_rounds {
            let active = rounds_per_lane.iter().filter(|&&k| k > r).count();
            for (name, per_lane, sparse) in trio {
                let per_lane = std::iter::repeat_n(per_lane, active);
                total += d.batched_wave_kernel(name, per_lane, sparse, DEFAULT_STREAM);
            }
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::infeasible_instance;
    use gmip_problems::generators::knapsack::knapsack;
    use gmip_problems::{Constraint, Objective, Variable};

    fn two_binary(con: Constraint) -> MipInstance {
        let mut m = MipInstance::new("prop-test", Objective::Maximize);
        m.add_var(Variable::binary("x", 1.0));
        m.add_var(Variable::binary("y", 1.0));
        m.add_con(con);
        m
    }

    #[test]
    fn known_infeasible_detected_within_k_rounds() {
        let m = infeasible_instance();
        let p = Propagator::new(&m);
        let (mut lb, mut ub) = p.node_box(&[]);
        let out = p.propagate(&mut lb, &mut ub, 8);
        assert!(out.infeasible, "catalog infeasible instance must be caught");
        assert!(out.rounds <= 3, "needed {} rounds", out.rounds);
    }

    #[test]
    fn branch_box_infeasibility_detected() {
        // x + y ≤ 1 with both forced to 1 by branch bounds.
        let m = two_binary(Constraint::new(
            "cap",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Le,
            1.0,
        ));
        let p = Propagator::new(&m);
        let (mut lb, mut ub) = p.node_box(&[
            BoundChange {
                var: 0,
                lb: 1.0,
                ub: 1.0,
            },
            BoundChange {
                var: 1,
                lb: 1.0,
                ub: 1.0,
            },
        ]);
        let out = p.propagate(&mut lb, &mut ub, 8);
        assert!(out.infeasible);
        assert_eq!(out.rounds, 1, "one activity sweep suffices");
    }

    #[test]
    fn bounds_are_monotone_and_idempotent() {
        let m = knapsack(14, 0.5, 3);
        let p = Propagator::new(&m);
        let (lb0, ub0) = p.node_box(&[]);
        let (mut lb, mut ub) = (lb0.clone(), ub0.clone());
        let out = p.propagate(&mut lb, &mut ub, 8);
        assert!(!out.infeasible);
        for j in 0..lb.len() {
            assert!(lb[j] >= lb0[j], "lb widened at {j}");
            assert!(ub[j] <= ub0[j], "ub widened at {j}");
            assert!(lb[j] <= ub[j] + 1e-9, "box crossed at {j}");
        }
        // A second pass from the fixpoint terminates after one
        // zero-tightening round and changes nothing.
        let (snap_lb, snap_ub) = (lb.clone(), ub.clone());
        let again = p.propagate(&mut lb, &mut ub, 8);
        assert!(!again.infeasible);
        assert_eq!(again.rounds, 1, "fixpoint must terminate in one round");
        assert_eq!(again.tightenings, 0);
        assert_eq!(lb, snap_lb);
        assert_eq!(ub, snap_ub);
    }

    #[test]
    fn zero_tightening_round_terminates_early() {
        // A redundant row tightens nothing: exactly one round runs even
        // with a large round budget.
        let m = two_binary(Constraint::new(
            "loose",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Le,
            5.0,
        ));
        let p = Propagator::new(&m);
        let (mut lb, mut ub) = p.node_box(&[]);
        let out = p.propagate(&mut lb, &mut ub, 100);
        assert!(!out.infeasible);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.tightenings, 0);
    }

    #[test]
    fn propagation_fixes_forced_binaries() {
        // 3x + y ≤ 2 forces x = 0.
        let m = two_binary(Constraint::new(
            "c",
            vec![(0, 3.0), (1, 1.0)],
            Sense::Le,
            2.0,
        ));
        let p = Propagator::new(&m);
        let (mut lb, mut ub) = p.node_box(&[]);
        let out = p.propagate(&mut lb, &mut ub, 8);
        assert!(!out.infeasible);
        assert_eq!(ub[0], 0.0);
        assert!(out.tightenings >= 1);
        let changes = p.bound_changes(&lb, &ub);
        assert!(changes.iter().any(|bc| bc.var == 0 && bc.ub == 0.0));
    }

    #[test]
    fn fix_and_propagate_aborts_on_integer_infeasibility() {
        // 2x + 2y = 1 has no integer solution: the dive must try the
        // fractional seed's rounding, fail, repair, fail again, and abort.
        let m = two_binary(Constraint::new(
            "odd",
            vec![(0, 2.0), (1, 2.0)],
            Sense::Eq,
            1.0,
        ));
        let p = Propagator::new(&m);
        let (lb, ub) = p.node_box(&[]);
        let out = p.fix_and_propagate(&[0.25, 0.25], &lb, &ub, 1e-6, 8);
        assert!(out.aborted, "no integer point exists");
        assert!(out.candidate.is_none());
        assert!(out.rounds >= 2, "both roundings must have been propagated");
    }

    #[test]
    fn fix_and_propagate_repairs_covering_rows() {
        // x + y ≥ 1: the near-zero seed rounds both down, which a ≥ row
        // rejects; the repair path rounds one up and lands feasible.
        let m = two_binary(Constraint::new(
            "cover",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Ge,
            1.0,
        ));
        let p = Propagator::new(&m);
        let (lb, ub) = p.node_box(&[]);
        let out = p.fix_and_propagate(&[0.4, 0.3], &lb, &ub, 1e-6, 8);
        let (obj, x) = out.candidate.expect("repairable cover must succeed");
        assert!(m.is_integer_feasible(&x, 1e-9));
        assert!(obj >= 1.0 - 1e-9);
        assert!(!out.aborted);
    }

    #[test]
    fn fix_and_propagate_candidates_are_exactly_feasible() {
        for seed in [1u64, 2, 9] {
            let m = knapsack(16, 0.5, seed);
            let p = Propagator::new(&m);
            let (lb, ub) = p.node_box(&[]);
            // A deliberately fractional seed point.
            let x: Vec<f64> = (0..m.num_vars())
                .map(|j| 0.3 + 0.4 * ((j * 7 + seed as usize) % 10) as f64 / 10.0)
                .collect();
            let out = p.fix_and_propagate(&x, &lb, &ub, 1e-6, 8);
            if let Some((obj, cand)) = out.candidate {
                assert!(m.is_integer_feasible(&cand, 1e-9), "seed {seed}");
                assert!((m.objective_value(&cand) - obj).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn charge_wave_issues_one_kernel_trio_per_round() {
        let accel = Accel::gpu(1);
        let ns = charge_wave(&accel, 100, 20, &[3, 1, 2]);
        assert!(ns > 0.0);
        let launches = accel.with(|d| d.metrics().counter(names::GPU_KERNEL_LAUNCHES));
        // max rounds = 3 → 3 trios = 9 fused launches, regardless of width.
        assert_eq!(launches, 9.0);
        assert_eq!(charge_wave(&accel, 100, 20, &[]), 0.0);
        assert_eq!(charge_wave(&accel, 100, 20, &[0, 0]), 0.0);
    }

    #[test]
    fn charge_wave_zero_rounds_fast_path_is_free() {
        // Empty and all-zero waves short-circuit before touching the
        // device: no simulated time, no launches, no trace events.
        let accel = Accel::gpu(1);
        assert_eq!(charge_wave(&accel, 1_000_000, 500, &[]), 0.0);
        assert_eq!(charge_wave(&accel, 1_000_000, 500, &[0, 0, 0]), 0.0);
        assert_eq!(accel.elapsed_ns(), 0.0);
        assert_eq!(
            accel.with(|d| d.metrics().counter(names::GPU_KERNEL_LAUNCHES)),
            0.0
        );
    }

    /// A small knapsack plus per-lane branch boxes that force different
    /// round counts (including an immediately-contradictory lane).
    fn wave_fixture() -> (Propagator, Vec<(Vec<f64>, Vec<f64>)>) {
        let m = knapsack(12, 0.4, 7);
        let p = Propagator::new(&m);
        let mut boxes = Vec::new();
        boxes.push(p.node_box(&[]));
        for var in 0..4 {
            boxes.push(p.node_box(&[BoundChange {
                var,
                lb: 1.0,
                ub: 1.0,
            }]));
        }
        // A box that is already crossed: lb > ub on variable 0.
        let (mut lb, mut ub) = p.node_box(&[]);
        lb[0] = 1.0;
        ub[0] = 0.0;
        boxes.push((lb, ub));
        (p, boxes)
    }

    #[test]
    fn propagate_wave_is_bit_identical_to_sequential_propagate() {
        use gmip_gpu::BackendKind;
        let (p, reference_boxes) = wave_fixture();
        // Reference: per-lane host propagation + one explicit charge_wave,
        // the pattern the wave entry point replaces.
        let ref_accel = Accel::gpu(1);
        let mut ref_boxes = reference_boxes.clone();
        let mut ref_outs = Vec::new();
        for (lb, ub) in ref_boxes.iter_mut() {
            ref_outs.push(p.propagate(lb, ub, 8));
        }
        let rounds: Vec<usize> = ref_outs.iter().map(|o| o.rounds).collect();
        charge_wave(&ref_accel, p.nnz(), p.num_vars(), &rounds);
        for backend in [
            BackendKind::Sim,
            BackendKind::Native { threads: 1 },
            BackendKind::Native { threads: 2 },
            BackendKind::Native { threads: 4 },
        ] {
            let accel = Accel::gpu(1).with_backend(backend);
            let mut boxes = reference_boxes.clone();
            let outs = p.propagate_wave(&accel, &mut boxes, 8);
            assert_eq!(outs, ref_outs, "{}", backend.label());
            for (got, want) in boxes.iter().zip(ref_boxes.iter()) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.0), bits(&want.0), "{}", backend.label());
                assert_eq!(bits(&got.1), bits(&want.1), "{}", backend.label());
            }
            // Identical simulated ledger: same elapsed time, same launches.
            assert_eq!(
                accel.elapsed_ns().to_bits(),
                ref_accel.elapsed_ns().to_bits(),
                "{}",
                backend.label()
            );
            assert_eq!(
                accel.with(|d| d.metrics().counter(names::GPU_KERNEL_LAUNCHES)),
                ref_accel.with(|d| d.metrics().counter(names::GPU_KERNEL_LAUNCHES)),
                "{}",
                backend.label()
            );
        }
    }

    #[test]
    fn propagate_wave_empty_inputs_charge_nothing() {
        let (p, mut boxes) = wave_fixture();
        let accel = Accel::gpu(1);
        assert!(p.propagate_wave(&accel, &mut [], 8).is_empty());
        let outs = p.propagate_wave(&accel, &mut boxes, 0);
        assert!(outs.iter().all(|o| o.rounds == 0 && !o.infeasible));
        assert_eq!(accel.elapsed_ns(), 0.0);
    }

    #[test]
    fn dive_wave_matches_sequential_dives_on_all_backends() {
        use gmip_gpu::BackendKind;
        let m = knapsack(16, 0.5, 3);
        let p = Propagator::new(&m);
        let (lb, ub) = p.node_box(&[]);
        let points: Vec<Vec<f64>> = (0..6)
            .map(|lane| {
                (0..m.num_vars())
                    .map(|j| 0.2 + 0.6 * ((j * 5 + lane) % 10) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let reference: Vec<FixPropOutcome> = points
            .iter()
            .map(|x| p.fix_and_propagate(x, &lb, &ub, 1e-6, 8))
            .collect();
        for backend in [
            BackendKind::Sim,
            BackendKind::Native { threads: 1 },
            BackendKind::Native { threads: 3 },
        ] {
            let accel = Accel::gpu(1).with_backend(backend);
            let seeds: Vec<DiveSeed<'_>> = points
                .iter()
                .map(|x| DiveSeed {
                    x0: x,
                    lb0: &lb,
                    ub0: &ub,
                })
                .collect();
            let outs = p.dive_wave(&accel, &seeds, 1e-6, 8);
            assert_eq!(outs.len(), reference.len());
            for (got, want) in outs.iter().zip(reference.iter()) {
                assert_eq!(got.rounds, want.rounds, "{}", backend.label());
                assert_eq!(got.repairs, want.repairs, "{}", backend.label());
                assert_eq!(got.aborted, want.aborted, "{}", backend.label());
                match (&got.candidate, &want.candidate) {
                    (Some((go, gx)), Some((wo, wx))) => {
                        assert_eq!(go.to_bits(), wo.to_bits(), "{}", backend.label());
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(gx), bits(wx), "{}", backend.label());
                    }
                    (None, None) => {}
                    _ => panic!("candidate mismatch under {}", backend.label()),
                }
            }
            // Dives are charge-free; callers own the charge_wave call.
            assert_eq!(accel.elapsed_ns(), 0.0, "{}", backend.label());
        }
    }
}
