//! The selection rules and updates of a bounded-variable revised simplex
//! iteration, as pure slice functions: the host engine of `gmip-lp` runs
//! them on its vectors, the device kernels of `gmip-gpu` on resident ones.
//! What a rule decides, ties included, is documented here and nowhere else.
//!
//! `σ_j` is column `j`'s status weight: −1 at its lower bound, +1 at its
//! upper, 0 when basic or fixed (never eligible). A reduced cost is a
//! `d: impl Fn(usize) -> f64`, read only where a rule looks. A rule reads
//! its slices over their common length, never past it.

use crate::{LinalgError, Result};

/// Bounded primal ratio test on FTRAN column `alpha` for an entering
/// variable moving in direction `dir` (±1). With `α_eff = dir · α`, the
/// smallest step `t ≥ 0` at which a basic variable hits a bound: row `i`
/// falls to `l_B[i]` at `t = (x_B[i] − l_B[i]) / α_eff[i]` if
/// `α_eff[i] > tol`, rises to `u_B[i]` at `t = (x_B[i] − u_B[i]) / α_eff[i]`
/// if `α_eff[i] < −tol`; an infinite bound never blocks. A negative ratio (a
/// degenerate row past its bound) is clamped to 0. Ties: a later row wins
/// only with a step smaller by more than `1e-12`, so the lowest row wins
/// among steps within `1e-12`. Returns `(row, t, leaves_at_upper)`, or
/// `None` when no row blocks.
pub fn ratio_test(
    xb: &[f64],
    alpha: &[f64],
    lbb: &[f64],
    ubb: &[f64],
    dir: f64,
    tol: f64,
) -> Option<(usize, f64, bool)> {
    let mut best: Option<(usize, f64, bool)> = None;
    let rows = xb.iter().zip(alpha).zip(lbb.iter().zip(ubb));
    for (i, ((&x, &a), (&lb, &ub))) in rows.enumerate() {
        let ae = dir * a;
        let (t, upper) = if ae > tol {
            if lb.is_infinite() {
                continue;
            }
            (((x - lb) / ae).max(0.0), false)
        } else if ae < -tol {
            if ub.is_infinite() {
                continue;
            }
            (((x - ub) / ae).max(0.0), true)
        } else {
            continue;
        };
        if best.is_none_or(|(_, bt, _)| t < bt - 1e-12) {
            best = Some((i, t, upper));
        }
    }
    best
}

/// The dual simplex's leaving row: the largest violation of `[l_B, u_B]` by
/// `x_B` beyond `tol`, ties keeping the lowest row. Returns `(row,
/// violation, below_lower)`, or `None` when `x_B` is feasible.
pub fn primal_infeasibility(
    xb: &[f64],
    lbb: &[f64],
    ubb: &[f64],
    tol: f64,
) -> Option<(usize, f64, bool)> {
    let mut best: Option<(usize, f64, bool)> = None;
    for (i, ((&x, &lb), &ub)) in xb.iter().zip(lbb).zip(ubb).enumerate() {
        let (viol, below) = if x < lb - tol {
            (lb - x, true)
        } else if x > ub + tol {
            (x - ub, false)
        } else {
            continue;
        };
        if best.is_none_or(|(_, bv, _)| viol > bv) {
            best = Some((i, viol, below));
        }
    }
    best
}

/// Dual ratio test on BTRAN row `alpha_r` of a leaving row whose basic
/// variable violates its lower bound (`leaving_below`) or its upper one.
/// Eligible entering columns:
///
/// | `σ_j` | leaving below | leaving above |
/// |---|---|---|
/// | −1 (at lower) | `α_r[j] < −tol` | `α_r[j] > tol` |
/// | +1 (at upper) | `α_r[j] > tol` | `α_r[j] < −tol` |
/// | 0 | never | never |
///
/// Minimizes `|d_j / α_r[j]|` over them; ties as in [`ratio_test`].
/// Returns `(column, |ratio|)`, or `None` when no column is eligible (the
/// LP is infeasible).
pub fn dual_ratio(
    d: impl Fn(usize) -> f64,
    alpha_r: &[f64],
    sigma: &[f64],
    leaving_below: bool,
    tol: f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (j, (&ar, &s)) in alpha_r.iter().zip(sigma).enumerate() {
        let eligible = match (s, leaving_below) {
            (s, true) if s < 0.0 => ar < -tol,
            (s, true) if s > 0.0 => ar > tol,
            (s, false) if s < 0.0 => ar > tol,
            (s, false) if s > 0.0 => ar < -tol,
            _ => false,
        };
        if !eligible {
            continue;
        }
        let ratio = (d(j) / ar).abs();
        if best.is_none_or(|(_, br)| ratio < br - 1e-12) {
            best = Some((j, ratio));
        }
    }
    best
}

/// Devex pricing: among improving columns (`σ_j·d_j < 0`), maximizes the
/// merit `d_j² / max(γ_j, 1e-12)`, ties keeping the lowest column. Returns
/// `(column, σ_j·d_j)` — the score the caller's optimality threshold reads —
/// or `None` when no column improves.
pub fn devex_price(d: impl Fn(usize) -> f64, sigma: &[f64], gamma: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (j, merit, σ·d)
    for (j, (&s, &g)) in sigma.iter().zip(gamma).enumerate() {
        if s == 0.0 {
            continue;
        }
        let dj = d(j);
        let sd = s * dj;
        if sd >= 0.0 {
            continue;
        }
        let merit = dj * dj / g.max(1e-12);
        if best.is_none_or(|(_, bm, _)| merit > bm) {
            best = Some((j, merit, sd));
        }
    }
    best.map(|(j, _, sd)| (j, sd))
}

/// Devex reference-weight update for entering column `q` and leaving column
/// `leaving`, from the leaving row's BTRAN row of the old basis: with
/// `α_rq = α_r[q]`, every `γ_j ← max(γ_j, (α_r[j]/α_rq)²·γ_q)`, then
/// `γ[leaving] = max(γ_q/α_rq², 1)`. An index out of range is
/// [`LinalgError::OutOfBounds`], `|α_rq| < 1e-12` [`LinalgError::Singular`];
/// either way `gamma` is untouched.
pub fn devex_update(gamma: &mut [f64], alpha_r: &[f64], q: usize, leaving: usize) -> Result<()> {
    let bound = gamma.len().min(alpha_r.len());
    for index in [q, leaving] {
        if index >= bound {
            return Err(LinalgError::OutOfBounds { index, bound });
        }
    }
    let (alpha_rq, gamma_q) = (alpha_r[q], gamma[q]);
    if alpha_rq.abs() < 1e-12 {
        return Err(LinalgError::Singular { column: q });
    }
    for (gj, arj) in gamma.iter_mut().zip(alpha_r) {
        let ratio = arj / alpha_rq;
        let cand = ratio * ratio * gamma_q;
        if cand > *gj {
            *gj = cand;
        }
    }
    gamma[leaving] = (gamma_q / (alpha_rq * alpha_rq)).max(1.0);
    Ok(())
}

/// The scalars of a pivot ([`dual_pivot`], [`primal_step`]): everything its
/// basic step and its stores need besides the FTRAN column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pivot {
    /// Direction of the basic update `x_B ← x_B − dir·t·α`: the entering
    /// column's (±1) in a primal pivot, 1 in a dual one.
    pub dir: f64,
    /// Step length: `≥ 0` in a primal pivot, signed in a dual one.
    pub t: f64,
    /// The value the entering variable takes in the leaving row.
    pub entering_val: f64,
    /// σ of the leaving column at the bound it leaves to: −1 at lower, +1
    /// at upper, 0 when it is fixed.
    pub leaving_sigma: f64,
    /// The value the leaving column takes as a nonbasic: that bound.
    pub leaving_x: f64,
    /// Cost of the entering column: the leaving row's new `c_B` entry.
    pub c_q: f64,
    /// Lower bound of the entering column: the leaving row's new `l_B`.
    pub lb_q: f64,
    /// Upper bound of the entering column: the leaving row's new `u_B`.
    pub ub_q: f64,
}

impl Pivot {
    /// Column `leaving` leaving to its upper bound (`to_upper`) or its lower
    /// one, column `q` entering with value `entering_val`, on a step `t`
    /// along `dir`. Reads `c`, `lb` and `ub` at `q` and `leaving` only.
    fn new(
        (leaving, to_upper): (usize, bool),
        (q, entering_val): (usize, f64),
        (dir, t): (f64, f64),
        [c, lb, ub]: [&[f64]; 3],
    ) -> Self {
        let (sigma, leaving_x) = if to_upper {
            (1.0, ub[leaving])
        } else {
            (-1.0, lb[leaving])
        };
        Self {
            dir,
            t,
            entering_val,
            leaving_sigma: if lb[leaving] == ub[leaving] {
                0.0
            } else {
                sigma
            },
            leaving_x,
            c_q: c[q],
            lb_q: lb[q],
            ub_q: ub[q],
        }
    }
}

/// The dual pivot on a leaving row whose basic variable, column `leaving`,
/// sits at `xbr` below its lower bound (`below`) or above its upper, with
/// pivot element `alpha_rq` in entering column `q` of status weight
/// `sigma_q`. The leaving variable moves to the bound it violated, so the
/// step is `t = (xbr − target) / alpha_rq` along `dir = 1`, and the
/// entering one moves off the bound it sits at (its upper when
/// `sigma_q > 0`, else its lower) by `t`. Reads `c`, `lb` and `ub` at `q`
/// and `leaving` only.
pub fn dual_pivot(
    xbr: f64,
    alpha_rq: f64,
    below: bool,
    (leaving, q): (usize, usize),
    sigma_q: f64,
    cost_and_bounds: [&[f64]; 3],
) -> Pivot {
    let [_, lb, ub] = cost_and_bounds;
    let target = if below { lb[leaving] } else { ub[leaving] };
    let delta = (xbr - target) / alpha_rq;
    let xq = if sigma_q > 0.0 { ub[q] } else { lb[q] };
    Pivot::new(
        (leaving, !below),
        (q, xq + delta),
        (1.0, delta),
        cost_and_bounds,
    )
}

/// What a primal iteration does once its entering column and the ratio
/// test on it are known ([`primal_step`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrimalStep {
    /// Nothing bounds the step: the LP is unbounded.
    Unbounded,
    /// A bound flip: the entering column runs `t` to its other bound,
    /// where it takes status weight `sigma`; the basis stays.
    Flip {
        /// Step length: the column's bound range.
        t: f64,
        /// Its new σ: +1 at upper, −1 at lower.
        sigma: f64,
    },
    /// A basis change in row `row`, whose column `leaving` leaves to its
    /// upper bound if `to_upper`, else to its lower one.
    Pivot {
        /// Leaving basis row.
        row: usize,
        /// Column basic in it.
        leaving: usize,
        /// Whether it leaves to its upper bound.
        to_upper: bool,
        /// The pivot's scalars.
        pivot: Pivot,
    },
}

/// The step of a primal iteration whose entering column `q` moves along
/// `dir` (+1 off its lower bound, −1 off its upper), after the ratio test
/// on its FTRAN column found `limit` (`(row, t, leaves_at_upper)`, or
/// `None` when no basic variable blocks); `cols` is the basis header. The
/// column flips to its other bound when its range `ub[q] − lb[q]` is no
/// longer than the basic step (ties flip); it pivots into `row` otherwise,
/// taking the value `lb[q] + t` (`ub[q] − t` moving down). Neither finite:
/// unbounded. Reads `c`, `lb` and `ub` at `q` and the leaving column only.
pub fn primal_step(
    (q, dir): (usize, f64),
    limit: Option<(usize, f64, bool)>,
    cols: &[usize],
    cost_and_bounds: [&[f64]; 3],
) -> PrimalStep {
    let [_, lb, ub] = cost_and_bounds;
    let flip = ub[q] - lb[q]; // may be +inf
    let t_basic = limit.map_or(f64::INFINITY, |(_, t, _)| t);
    if !t_basic.is_finite() && !flip.is_finite() {
        return PrimalStep::Unbounded;
    }
    if flip <= t_basic {
        return PrimalStep::Flip {
            t: flip,
            sigma: dir,
        };
    }
    let Some((row, t, to_upper)) = limit else {
        return PrimalStep::Unbounded;
    };
    let entering_val = if dir > 0.0 { lb[q] + t } else { ub[q] - t };
    let leaving = cols[row];
    PrimalStep::Pivot {
        row,
        leaving,
        to_upper,
        pivot: Pivot::new(
            (leaving, to_upper),
            (q, entering_val),
            (dir, t),
            cost_and_bounds,
        ),
    }
}

/// The basic step of a bound flip or a pivot: `x_B ← x_B − dir·t·α`.
pub fn step(xb: &mut [f64], alpha: &[f64], dir: f64, t: f64) {
    for (xi, ai) in xb.iter_mut().zip(alpha) {
        *xi -= dir * t * ai;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn a_ratio_test_tie_within_the_tolerance_keeps_the_lower_row() {
        // Steps 2, an exact tie and 2 − 5e-13 (smaller, but inside the tie
        // band): row 0 wins all three.
        let alpha = [1.0, 1.0, 1.0];
        let (lbb, ubb) = ([0.0; 3], [INF; 3]);
        let xb = [2.0, 2.0, 2.0 - 5e-13];
        assert_eq!(
            ratio_test(&xb, &alpha, &lbb, &ubb, 1.0, 1e-9),
            Some((0, 2.0, false))
        );
        // A later row whose step is smaller by more than the band wins.
        let xb = [2.0, 2.0 - 4e-12, 2.0];
        assert_eq!(
            ratio_test(&xb, &alpha, &lbb, &ubb, 1.0, 1e-9),
            Some((1, 2.0 - 4e-12, false))
        );
        // The same on the upper side, moving down.
        let (lbb, ubb) = ([-INF; 2], [5.0; 2]);
        assert_eq!(
            ratio_test(&[3.0, 3.0], &[1.0, 1.0], &lbb, &ubb, -1.0, 1e-9),
            Some((0, 2.0, true))
        );
    }

    #[test]
    fn a_degenerate_negative_ratio_clamps_to_zero() {
        // Row 1 already sits below its lower bound: its ratio −1 counts as a
        // zero step and blocks ahead of row 0's step 3; row 2 lies inside
        // the pivot tolerance and never blocks.
        let xb = [3.0, -1.0, -9.0];
        let alpha = [1.0, 1.0, 1e-10];
        let (lbb, ubb) = ([0.0; 3], [INF; 3]);
        assert_eq!(
            ratio_test(&xb, &alpha, &lbb, &ubb, 1.0, 1e-9),
            Some((1, 0.0, false))
        );
        // Above its upper bound, rising: the same clamp.
        assert_eq!(
            ratio_test(&[6.0], &[-1.0], &[0.0], &[5.0], 1.0, 1e-9),
            Some((0, 0.0, true))
        );
        // An infinite blocking bound never blocks.
        assert_eq!(ratio_test(&[1.0], &[1.0], &[-INF], &[INF], 1.0, 1e-9), None);
    }

    #[test]
    fn a_dual_ratio_tie_keeps_the_lower_column_in_every_eligibility_case() {
        // Columns 0–2 share σ: ratio 2, an exact tie and 2 − 5e-13 (inside
        // the 1e-12 band). Column 3 has the other σ and a smaller ratio, but
        // is ineligible on this side; column 4 is basic.
        for (s, below) in [(-1.0, true), (1.0, true), (-1.0, false), (1.0, false)] {
            // The α_r sign that makes σ = s eligible on this side.
            let sign = if (s < 0.0) == below { -1.0 } else { 1.0 };
            let alpha_r = [sign; 5];
            let sigma = [s, s, s, -s, 0.0];
            let d = [2.0, 2.0, 2.0 - 5e-13, 1.0, 0.0];
            assert_eq!(
                dual_ratio(|j| d[j], &alpha_r, &sigma, below, 1e-9),
                Some((0, 2.0)),
                "σ = {s}, leaving below = {below}"
            );
            // The other σ alone is never eligible on this side.
            let other = [-s, -s, -s, -s, 0.0];
            assert_eq!(
                dual_ratio(|j| d[j], &alpha_r, &other, below, 1e-9),
                None,
                "σ = {}, leaving below = {below}",
                -s
            );
        }
        // Entries inside the pivot tolerance are never eligible.
        assert_eq!(dual_ratio(|_| 1.0, &[-1e-10], &[-1.0], true, 1e-9), None);
    }

    #[test]
    fn devex_merit_floors_tiny_weights_at_the_tolerance() {
        // d = [−1, −3] at lower (σ·d = 1, 3): neither improves. At upper
        // both do, and weights 0 and 1e-13 both count as 1e-12: merits 1e12
        // and 9e12, so column 1 wins.
        let d = [-1.0, -3.0];
        assert_eq!(devex_price(|j| d[j], &[-1.0, -1.0], &[1.0, 1.0]), None);
        let sigma = [1.0, 1.0];
        assert_eq!(
            devex_price(|j| d[j], &sigma, &[0.0, 1e-13]),
            Some((1, -3.0))
        );
        // A weight at the floor ranks as the floor: 1 / 1e-12 beats 9 / 1.
        assert_eq!(devex_price(|j| d[j], &sigma, &[0.0, 1.0]), Some((0, -1.0)));
        // Equal merits keep the lower column; σ = 0 is never priced.
        let d = [2.0, -2.0, 5.0];
        assert_eq!(
            devex_price(|j| d[j], &[-1.0, 1.0, 0.0], &[1e-14, 1e-13, 1.0]),
            Some((0, -2.0))
        );
    }

    #[test]
    fn a_primal_infeasibility_tie_keeps_the_lower_row() {
        // Rows 1 and 2 both violate by 3, one below and one above; row 0 is
        // inside the tolerance.
        let xb = [-1e-10, -3.0, 8.0];
        let (lbb, ubb) = ([0.0; 3], [5.0; 3]);
        assert_eq!(
            primal_infeasibility(&xb, &lbb, &ubb, 1e-9),
            Some((1, 3.0, true))
        );
        let xb = [1.0, 8.0, -3.0];
        assert_eq!(
            primal_infeasibility(&xb, &lbb, &ubb, 1e-9),
            Some((1, 3.0, false))
        );
        assert_eq!(primal_infeasibility(&[1.0], &[0.0], &[5.0], 1e-9), None);
    }

    #[test]
    fn a_dual_pivot_moves_the_leaving_variable_to_the_bound_it_violated() {
        // Column 0 leaves from x = 4 above its upper bound 1 (pivot element
        // 2): delta 1.5. Column 1 enters from its lower bound −1.
        let (c, lb, ub) = ([7.0, 3.0, 0.0], [0.0, -1.0, 2.0], [1.0, 5.0, 2.0]);
        let p = dual_pivot(4.0, 2.0, false, (0, 1), -1.0, [&c, &lb, &ub]);
        assert_eq!(
            p,
            Pivot {
                dir: 1.0,
                t: 1.5,
                entering_val: 0.5,
                leaving_sigma: 1.0,
                leaving_x: 1.0,
                c_q: 3.0,
                lb_q: -1.0,
                ub_q: 5.0,
            }
        );
        // Below its lower bound, entering from its upper bound.
        let p = dual_pivot(-3.0, -1.0, true, (0, 1), 1.0, [&c, &lb, &ub]);
        assert_eq!(
            (p.t, p.entering_val, p.leaving_sigma, p.leaving_x),
            (3.0, 8.0, -1.0, 0.0)
        );
        // A fixed leaving column takes σ = 0.
        let p = dual_pivot(3.0, 1.0, false, (2, 1), -1.0, [&c, &lb, &ub]);
        assert_eq!((p.t, p.leaving_sigma, p.leaving_x), (1.0, 0.0, 2.0));
    }

    #[test]
    fn a_primal_step_flips_on_a_tie_and_pivots_on_a_shorter_basic_step() {
        let (c, lb, ub) = ([7.0, 3.0, 0.0], [0.0, -1.0, 2.0], [1.0, 5.0, 2.0]);
        let bounds = [&c[..], &lb[..], &ub[..]];
        let cols = [2, 0];
        // Column 0's range 1 ties a basic step of 1: it flips, up or down.
        let up = primal_step((0, 1.0), Some((1, 1.0, false)), &cols, bounds);
        assert_eq!(up, PrimalStep::Flip { t: 1.0, sigma: 1.0 });
        let down = primal_step((0, -1.0), None, &cols, bounds);
        assert_eq!(
            down,
            PrimalStep::Flip {
                t: 1.0,
                sigma: -1.0
            }
        );
        // Column 1 (range 6) moving down from 5 is stopped by row 0 after
        // 2: column 2, fixed, leaves to its upper bound with σ = 0.
        let PrimalStep::Pivot {
            row,
            leaving,
            to_upper,
            pivot,
        } = primal_step((1, -1.0), Some((0, 2.0, true)), &cols, bounds)
        else {
            panic!("a shorter basic step pivots");
        };
        assert_eq!((row, leaving, to_upper), (0, 2, true));
        assert_eq!(
            pivot,
            Pivot {
                dir: -1.0,
                t: 2.0,
                entering_val: 3.0,
                leaving_sigma: 0.0,
                leaving_x: 2.0,
                c_q: 3.0,
                lb_q: -1.0,
                ub_q: 5.0,
            }
        );
        // Nothing blocks and no upper bound: unbounded.
        let free = [f64::INFINITY; 3];
        let open = [&c[..], &lb[..], &free[..]];
        assert_eq!(
            primal_step((1, 1.0), None, &cols, open),
            PrimalStep::Unbounded
        );
    }
}
