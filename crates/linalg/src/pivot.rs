//! The selection rules and updates of a bounded-variable revised simplex
//! iteration, as pure slice functions: the host engine of `gmip-lp` runs
//! them on its vectors, the device kernels of `gmip-gpu` on resident ones.
//! What a rule decides, ties included, is documented here and nowhere else.
//!
//! `σ_j` is column `j`'s status weight: −1 at its lower bound, +1 at its
//! upper, 0 when basic or fixed (never eligible). A reduced cost is a
//! `d: impl Fn(usize) -> f64`, read only where a rule looks. A rule reads
//! its slices over their common length, never past it.
//!
//! Both ratio tests ([`ratio_test`], [`dual_ratio`]) are Harris's two-pass
//! rule, the caller's `tol` serving as both the pivot tolerance and the
//! relaxation `δ`. A candidate (a blocking row, an eligible column) has a
//! pivot magnitude `|α| > tol`, a numerator `p`, the ratio `p·(1/|α|)` and
//! the relaxed ratio `(p + δ)·(1/|α|)`. Pass 1 bounds the step by the
//! smallest relaxed ratio. Pass 2 takes, among the candidates whose ratio
//! is within that bound, the one of largest `|α|`: a later candidate
//! replaces the kept one only with an `|α|` larger by more than a relative
//! `ALPHA_TIE` (1e-9), so the lowest index wins among magnitudes within that
//! band. The rule gives up at most `δ/|α|` of step length for the
//! best-scaled pivot element in reach, which keeps the basis well
//! conditioned and lets a degenerate vertex be left along its largest
//! pivot rather than its first.

use crate::{LinalgError, Result};

/// Relative band within which two pivot magnitudes tie in a ratio test's
/// second pass (module doc).
const ALPHA_TIE: f64 = 1e-9;

/// Harris's two passes (module doc) over `candidates`, each `(|α|, p,
/// item)` in index order. Returns the chosen candidate's `|α|` and item, or
/// `None` when there is no candidate.
fn harris<T>(
    candidates: impl Iterator<Item = (f64, f64, T)> + Clone,
    tol: f64,
) -> Option<(f64, T)> {
    let bound = candidates.clone().fold(f64::INFINITY, |bound, (a, p, _)| {
        bound.min((p + tol) * (1.0 / a))
    });
    let mut best: Option<(f64, T)> = None;
    for (a, p, item) in candidates {
        if p * (1.0 / a) <= bound
            && best
                .as_ref()
                .is_none_or(|(ba, _)| a > ba * (1.0 + ALPHA_TIE))
        {
            best = Some((a, item));
        }
    }
    best
}

/// Bounded primal ratio test on FTRAN column `alpha` for an entering
/// variable moving in direction `dir` (±1). With `α_eff = dir · α`, row `i`
/// blocks at its lower bound `l_B[i]` if `α_eff[i] > tol` and at its upper
/// bound `u_B[i]` if `α_eff[i] < −tol`; an infinite bound never blocks. Its
/// pivot magnitude is `|α_eff[i]|`, its numerator the gap from `x_B[i]` to
/// that bound along the step (`x_B[i] − l_B[i]` or `u_B[i] − x_B[i]`,
/// negative past it). Harris's rule (module doc) picks the row; the step
/// `t` is `gap / |α_eff[i]|`, clamped to 0 when negative (a degenerate row
/// past its bound). Returns `(row, t, leaves_at_upper)`, or `None` when no
/// row blocks.
pub fn ratio_test(
    xb: &[f64],
    alpha: &[f64],
    lbb: &[f64],
    ubb: &[f64],
    dir: f64,
    tol: f64,
) -> Option<(usize, f64, bool)> {
    let rows = xb.iter().zip(alpha).zip(lbb.iter().zip(ubb));
    let blocking = rows.enumerate().filter_map(|(i, ((&x, &a), (&lb, &ub)))| {
        let ae = dir * a;
        if ae > tol && lb.is_finite() {
            Some((ae, x - lb, (i, x - lb, false)))
        } else if ae < -tol && ub.is_finite() {
            Some((-ae, ub - x, (i, ub - x, true)))
        } else {
            None
        }
    });
    let (a, (row, gap, upper)) = harris(blocking, tol)?;
    Some((row, (gap / a).max(0.0), upper))
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
/// Harris's rule (module doc) picks the column, with pivot magnitude
/// `|α_r[j]|` and numerator `|d_j|`. Returns `(column, |d_j| / |α_r[j]|)`,
/// or `None` when no column is eligible (the LP is infeasible).
pub fn dual_ratio(
    d: impl Fn(usize) -> f64,
    alpha_r: &[f64],
    sigma: &[f64],
    leaving_below: bool,
    tol: f64,
) -> Option<(usize, f64)> {
    let cols = alpha_r.iter().zip(sigma).enumerate();
    let eligible = cols.filter_map(|(j, (&ar, &s))| {
        let ok = match (s, leaving_below) {
            (s, true) if s < 0.0 => ar < -tol,
            (s, true) if s > 0.0 => ar > tol,
            (s, false) if s < 0.0 => ar > tol,
            (s, false) if s > 0.0 => ar < -tol,
            _ => false,
        };
        ok.then(|| {
            let dj = d(j).abs();
            (ar.abs(), dj, (j, dj))
        })
    });
    let (a, (col, dj)) = harris(eligible, tol)?;
    Some((col, dj / a))
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
    fn a_ratio_test_takes_the_largest_pivot_within_the_relaxed_bound() {
        // δ = 0.1. Ratios 2, 2.05 and 2.15; relaxed 2.1, 2.075 and 2.1625,
        // so pass 1 bounds the step by 2.075. Row 2 has the largest |α| but
        // lies past the bound; of rows 0 and 1, row 1's |α| is larger.
        let (lbb, ubb) = ([0.0; 3], [INF; 3]);
        let (xb, alpha) = ([2.0, 8.2, 17.2], [1.0, 4.0, 8.0]);
        assert_eq!(
            ratio_test(&xb, &alpha, &lbb, &ubb, 1.0, 0.1),
            Some((1, 2.05, false))
        );
        // The same on the upper side, moving down: the tied ratios 2 go to
        // the row of larger |α|, where the first-index rule took row 0.
        let (lbb, ubb) = ([-INF; 2], [5.0; 2]);
        assert_eq!(
            ratio_test(&[3.0, 1.0], &[1.0, 2.0], &lbb, &ubb, -1.0, 1e-9),
            Some((1, 2.0, true))
        );
    }

    #[test]
    fn a_ratio_test_tie_within_the_band_keeps_the_lower_row() {
        // Equal ratios and equal |α|: row 0.
        let (lbb, ubb) = ([0.0; 3], [INF; 3]);
        let xb = [2.0, 2.0, 2.0];
        assert_eq!(
            ratio_test(&xb, &[1.0; 3], &lbb, &ubb, 1.0, 1e-9),
            Some((0, 2.0, false))
        );
        // Equal ratios 2 again: an |α| larger by half the band still ties;
        // by twice the band, it wins.
        let (lbb, ubb) = ([0.0; 2], [INF; 2]);
        for (scale, row) in [(0.5, 0), (2.0, 1)] {
            let alpha = [4.0, 4.0 * (1.0 + scale * ALPHA_TIE)];
            let xb = alpha.map(|a| 2.0 * a);
            assert_eq!(
                ratio_test(&xb, &alpha, &lbb, &ubb, 1.0, 1e-9),
                Some((row, 2.0, false)),
                "|α| larger by {scale} bands"
            );
        }
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
    fn a_dual_ratio_takes_the_largest_pivot_within_the_relaxed_bound_in_every_eligibility_case() {
        for (s, below) in [(-1.0, true), (1.0, true), (-1.0, false), (1.0, false)] {
            // The α_r sign that makes σ = s eligible on this side.
            let sign = if (s < 0.0) == below { -1.0 } else { 1.0 };
            // δ = 0.1. Ratios 2, 2.05 and 2.15; relaxed 2.1, 2.1 and
            // 2.175: the bound 2.1 shuts out column 2, the largest |α|, and
            // column 1 out-pivots column 0. Column 3 has the other σ and a
            // ratio of 0, but is ineligible on this side; column 4 is basic.
            let alpha_r = [sign, 2.0 * sign, 4.0 * sign, sign, sign];
            let sigma = [s, s, s, -s, 0.0];
            let d = [2.0, 4.1, 8.6, 0.0, 0.0];
            assert_eq!(
                dual_ratio(|j| d[j], &alpha_r, &sigma, below, 0.1),
                Some((1, 2.05)),
                "σ = {s}, leaving below = {below}"
            );
            // The other σ alone is never eligible on this side.
            let other = [-s, -s, -s, -s, 0.0];
            assert_eq!(
                dual_ratio(|j| d[j], &alpha_r, &other, below, 0.1),
                None,
                "σ = {}, leaving below = {below}",
                -s
            );
            // Equal ratios 2: an |α| larger by half the band ties, and the
            // lower column keeps it; by twice the band, the later one wins.
            for (scale, col) in [(0.5, 0), (2.0, 1)] {
                let alpha_r = [2.0 * sign, 2.0 * sign * (1.0 + scale * ALPHA_TIE)];
                let d = alpha_r.map(|a| 2.0 * a);
                assert_eq!(
                    dual_ratio(|j| d[j], &alpha_r, &[s, s], below, 1e-9),
                    Some((col, 2.0)),
                    "|α| larger by {scale} bands"
                );
            }
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
