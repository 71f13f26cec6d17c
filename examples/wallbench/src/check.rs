//! The correctness gate: every operation of every pass is checked, and a
//! failure is counted and named, never a panic and never dropped from the
//! pass.

use crate::entry::MipInstance;

/// Relative objective tolerance against the set-up reference.
pub const OBJ_TOL: f64 = 1e-6;
/// Integrality / feasibility tolerance of a returned point.
pub const FEAS_TOL: f64 = 1e-6;

/// What a solve returned, as far as correctness is concerned.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    /// The solve ended `Optimal`.
    pub optimal: bool,
    /// Objective in the instance's own sense.
    pub objective: f64,
    /// The incumbent point; `None` where the interface returns none (a
    /// served job's record).
    pub x: Option<&'a [f64]>,
}

fn close(a: f64, b: f64) -> bool {
    // NaN-safe: a NaN objective is never close to anything.
    (a - b).abs() <= OBJ_TOL * b.abs().max(1.0)
}

/// Checks one answer against the reference optimum computed at set-up:
/// status `Optimal`, objective within [`OBJ_TOL`] relative, and — where a
/// point is returned — the point integer-feasible and worth the objective
/// it is claimed to have.
pub fn check_answer(m: &MipInstance, reference: f64, a: &Answer<'_>) -> Result<(), String> {
    if !a.optimal {
        return Err("status is not Optimal".into());
    }
    if !close(a.objective, reference) {
        return Err(format!(
            "objective {} misses the reference optimum {reference}",
            a.objective
        ));
    }
    if let Some(x) = a.x {
        if x.len() != m.num_vars() || !m.is_integer_feasible(x, FEAS_TOL) {
            return Err("returned point is not integer-feasible".into());
        }
        let worth = m.objective_value(x);
        if !close(worth, a.objective) {
            return Err(format!(
                "returned point is worth {worth}, not the reported {}",
                a.objective
            ));
        }
    }
    Ok(())
}

/// The deterministic face of one solve: what must repeat bit for bit in
/// every pass, and — for the native backend — equal the `Sim` solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Objective, bit pattern.
    pub objective_bits: u64,
    /// Nodes evaluated.
    pub nodes: u64,
    /// Supersteps (waves), simplex iterations (serial) or messages (cluster).
    pub steps: u64,
    /// Kernel launches charged.
    pub launches: u64,
    /// Simulated time, bit pattern.
    pub sim_bits: u64,
}

/// Checks that a solve repeated its fingerprint.
pub fn check_fingerprint(expected: &Fingerprint, got: &Fingerprint) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "run is not deterministic: expected {expected:?}, got {got:?}"
        ))
    }
}
