//! Canonical instance fingerprints for the solution pool.
//!
//! Two submissions deserve the same cache line when they are the *same
//! model*, however the client happened to order rows and columns or scale
//! the objective. The canonical form therefore:
//!
//! 1. reorders variables and constraints into a name-sorted canonical
//!    order (permutation invariance);
//! 2. divides each constraint row by its largest absolute coefficient and
//!    the objective by its largest absolute coefficient (scale
//!    invariance — exact for the power-of-two scalings the metamorphic
//!    suite applies, since those divisions are lossless in `f64`);
//! 3. renders the result through the hardened MPS writer — the one
//!    serializer in the workspace with round-trip tests — and hashes the
//!    bytes (FNV-1a 64).
//!
//! A second, *structural* fingerprint hashes only names, types, senses and
//! the sparsity pattern — no numbers — so a perturbed re-submission (same
//! model, nudged right-hand sides or costs) lands on the same key and can
//! be warm-started from the pooled answer even though its exact
//! fingerprint differs.

use gmip_problems::mps::write_mps;
use gmip_problems::{Constraint, MipInstance, Objective, Sense};

/// The canonicalization of one instance: the normalized model, the
/// permutation that produced it, and both fingerprints.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonicalized instance (name-sorted, scale-normalized).
    pub instance: MipInstance,
    /// `var_of_canon[k]` = original index of canonical variable `k`.
    pub var_of_canon: Vec<usize>,
    /// Objective divisor: `original_obj = obj_scale · canonical_obj`.
    pub obj_scale: f64,
    /// Exact fingerprint: FNV-1a 64 over the canonical MPS text.
    pub exact: u64,
    /// Structural fingerprint: names/types/senses/sparsity only.
    pub structural: u64,
}

impl Canonical {
    /// Maps a point over the original variables into canonical order.
    pub fn to_canon_order(&self, x: &[f64]) -> Vec<f64> {
        self.var_of_canon.iter().map(|&j| x[j]).collect()
    }

    /// Maps a canonical-order point back into this instance's original
    /// variable order.
    pub fn to_original_order(&self, x_canon: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; x_canon.len()];
        for (k, &j) in self.var_of_canon.iter().enumerate() {
            x[j] = x_canon[k];
        }
        x
    }
}

/// FNV-1a 64-bit over a byte stream (no external hash deps).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Canonicalizes `m` and computes both fingerprints.
pub fn canonicalize(m: &MipInstance) -> Canonical {
    // Canonical column order: variables sorted by name (ties by original
    // index, though valid models have unique names).
    let mut var_of_canon: Vec<usize> = (0..m.num_vars()).collect();
    var_of_canon.sort_by(|&a, &b| m.vars[a].name.cmp(&m.vars[b].name).then(a.cmp(&b)));
    let mut canon_of_var = vec![0usize; m.num_vars()];
    for (k, &j) in var_of_canon.iter().enumerate() {
        canon_of_var[j] = k;
    }
    // Objective scale: the largest |c_j| divides out (exactly, for
    // power-of-two client scalings).
    let cmax = m.vars.iter().map(|v| v.obj.abs()).fold(0.0f64, f64::max);
    let obj_scale = if cmax > 0.0 { cmax } else { 1.0 };

    let mut t = MipInstance::new("CANON".to_string(), m.objective);
    for &j in &var_of_canon {
        let mut v = m.vars[j].clone();
        v.obj /= obj_scale;
        t.add_var(v);
    }
    // Canonical row order: constraints sorted by name, each row divided by
    // its largest |a_ij| (Constraint::new re-sorts coefficients by column).
    let mut row_order: Vec<usize> = (0..m.num_cons()).collect();
    row_order.sort_by(|&a, &b| m.cons[a].name.cmp(&m.cons[b].name).then(a.cmp(&b)));
    for &i in &row_order {
        let c = &m.cons[i];
        let rmax = c
            .coeffs
            .iter()
            .map(|&(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        let rs = if rmax > 0.0 { rmax } else { 1.0 };
        let coeffs: Vec<(usize, f64)> = c
            .coeffs
            .iter()
            .map(|&(j, v)| (canon_of_var[j], v / rs))
            .collect();
        t.add_con(Constraint::new(c.name.clone(), coeffs, c.sense, c.rhs / rs));
    }

    let exact = fnv1a(FNV_OFFSET, write_mps(&t).as_bytes());

    let mut s = FNV_OFFSET;
    s = fnv1a(
        s,
        &[match t.objective {
            Objective::Maximize => 1u8,
            Objective::Minimize => 2u8,
        }],
    );
    s = fnv1a(s, &(t.num_vars() as u64).to_le_bytes());
    s = fnv1a(s, &(t.num_cons() as u64).to_le_bytes());
    for v in &t.vars {
        s = fnv1a(s, v.name.as_bytes());
        s = fnv1a(s, &[0xff, v.ty.is_integral() as u8]);
    }
    for c in &t.cons {
        s = fnv1a(s, c.name.as_bytes());
        let sense = match c.sense {
            Sense::Le => 1u8,
            Sense::Ge => 2u8,
            Sense::Eq => 3u8,
        };
        s = fnv1a(s, &[0xff, sense]);
        for &(j, _) in &c.coeffs {
            s = fnv1a(s, &(j as u64).to_le_bytes());
        }
    }

    Canonical {
        instance: t,
        var_of_canon,
        obj_scale,
        exact,
        structural: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::{figure1_knapsack, textbook_mip};
    use gmip_problems::generators::knapsack;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fingerprint_is_deterministic() {
        let m = textbook_mip();
        assert_eq!(canonicalize(&m).exact, canonicalize(&m).exact);
        assert_eq!(canonicalize(&m).structural, canonicalize(&m).structural);
    }

    #[test]
    fn order_and_scale_invariant_transforms_hash_identically() {
        // Satellite: the gmip-verify metamorphic transforms that preserve
        // the model up to row/column order and positive scaling must land
        // on the same exact fingerprint. (Shift / redundant-row /
        // complement genuinely change the written model and must not.)
        for m in [figure1_knapsack(), textbook_mip(), knapsack(12, 0.5, 3)] {
            let base = canonicalize(&m);
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            for t in [
                gmip_verify::metamorphic::row_permutation(&m, &mut rng),
                gmip_verify::metamorphic::col_permutation(&m, &mut rng),
                gmip_verify::metamorphic::row_scaling(&m, &mut rng),
                gmip_verify::metamorphic::objective_scale(&m, &mut rng),
            ] {
                let c = canonicalize(&t.instance);
                assert_eq!(
                    c.exact, base.exact,
                    "{}: exact fingerprint changed under {}",
                    m.name, t.name
                );
                assert_eq!(
                    c.structural, base.structural,
                    "{}: structural fingerprint changed under {}",
                    m.name, t.name
                );
            }
        }
    }

    #[test]
    fn model_changing_transforms_hash_differently() {
        let m = figure1_knapsack();
        let base = canonicalize(&m);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for t in [
            gmip_verify::metamorphic::objective_shift(&m, &mut rng),
            gmip_verify::metamorphic::redundant_constraint(&m, &mut rng),
            gmip_verify::metamorphic::complement_binary(&m, &mut rng),
        ] {
            let c = canonicalize(&t.instance);
            assert_ne!(
                c.exact, base.exact,
                "{} changes the model but kept the fingerprint",
                t.name
            );
        }
    }

    #[test]
    fn perturbed_rhs_keeps_structural_fingerprint_only() {
        let m = knapsack(10, 0.5, 7);
        let mut p = m.clone();
        for c in &mut p.cons {
            c.rhs *= 1.04;
        }
        let (a, b) = (canonicalize(&m), canonicalize(&p));
        assert_ne!(
            a.exact, b.exact,
            "rhs perturbation must change the exact fp"
        );
        assert_eq!(a.structural, b.structural, "structure is unchanged");
    }

    /// The exact fingerprint hashes the MPS text, so a bound the writer
    /// leaves out would merge two different models into one pool entry.
    #[test]
    fn an_infinite_lower_bound_is_not_its_zero_twin() {
        let mut free = textbook_mip();
        free.vars[0].lb = f64::NEG_INFINITY;
        let mut zero = free.clone();
        zero.vars[0].lb = 0.0;
        assert_ne!(canonicalize(&free).exact, canonicalize(&zero).exact);
    }

    #[test]
    fn point_round_trips_through_canonical_order() {
        let m = textbook_mip();
        let c = canonicalize(&m);
        let x: Vec<f64> = (0..m.num_vars()).map(|j| j as f64 + 0.5).collect();
        assert_eq!(c.to_original_order(&c.to_canon_order(&x)), x);
    }

    #[test]
    fn objective_scale_maps_cached_objectives() {
        // A 2x-scaled resubmission shares the fingerprint; its objective is
        // the canonical objective times its own scale.
        let m = figure1_knapsack();
        let mut scaled = m.clone();
        for v in &mut scaled.vars {
            v.obj *= 2.0;
        }
        let (a, b) = (canonicalize(&m), canonicalize(&scaled));
        assert_eq!(a.exact, b.exact);
        assert_eq!(b.obj_scale, 2.0 * a.obj_scale);
    }
}
