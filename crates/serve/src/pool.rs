//! The solution pool: a bounded warm-start cache keyed by canonical
//! fingerprints.
//!
//! Entries are stored in **canonical** coordinates — the incumbent point in
//! canonical variable order and the objective divided by the producer's
//! objective scale — so a hit can be re-expressed exactly in the
//! requester's own row/column order and objective scaling. Two lookup
//! paths:
//!
//! * [`SolutionPool::exact`] — same canonical model bit-for-bit: the
//!   cached answer *is* the answer (served without touching the cluster);
//! * [`SolutionPool::warm`] — same structure, different numbers (a
//!   perturbed re-submission): the cached incumbent and root basis seed
//!   the new solve, which still runs to proven optimality.
//!
//! Eviction is FIFO over insertion order; only proven-optimal answers are
//! pooled. Everything is `BTreeMap`-backed so iteration order — and hence
//! the serve trace — is deterministic.

use std::collections::{BTreeMap, VecDeque};

use gmip_lp::Basis;
use gmip_parallel::Warm;

use crate::fingerprint::Canonical;

/// One pooled answer, in canonical coordinates.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// Optimal objective of the canonical model (source sense, divided by
    /// the producer's objective scale).
    pub objective_canon: f64,
    /// Incumbent point in canonical variable order.
    pub x_canon: Vec<f64>,
    /// The producer's `var_of_canon` permutation (for deciding whether a
    /// requester shares the producer's original variable order).
    pub var_of_canon: Vec<usize>,
    /// Branch-and-bound nodes the producing solve spent.
    pub nodes: usize,
    /// Root LP basis captured from the producing solve, if any.
    pub root_basis: Option<Basis>,
    /// Structural fingerprint (for the warm index).
    pub structural: u64,
}

/// Bounded FIFO pool with exact and structural indices.
#[derive(Debug)]
pub struct SolutionPool {
    capacity: usize,
    by_exact: BTreeMap<u64, PoolEntry>,
    /// structural fp -> exact fp of the most recent entry with that shape.
    by_structure: BTreeMap<u64, u64>,
    fifo: VecDeque<u64>,
    evictions: u64,
}

impl SolutionPool {
    /// Creates a pool holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            by_exact: BTreeMap::new(),
            by_structure: BTreeMap::new(),
            fifo: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Number of pooled entries.
    pub fn len(&self) -> usize {
        self.by_exact.len()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.by_exact.is_empty()
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Exact lookup. Returns the objective in the **requester's** scaling
    /// and the incumbent in the requester's original variable order.
    pub fn exact(&self, canon: &Canonical) -> Option<(f64, Vec<f64>, usize)> {
        let e = self.by_exact.get(&canon.exact)?;
        let obj = e.objective_canon * canon.obj_scale;
        Some((obj, canon.to_original_order(&e.x_canon), e.nodes))
    }

    /// Structural lookup for warm-starting a perturbed re-submission: the
    /// pooled incumbent in the requester's original variable order, and
    /// the root basis only when producer and requester share that order (a
    /// basis indexes original columns, so reusing it across a permutation
    /// would warm-start the wrong LP). Never returns an entry whose
    /// canonical variable count differs.
    pub fn warm(&self, canon: &Canonical) -> Option<Warm> {
        let exact_fp = self.by_structure.get(&canon.structural)?;
        let e = self.by_exact.get(exact_fp)?;
        if e.x_canon.len() != canon.var_of_canon.len() {
            return None;
        }
        let root_basis = if e.var_of_canon == canon.var_of_canon {
            e.root_basis.clone()
        } else {
            None
        };
        Some(Warm {
            seed: Some(canon.to_original_order(&e.x_canon)),
            root_basis,
        })
    }

    /// Pools a proven-optimal answer. `objective` and `x` are in the
    /// producer's original coordinates; they are canonicalized here.
    /// Re-inserting an existing fingerprint refreshes the entry in place.
    pub fn insert(
        &mut self,
        canon: &Canonical,
        objective: f64,
        x: &[f64],
        nodes: usize,
        root_basis: Option<Basis>,
    ) {
        let entry = PoolEntry {
            objective_canon: objective / canon.obj_scale,
            x_canon: canon.to_canon_order(x),
            var_of_canon: canon.var_of_canon.clone(),
            nodes,
            root_basis,
            structural: canon.structural,
        };
        if self.by_exact.insert(canon.exact, entry).is_none() {
            self.fifo.push_back(canon.exact);
            if self.by_exact.len() > self.capacity {
                self.evict_oldest();
            }
        }
        self.by_structure.insert(canon.structural, canon.exact);
    }

    fn evict_oldest(&mut self) {
        while let Some(fp) = self.fifo.pop_front() {
            if let Some(old) = self.by_exact.remove(&fp) {
                if self.by_structure.get(&old.structural) == Some(&fp) {
                    self.by_structure.remove(&old.structural);
                }
                self.evictions += 1;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::canonicalize;
    use gmip_problems::generators::knapsack;

    #[test]
    fn exact_hit_rescales_objective_and_permutes_x() {
        let m = knapsack(6, 0.5, 1);
        let canon = canonicalize(&m);
        let mut pool = SolutionPool::new(8);
        let x: Vec<f64> = (0..m.num_vars())
            .map(|j| f64::from((j % 2) as u8))
            .collect();
        pool.insert(&canon, 120.0, &x, 9, None);

        // Same model, objective doubled: fingerprint matches, served
        // objective must be doubled too.
        let mut scaled = m.clone();
        for v in &mut scaled.vars {
            v.obj *= 2.0;
        }
        let canon2 = canonicalize(&scaled);
        let (obj, x2, nodes) = pool.exact(&canon2).expect("exact hit");
        // One rescale (divide by the producer scale, multiply by the
        // requester's) costs at most an ulp per operation.
        assert!((obj - 240.0).abs() < 1e-9 * 240.0, "got {obj}");
        assert_eq!(x2, x);
        assert_eq!(nodes, 9);
    }

    #[test]
    fn warm_hit_on_perturbed_rhs_carries_basis() {
        let m = knapsack(6, 0.5, 2);
        let canon = canonicalize(&m);
        let mut pool = SolutionPool::new(8);
        let x = vec![1.0; m.num_vars()];
        pool.insert(&canon, 50.0, &x, 4, None);

        let mut p = m.clone();
        for c in &mut p.cons {
            c.rhs *= 1.05;
        }
        let canon_p = canonicalize(&p);
        assert!(pool.exact(&canon_p).is_none(), "perturbed must miss exact");
        let hint = pool.warm(&canon_p).expect("structural warm hit");
        assert_eq!(hint.seed, Some(x));
    }

    #[test]
    fn fifo_eviction_drops_oldest() {
        let mut pool = SolutionPool::new(2);
        for seed in 0..3u64 {
            let m = knapsack(5, 0.5, seed);
            let canon = canonicalize(&m);
            pool.insert(&canon, 1.0, &vec![0.0; m.num_vars()], 1, None);
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 1);
        let first = canonicalize(&knapsack(5, 0.5, 0));
        assert!(pool.exact(&first).is_none(), "oldest entry was evicted");
    }
}
