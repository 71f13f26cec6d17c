//! Pins the journal a [`RecordingEngine`] writes for a fixed workload.
//!
//! The batched wave replays these journals, so the *order* in which the
//! simplex drivers call engine primitives is part of the wave's contract:
//! a driver that regroups its calls (into pivot-shaped `select` / `apply`
//! methods, say) must leave every journal as it was, op for op. Recorded at
//! `31a28fd`, before the drivers moved to the pivot-shaped calls; it passes
//! unedited after.

use gmip_lp::{
    BoundChange, LpConfig, LpSolver, LpStatus, PricingRule, RecordingEngine, StandardLp, WaveClass,
    WaveOp,
};
use gmip_problems::generators::knapsack;

/// FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per-class op counts (the seven kernel classes, then H2D and D2H
/// transfers), total flops and bytes, and a hash of the whole op stream.
#[derive(Default)]
struct Journal {
    counts: [usize; 9],
    flops: f64,
    bytes: f64,
    hash: u64,
}

impl Journal {
    fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            ..Self::default()
        }
    }

    fn absorb(&mut self, ops: &[WaveOp]) {
        for op in ops {
            match *op {
                WaveOp::Kernel {
                    class,
                    flops,
                    bytes,
                } => {
                    self.counts[class as usize] += 1;
                    self.flops += flops;
                    self.bytes += bytes;
                    fnv(&mut self.hash, class as u64);
                    fnv(&mut self.hash, flops.to_bits());
                    fnv(&mut self.hash, bytes.to_bits());
                }
                WaveOp::Transfer { bytes, h2d } => {
                    self.counts[if h2d { 7 } else { 8 }] += 1;
                    self.bytes += bytes as f64;
                    fnv(&mut self.hash, 7 + u64::from(!h2d));
                    fnv(&mut self.hash, bytes as u64);
                }
            }
        }
    }
}

/// `knapsack(24)`: the root, 40 bound re-solves (twenty items, each fixed
/// down and then up), one cut round with six more re-solves on the grown
/// matrix, and a child whose fixings overfill the knapsack.
fn journal(pricing: PricingRule) -> String {
    assert_eq!(WaveClass::Gather as usize, 6, "seven kernel classes");
    let m = knapsack(24, 0.5, 3);
    let mut cfg = LpConfig::standard();
    cfg.primal.pricing = pricing;
    let mut lp = LpSolver::new(StandardLp::from_instance(&m, &[]), cfg, |a| {
        RecordingEngine::new(a.clone())
    });
    let mut journal = Journal::new();
    let (mut iterations, mut optimal, mut infeasible) = (0, 0, 0);

    let root = lp.solve().expect("root LP");
    let mut settle = |lp: &mut LpSolver<RecordingEngine>, status: LpStatus, iters: usize| {
        iterations += iters;
        optimal += usize::from(status == LpStatus::Optimal);
        infeasible += usize::from(status == LpStatus::Infeasible);
        journal.absorb(&lp.engine_mut().take_ops());
    };
    settle(&mut lp, root.status, root.iterations);

    let resolve = |lp: &mut LpSolver<RecordingEngine>, bounds: &[BoundChange]| {
        lp.apply_node_bounds(bounds).expect("structural columns");
        let sol = lp.resolve().expect("warm resolve");
        (sol.status, sol.iterations)
    };
    let fix = |var: usize, to: f64| BoundChange {
        var,
        lb: to,
        ub: to,
    };
    for k in 0..20 {
        let j = (7 * k) % m.num_vars();
        for to in [0.0, 1.0] {
            let (status, iters) = resolve(&mut lp, &[fix(j, to)]);
            settle(&mut lp, status, iters);
        }
    }
    lp.apply_node_bounds(&[]).expect("root box");
    for (cut, rhs) in [
        (vec![(0, 1.0), (1, 1.0)], 1.0),
        (vec![(2, 1.0), (3, 1.0), (4, 1.0)], 2.0),
    ] {
        lp.add_cut(&cut, rhs).expect("cut");
    }
    for k in 0..6 {
        let (status, iters) = resolve(&mut lp, &[fix((5 * k + 1) % m.num_vars(), (k % 2) as f64)]);
        settle(&mut lp, status, iters);
    }
    // Every item fixed in: far over capacity.
    let all_in: Vec<BoundChange> = (0..m.num_vars()).map(|j| fix(j, 1.0)).collect();
    let (status, iters) = resolve(&mut lp, &all_in);
    assert_eq!(status, LpStatus::Infeasible);
    settle(&mut lp, status, iters);

    format!(
        "optimal={optimal} infeasible={infeasible} iters={iterations} counts={:?} flops={} bytes={} hash={:016x}",
        journal.counts, journal.flops, journal.bytes, journal.hash
    )
}

#[test]
fn recording_engine_journals_are_pinned() {
    assert_eq!(
        [journal(PricingRule::Dantzig), journal(PricingRule::Devex)],
        [
            "optimal=47 infeasible=1 iters=56 counts=[95, 56, 105, 105, 136, 58, 64, 97, 48] flops=23096.66666666664 bytes=192072 hash=010323beb46e80e1",
            "optimal=47 infeasible=1 iters=56 counts=[95, 56, 115, 115, 136, 68, 74, 97, 48] flops=26124.666666666664 bytes=203048 hash=562478d81caf1035",
        ]
    );
}
