//! The first-order wave's hot loop must not touch the allocator: a warm
//! `FirstOrderWaveEngine::superstep()` — the batched step, the KKT checks,
//! the restarts and the retires — allocates nothing, loading a node
//! allocates nothing, and taking a report allocates exactly the two vectors
//! it hands out (none for a lane whose report ships no iterates).
//!
//! Allocations are counted per thread (the harness runs the tests of this
//! file on threads of their own), so the counts are exact and repeat.

use gmip::gpu::Accel;
use gmip::lp::{BoundChange, FirstOrderWaveEngine, FoOutcome, PdhgConfig, StandardLp};
use gmip::problems::generators::bin_packing;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

/// Eleven lanes (two arena blocks, the second partly padding) over
/// `bin_packing(5)`, each lane a different child box of the root.
fn loaded_engine(cfg: PdhgConfig) -> (FirstOrderWaveEngine, Vec<Vec<BoundChange>>) {
    let m = bin_packing(5, 1.0, 11);
    let std = StandardLp::from_instance(&m, &[]);
    let mut fo = FirstOrderWaveEngine::new(Accel::gpu(1), &std, 11, cfg).expect("engine");
    let boxes: Vec<Vec<BoundChange>> = (0..fo.width())
        .map(|slot| {
            vec![BoundChange {
                var: slot % std.n_structural,
                lb: 0.0,
                ub: (slot % 2) as f64,
            }]
        })
        .collect();
    for (slot, node) in boxes.iter().enumerate() {
        fo.load_lane(slot, slot as u64, node, None).expect("load");
    }
    (fo, boxes)
}

#[test]
fn steady_state_supersteps_allocate_nothing() {
    // A tolerance no iterate meets and no iteration cap in reach: lanes
    // only iterate, check every fourth step, and restart.
    let (mut fo, _) = loaded_engine(PdhgConfig {
        tol: 1e-300,
        max_iters: usize::MAX,
        ..PdhgConfig::default()
    });
    // Warm-up: lanes found infeasible at load retire here, and the `fo.*`
    // counters (restarts included) get their registry slots.
    for _ in 0..64 {
        fo.superstep();
    }
    assert!(fo.metrics().counter(gmip::trace::names::FO_RESTARTS) > 0.0);
    let busy = (0..fo.width()).filter(|&s| fo.lane_busy(s)).count();
    assert!(busy >= 6, "{busy} lanes iterating");

    let restarts = fo.metrics().counter(gmip::trace::names::FO_RESTARTS);
    for step in 0..400 {
        let (n, retired) = allocations_in(|| fo.superstep());
        assert!(retired.is_empty(), "superstep {step} retired {retired:?}");
        assert_eq!(n, 0, "superstep {step}");
    }
    assert!(
        fo.metrics().counter(gmip::trace::names::FO_RESTARTS) > restarts,
        "the measured supersteps must cover the restart path"
    );
}

#[test]
fn load_allocates_nothing_and_take_only_the_report() {
    let (mut fo, boxes) = loaded_engine(PdhgConfig::default());
    let mut retired = Vec::with_capacity(fo.width());
    // Warm-up: one full round of retire + take + refill.
    let mut cycles = 0;
    while cycles < 40 {
        let (stepped, ()) = allocations_in(|| {
            retired.clear();
            retired.extend_from_slice(fo.run_to_retire());
        });
        if cycles >= 11 {
            assert_eq!(stepped, 0, "run_to_retire");
        }
        for &slot in &retired {
            let (took, report) = allocations_in(|| fo.take_lane(slot).expect("take"));
            let warm = match report.outcome {
                FoOutcome::Converged | FoOutcome::IterLimit => {
                    Some((report.x.as_slice(), report.y.as_slice()))
                }
                FoOutcome::BoundPruned | FoOutcome::Infeasible => None,
            };
            let (loaded, r) =
                allocations_in(|| fo.load_lane(slot, 100 + cycles, &boxes[slot], warm));
            r.expect("refill");
            if cycles >= 11 {
                let shipped = if warm.is_some() { 2 } else { 0 };
                assert_eq!(took, shipped, "take_lane: the report's x and y");
                assert_eq!(loaded, 0, "load_lane");
            }
            cycles += 1;
        }
    }
}
