//! The simplex wave's hot loop must not touch the allocator: a warm
//! `BatchedWaveEngine::superstep()` — the lane scan, the per-class fusion
//! lists, the staged link charges, the retired-slot list — runs in
//! engine-owned scratch sized for the full width once.
//!
//! Nor does widening the wave: one host planner serves every lane. Nor
//! does charging a propagation wave's fused launches, nor running one of
//! its rounds.
//!
//! Allocations are counted per thread (the harness runs the tests of this
//! file on threads of their own), so the counts are exact and repeat.

use gmip::core::{solve_batched_wave, BatchedWaveConfig};
use gmip::gpu::Accel;
use gmip::linalg::DenseMatrix;
use gmip::lp::{BatchedWaveEngine, LpConfig, LpSolver, RecordingEngine, StandardLp, WaveOp};
use gmip::problems::generators::{bin_packing, knapsack};
use gmip::problems::{Constraint, MipInstance, Objective, Sense, Variable};
use gmip::prop::{charge_wave, Propagator};
use gmip::trace::names;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

#[test]
fn warm_supersteps_allocate_nothing() {
    // One journaled root LP, replayed end to end over and over: lane `l`
    // gets the first `100 + 8 l` ops of that loop, so lanes run out one
    // after another while the rest keep stepping.
    let std = StandardLp::from_instance(&knapsack(30, 0.5, 3), &[]);
    let mut ext = None;
    let mut lp = LpSolver::new(std, LpConfig::standard(), |a: &DenseMatrix| {
        ext = Some(a.clone());
        RecordingEngine::new(a.clone())
    });
    lp.solve().expect("root LP");
    let journal = lp.engine_mut().take_ops();
    assert!(journal
        .iter()
        .any(|op| matches!(op, WaveOp::Transfer { .. })));
    let ext = ext.expect("engine factory ran");
    let mut wave = BatchedWaveEngine::new(Accel::gpu(1), &ext, 64).expect("wave");
    for slot in 0..64 {
        let ops = journal.iter().copied().cycle().take(100 + 8 * slot);
        wave.load_lane(slot, ops.collect());
    }

    // Warm-up: the `wave.*` counters get their registry slots.
    for _ in 0..64 {
        assert!(wave.superstep().is_empty());
    }
    let mut retired = 0;
    for step in 0..400 {
        let (n, gone) = allocations_in(|| wave.superstep().len());
        assert_eq!(n, 0, "superstep {step}");
        retired += gone;
    }
    // The measured steps covered lanes retiring and lanes sitting idle.
    assert_eq!(retired, (0..64).filter(|l| 100 + 8 * l <= 464).count());
    assert!(wave.any_busy());
    let m = wave.metrics();
    assert_eq!(m.counter(names::WAVE_SUPERSTEPS), 464.0);
    assert_eq!(m.counter(names::WAVE_RETIRES), retired as f64);
    // The lanes replay one journal in phase: a step is one fused launch or
    // one staged transfer.
    let kernel_steps = journal.iter().cycle().take(464);
    assert_eq!(
        m.counter(names::WAVE_FUSED_LAUNCHES),
        kernel_steps
            .filter(|op| matches!(op, WaveOp::Kernel { .. }))
            .count() as f64
    );
}

/// A wave lane keeps only what its device holds: one planner takes every
/// lane's pivot path, so widening the wave adds the lanes' journals, state
/// reservations and install records, not a solver, a matrix and a host
/// mirror per lane. A one-node solve at 64 lanes allocates a handful more
/// times than at one lane.
#[test]
fn wide_waves_share_one_planner() {
    let m = bin_packing(5, 1.0, 61);
    let solve = |lanes: usize| {
        let cfg = BatchedWaveConfig {
            lanes,
            node_limit: 1,
            ..Default::default()
        };
        let accel = Accel::gpu(1);
        allocations_in(|| solve_batched_wave(&m, &cfg, accel).expect("wave solve"))
    };
    let (narrow, one) = solve(1);
    let (wide, sixty_four) = solve(64);
    assert_eq!((one.width, sixty_four.width), (1, 64));
    assert_eq!((one.nodes, sixty_four.nodes), (1, 1));
    assert!(
        wide <= narrow + 16,
        "{wide} allocations at 64 lanes, {narrow} at one"
    );
}

/// `charge_wave` charges each round's three fused classes from one
/// repeated `(flops, bytes)` pair per class, not from a vector of them: a
/// wave of several lanes over several rounds allocates nothing.
#[test]
fn charging_a_propagation_wave_allocates_nothing() {
    let accel = Accel::gpu(1);
    let rounds = [3, 1, 4, 1, 5, 0, 2, 6];
    let (n, ns) = allocations_in(|| charge_wave(&accel, 120, 30, &rounds));
    assert!(ns > 0.0);
    assert_eq!(n, 0, "{n} allocations");
    assert_eq!(accel.stats().kernel_launches, 3 * 6);
}

/// `propagate_wave` builds its lanes' dispatch items once per call: a
/// round costs no allocation, so a wave that runs eight rounds allocates
/// what one stopped after two does.
#[test]
fn propagation_rounds_allocate_nothing() {
    // A chain `x_i − x_{i+1} ≥ 1` over ten integers in [0, 10]: each sweep
    // pushes the lower bounds one more link back, so the fixpoint lies
    // past eight rounds.
    let mut chain = MipInstance::new("chain", Objective::Maximize);
    for i in 0..10 {
        chain.add_var(Variable::integer(format!("x{i}"), 0.0, 10.0, 1.0));
    }
    for i in 0..9 {
        let coeffs = vec![(i, 1.0), (i + 1, -1.0)];
        chain.add_con(Constraint::new(format!("c{i}"), coeffs, Sense::Ge, 1.0));
    }
    let p = Propagator::new(&chain);
    let accel = Accel::gpu(1);
    let run = |max_rounds: usize| {
        let mut boxes = vec![p.node_box(&[]); 6];
        let (n, outs) = allocations_in(|| p.propagate_wave(&accel, &mut boxes, max_rounds));
        assert!(outs.iter().all(|o| o.rounds == max_rounds && !o.infeasible));
        n
    };
    run(8);
    let (two, eight) = (run(2), run(8));
    assert_eq!(two, eight, "{two} allocations at 2 rounds, {eight} at 8");
}

/// A fix-and-propagate dive tries each fixing in two scratch boxes it
/// refills from the current box, not in fresh clones of it: a dive that
/// fixes eight variables allocates what one that fixes two does.
#[test]
fn a_dive_allocates_the_same_whatever_its_fixings() {
    // Ten binaries under one loose row: every rounding survives, so the
    // dive fixes exactly the fractional ones.
    let mut m = MipInstance::new("loose", Objective::Maximize);
    for i in 0..10 {
        m.add_var(Variable::integer(format!("x{i}"), 0.0, 1.0, 1.0));
    }
    let row = (0..10).map(|i| (i, 1.0)).collect();
    m.add_con(Constraint::new("cap", row, Sense::Le, 10.0));
    let p = Propagator::new(&m);
    let (lb, ub) = p.node_box(&[]);
    let dive = |fractional: usize| {
        let x: Vec<f64> = (0..10)
            .map(|i| if i < fractional { 0.5 } else { 0.0 })
            .collect();
        let (n, out) = allocations_in(|| p.fix_and_propagate(&x, &lb, &ub, 1e-6, 8));
        let (_, point) = out.candidate.expect("a loose row takes every rounding");
        assert_eq!(point.iter().filter(|&&v| v == 1.0).count(), fractional);
        n
    };
    let (two, eight) = (dive(2), dive(8));
    assert_eq!(two, eight, "{two} allocations for 2 fixings, {eight} for 8");
}
