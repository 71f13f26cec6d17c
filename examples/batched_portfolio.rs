//! Section 5.5 in action: many branch-and-cut node LPs solved concurrently
//! on one device, through the solver's real `batched:<lanes>` strategy.
//!
//! The same MIP is solved two ways on the simulated GPU:
//!
//! * **per-lane** ([`gmip::core::solve_concurrent`]): one engine and one
//!   private matrix copy per lane, one kernel launch per simplex operation
//!   per lane per pivot;
//! * **batched wave** ([`gmip::core::solve_batched_wave`]): one shared
//!   device-resident matrix for every lane and one *fused* batched launch
//!   per superstep, of the kernel class the most lanes wait on, with
//!   finished lanes retiring
//!   mid-flight and refilling from the best-bound frontier.
//!
//! Both reach the same optimum; the ledgers show the batching win ("dozens
//! of branch-and-cut nodes could be solved simultaneously"), and the wave
//! width is sized against device memory as the paper prescribes.
//!
//! Run with: `cargo run --release --example batched_portfolio`

use gmip::core::{
    solve_batched_wave, solve_concurrent, BatchedWaveConfig, ConcurrentConfig, MipStatus,
};
use gmip::gpu::Accel;
use gmip::problems::generators::knapsack;

fn main() {
    let instance = knapsack(18, 0.5, 11);
    println!(
        "portfolio of node LPs from: {} ({} vars, {} cons)\n",
        instance.name,
        instance.num_vars(),
        instance.num_cons()
    );

    let lanes = 8;

    // Per-lane evaluator: `lanes` engines, `lanes` matrix copies, a
    // device-wide synchronize joining every wave.
    let per_lane = solve_concurrent(
        &instance,
        &ConcurrentConfig {
            lanes,
            ..Default::default()
        },
        Accel::gpu(1),
    )
    .expect("per-lane solve");
    assert_eq!(per_lane.status, MipStatus::Optimal);

    // Batched wave: one shared matrix, fused launches, retire-and-refill.
    let batched = solve_batched_wave(
        &instance,
        &BatchedWaveConfig {
            lanes,
            ..Default::default()
        },
        Accel::gpu(1),
    )
    .expect("batched wave solve");
    assert_eq!(batched.status, MipStatus::Optimal);
    assert!(
        (batched.objective - per_lane.objective).abs() < 1e-6,
        "strategies must agree on the optimum"
    );
    println!("optimum (both strategies): {}\n", batched.objective);

    println!(
        "{:<14} {:>7} {:>10} {:>14} {:>12}",
        "mode", "nodes", "launches", "sim time (µs)", "peak mem (B)"
    );
    println!(
        "{:<14} {:>7} {:>10} {:>14.1} {:>12}",
        "per-lane",
        per_lane.nodes,
        per_lane.device.kernel_launches,
        per_lane.makespan_ns / 1e3,
        per_lane.peak_device_bytes
    );
    println!(
        "{:<14} {:>7} {:>10} {:>14.1} {:>12}",
        "batched wave",
        batched.nodes,
        batched.device.kernel_launches,
        batched.makespan_ns / 1e3,
        batched.peak_device_bytes
    );

    println!(
        "\nbatched wave: width {} (memory-sized), {} supersteps, \
         {} retires, {} refills",
        batched.width, batched.supersteps, batched.retires, batched.refills
    );
    println!(
        "speedup: {:.1}x in simulated time, {:.1}x fewer kernel launches \
         (one fused launch per superstep)",
        per_lane.makespan_ns / batched.makespan_ns,
        per_lane.device.kernel_launches as f64 / batched.device.kernel_launches as f64
    );
    assert!(
        batched.device.kernel_launches < per_lane.device.kernel_launches,
        "fused launches must undercut per-lane launches"
    );
    assert!(
        batched.makespan_ns < per_lane.makespan_ns,
        "batching must win at this size"
    );
}
