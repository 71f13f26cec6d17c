//! E4 — concurrent solution of many small problems on one device.
//!
//! Paper source: Section 5.5. Claims reproduced:
//! * small node-LPs can be batched: "dozens of branch-and-cut nodes could
//!   be solved simultaneously by the GPU" — one batched kernel launch beats
//!   per-problem launches, with the win growing with batch size;
//! * the feasible batch is sized by `device_memory / matrix_memory`;
//! * the alternative structuring — multiple ranks each driving its own
//!   serial stream — is also measured (the "multiple ranks per processor
//!   core" option). Streams overlap kernel bodies and transfers; they share
//!   the device's one launch-issue queue, so for launch-bound small solves
//!   they buy next to nothing — which is why the batched margin of part C
//!   tracks the launch ratio and grows with the width.

use crate::experiments::gpu;
use crate::table::{fmt_ns, Table};
use gmip_gpu::DEFAULT_STREAM as S;
use gmip_linalg::DenseMatrix;
use rand::{Rng, SeedableRng};

fn small_system(n: usize, rng: &mut impl Rng) -> (DenseMatrix, Vec<f64>) {
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a.set(
                i,
                j,
                if i == j {
                    n as f64 + rng.gen_range(1.0..3.0)
                } else {
                    rng.gen_range(-1.0..1.0)
                },
            );
        }
    }
    (a, (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E4: batched small-problem solving (paper Section 5.5)\n\n");
    let n = 32;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let mut t = Table::new(&["batch", "serial", "batched", "streams(4)", "speedup(batch)"]);
    for batch in [1usize, 4, 16, 64, 256] {
        let systems: Vec<(DenseMatrix, Vec<f64>)> =
            (0..batch).map(|_| small_system(n, &mut rng)).collect();

        // All three variants pre-stage the data (uploads amortized per
        // Section 5's reuse doctrine) and we time the *compute* phase only,
        // which is what batching accelerates.

        // Serial: one launch per factor-solve on one stream.
        let serial = gpu(1 << 30);
        let serial_ns = serial
            .with(|d| -> Result<f64, gmip_gpu::GpuError> {
                let mut hs = Vec::new();
                for (a, b) in &systems {
                    hs.push((d.upload_matrix(a, S)?, d.upload_vector(b, S)?));
                }
                let t0 = d.synchronize();
                for &(ah, bh) in &hs {
                    let f = d.lu_factor(ah, S)?;
                    d.lu_solve(f, bh, S)?;
                }
                Ok(d.synchronize() - t0)
            })
            .expect("serial");

        // Batched: single launch.
        let batched = gpu(1 << 30);
        let batched_ns = batched
            .with(|d| -> Result<f64, gmip_gpu::GpuError> {
                let mut hs = Vec::new();
                for (a, b) in &systems {
                    hs.push((d.upload_matrix(a, S)?, d.upload_vector(b, S)?));
                }
                let t0 = d.synchronize();
                d.batched_lu_solve(&hs, S)?;
                Ok(d.synchronize() - t0)
            })
            .expect("batched");

        // Streams: 4 concurrent streams, round-robin (the multi-rank
        // alternative: concurrency without a batch API). Their launches
        // still leave the host one at a time; only the 32x32 bodies, a
        // hundredth of a launch each, overlap.
        let streamed = gpu(1 << 30);
        let streamed_ns = streamed
            .with(|d| -> Result<f64, gmip_gpu::GpuError> {
                let streams: Vec<_> = (0..4)
                    .map(|k| if k == 0 { S } else { d.create_stream() })
                    .collect();
                let mut hs = Vec::new();
                for (a, b) in &systems {
                    hs.push((d.upload_matrix(a, S)?, d.upload_vector(b, S)?));
                }
                let t0 = d.synchronize();
                for (i, &(ah, bh)) in hs.iter().enumerate() {
                    let st = streams[i % streams.len()];
                    let f = d.lu_factor(ah, st)?;
                    d.lu_solve(f, bh, st)?;
                }
                Ok(d.synchronize() - t0)
            })
            .expect("streams");

        t.row(vec![
            batch.to_string(),
            fmt_ns(serial_ns),
            fmt_ns(batched_ns),
            fmt_ns(streamed_ns),
            format!("{:.1}x", serial_ns / batched_ns),
        ]);
    }
    out.push_str(&t.render());

    // Part B: the same mechanism inside branch and bound — `lanes`
    // independent engines (each with its own matrix copy and stream) on one
    // device, dispatched wave by wave. What the lanes overlap is their link
    // crossings and kernel bodies; their launches queue behind one another.
    out.push_str(
        "\npart B: concurrent node evaluation in branch and bound \
         (one device, one launch-issue queue)\n",
    );
    use gmip_core::{solve_concurrent, WaveConfig};
    use gmip_problems::generators::knapsack;
    let inst = knapsack(20, 0.5, 4);
    let mut t = Table::new(&[
        "lanes",
        "nodes",
        "waves",
        "makespan",
        "speedup",
        "peak dev mem",
    ]);
    let mut lane1_ns = 0.0;
    for lanes in [1usize, 2, 4, 8] {
        let r = solve_concurrent(
            &inst,
            &WaveConfig {
                lanes,
                ..Default::default()
            },
            gpu(1 << 30),
        )
        .expect("concurrent solve");
        if lanes == 1 {
            lane1_ns = r.makespan_ns;
        }
        t.row(vec![
            lanes.to_string(),
            r.nodes.to_string(),
            r.supersteps.to_string(),
            fmt_ns(r.makespan_ns),
            format!("{:.2}x", lane1_ns / r.makespan_ns),
            crate::table::fmt_bytes(r.peak_device_bytes as u64),
        ]);
    }
    out.push_str(&t.render());

    // Part C: the batched wave evaluator — one shared device-resident
    // matrix, one fused launch per superstep of the kernel class the most
    // lanes wait on, event-based retire-and-refill — against part B's
    // per-lane engines.
    out.push_str(
        "\npart C: batched wave vs per-lane node evaluation \
         (shared matrix, fused launches)\n",
    );
    let sweep = wave_sweep();
    out.push_str(&sweep_table(&sweep));
    out.push_str("wide tree (knapsack(20, 0.5, 21)):\n");
    let wide = wide_sweep();
    out.push_str(&sweep_table(&wide));
    assert_wave_claims(&sweep);
    out.push_str(
        "shape check: the time ratio grows with the width, and the fused \
         wave finishes first and issues strictly fewer launches from width \
         16 on the first tree and at every width of the wide one — a \
         per-lane node LP is one chain, a launch per pivot and one crossing, \
         and the wave pays a launch per superstep, of the kernel class the \
         most lanes wait on, so its saving starts where enough lanes share \
         each launch; per-lane launches are issued one by one whatever \
         stream they sit on (machine-readable copy of the first sweep: \
         BENCH_e4.json).\n",
    );

    let per_mat = n * n * 8;
    let cap = 1usize << 30;
    out.push_str(&format!(
        "\nfeasible concurrent residency (paper's sizing rule): {} matrices of {} B in a {} GiB device\n",
        cap / per_mat,
        per_mat,
        cap >> 30
    ));
    out.push_str(
        "shape check: batching amortizes launch latency, growing with batch size; \
         4 streams overlap kernel bodies and transfers but share one \
         launch-issue queue, so on these launch-bound 32x32 solves they \
         equal serial, and part B's lanes gain 1.1-1.2x, not 2-5x.\n",
    );
    out
}

/// Part C's claims (Section 5.5): the per-lane / batched time ratio of the
/// sweep grows with the width, and the wave finishes first and launches
/// less from width 16 on, and at no narrower width. (The wide tree, where
/// it does both at every width, is held by
/// `batched_wave_beats_per_lane_at_every_width`.)
fn assert_wave_claims(sweep: &[WaveSweepRow]) {
    let ratios: Vec<(usize, f64)> = sweep
        .iter()
        .map(|r| (r.width, r.perlane_ns / r.batched_ns))
        .collect();
    assert!(ratios.len() >= 2, "sweep too narrow");
    assert!(
        ratios.windows(2).all(|p| p[1].1 > p[0].1),
        "per-lane / batched time ratios by width should grow: {ratios:?}"
    );
    for r in sweep {
        let ahead = r.width >= 16;
        assert_eq!(
            (
                r.batched_ns < r.perlane_ns,
                r.batched_launches < r.perlane_launches
            ),
            (ahead, ahead),
            "width {}: batched {} ns / {} launches vs per-lane {} ns / {} launches",
            r.width,
            r.batched_ns,
            r.batched_launches,
            r.perlane_ns,
            r.perlane_launches
        );
    }
}

/// One part-C table: both evaluators' makespans and launches by width.
fn sweep_table(rows: &[WaveSweepRow]) -> String {
    let mut t = Table::new(&[
        "width",
        "per-lane",
        "launches",
        "batched wave",
        "launches",
        "launch ratio",
        "time ratio",
    ]);
    for r in rows {
        t.row(vec![
            r.width.to_string(),
            fmt_ns(r.perlane_ns),
            r.perlane_launches.to_string(),
            fmt_ns(r.batched_ns),
            r.batched_launches.to_string(),
            format!(
                "{:.2}",
                r.perlane_launches as f64 / r.batched_launches as f64
            ),
            format!("{:.2}", r.perlane_ns / r.batched_ns),
        ]);
    }
    t.render()
}

/// One width of the part-C sweep: the same branch-and-bound run evaluated
/// by the per-lane concurrent engines and by the batched wave.
pub struct WaveSweepRow {
    /// Requested (and, at 1 GiB, granted) wave width.
    pub width: usize,
    /// Per-lane evaluator makespan in simulated ns.
    pub perlane_ns: f64,
    /// Kernel launches charged by the per-lane evaluator.
    pub perlane_launches: u64,
    /// Batched-wave makespan in simulated ns.
    pub batched_ns: f64,
    /// Kernel launches charged by the batched wave (fused per class).
    pub batched_launches: u64,
    /// Supersteps the wave executed.
    pub batched_supersteps: usize,
}

/// Runs the part-C sweep: per-lane and batched-wave evaluation of the same
/// knapsack at widths 1/4/8/16. Deterministic (fixed seed, logical clock), so
/// the numbers double as the regression baseline.
pub fn wave_sweep() -> Vec<WaveSweepRow> {
    sweep(
        &gmip_problems::generators::knapsack(20, 0.5, 4),
        &[1, 4, 8, 16],
    )
}

/// Part C's wide tree: a knapsack whose search keeps 64 and more lanes
/// busy, where the wave's launch sharing leads the per-lane evaluator at
/// every width. Reported, not part of the baseline.
fn wide_sweep() -> Vec<WaveSweepRow> {
    sweep(
        &gmip_problems::generators::knapsack(20, 0.5, 21),
        &[32, 64, 128],
    )
}

fn sweep(inst: &gmip_problems::MipInstance, widths: &[usize]) -> Vec<WaveSweepRow> {
    use gmip_core::{solve_batched_wave, solve_concurrent, WaveConfig};
    widths
        .iter()
        .map(|&width| {
            let cfg = WaveConfig {
                lanes: width,
                ..Default::default()
            };
            let per_lane = solve_concurrent(inst, &cfg, gpu(1 << 30)).expect("per-lane solve");
            let batched = solve_batched_wave(inst, &cfg, gpu(1 << 30)).expect("batched wave solve");
            assert!(
                (per_lane.objective - batched.objective).abs() < 1e-6,
                "strategies disagree at width {width}"
            );
            WaveSweepRow {
                width,
                perlane_ns: per_lane.makespan_ns,
                perlane_launches: per_lane.device.kernel_launches,
                batched_ns: batched.makespan_ns,
                batched_launches: batched.device.kernel_launches,
                batched_supersteps: batched.supersteps,
            }
        })
        .collect()
}

/// Machine-readable record of the part-C sweep (`BENCH_e4.json`).
pub fn bench_json() -> String {
    let mut s = String::from(
        "{\n  \"schema\": \"gmip-bench-e4/1\",\n  \"instance\": \"knapsack-20/4\",\n  \"metrics\": {\n",
    );
    let rows = wave_sweep();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"e4.wave.w{w}.perlane_ns\": {:.1},\n    \
             \"e4.wave.w{w}.perlane_launches\": {},\n    \
             \"e4.wave.w{w}.batched_ns\": {:.1},\n    \
             \"e4.wave.w{w}.batched_launches\": {},\n    \
             \"e4.wave.w{w}.batched_supersteps\": {}{sep}\n",
            r.perlane_ns,
            r.perlane_launches,
            r.batched_ns,
            r.batched_launches,
            r.batched_supersteps,
            w = r.width,
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn batching_speedup_grows() {
        let s = super::run();
        let speedups: Vec<f64> = s
            .lines()
            .filter(|l| l.trim_end().ends_with('x'))
            .filter_map(|l| {
                l.split_whitespace()
                    .last()
                    .and_then(|v| v.trim_end_matches('x').parse().ok())
            })
            .collect();
        assert!(speedups.len() >= 4);
        let last = *speedups.last().expect("rows exist");
        let first = speedups[0];
        assert!(
            last > first && last > 3.0,
            "speedup should grow with batch: {speedups:?}"
        );
    }

    /// The acceptance bar for the batched wave: on a tree wide enough to
    /// keep its lanes busy, at every width (32 to 128), lower simulated ns
    /// than the per-lane evaluator and strictly fewer launches (a device
    /// engine's node LP is one chain — a launch per pivot and one crossing
    /// — and the wave pays one launch per superstep, of the class the most
    /// lanes wait on, so it saves once enough lanes share each launch).
    #[test]
    fn batched_wave_beats_per_lane_at_every_width() {
        let wide = super::wide_sweep();
        assert!(wide.iter().any(|r| r.width >= 64), "sweep too narrow");
        for r in &wide {
            assert!(
                r.batched_launches < r.perlane_launches,
                "width {}: {} fused launches vs {} per-lane",
                r.width,
                r.batched_launches,
                r.perlane_launches
            );
            assert!(
                r.batched_ns < r.perlane_ns,
                "width {}: {} ns batched vs {} ns per-lane",
                r.width,
                r.batched_ns,
                r.perlane_ns
            );
        }
    }

    /// Streams share the launch-issue queue: a launch-bound batch gains
    /// nothing from four of them, and the batched margin of part C grows
    /// with the width (checked inside `run`).
    #[test]
    fn streams_do_not_multiply_the_launch_queue() {
        let s = super::run();
        let row = s
            .lines()
            .find(|l| l.starts_with("256 "))
            .expect("batch-256 row");
        // batch | serial | batched | streams(4) | speedup
        let cells: Vec<&str> = row
            .split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        assert_eq!(cells[1], cells[3], "streams(4) should equal serial: {row}");
    }

    #[test]
    fn bench_json_is_deterministic_and_well_formed() {
        let a = super::bench_json();
        assert_eq!(a, super::bench_json(), "sweep must be deterministic");
        assert!(a.contains("\"e4.wave.w16.batched_ns\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
