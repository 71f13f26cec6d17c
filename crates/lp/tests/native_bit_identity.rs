//! Property tests: the batched PDHG step is bit-identical to the canonical
//! per-lane kernels, on the simulator and on the native executing backend
//! at every thread count — `Accel::dispatch` hands a block to exactly one
//! thread, and the step never reorders the math inside a lane.

use gmip_gpu::{Accel, BackendKind, WaveCharge, DEFAULT_STREAM};
use gmip_linalg::{CsrMatrix, DenseMatrix};
use gmip_lp::firstorder::{fo_step_block, gather, scatter, FoArena};
use proptest::prelude::*;

/// One lane's contiguous state: the reference's working set, and what a
/// slot of the arena is loaded from and compared against.
#[derive(Debug, Clone)]
struct Lane {
    busy: bool,
    tau: f64,
    sigma: f64,
    x: Vec<f64>,
    y: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    aty: Vec<f64>,
    xhat: Vec<f64>,
    ax: Vec<f64>,
    x_sum: Vec<f64>,
    y_sum: Vec<f64>,
}

/// A reproducible sparse matrix + per-lane state from a proptest seed.
#[derive(Debug, Clone)]
struct Fixture {
    csr: CsrMatrix,
    lanes: Vec<Lane>,
    c_tilde: Vec<f64>,
    b: Vec<f64>,
}

fn fixture_strategy() -> impl Strategy<Value = Fixture> {
    (1usize..8, 1usize..8, 1usize..71, any::<u64>()).prop_map(|(m, n, width, seed)| {
        // A cheap deterministic generator: splitmix64 over the seed. Using
        // proptest only for the shape + seed keeps the case small and
        // shrinkable while still exercising irregular values.
        let mut state = seed;
        let mut bits = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut next = move || (bits() as f64 / u64::MAX as f64 - 0.5) * 4.0;
        // Occupancy per fixture — sparse, two thirds, full — so blocks land
        // on both sides of the kernel's narrow/wide choice.
        let empty_below = [1.0, -0.7, -2.1][(seed % 3) as usize];
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let v = next();
                        // ~40% structural zeros for genuinely sparse rows.
                        if v.abs() < 0.8 {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        let dense = DenseMatrix::from_rows(&rows).expect("rectangular rows");
        let lanes = (0..width)
            .map(|_| {
                // Empty slots are all-zero with τ = σ = 0.
                let busy = next() > empty_below;
                let mut draw = |len: usize, f: &mut dyn FnMut(f64) -> f64| -> Vec<f64> {
                    (0..len)
                        .map(|_| if busy { f(next()) } else { 0.0 })
                        .collect()
                };
                // Duals with exact zeros of both signs: the rows the
                // canonical `Aᵀy` skips and the blocked one cannot.
                let y = draw(m, &mut |v| match v {
                    v if v < -1.2 => -0.0,
                    v if v > 1.2 => 0.0,
                    v => v,
                });
                let x = draw(n, &mut |v| v);
                // Boxes with infinite sides.
                let lb = draw(n, &mut |v| {
                    if v < -1.4 {
                        f64::NEG_INFINITY
                    } else {
                        -v.abs()
                    }
                });
                let ub = draw(n, &mut |v| if v > 1.4 { f64::INFINITY } else { v.abs() });
                let tau = draw(1, &mut |v| 0.05 + v.abs())[0];
                let sigma = draw(1, &mut |v| 0.05 + v.abs())[0];
                Lane {
                    busy,
                    tau,
                    sigma,
                    x,
                    y,
                    lb,
                    ub,
                    aty: vec![0.0; n],
                    xhat: vec![0.0; n],
                    ax: vec![0.0; m],
                    x_sum: vec![0.0; n],
                    y_sum: vec![0.0; m],
                }
            })
            .collect();
        Fixture {
            csr: CsrMatrix::from_dense(&dense),
            lanes,
            c_tilde: (0..n).map(|_| next()).collect(),
            b: (0..m).map(|_| next()).collect(),
        }
    })
}

/// The canonical per-lane iteration: `gmip-linalg`'s two SpMV kernels
/// (the transposed one skipping rows whose `yᵢ == 0`) around the scalar
/// axpy / dual-update / averaging loops, one lane at a time.
fn reference_step(fx: &Fixture, lane: &mut Lane) {
    fx.csr
        .matvec_transposed_into(&lane.y, &mut lane.aty)
        .expect("fo.spmv_t shape");
    for j in 0..fx.c_tilde.len() {
        let step = lane.x[j] - lane.tau * (fx.c_tilde[j] + lane.aty[j]);
        let xj = step.max(lane.lb[j]).min(lane.ub[j]);
        lane.xhat[j] = 2.0 * xj - lane.x[j];
        lane.x[j] = xj;
    }
    fx.csr
        .matvec_into(&lane.xhat, &mut lane.ax)
        .expect("fo.spmv shape");
    for i in 0..fx.b.len() {
        lane.y[i] += lane.sigma * (lane.ax[i] - fx.b[i]);
    }
    for j in 0..lane.x.len() {
        lane.x_sum[j] += lane.x[j];
    }
    for i in 0..fx.b.len() {
        lane.y_sum[i] += lane.y[i];
    }
}

const STEPS: usize = 3;

/// Loads the fixture into an arena, runs [`STEPS`] batched steps on
/// `backend`, and reads every slot back.
fn run_arena(fx: &Fixture, backend: BackendKind) -> Vec<Lane> {
    let accel = Accel::gpu(1).with_backend(backend);
    let (m, n) = (fx.b.len(), fx.c_tilde.len());
    let mut arena = FoArena::new(m, n, fx.lanes.len());
    for (slot, lane) in fx.lanes.iter().enumerate().filter(|(_, l)| l.busy) {
        let (blk, l) = arena.lane_mut(slot);
        scatter(&mut blk.x, l, &lane.x);
        scatter(&mut blk.y, l, &lane.y);
        scatter(&mut blk.lb, l, &lane.lb);
        scatter(&mut blk.ub, l, &lane.ub);
        blk.set_steps(l, lane.tau, lane.sigma);
    }
    let charges = [WaveCharge {
        name: "fo.spmv",
        lanes: fx.lanes.iter().filter(|l| l.busy).count(),
        per_lane: (1.0, 1.0),
        sparse: true,
    }];
    for _ in 0..STEPS {
        accel.dispatch(
            "fo.step",
            arena.blocks_mut(),
            |_, blk| fo_step_block(&fx.csr, &fx.c_tilde, &fx.b, blk),
            &charges,
            DEFAULT_STREAM,
        );
    }
    fx.lanes
        .iter()
        .enumerate()
        .map(|(slot, lane)| {
            let (blk, l) = arena.lane(slot);
            let read = |src: &[f64], len: usize| {
                let mut out = vec![0.0; len];
                gather(src, l, &mut out);
                out
            };
            Lane {
                x: read(&blk.x, n),
                y: read(&blk.y, m),
                lb: read(&blk.lb, n),
                ub: read(&blk.ub, n),
                aty: read(&blk.aty, n),
                xhat: read(&blk.xhat, n),
                ax: read(&blk.ax, m),
                x_sum: read(&blk.x_sum, n),
                y_sum: read(&blk.y_sum, m),
                ..lane.clone()
            }
        })
        .collect()
}

/// Every `f64` of every lane, as raw bits (so `-0.0 != 0.0`, NaN == NaN).
fn bits(lanes: &[Lane]) -> Vec<Vec<u64>> {
    lanes
        .iter()
        .map(|l| {
            [
                &l.x, &l.y, &l.lb, &l.ub, &l.aty, &l.xhat, &l.ax, &l.x_sum, &l.y_sum,
            ]
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn blocked_step_is_bit_identical_to_the_per_lane_kernels(fx in fixture_strategy()) {
        // Busy lanes follow the canonical kernels; empty slots stay zero.
        let mut reference = fx.lanes.clone();
        for lane in reference.iter_mut().filter(|l| l.busy) {
            for _ in 0..STEPS {
                reference_step(&fx, lane);
            }
        }
        let reference = bits(&reference);
        prop_assert_eq!(&bits(&run_arena(&fx, BackendKind::Sim)), &reference, "sim");
        for threads in [1usize, 2, 4] {
            let got = bits(&run_arena(&fx, BackendKind::Native { threads }));
            prop_assert_eq!(&got, &reference, "threads {}", threads);
        }
    }

    #[test]
    fn native_dispatch_runs_every_item_once(
        lanes in 1usize..32,
        threads in 1usize..6,
    ) {
        let accel = Accel::gpu(1).with_backend(BackendKind::Native { threads });
        let mut hits = vec![0u32; lanes];
        let per_lane: Vec<(f64, f64)> = vec![(8.0, 64.0); lanes];
        let charged = accel.dispatch(
            "prop.round",
            &mut hits,
            |_, h| *h += 1,
            &[WaveCharge { name: "prop.reduce", lanes, per_lane: (8.0, 64.0), sparse: false }],
            DEFAULT_STREAM,
        );
        prop_assert!(hits.iter().all(|&h| h == 1));
        // Same charge the simulator would have made.
        let sim = Accel::gpu(1);
        let sim_ns = sim.with(|d| {
            d.batched_wave_kernel("prop.reduce", per_lane.iter().copied(), false, DEFAULT_STREAM)
        });
        prop_assert_eq!(charged.to_bits(), sim_ns.to_bits());
        // Real wall-clock landed outside the simulated ledger.
        let wall = accel.wall_metrics();
        prop_assert!(wall.counter("wall.dispatches") >= 1.0);
    }
}
