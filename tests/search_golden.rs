//! Golden pins for the search paths `frontier_golden.rs` does not reach.
//!
//! Recorded at `bc2b640`, the last commit where every driver carried its
//! own prune test, fractional filter, incumbent install and child
//! construction. The shared kernel (`gmip_core::search`) decides the same
//! outcomes from the same inputs, so none of these may move: objective and
//! point bits, node counts, simulated clocks, launch and message counts,
//! heuristic counters and — where the tree is returned — every label and
//! bound of the rendered tree.
//!
//! The device-engine pins at the end (`sparse_device_solver_with_cuts`,
//! `device_engines_solve_resolve_cut`) were recorded at `ebf9a09`, the last
//! commit with a hand-copied sparse engine beside the dense one: the one
//! `DeviceSimplex<M>` must charge each storage's ledger exactly as its copy
//! did.
//!
//! Six tests had their device-side pins re-recorded at the commit that
//! packed the link (the child of `93186d6`; `frontier_golden.rs` has the
//! summary): `batched_wave_propagate_dive`, `device_engines_solve_resolve_cut`,
//! `sparse_device_solver_with_cuts`, the device row of
//! `host_solver_propagate_fix_and_propagate`, `clusters_propagate_dive` and
//! `flat_cluster_seed_solution`. Outside the discrete-event clusters only
//! simulated times and H2D bytes (8 per scalar store that became a kernel
//! argument) moved; objective and point bits, iterations, nodes, cuts,
//! trees, launches and D2H bytes stayed.
//!
//! Five were re-recorded at the commit that packed the launch queue (the
//! child of `6288956`; one launch per device-engine call):
//! `device_engines_solve_resolve_cut`, `sparse_device_solver_with_cuts`, the
//! device row of `host_solver_propagate_fix_and_propagate`,
//! `clusters_propagate_dive` and `flat_cluster_seed_solution`. Outside the
//! discrete-event clusters only launches and simulated times moved —
//! `measurements/PR-22.md` has every old and new string;
//! `batched_wave_propagate_dive` and the first-order pins did not move.
//!
//! The same five were re-recorded at the commit that made a device pivot one
//! round trip (the child of `31a28fd`; a select and an apply, two launches
//! and one staged read-back). Outside the discrete-event clusters only
//! launches and simulated times moved again — `measurements/PR-24.md` has
//! every old and new string.
//!
//! The same five were re-recorded at the commit that submits a launch chain
//! where the host reads (the child of `1e998ad`; an apply or an install is
//! held and the next select continues it, a terminal select carries `x_B`
//! home). Outside the discrete-event clusters only launches, simulated
//! times and — in the Devex rows, whose weight update no longer reads two
//! scalars back — D2H bytes moved; `measurements/PR-25.md` has every old
//! and new string.
//!
//! The same five again at the commit that keeps an install's vectors
//! resident (the child of `3533cee`; an install ships only what differs
//! from what the device holds, as arguments of its first kernel when it
//! fits). Outside the discrete-event clusters only H2D bytes and simulated
//! times moved; `measurements/PR-31.md` has every old and new string.
//!
//! The same five again at the commit that runs the dual loop on the device
//! (the child of `dba25c3`; a dual phase is one chain and one staged
//! read-back, and the full `l` and `u` join the resident record). Outside
//! the discrete-event clusters only H2D bytes and simulated times moved;
//! `measurements/PR-33.md` has every old and new string.
//!
//! The same five again at the commit that makes a node LP one submission
//! (the child of `5052941`; a warm re-solve's dual run, re-install and
//! polish share one chain, and a primal run is one chain too). Outside the
//! discrete-event clusters only launches and simulated times moved;
//! `measurements/PR-34.md` has every old and new string.
//!
//! The two wave pins (`batched_wave_propagate_dive`,
//! `first_order_wave_propagate_dive`) were re-recorded at the commit that
//! makes every link crossing of a wave a superstep's (the child of
//! `aab7add`: no warm-basis pool upload at refill, and the first-order
//! lanes' loads and reports staged into their supersteps' crossings). Only
//! the makespan and the first incumbent's time moved; objective and point
//! bits, nodes, supersteps, retires, refills, launches and the heuristic and
//! propagation counters did not. `measurements/` has every old and new
//! string.

use gmip::core::{
    solve_batched_wave, solve_first_order_wave, BatchedWaveConfig, FirstOrderWaveConfig, MipConfig,
    MipResult, MipSolver, WaveResult,
};
use gmip::gpu::{Accel, CostModel, DeviceConfig};
use gmip::linalg::DenseMatrix;
use gmip::lp::{
    BoundChange, DeviceEngine, LpConfig, LpSolution, LpSolver, PricingRule, SimplexEngine,
    SparseDeviceEngine, StandardLp,
};
use gmip::parallel::{
    solve_hierarchical, solve_parallel, HierarchyConfig, ParallelConfig, ParallelResult, Warm,
};
use gmip::problems::generators::{bin_packing, knapsack, set_cover, unit_commitment};
use gmip::problems::MipInstance;
use gmip::tree::render::render;

fn gpu() -> Accel {
    Accel::gpu_with(DeviceConfig {
        cost: CostModel::gpu_pcie(),
        mem_capacity: 1 << 30,
        streams: 1,
    })
}

/// FNV-1a over the bit patterns of a point: moves if any coordinate moves
/// by one ulp, so unrounded or differently rounded incumbents show up.
fn point_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn text_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A minimization instance: every sign-mapping site is on the path.
fn cover_instance() -> MipInstance {
    set_cover(18, 14, 0.25, 5)
}

fn wave_pin(r: &WaveResult) -> String {
    format!(
        "{:?} obj={:016x} nodes={} supersteps={} retires={} refills={} launches={} \
         makespan={:016x} first={:016x} x={:016x} heur={}/{} prop={}/{}",
        r.status,
        r.objective.to_bits(),
        r.nodes,
        r.supersteps,
        r.retires,
        r.refills,
        r.device.kernel_launches,
        r.makespan_ns.to_bits(),
        r.first_incumbent_ns.unwrap_or(f64::NAN).to_bits(),
        point_hash(&r.x),
        r.metrics.counter("heur.incumbents"),
        r.metrics.counter("heur.attempts"),
        r.metrics.counter("prop.infeasible"),
        r.metrics.counter("prop.tightenings"),
    )
}

#[test]
fn batched_wave_propagate_dive() {
    let cfg = BatchedWaveConfig {
        lanes: 8,
        propagate: true,
        heuristic_period: 2,
        ..Default::default()
    };
    let got = [bin_packing(5, 1.0, 3), cover_instance()]
        .map(|m| wave_pin(&solve_batched_wave(&m, &cfg, gpu()).expect("wave solve")));
    assert_eq!(
        got,
        [
            "Optimal obj=4008000000000000 nodes=335 supersteps=1076 retires=303 refills=295 launches=4809 makespan=418317ee2800000e first=414a7a14f475adcc x=574a3110292eaa1d heur=1/167 prop=0/4053",
            "Optimal obj=4034000000000000 nodes=9 supersteps=224 retires=9 refills=4 launches=295 makespan=414317dc68acf139 first=413ad1b4fc962fcd x=308352d4f9fa3add heur=2/4 prop=0/5",
        ]
    );
}

#[test]
fn first_order_wave_propagate_dive() {
    let cfg = FirstOrderWaveConfig {
        lanes: 8,
        propagate: true,
        heuristic_period: 2,
        ..Default::default()
    };
    let got = [bin_packing(5, 1.0, 3), cover_instance()]
        .map(|m| wave_pin(&solve_first_order_wave(&m, &cfg, gpu()).expect("fo solve")));
    assert_eq!(
        got,
        [
            "Optimal obj=4008000000000000 nodes=385 supersteps=8844 retires=289 refills=281 launches=32358 makespan=41af7abb9c2e5734 first=41953ba9902f23ef x=02ea3110292eaa1d heur=1/191 prop=0/4578",
            "Optimal obj=4034000000000000 nodes=9 supersteps=2396 retires=9 refills=5 launches=7847 makespan=418e01ff15431e20 first=4184141883b2a076 x=b08352d4f9fa3add heur=1/4 prop=0/5",
        ]
    );
}

fn mip_pin(r: &MipResult) -> String {
    format!(
        "{:?} obj={:016x} nodes={} lp_iters={} cuts={} heur={} sim={:016x} x={:016x} \
         tree={:016x} incumbents={} first={:016x}",
        r.status,
        r.objective.to_bits(),
        r.stats.nodes,
        r.stats.lp_iterations,
        r.stats.cuts,
        r.stats.heur_incumbents,
        r.stats.sim_time_ns.to_bits(),
        point_hash(&r.x),
        text_hash(&render(&r.tree)),
        r.stats.metrics.counter("bb.incumbents"),
        r.stats.metrics.gauge("heur.first_incumbent_ns").to_bits(),
    )
}

#[test]
fn host_solver_propagate_fix_and_propagate() {
    let mut cfg = MipConfig::default();
    cfg.propagate = true;
    cfg.heuristics.fix_and_propagate_period = 3;
    let host = |m: MipInstance| {
        mip_pin(
            &MipSolver::host_baseline(m, cfg.clone())
                .solve()
                .expect("host solve"),
        )
    };
    let got = [
        host(knapsack(35, 0.5, 9)),
        host(cover_instance()),
        host(bin_packing(4, 1.0, 3)),
        mip_pin(
            &MipSolver::<DeviceEngine>::on_accel(bin_packing(4, 1.0, 3), cfg.clone(), gpu())
                .solve()
                .expect("device solve"),
        ),
    ];
    assert_eq!(
        got,
        [
            "Optimal obj=4095480000000000 nodes=311 lp_iters=866 cuts=19 heur=2 sim=40b3da0000000026 x=0befc885e76ecb37 tree=d7c214b3cc40094b incumbents=3 first=4045b33333333334",
            "Optimal obj=4034000000000000 nodes=1 lp_iters=36 cuts=6 heur=0 sim=403ecccccccccccd x=308352d4f9fa3add tree=7229a2988ab6195d incumbents=1 first=403ecccccccccccd",
            "Optimal obj=4008000000000000 nodes=47 lp_iters=612 cuts=37 heur=1 sim=409593d70a3d70a0 x=b175fafd354b0935 tree=a5bdff4b0805c8e9 incumbents=1 first=4061199999999999",
            "Optimal obj=4008000000000000 nodes=47 lp_iters=612 cuts=37 heur=1 sim=41630cc8ecb2cae4 x=b175fafd354b0935 tree=a5bdff4b0805c8e9 incumbents=1 first=414a2ebfa400a61e",
        ]
    );
}

fn flat_pin(r: &ParallelResult) -> String {
    format!(
        "{:?} obj={:016x} nodes={} msgs={} bytes={} launches={} makespan={:016x} x={:016x} \
         seeds={} first={:016x}",
        r.status,
        r.objective.to_bits(),
        r.stats.nodes,
        r.stats.messages,
        r.stats.message_bytes,
        r.stats.metrics.counter("gpu.kernel.launches"),
        r.stats.makespan_ns.to_bits(),
        point_hash(&r.x),
        r.stats.metrics.counter("bb.warm.seeds"),
        r.stats.metrics.gauge("heur.first_incumbent_ns").to_bits(),
    )
}

fn pcfg(workers: usize) -> ParallelConfig {
    ParallelConfig {
        workers,
        gpu_mem: 1 << 26,
        ..Default::default()
    }
}

#[test]
fn flat_cluster_seed_solution() {
    let m = knapsack(30, 0.5, 7);
    let plain = solve_parallel(&m, pcfg(8)).expect("plain");
    // The optimum as seed (the whole tree prunes against it from node one),
    // and a feasible but poor seed (the empty knapsack).
    let seeded = |seed: Vec<f64>| {
        let cfg = ParallelConfig {
            warm: Warm {
                seed: Some(seed),
                root_basis: None,
            },
            ..pcfg(8)
        };
        flat_pin(&solve_parallel(&m, cfg).expect("seeded"))
    };
    let got = [
        flat_pin(&plain),
        seeded(plain.x.clone()),
        seeded(vec![0.0; m.num_vars()]),
    ];
    assert_eq!(
        got,
        [
            "Optimal obj=4091500000000000 nodes=821 msgs=1642 bytes=310856 launches=1836 makespan=414b857e71c71c7a x=b53a3110292eaa1d seeds=0 first=412e305123456770",
            "Optimal obj=4091500000000000 nodes=821 msgs=1642 bytes=305728 launches=1836 makespan=414b855dc71c71d2 x=b53a3110292eaa1d seeds=1 first=0000000000000000",
            "Optimal obj=4091500000000000 nodes=821 msgs=1642 bytes=310856 launches=1836 makespan=414b857e71c71c7a x=b53a3110292eaa1d seeds=1 first=0000000000000000",
        ]
    );
}

#[test]
fn clusters_propagate_dive() {
    let cfg = ParallelConfig {
        propagate: true,
        heuristic_period: 2,
        ..pcfg(16)
    };
    let m = knapsack(30, 0.5, 7);
    let h = solve_hierarchical(
        &m,
        cfg.clone(),
        HierarchyConfig {
            fanout: 4,
            ..Default::default()
        },
    )
    .expect("hier");
    let got = [
        flat_pin(&solve_parallel(&m, cfg.clone()).expect("flat")),
        flat_pin(&solve_parallel(&bin_packing(4, 1.0, 3), cfg).expect("flat minimize")),
        format!(
            "{:?} obj={:016x} nodes={} msgs={} root={} steals={} broadcasts={} launches={} \
             makespan={:016x} x={:016x} first={:016x}",
            h.status,
            h.objective.to_bits(),
            h.stats.nodes,
            h.stats.messages,
            h.hier.root_messages,
            h.hier.steals,
            h.hier.incumbent_broadcasts,
            h.stats.metrics.counter("gpu.kernel.launches"),
            h.stats.makespan_ns.to_bits(),
            point_hash(&h.x),
            h.stats.metrics.gauge("heur.first_incumbent_ns").to_bits(),
        ),
    ];
    assert_eq!(
        got,
        [
            "Optimal obj=4091500000000000 nodes=819 msgs=1638 bytes=309912 launches=5085 makespan=414e9cda53f3a5bf x=b53a3110292eaa1d seeds=0 first=41202033c42f762b",
            "Optimal obj=4008000000000000 nodes=65 msgs=130 bytes=21232 launches=844 makespan=41308a7aa670cd73 x=d4f5fafd354b0935 seeds=0 first=411f7eb33866b99e",
            "Optimal obj=4091500000000000 nodes=843 msgs=2239 root=553 steals=10 broadcasts=15 launches=5172 makespan=414d94e9862d2fb5 x=b53a3110292eaa1d first=41202c166eda20d6",
        ]
    );
}

/// The dense-device pin format plus the strategy label and the LP
/// accelerator's ledger (launches, bytes over the link in each direction).
fn device_mip_pin(r: &MipResult) -> String {
    format!(
        "{} {} launches={} h2d={} d2h={}",
        r.stats.strategy,
        mip_pin(r),
        r.stats.device.kernel_launches,
        r.stats.device.h2d_bytes,
        r.stats.device.d2h_bytes,
    )
}

#[test]
fn sparse_device_solver_with_cuts() {
    let cfg = MipConfig::default();
    assert!(cfg.cuts.enabled);
    let got = [
        set_cover(40, 60, 0.06, 5),
        bin_packing(4, 1.0, 3),
        unit_commitment(4, 4, 2),
    ]
    .map(|m| {
        device_mip_pin(
            &MipSolver::<SparseDeviceEngine>::on_accel(m, cfg.clone(), gpu())
                .solve()
                .expect("sparse device solve"),
        )
    });
    assert_eq!(
        got,
        [
            "device-sparse Optimal obj=4053400000000000 nodes=1 lp_iters=102 cuts=0 heur=0 sim=412b154b7cfe35ff x=7b7b38c6cf34ac55 tree=e64ff0e2be1a8965 incumbents=1 first=412b154b7cfe35ff launches=104 h2d=10792 d2h=4752",
            "device-sparse Optimal obj=4008000000000000 nodes=189 lp_iters=2404 cuts=37 heur=1 sim=417748f4764dafdb x=2815fafd354b0935 tree=cfeec7557c92d10c incumbents=1 first=4172c54bb8d15aaa launches=2636 h2d=28064 d2h=201816",
            "device-sparse Optimal obj=40c46b8000000000 nodes=7 lp_iters=93 cuts=17 heur=0 sim=4137625b8c4ff834 x=edf2f148a6b7d615 tree=8305825bc71ad0e0 incumbents=1 first=4135e9d393960635 launches=123 h2d=40288 d2h=24368",
        ]
    );
}

/// One `LpSolver` driven through solve → bound change + `resolve` →
/// `add_cut` + `resolve`, pinned after each step: objective and point bits,
/// iterations, and the engine's whole ledger.
fn lp_pin<E: SimplexEngine>(
    m: &MipInstance,
    pricing: PricingRule,
    engine: fn(Accel, &DenseMatrix) -> E,
) -> String {
    let accel = gpu();
    let mut cfg = LpConfig::standard();
    cfg.primal.pricing = pricing;
    let factory_accel = accel.clone();
    let mut lp = LpSolver::new(StandardLp::from_instance(m, &[]), cfg, move |a| {
        engine(factory_accel.clone(), a)
    });
    let mut steps = Vec::new();
    let mut pin = |sol: LpSolution| {
        let s = accel.stats();
        steps.push(format!(
            "{:?} obj={:016x} x={:016x} iters={} launches={} h2d={} d2h={} ns={:016x}",
            sol.status,
            sol.objective.to_bits(),
            point_hash(&sol.x),
            sol.iterations,
            s.kernel_launches,
            s.h2d_bytes,
            s.d2h_bytes,
            accel.elapsed_ns().to_bits(),
        ));
    };
    pin(lp.solve().expect("solve"));
    lp.apply_node_bounds(&[BoundChange {
        var: 0,
        lb: 1.0,
        ub: 1.0,
    }])
    .expect("bounds");
    pin(lp.resolve().expect("bound resolve"));
    lp.apply_node_bounds(&[]).expect("bounds");
    lp.add_cut(&[(0, -1.0), (1, -1.0), (2, -1.0)], -1.5)
        .expect("cut");
    pin(lp.resolve().expect("cut resolve"));
    steps.join(" | ")
}

#[test]
fn device_engines_solve_resolve_cut() {
    let dense = |a: Accel, m: &DenseMatrix| DeviceEngine::new(a, m).expect("dense upload");
    let sparse = |a: Accel, m: &DenseMatrix| SparseDeviceEngine::new(a, m).expect("csr upload");
    let mut got = Vec::new();
    for m in [set_cover(24, 30, 0.12, 5), unit_commitment(3, 4, 5)] {
        for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
            got.push(lp_pin(&m, pricing, dense));
            got.push(lp_pin(&m, pricing, sparse));
        }
    }
    assert_eq!(
        got,
        [
            "Optimal obj=403bffffffffffff x=e2a82c3d5e7b3381 iters=51 launches=53 h2d=18864 d2h=2456 ns=411c8dd53a06d3ba | Optimal obj=403d000000000000 x=e83a3110292eaa1d iters=0 launches=54 h2d=18864 d2h=2688 ns=411da8f8888888a3 | Optimal obj=403c800000000000 x=758a3110292eaa1d iters=1 launches=56 h2d=23648 d2h=2984 ns=4120407507f6e5e5",
            "Optimal obj=403c000000000000 x=4e25edba5b029cda iters=51 launches=53 h2d=6296 d2h=2456 ns=411c6cbcc8e6280d | Optimal obj=403d000000000000 x=e83a3110292eaa1d iters=0 launches=54 h2d=6296 d2h=2688 ns=411d869858bf259b | Optimal obj=403c800000000000 x=758a3110292eaa1d iters=1 launches=56 h2d=10328 d2h=2984 ns=41202dbe8c1bf4fc",
            "Optimal obj=403c000000000000 x=b1ea3110292eaa1d iters=42 launches=44 h2d=18864 d2h=2096 ns=411831c66666667b | Optimal obj=403d000000000000 x=e83a3110292eaa1d iters=0 launches=45 h2d=18864 d2h=2328 ns=41194ce428f5c2a5 | Optimal obj=403c800000000000 x=758a3110292eaa1d iters=1 launches=47 h2d=23648 d2h=2624 ns=411c24d012345694",
            "Optimal obj=403c000000000000 x=b1ea3110292eaa1d iters=42 launches=44 h2d=6296 d2h=2096 ns=41180857ee721a5c | Optimal obj=403d000000000000 x=683a3110292eaa1d iters=0 launches=45 h2d=6296 d2h=2328 ns=41192230991cc507 | Optimal obj=403c800000000000 x=f58a3110292eaa1d iters=1 launches=47 h2d=10328 d2h=2624 ns=411bf714509ea38d",
            "Optimal obj=40c3e91498498498 x=7e7cac0d38c62ab1 iters=41 launches=43 h2d=22016 d2h=2120 ns=4117aea5a740da7b | Optimal obj=40c47358dc8dc8dc x=468fd36f29b401a8 iters=1 launches=45 h2d=22016 d2h=2440 ns=4119485570a3d711 | Optimal obj=40c45c5222222222 x=875295d066b4d8ca iters=2 launches=48 h2d=27056 d2h=2824 ns=411c9f70acf1357f",
            "Optimal obj=40c3e91498498498 x=7e7cac0d38c62ab1 iters=41 launches=43 h2d=6184 d2h=2120 ns=41178658e0f475b2 | Optimal obj=40c47358dc8dc8dc x=468fd36f29b401a8 iters=1 launches=45 h2d=6184 d2h=2440 ns=41191d787120aba8 | Optimal obj=40c45c5222222222 x=875295d066b4d8ca iters=2 launches=48 h2d=10424 d2h=2824 ns=411c6feb98765438",
            "Optimal obj=40c3e91498498498 x=7e7cac0d38c62ab1 iters=41 launches=43 h2d=22016 d2h=2120 ns=4117c0d2e147ae16 | Optimal obj=40c47358dc8dc8dc x=468fd36f29b401a8 iters=1 launches=45 h2d=22016 d2h=2440 ns=41195a7cfa4fa4fc | Optimal obj=40c45c5222222222 x=875295d066b4d8ca iters=2 launches=48 h2d=27056 d2h=2824 ns=411cb192740da741",
            "Optimal obj=40c3e91498498498 x=7e7cac0d38c62ab1 iters=41 launches=43 h2d=6184 d2h=2120 ns=41178c9dca5ca5c4 | Optimal obj=40c47358dc8dc8dc x=468fd36f29b401a8 iters=1 launches=45 h2d=6184 d2h=2440 ns=411923b50b3719d0 | Optimal obj=40c45c5222222222 x=875295d066b4d8ca iters=2 launches=48 h2d=10424 d2h=2824 ns=411c761ef6929c54",
        ]
    );
}
