//! Golden pins for every scheduler that draws from the shared ordered
//! frontier of `gmip-tree`.
//!
//! The frontier index changes *how* the next node is found, never *which*
//! node it is: every driver picks by the same total order (bound desc, id
//! asc). These fingerprints were recorded at the last commit whose drivers
//! still scanned and sorted `active_ids()` themselves (`6881efc`); a
//! scheduler change that moves any of them has changed the search, not just
//! its cost.
//!
//! Seven pins were re-recorded at the commit that packed the link (the child
//! of `93186d6`: one staged install upload, pivot scalars as kernel
//! arguments, one staged transfer per superstep and direction). That commit
//! changed what the device engines and the simplex wave *cost*, so in
//! `concurrent_lanes`, `batched_wave_64` and `flat_64_dynamic` only the
//! makespan moved; in the discrete-event clusters whose workers now report
//! earlier (`flat_64_static`, the three `hier_256x16_*`) the event order —
//! and with it node, message, steal and launch counts — moved too, the
//! optimum did not. CHANGES.md lists every old and new string.
//!
//! Six were re-recorded at the commit that packed the launch queue (the
//! child of `6288956`: one launch per device-engine call, one launch-issue
//! queue per device). `concurrent_lanes` moved in launches and makespan —
//! its lanes launch less, and queue for the issue slot; the five cluster
//! pins (`flat_64_*`, `hier_256x16_*`) moved as in the link commit, workers
//! reporting earlier still, and the chaos plans' fault windows are now sized
//! from a fault-free run instead of a constant (2.11e7 ns, which the kill
//! time had outlived). `batched_wave_64`, `first_order_wave_64`
//! and the optimum of every pin did not move. `measurements/PR-22.md` lists
//! every old and new string.
//!
//! The same six were re-recorded at the commit that made a device pivot one
//! round trip (the child of `31a28fd`: a select and an apply per pivot, two
//! launches and one staged read-back). `concurrent_lanes` moved in launches
//! and makespan only; the five cluster pins moved as before, workers
//! reporting earlier still; the wave pins and every optimum did not move.
//! `measurements/PR-24.md` lists every old and new string.
//!
//! The same six again at the commit that submits a launch chain where the
//! host reads (the child of `1e998ad`: an apply or an install is held and
//! the next select continues it, so a pivot is one launch and one
//! crossing). Same pattern: launches and makespan in `concurrent_lanes`, the
//! event order in the five cluster pins; `measurements/PR-25.md` lists every
//! old and new string.
//!
//! The same six again at the commit that keeps an install's vectors resident
//! (the child of `3533cee`: a warm install ships only what changed, as
//! kernel arguments). `concurrent_lanes` moved in makespan only, the five
//! cluster pins in their event order; `measurements/PR-31.md` lists every
//! old and new string.
//!
//! The same six again at the commit that runs the dual loop on the device
//! (the child of `dba25c3`: a dual phase is one chain and one read-back,
//! each device-side iteration after the first a relaunch). Same pattern:
//! makespan in `concurrent_lanes`, the event order in the five cluster
//! pins; `measurements/PR-33.md` lists every old and new string.
//!
//! The same six again at the commit that makes a node LP one submission
//! (the child of `5052941`: a warm re-solve's dual run, re-install and
//! polish share one chain, and a primal run is one chain too). Launches and
//! makespan in `concurrent_lanes`, the event order in the five cluster pins;
//! `measurements/PR-34.md` lists every old and new string.
//!
//! The three wave pins (`batched_wave_64`, plain and propagating, and
//! `first_order_wave_64`) were re-recorded at the commit that makes every
//! link crossing of a wave a superstep's (the child of `aab7add`: the
//! simplex wave's warm-basis pool, whose misses crossed the link at refill,
//! is gone, and the first-order wave stages its lanes' loads and reports
//! into its supersteps' crossings). Only the makespan moved: optimum,
//! nodes, supersteps and launches did not. CHANGES.md and `measurements/`
//! list every old and new string.
//!
//! Both `batched_wave_64` pins were re-recorded at the commit that fuses
//! the simplex wave's lanes by state (the child of `64a6c9a`: a superstep
//! launches the one kernel class the most lanes wait on, and a warm install
//! journals no 0-byte upload). Each lane's pivots, objective and point are
//! as before; only the superstep an op runs in moved, so supersteps,
//! launches, makespan and — through the retire order — the plain run's node
//! count moved (1119 → 1113); the optimum did not.
//! `measurements/` lists every old and new string.
//!
//! `first_order_wave_64` was re-recorded at the commit that checks every
//! first-order lane on the wave's tick (the child of `c4f2349`), whose lanes
//! retired on their safe bound or infeasible ship their outcome and bound
//! (16 B) instead of their iterates. Only the makespan moved: optimum,
//! nodes, supersteps and launches did not (this wave's lanes already
//! checked on the tick). `measurements/` has the old and new string.
//!
//! The chaos plans pin the hierarchy's recovery paths — `evacuate_group`,
//! `reassign` and the steal-deny backoff — which no benchmark workload
//! reaches. The last test is the cost side of the same contract: a frontier
//! too large for any per-pick scan to drain.

use gmip::core::{
    solve_batched_wave, solve_concurrent, solve_first_order_wave, BatchedWaveConfig,
    FirstOrderWaveConfig, WaveConfig,
};
use gmip::gpu::{Accel, CostModel, DeviceConfig};
use gmip::parallel::{
    solve_hierarchical, solve_parallel, solve_threaded, ChaosConfig, HierResult, HierarchyConfig,
    LoadBalance, ParallelConfig, ParallelResult,
};
use gmip::problems::generators::{bin_packing, knapsack};
use gmip::problems::MipInstance;
use gmip::tree::{NodeState, SearchTree};

fn cluster_instance() -> MipInstance {
    knapsack(46, 0.5, 7)
}

fn wave_instance() -> MipInstance {
    bin_packing(5, 1.0, 3)
}

fn gpu() -> Accel {
    Accel::gpu_with(DeviceConfig {
        cost: CostModel::gpu_pcie(),
        mem_capacity: 1 << 30,
        streams: 1,
    })
}

fn pcfg(workers: usize) -> ParallelConfig {
    ParallelConfig {
        workers,
        gpu_mem: 1 << 26,
        ..Default::default()
    }
}

fn flat_pin(r: &ParallelResult) -> String {
    format!(
        "obj={:016x} nodes={} msgs={} launches={} makespan={:016x}",
        r.objective.to_bits(),
        r.stats.nodes,
        r.stats.messages,
        r.stats.metrics.counter("gpu.kernel.launches"),
        r.stats.makespan_ns.to_bits(),
    )
}

fn hier_pin(r: &HierResult) -> String {
    format!(
        "obj={:016x} nodes={} msgs={} root={} steals={} stolen={} denied={} reassigned={} \
         evacuated={} launches={} makespan={:016x}",
        r.objective.to_bits(),
        r.stats.nodes,
        r.stats.messages,
        r.hier.root_messages,
        r.hier.steals,
        r.hier.stolen_subtrees,
        r.hier.steal_denied,
        r.stats.faults.reassignments,
        r.stats.faults.group_reassigned_subtrees,
        r.stats.metrics.counter("gpu.kernel.launches"),
        r.stats.makespan_ns.to_bits(),
    )
}

fn wave_pin(r: &gmip::core::WaveResult) -> String {
    format!(
        "obj={:016x} nodes={} supersteps={} launches={} makespan={:016x}",
        r.objective.to_bits(),
        r.nodes,
        r.supersteps,
        r.device.kernel_launches,
        r.makespan_ns.to_bits(),
    )
}

fn hier(chaos: Option<ChaosConfig>) -> HierResult {
    solve_hierarchical(
        &cluster_instance(),
        ParallelConfig { chaos, ..pcfg(256) },
        HierarchyConfig {
            fanout: 16,
            ..Default::default()
        },
    )
    .expect("hierarchical solve")
}

/// The fault-free 256x16 makespan, ns: the chaos plans size their fault
/// windows from it, so a change to what a node LP costs cannot move a fault
/// past the end of the run.
fn clean_makespan_ns() -> f64 {
    hier(None).stats.makespan_ns
}

#[test]
fn flat_64_dynamic() {
    let r = solve_parallel(&cluster_instance(), pcfg(64)).expect("flat solve");
    assert_eq!(
        flat_pin(&r),
        "obj=409aec0000000000 nodes=1303 msgs=2606 launches=2932 makespan=41353cb4ccccccc9"
    );
}

#[test]
fn flat_64_static() {
    let cfg = ParallelConfig {
        load_balance: LoadBalance::Static,
        ..pcfg(64)
    };
    let r = solve_parallel(&cluster_instance(), cfg).expect("static flat solve");
    assert_eq!(
        flat_pin(&r),
        "obj=409aec0000000000 nodes=2500 msgs=5000 launches=5614 makespan=4156b491e4b18018"
    );
}

#[test]
fn hier_256x16_plain() {
    let r = hier(None);
    assert_eq!(r.hier.max_evaluations_per_node, 1);
    assert!(r.hier.steals > 0 && r.hier.steal_denied > 0);
    assert_eq!(hier_pin(&r), "obj=409aec0000000000 nodes=2480 msgs=5702 root=742 steals=18 stolen=34 denied=183 reassigned=0 evacuated=0 launches=5575 makespan=4135a48b99999997");
}

#[test]
fn hier_256x16_sub_crash() {
    let r = hier(Some(ChaosConfig {
        sub_crashes: 3,
        crashes: 6,
        horizon_ns: clean_makespan_ns() * 0.8,
        ..ChaosConfig::quiet(11)
    }));
    assert!(r.stats.faults.sub_crashes > 0, "no sub-crash landed");
    assert!(
        r.stats.faults.group_reassigned_subtrees > 0,
        "evacuate_group not reached"
    );
    assert!(r.stats.faults.reassignments > 0, "reassign not reached");
    assert_eq!(hier_pin(&r), "obj=409aec0000000000 nodes=2402 msgs=5719 root=841 steals=27 stolen=53 denied=192 reassigned=1 evacuated=61 launches=5471 makespan=4136294c35dd7c35");
}

#[test]
fn hier_256x16_kill_group() {
    let r = hier(Some(ChaosConfig {
        kill_group: Some(1),
        kill_group_at_ns: clean_makespan_ns() * 0.5,
        max_respawns: 0,
        drop_prob: 0.02,
        ..ChaosConfig::quiet(5)
    }));
    assert!(r.stats.faults.degraded_ranks >= 16, "group 1 not wiped");
    assert!(
        r.stats.faults.group_reassigned_subtrees > 0,
        "evacuate_group not reached"
    );
    assert!(r.stats.faults.reassignments > 0, "reassign not reached");
    assert_eq!(hier_pin(&r), "obj=409aec0000000000 nodes=2499 msgs=5949 root=774 steals=20 stolen=36 denied=174 reassigned=117 evacuated=27 launches=5740 makespan=4137023599999993");
}

#[test]
fn batched_wave_64() {
    let plain = BatchedWaveConfig {
        lanes: 64,
        ..Default::default()
    };
    let r = solve_batched_wave(&wave_instance(), &plain, gpu()).expect("wave solve");
    assert_eq!(
        wave_pin(&r),
        "obj=4008000000000000 nodes=1113 supersteps=855 launches=850 makespan=415c2ef28eca864f"
    );
    let prop = BatchedWaveConfig {
        propagate: true,
        heuristic_period: 8,
        ..plain
    };
    let r = solve_batched_wave(&wave_instance(), &prop, gpu()).expect("propagating wave solve");
    assert_eq!(
        wave_pin(&r),
        "obj=4008000000000000 nodes=335 supersteps=467 launches=1137 makespan=4162193c98835507"
    );
}

#[test]
fn first_order_wave_64() {
    let cfg = FirstOrderWaveConfig {
        lanes: 64,
        ..Default::default()
    };
    let r = solve_first_order_wave(&wave_instance(), &cfg, gpu()).expect("first-order solve");
    assert_eq!(
        wave_pin(&r),
        "obj=4008000000000000 nodes=469 supersteps=10636 launches=34567 makespan=41b0d84c20b60ca3"
    );
}

#[test]
fn concurrent_lanes() {
    let r = solve_concurrent(&wave_instance(), &WaveConfig::default(), gpu())
        .expect("concurrent solve");
    assert_eq!(
        format!(
            "obj={:016x} nodes={} waves={} launches={} makespan={:016x}",
            r.objective.to_bits(),
            r.nodes,
            r.supersteps,
            r.device.kernel_launches,
            r.makespan_ns.to_bits(),
        ),
        "obj=4008000000000000 nodes=1113 waves=280 launches=3465 makespan=417d2e72e8888154"
    );
}

/// Real threads race for reports, so only the optimum is pinned.
#[test]
fn threaded_objective() {
    let r = solve_threaded(&knapsack(20, 0.5, 7), &pcfg(2)).expect("threaded solve");
    assert_eq!(
        format!("obj={:016x}", r.objective.to_bits()),
        "obj=4088580000000000"
    );
}

/// 200 000 open nodes grown and then emptied best-first, one `best()` +
/// `begin_evaluation` per node: 4·10¹⁰ steps for code that scans the active
/// set per pick, under a second for the ordered frontier. The drain must
/// come out in the one order every driver relies on.
#[test]
fn frontier_of_200k_nodes_drains_in_order() {
    const FRONTIER: usize = 200_000;
    let mut tree = SearchTree::with_root((), 64);
    while tree.active_ids().len() < FRONTIER {
        let id = tree.best().expect("frontier is growing");
        tree.begin_evaluation(id);
        // A thousand distinct bounds: every bound is shared by many nodes.
        let bound = 1e6 - (id % 1000) as f64;
        tree.branch(id, bound, [(String::new(), ()), (String::new(), ())]);
    }
    assert_eq!(tree.stats().max_active, FRONTIER);
    let mut last = (f64::INFINITY, 0);
    while let Some(id) = tree.best() {
        let bound = tree.node(id).bound;
        assert!(
            bound < last.0 || (bound == last.0 && id > last.1),
            "node {id} (bound {bound}) drained after node {} (bound {})",
            last.1,
            last.0
        );
        last = (bound, id);
        assert!(tree.begin_evaluation(id));
        tree.settle(id, NodeState::Pruned, bound);
    }
    assert_eq!(tree.stats().pruned, FRONTIER);
    assert!(tree.all_settled());
}
