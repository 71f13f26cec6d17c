//! Serving-tier determinism: one seed fixes the traffic tape, every
//! admission decision, every fault plan, every schedule — so a full
//! 500-job replay must reproduce byte-identical traces and identical
//! served outcomes run over run (DESIGN.md §10's determinism claim).

use gmip::parallel::ChaosConfig;
use gmip::serve::{generate, ServeConfig, Service, TrafficConfig};
use gmip::trace::TraceSession;
use std::sync::Mutex;

/// Same process-global trace-collector gate as tests/determinism.rs: the
/// byte-identical comparisons must not see spans from sibling tests.
static TRACE_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn replay(chaos: Option<ChaosConfig>) -> (String, String, u64, usize) {
    let (tenants, jobs) = generate(&TrafficConfig {
        jobs: 500,
        seed: 424242,
        max_items: 9,
        ..TrafficConfig::default()
    });
    let mut cfg = ServeConfig {
        ranks: 6,
        ..ServeConfig::default()
    };
    cfg.solve.chaos = chaos;
    let session = TraceSession::start();
    let report = Service::new(cfg, tenants).run(jobs);
    let trace = session.finish().to_chrome_json();
    (
        trace,
        report.outcome_digest(),
        report.makespan_ns.to_bits(),
        report.completed(),
    )
}

#[test]
fn serve_500_job_replay_is_byte_identical() {
    let _g = gate();
    let (trace_a, digest_a, makespan_a, done_a) = replay(None);
    let (trace_b, digest_b, makespan_b, done_b) = replay(None);
    assert!(done_a > 400, "most of the tape should be answered");
    assert_eq!(done_a, done_b, "completed counts diverged");
    assert!(trace_a.contains("serve"), "serve track missing from trace");
    assert_eq!(digest_a, digest_b, "served outcomes diverged");
    assert_eq!(makespan_a, makespan_b, "simulated makespans diverged");
    assert_eq!(trace_a, trace_b, "serve trace streams diverged");
}

#[test]
fn serve_replay_under_chaos_is_byte_identical() {
    let _g = gate();
    let overlay = ChaosConfig {
        drop_prob: 0.05,
        delay_prob: 0.1,
        crashes: 1,
        horizon_ns: 5.0e5,
        ..ChaosConfig::quiet(77)
    };
    let (trace_a, digest_a, makespan_a, done_a) = replay(Some(overlay.clone()));
    let (trace_b, digest_b, makespan_b, _) = replay(Some(overlay));
    assert!(done_a > 300, "chaos must not wipe out the tape");
    assert_eq!(digest_a, digest_b, "chaotic outcomes diverged");
    assert_eq!(makespan_a, makespan_b);
    assert_eq!(trace_a, trace_b, "chaotic serve traces diverged");
}
