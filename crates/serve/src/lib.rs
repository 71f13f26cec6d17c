//! # gmip-serve
//!
//! A deterministic multi-tenant **solve service** over the simulated
//! cluster: the serving tier the paper's batch experiments stop short of.
//! MIP shops rarely solve one instance once — they field streams of
//! related solves (rolling-horizon re-solves, what-if perturbations,
//! repeated dashboard queries) from many users against one accelerator
//! pool. This crate reproduces that tier without any OS async runtime:
//!
//! * [`service`] — a hand-rolled reactor/job queue on the simulated-ns
//!   clock: admission control (per-tenant quotas, priority load
//!   shedding), strict priority/FIFO dispatch, and sharding of concurrent
//!   jobs across cluster ranks via [`gmip_parallel::RankPool`]. Each
//!   dispatched job runs the solve-path table's `cluster:<leased ranks>`
//!   row ([`gmip_parallel::SolvePath::run`]) with the service's
//!   [`gmip_parallel::SolveOptions`]; the solve's simulated makespan is its
//!   service time. Under the
//!   chaos overlay each attempt derives its own fault plan and is retried
//!   with exponential backoff past a per-attempt deadline.
//! * [`fingerprint`] — canonical instance fingerprints: row/column order
//!   and objective scaling are normalized away and the result is rendered
//!   through the MPS writer and hashed, so semantically identical models
//!   share a cache key (metamorphically tested against `gmip-verify`'s
//!   transforms).
//! * [`pool`] — the solution pool: exact-fingerprint hits are answered
//!   straight from cache; structural hits warm-start perturbed
//!   re-submissions from the pooled incumbent and root basis.
//! * [`traffic`] — a seeded open-loop generator (Poisson arrivals,
//!   heavy-tailed job sizes, duplicate and perturbed re-submissions).
//! * [`check`] — oracle spot-checks of served answers against the exact
//!   rational oracle.
//!
//! The whole stack is byte-deterministic: one seed fixes the traffic
//! tape, every fault plan, every schedule decision, and therefore every
//! trace byte and served answer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod fingerprint;
pub mod pool;
pub mod service;
pub mod traffic;

pub use check::spot_check;
pub use fingerprint::{canonicalize, Canonical};
pub use pool::{PoolEntry, SolutionPool};
pub use service::{
    check_options, Disposition, JobRecord, JobSpec, ServeConfig, ServeReport, Service, TenantSpec,
};
pub use traffic::{generate, TrafficConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_trace::names;

    fn small_traffic(jobs: usize, seed: u64) -> TrafficConfig {
        TrafficConfig {
            jobs,
            seed,
            max_items: 9,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn serves_a_small_tape_with_cache_hits() {
        let (tenants, jobs) = traffic::generate(&small_traffic(60, 7));
        let svc = Service::new(
            ServeConfig {
                ranks: 4,
                ..ServeConfig::default()
            },
            tenants,
        );
        let report = svc.run(jobs.clone());
        assert_eq!(report.records.len(), 60);
        assert!(report.completed() > 0, "no job completed");
        assert!(
            report.metrics.counter(names::SERVE_CACHE_EXACT_HITS) > 0.0,
            "duplicate submissions should hit the exact cache"
        );
        assert!(
            report.metrics.counter(names::SERVE_CACHE_WARM_HITS) > 0.0,
            "perturbed re-submissions should warm-start"
        );
        // Every served answer in the sample agrees with the exact oracle.
        let audited = spot_check(&jobs, &report, 10, 1).expect("spot check");
        assert!(audited > 0);
    }

    #[test]
    fn warm_start_resolve_spends_fewer_nodes_than_cold() {
        // Satellite: a perturbed re-submission must ride the pooled
        // incumbent to a cheaper proof than solving cold, with the same
        // oracle-verified optimum. Bin packing is the family where
        // incumbent timing moves the node count (symmetric, late first
        // incumbents); the perturbation grows each bin's capacity
        // coefficient by 5%, so the pooled packing stays feasible.
        use gmip_problems::generators::bin_packing;
        let base = bin_packing(6, 10.0, 1);
        let mut perturbed = base.clone();
        for c in &mut perturbed.cons {
            for (_, v) in &mut c.coeffs {
                if *v < 0.0 {
                    *v *= 1.05;
                }
            }
        }

        let tenants = vec![TenantSpec::new("t0", 1)];
        let cfg = ServeConfig {
            ranks: 2,
            ..ServeConfig::default()
        };
        let job = |id: u64, m: &gmip_problems::MipInstance, at: f64| JobSpec {
            id,
            tenant: 0,
            arrival_ns: at,
            width: 2,
            instance: m.clone(),
        };

        // Cold: the perturbed model alone.
        let cold = Service::new(cfg.clone(), tenants.clone()).run(vec![job(0, &perturbed, 0.0)]);
        let cold_rec = &cold.records[0];
        assert_eq!(cold_rec.disposition, Disposition::SolvedCold);

        // Warm: base first (pools its answer), then the perturbation.
        let warm =
            Service::new(cfg, tenants).run(vec![job(0, &base, 0.0), job(1, &perturbed, 1.0e9)]);
        let warm_rec = &warm.records[1];
        assert_eq!(
            warm_rec.disposition,
            Disposition::SolvedWarm,
            "second submission should warm-start from the pool"
        );
        assert!(
            warm_rec.nodes < cold_rec.nodes,
            "warm re-solve should spend fewer nodes ({} vs cold {})",
            warm_rec.nodes,
            cold_rec.nodes
        );

        // Same proven optimum either way, and the oracle agrees.
        let oracle = gmip_verify::solve_oracle(&perturbed).expect("oracle");
        let want = oracle.objective.expect("optimal").approx();
        for got in [cold_rec.objective, warm_rec.objective] {
            assert!(
                (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                "objective {got} disagrees with oracle {want}"
            );
        }
    }

    #[test]
    fn quota_and_shedding_enforce_admission() {
        // One tenant with a tiny quota and a burst of simultaneous
        // arrivals: beyond max_queued everything quota-rejects.
        use gmip_problems::generators::knapsack;
        let tenants = vec![TenantSpec {
            name: "burst".into(),
            priority: 1,
            max_queued: 2,
        }];
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec {
                id: i,
                tenant: 0,
                arrival_ns: 0.0,
                width: 1,
                instance: knapsack(8, 0.5, 100 + i),
            })
            .collect();
        let report = Service::new(
            ServeConfig {
                ranks: 1,
                ..ServeConfig::default()
            },
            tenants,
        )
        .run(jobs);
        let rejected = report
            .records
            .iter()
            .filter(|r| r.disposition == Disposition::QuotaRejected)
            .count();
        assert!(rejected > 0, "burst should trip the tenant quota");
        assert!(report.completed() > 0, "admitted jobs still complete");
    }

    #[test]
    fn blown_attempt_deadline_retries_with_backoff_then_fails() {
        // An attempt timeout far below any real makespan forces the
        // Abort -> backoff -> Requeue path on every attempt; after
        // max_retries the job is declared Failed, not left pending.
        use gmip_problems::generators::knapsack;
        let report = Service::new(
            ServeConfig {
                ranks: 1,
                attempt_timeout_ns: 10.0,
                max_retries: 2,
                ..ServeConfig::default()
            },
            vec![TenantSpec::new("t0", 1)],
        )
        .run(vec![JobSpec {
            id: 0,
            tenant: 0,
            arrival_ns: 0.0,
            width: 1,
            instance: knapsack(8, 0.5, 5),
        }]);
        let rec = &report.records[0];
        assert_eq!(rec.disposition, Disposition::Failed);
        assert_eq!(rec.retries, 2, "both retry budget slots spent");
        assert_eq!(report.metrics.counter(names::SERVE_RETRIES), 2.0);
        assert_eq!(report.metrics.counter(names::SERVE_JOBS_FAILED), 1.0);
        // Each retry waits out an exponentially growing backoff on top of
        // the attempt timeouts: exactly 3 timeouts + backoff * (1 + 2).
        assert_eq!(rec.finish_ns, 3.0 * 10.0 + 3.0 * 1.0e6);
    }

    /// The service's solve options reach every attempt: with propagation
    /// and the dive on, the ranks run `prop.*` and `heur.*` work, and every
    /// answer is the plain run's.
    #[test]
    fn serve_forwards_its_solve_options() {
        let (tenants, jobs) = traffic::generate(&small_traffic(30, 5));
        let run = |cfg: ServeConfig| Service::new(cfg, tenants.clone()).run(jobs.clone());
        let plain = run(ServeConfig {
            ranks: 4,
            ..ServeConfig::default()
        });
        let mut cfg = ServeConfig {
            ranks: 4,
            ..ServeConfig::default()
        };
        cfg.solve.mip.propagate = true;
        cfg.solve.mip.heuristics.fix_and_propagate_period = 2;
        let hooked = run(cfg);
        for name in [names::PROP_ROUNDS, names::HEUR_ATTEMPTS] {
            assert_eq!(plain.metrics.counter(name), 0.0, "{name}");
            assert!(hooked.metrics.counter(name) > 0.0, "{name} never ran");
        }
        assert!(hooked.completed() > 0);
        for (p, h) in plain.records.iter().zip(&hooked.records) {
            if p.answered() && h.answered() {
                assert_eq!(p.objective, h.objective, "job {}", p.id);
            }
        }
    }

    /// An option the cluster does not read is refused, not dropped.
    #[test]
    #[should_panic(expected = "--gap is not read by serve")]
    fn an_option_the_cluster_does_not_read_is_refused() {
        let mut cfg = ServeConfig::default();
        cfg.solve.mip.gap_rel = 0.1;
        Service::new(cfg, vec![TenantSpec::new("t0", 1)]);
    }

    #[test]
    fn two_runs_are_bit_identical() {
        let (tenants, jobs) = traffic::generate(&small_traffic(40, 23));
        let run = || {
            Service::new(
                ServeConfig {
                    ranks: 4,
                    ..ServeConfig::default()
                },
                tenants.clone(),
            )
            .run(jobs.clone())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcome_digest(), b.outcome_digest());
        assert_eq!(a.makespan_ns.to_bits(), b.makespan_ns.to_bits());
    }
}
