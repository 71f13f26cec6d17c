//! The solve service: a deterministic reactor over the simulated cluster.
//!
//! `gmip-serve` multiplexes many tenants' solve jobs onto one pool of
//! cluster ranks. There is no OS async runtime anywhere: the front-end is
//! a discrete-event reactor on the same simulated-ns logical clock the
//! cluster itself runs on, so a whole serving day — arrivals, queueing,
//! admission, sharded solves, retries, cache hits — replays byte-for-byte
//! under a fixed seed.
//!
//! Lifecycle of a job:
//!
//! 1. **Arrival** — the instance is canonicalized (one fingerprint pass).
//!    An exact pool hit is answered immediately at cache cost, never
//!    touching the cluster. Otherwise admission control runs: per-tenant
//!    queue quotas first, then global load shedding (over `QUEUE_CAP`
//!    everything sheds; over `SHED_DEPTH` only priority-0 tenants shed —
//!    the graceful-degradation mode).
//! 2. **Dispatch** — a strict priority/FIFO head-of-line policy: the
//!    highest-priority oldest job leases its requested rank width from the
//!    shared [`RankPool`] and runs as its own miniature supervisor–worker
//!    cluster: the solve-path table's `cluster:<width>` row, built from
//!    [`ServeConfig::solve`]. A structural pool hit seeds the solve with a
//!    [`gmip_parallel::Warm`] start — the pooled incumbent, and the root
//!    basis when the column order matches.
//! 3. **Finish / Abort** — the solve's simulated makespan is its service
//!    time. Under the chaos overlay each attempt derives its own fault
//!    plan; an attempt whose makespan blows through `attempt_timeout_ns`
//!    is aborted and retried with exponential backoff until the retry
//!    budget runs out. Proven-optimal answers enter the pool.

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;
use std::sync::Mutex;

use gmip_core::MipStatus;
use gmip_parallel::{
    EventQueue, ParallelResult, RankLease, RankPool, SolveOptions, SolvePath, Solved, Timed,
};
use gmip_problems::MipInstance;
use gmip_trace::{names, record, Event, MetricsRegistry, Track};

use crate::fingerprint::{canonicalize, Canonical};
use crate::pool::SolutionPool;

/// One tenant's identity and admission limits.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (appears in per-tenant metric keys).
    pub name: String,
    /// Scheduling priority; higher dispatches first. Priority-0 tenants
    /// are the first shed under load.
    pub priority: u8,
    /// Max jobs this tenant may have waiting in the queue.
    pub max_queued: usize,
}

impl TenantSpec {
    /// A tenant with the default queue quota.
    pub fn new(name: impl Into<String>, priority: u8) -> Self {
        TenantSpec {
            name: name.into(),
            priority,
            max_queued: 32,
        }
    }
}

/// One submitted solve job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id (unique, monotone in submission order).
    pub id: u64,
    /// Index into the tenant table.
    pub tenant: usize,
    /// Arrival time on the service clock, simulated ns.
    pub arrival_ns: f64,
    /// Rank width the job requests (clamped to the pool size).
    pub width: usize,
    /// The model to solve.
    pub instance: MipInstance,
}

/// What finally happened to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Answered straight from the solution pool (exact fingerprint hit).
    CacheHit,
    /// Solved on the cluster from scratch.
    SolvedCold,
    /// Solved on the cluster seeded by a pooled incumbent/basis.
    SolvedWarm,
    /// Dropped by load shedding at admission.
    Shed,
    /// Rejected because the tenant was over its queue quota.
    QuotaRejected,
    /// Retry budget exhausted (every attempt timed out or errored).
    Failed,
}

/// Per-job outcome record (one per submitted job, in submission order).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Final disposition.
    pub disposition: Disposition,
    /// Terminal solver status, for jobs that ran or hit the cache.
    pub status: Option<MipStatus>,
    /// Objective in the submitter's own scaling (NaN if no answer).
    pub objective: f64,
    /// Branch-and-bound nodes spent answering (0 for cache hits).
    pub nodes: usize,
    /// Attempts beyond the first.
    pub retries: u32,
    /// Arrival time, simulated ns.
    pub arrival_ns: f64,
    /// Completion time, simulated ns.
    pub finish_ns: f64,
}

impl JobRecord {
    /// End-to-end latency, simulated ns.
    pub fn latency_ns(&self) -> f64 {
        self.finish_ns - self.arrival_ns
    }

    /// True when the submitter got an answer (cached or solved).
    pub fn answered(&self) -> bool {
        matches!(
            self.disposition,
            Disposition::CacheHit | Disposition::SolvedCold | Disposition::SolvedWarm
        )
    }
}

/// Hard queue bound: arrivals beyond this shed regardless of tenant.
const QUEUE_CAP: usize = 64;
/// Soft queue bound: beyond this, priority-0 tenants shed.
const SHED_DEPTH: usize = 48;
/// Backoff before retry k is `RETRY_BACKOFF_NS * 2^k`.
const RETRY_BACKOFF_NS: f64 = 1.0e6;
/// Solution-pool capacity (entries).
const POOL_CAPACITY: usize = 256;
/// Simulated cost of serving an exact cache hit.
const CACHE_HIT_NS: f64 = 20_000.0;
/// Simulated admission-control overhead per arrival.
const ADMISSION_NS: f64 = 5_000.0;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total cluster ranks shared by all in-flight jobs.
    pub ranks: usize,
    /// Per-attempt simulated deadline; a solve whose makespan exceeds it
    /// is aborted and retried.
    pub attempt_timeout_ns: f64,
    /// Attempts beyond the first before a job fails permanently.
    pub max_retries: u32,
    /// What every attempt solves with on `cluster:<leased ranks>`: node
    /// budget, device memory per rank, pricing, propagation, the dive and
    /// the fault overlay (each attempt derives its own plan from it). The
    /// warm start is the pool's, per attempt.
    pub solve: SolveOptions,
}

impl Default for ServeConfig {
    /// 8 ranks, 200 000 nodes and 16 MiB per rank, no faults.
    fn default() -> Self {
        let mut solve = SolveOptions {
            gpu_mem: 1 << 24,
            ..SolveOptions::default()
        };
        solve.mip.node_limit = 200_000;
        ServeConfig {
            ranks: 8,
            attempt_timeout_ns: 5.0e9,
            max_retries: 2,
            solve,
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct ServeReport {
    /// One record per submitted job, submission order.
    pub records: Vec<JobRecord>,
    /// Aggregated service + per-job solver metrics.
    pub metrics: MetricsRegistry,
    /// Time of the last event on the service clock, simulated ns.
    pub makespan_ns: f64,
}

impl ServeReport {
    /// Jobs that got an answer.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.answered()).count()
    }

    /// Jobs dropped at admission (shed + quota rejects).
    pub fn dropped(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.disposition,
                    Disposition::Shed | Disposition::QuotaRejected
                )
            })
            .count()
    }

    /// Jobs that failed permanently.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.disposition == Disposition::Failed)
            .count()
    }

    /// Fraction of submissions dropped at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.dropped() as f64 / self.records.len() as f64
        }
    }

    /// Exact latency quantile over answered jobs (sorted order, nearest
    /// rank) — unlike the log-bucketed trace histograms this is suitable
    /// for regression-gated SLO numbers.
    pub fn latency_quantile_ns(&self, q: f64) -> f64 {
        let mut lat: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.answered())
            .map(JobRecord::latency_ns)
            .collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let rank = ((q.clamp(0.0, 1.0) * lat.len() as f64).ceil() as usize).max(1);
        lat[rank - 1]
    }

    /// Answered jobs per simulated second.
    pub fn goodput_jobs_per_s(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / (self.makespan_ns * 1e-9)
        }
    }

    /// A deterministic digest of every job outcome (bit-exact objectives
    /// and times); two replays of the same seed must produce identical
    /// digests.
    pub fn outcome_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for r in &self.records {
            let _ = writeln!(
                s,
                "job={} tenant={} disp={:?} status={:?} obj={:016x} nodes={} retries={} finish={:016x}",
                r.id,
                r.tenant,
                r.disposition,
                r.status,
                r.objective.to_bits(),
                r.nodes,
                r.retries,
                r.finish_ns.to_bits(),
            );
        }
        s
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let mut s = String::new();
        let _ = writeln!(s, "jobs submitted     {}", self.records.len());
        let _ = writeln!(s, "  answered         {}", self.completed());
        let _ = writeln!(
            s,
            "  shed / quota     {} / {}",
            m.counter(names::SERVE_JOBS_SHED),
            m.counter(names::SERVE_JOBS_QUOTA_REJECTS)
        );
        let _ = writeln!(s, "  failed           {}", self.failed());
        let _ = writeln!(
            s,
            "cache exact/warm   {} / {}  (misses {})",
            m.counter(names::SERVE_CACHE_EXACT_HITS),
            m.counter(names::SERVE_CACHE_WARM_HITS),
            m.counter(names::SERVE_CACHE_MISSES)
        );
        let _ = writeln!(s, "retries            {}", m.counter(names::SERVE_RETRIES));
        let _ = writeln!(
            s,
            "latency p50/p99    {:.0} / {:.0} us",
            self.latency_quantile_ns(0.50) / 1e3,
            self.latency_quantile_ns(0.99) / 1e3
        );
        let _ = writeln!(
            s,
            "goodput            {:.1} jobs/s over {:.3} ms simulated",
            self.goodput_jobs_per_s(),
            self.makespan_ns / 1e6
        );
        s
    }
}

/// Interns a string for use as a registry key or trace arg (both demand
/// `&'static str`); the leak is bounded by tenants × metric suffixes.
fn intern(key: String) -> &'static str {
    static INTERN: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut g = INTERN.lock().unwrap();
    if let Some(&s) = g.get(key.as_str()) {
        return s;
    }
    let leaked: &'static str = Box::leak(key.into_boxed_str());
    g.insert(leaked);
    leaked
}

/// Per-tenant metric key, e.g. `serve.tenant.acme.latency_ns`.
fn tenant_metric(tenant: &str, suffix: &str) -> &'static str {
    intern(format!("serve.tenant.{tenant}.{suffix}"))
}

struct AttemptOutcome {
    res: ParallelResult,
    /// A pooled seed was taken as the first incumbent.
    warm: bool,
}

/// What happens to a job (the event's entity).
enum Ev {
    Arrive,
    Requeue,
    Finish {
        lease: RankLease,
        outcome: Box<AttemptOutcome>,
    },
    Abort {
        lease: RankLease,
    },
}

struct JobState {
    spec: JobSpec,
    canon: Canonical,
    attempts: u32,
    queued_seq: u64,
    last_start_ns: f64,
}

/// The reactor. Build with [`Service::new`], drive with [`Service::run`].
#[derive(Debug)]
pub struct Service {
    cfg: ServeConfig,
    tenants: Vec<TenantSpec>,
}

/// `Err` naming the first option of `solve` that serve does not read: every
/// job runs `cluster:<leased ranks>`, out of `ranks`.
pub fn check_options(ranks: usize, solve: &SolveOptions) -> Result<(), String> {
    match SolvePath::Cluster(ranks, None).unread_option(solve) {
        Some(flag) => Err(format!("{flag} is not read by serve")),
        None => Ok(()),
    }
}

impl Service {
    /// A service over `tenants` with configuration `cfg`. Panics on an
    /// option of `cfg.solve` serve does not read ([`check_options`]).
    pub fn new(cfg: ServeConfig, tenants: Vec<TenantSpec>) -> Self {
        assert!(cfg.ranks >= 1, "service needs at least one rank");
        assert!(!tenants.is_empty(), "service needs at least one tenant");
        if let Err(e) = check_options(cfg.ranks, &cfg.solve) {
            panic!("{e}");
        }
        Service { cfg, tenants }
    }

    /// Replays `jobs` through the service and reports every outcome.
    /// Jobs must reference valid tenant indices; arrival times may be in
    /// any order (the event queue sorts them).
    pub fn run(&self, jobs: Vec<JobSpec>) -> ServeReport {
        let cfg = &self.cfg;
        let mut pool = SolutionPool::new(POOL_CAPACITY);
        let mut ranks = RankPool::new(cfg.ranks);
        let mut events = EventQueue::new();
        // FIFO order within a priority class, in the order jobs queued.
        let mut queued: u64 = 0;
        let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
        let mut records: Vec<Option<JobRecord>> = (0..jobs.len()).map(|_| None).collect();
        let mut metrics = MetricsRegistry::new();
        let mut queue: Vec<usize> = Vec::new();
        let mut queued_per_tenant = vec![0usize; self.tenants.len()];
        let mut now = 0.0f64;

        for (idx, spec) in jobs.into_iter().enumerate() {
            assert!(
                spec.tenant < self.tenants.len(),
                "job references unknown tenant"
            );
            events.push(spec.arrival_ns, idx, Ev::Arrive);
            states.push(JobState {
                canon: canonicalize(&spec.instance),
                spec,
                attempts: 0,
                queued_seq: 0,
                last_start_ns: 0.0,
            });
        }

        while let Some(Timed {
            time,
            entity: job,
            kind,
            ..
        }) = events.pop()
        {
            now = now.max(time);
            match kind {
                Ev::Arrive => {
                    let tenant = states[job].spec.tenant;
                    let tname = tenant_name(&self.tenants, tenant);
                    metrics.incr(names::SERVE_JOBS_SUBMITTED, 1.0);
                    record(|| {
                        Event::instant(Track::serve(0), "arrive", now)
                            .arg("job", states[job].spec.id)
                            .arg("tenant", tname)
                    });
                    // Exact cache hit: answered at cache cost, no cluster.
                    if let Some((obj, _x, _nodes)) = pool.exact(&states[job].canon) {
                        let finish = now + ADMISSION_NS + CACHE_HIT_NS;
                        metrics.incr(names::SERVE_CACHE_EXACT_HITS, 1.0);
                        self.complete(
                            &mut metrics,
                            &mut records,
                            &states[job],
                            JobRecord {
                                id: states[job].spec.id,
                                tenant,
                                disposition: Disposition::CacheHit,
                                status: Some(MipStatus::Optimal),
                                objective: obj,
                                nodes: 0,
                                retries: 0,
                                arrival_ns: states[job].spec.arrival_ns,
                                finish_ns: finish,
                            },
                            job,
                        );
                        record(|| {
                            Event::complete(Track::serve(0), "cache_hit", now, finish - now)
                                .arg("job", states[job].spec.id)
                        });
                        continue;
                    }
                    // Admission control.
                    let t = &self.tenants[tenant];
                    if queued_per_tenant[tenant] >= t.max_queued {
                        metrics.incr(names::SERVE_JOBS_QUOTA_REJECTS, 1.0);
                        metrics.incr(tenant_metric(&t.name, "quota_rejects"), 1.0);
                        self.drop_job(
                            &mut records,
                            &states[job],
                            Disposition::QuotaRejected,
                            now + ADMISSION_NS,
                            job,
                        );
                        record(|| {
                            Event::instant(Track::serve(0), "quota_reject", now)
                                .arg("job", states[job].spec.id)
                        });
                        continue;
                    }
                    let over_cap = queue.len() >= QUEUE_CAP;
                    let degraded = queue.len() >= SHED_DEPTH && t.priority == 0;
                    if over_cap || degraded {
                        metrics.incr(names::SERVE_JOBS_SHED, 1.0);
                        metrics.incr(tenant_metric(&t.name, "shed"), 1.0);
                        self.drop_job(
                            &mut records,
                            &states[job],
                            Disposition::Shed,
                            now + ADMISSION_NS,
                            job,
                        );
                        record(|| {
                            Event::instant(Track::serve(0), "shed", now)
                                .arg("job", states[job].spec.id)
                                .arg("depth", queue.len())
                        });
                        continue;
                    }
                    states[job].queued_seq = queued;
                    queued += 1;
                    queue.push(job);
                    queued_per_tenant[tenant] += 1;
                    metrics.max_gauge(names::SERVE_QUEUE_DEPTH_PEAK, queue.len() as f64);
                }
                Ev::Requeue => {
                    states[job].queued_seq = queued;
                    queued += 1;
                    queued_per_tenant[states[job].spec.tenant] += 1;
                    queue.push(job);
                    metrics.max_gauge(names::SERVE_QUEUE_DEPTH_PEAK, queue.len() as f64);
                }
                Ev::Finish { lease, outcome } => {
                    ranks.release(lease);
                    let AttemptOutcome { res, warm } = *outcome;
                    let s = res.stats;
                    metrics.merge(&s.metrics);
                    metrics.observe(names::SERVE_EXEC_NS, s.makespan_ns);
                    if warm {
                        metrics.incr(names::SERVE_CACHE_WARM_HITS, 1.0);
                    } else {
                        metrics.incr(names::SERVE_CACHE_MISSES, 1.0);
                    }
                    if res.status == MipStatus::Optimal {
                        let before = pool.evictions();
                        pool.insert(
                            &states[job].canon,
                            res.objective,
                            &res.x,
                            s.nodes,
                            s.root_basis,
                        );
                        metrics.incr(
                            names::SERVE_CACHE_EVICTIONS,
                            (pool.evictions() - before) as f64,
                        );
                    }
                    let disp = if warm {
                        Disposition::SolvedWarm
                    } else {
                        Disposition::SolvedCold
                    };
                    let start = states[job].last_start_ns;
                    let dur = s.makespan_ns;
                    let id = states[job].spec.id;
                    let lane = 1;
                    record(|| {
                        Event::complete(Track::serve(lane), "job", start, dur)
                            .arg("job", id)
                            .arg("nodes", s.nodes)
                            .arg("warm", u64::from(warm))
                    });
                    self.complete(
                        &mut metrics,
                        &mut records,
                        &states[job],
                        JobRecord {
                            id,
                            tenant: states[job].spec.tenant,
                            disposition: disp,
                            status: Some(res.status),
                            objective: res.objective,
                            nodes: s.nodes,
                            retries: states[job].attempts - 1,
                            arrival_ns: states[job].spec.arrival_ns,
                            finish_ns: now,
                        },
                        job,
                    );
                }
                Ev::Abort { lease } => {
                    ranks.release(lease);
                    if states[job].attempts <= cfg.max_retries {
                        metrics.incr(names::SERVE_RETRIES, 1.0);
                        let backoff = RETRY_BACKOFF_NS
                            * f64::from(1u32 << (states[job].attempts - 1).min(16));
                        record(|| {
                            Event::instant(Track::serve(0), "retry", now)
                                .arg("job", states[job].spec.id)
                                .arg("attempt", u64::from(states[job].attempts))
                        });
                        events.push(now + backoff, job, Ev::Requeue);
                    } else {
                        metrics.incr(names::SERVE_JOBS_FAILED, 1.0);
                        self.drop_job(&mut records, &states[job], Disposition::Failed, now, job);
                        record(|| {
                            Event::instant(Track::serve(0), "failed", now)
                                .arg("job", states[job].spec.id)
                        });
                    }
                }
            }
            // Arrivals and requeues can dispatch immediately.
            self.dispatch(
                &mut queue,
                &mut states,
                &mut ranks,
                &mut events,
                &mut metrics,
                &mut queued_per_tenant,
                &pool,
                now,
            );
        }

        let records: Vec<JobRecord> = records
            .into_iter()
            .map(|r| r.expect("every job reaches a terminal state"))
            .collect();
        let completed = records.iter().filter(|r| r.answered()).count();
        if now > 0.0 {
            metrics.set_gauge(
                names::SERVE_GOODPUT_JOBS_PER_S,
                completed as f64 / (now * 1e-9),
            );
        }
        for (t, spec) in self.tenants.iter().enumerate() {
            let done = records
                .iter()
                .filter(|r| r.tenant == t && r.answered())
                .count();
            metrics.incr(tenant_metric(&spec.name, "completed"), done as f64);
        }
        ServeReport {
            records,
            metrics,
            makespan_ns: now,
        }
    }

    fn complete(
        &self,
        metrics: &mut MetricsRegistry,
        records: &mut [Option<JobRecord>],
        state: &JobState,
        rec: JobRecord,
        job: usize,
    ) {
        metrics.incr(names::SERVE_JOBS_COMPLETED, 1.0);
        metrics.observe(names::SERVE_LATENCY_NS, rec.latency_ns());
        let tname = &self.tenants[state.spec.tenant].name;
        metrics.observe(tenant_metric(tname, "latency_ns"), rec.latency_ns());
        records[job] = Some(rec);
    }

    fn drop_job(
        &self,
        records: &mut [Option<JobRecord>],
        state: &JobState,
        disposition: Disposition,
        finish_ns: f64,
        job: usize,
    ) {
        records[job] = Some(JobRecord {
            id: state.spec.id,
            tenant: state.spec.tenant,
            disposition,
            status: None,
            objective: f64::NAN,
            nodes: 0,
            retries: state.attempts.saturating_sub(1),
            arrival_ns: state.spec.arrival_ns,
            finish_ns,
        });
    }

    /// Head-of-line priority dispatch: repeatedly take the
    /// highest-priority oldest queued job; stop when it cannot lease its
    /// width (strict HOL keeps the schedule deterministic and starvation-
    /// free within a priority class).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        queue: &mut Vec<usize>,
        states: &mut [JobState],
        ranks: &mut RankPool,
        events: &mut EventQueue<Ev>,
        metrics: &mut MetricsRegistry,
        queued_per_tenant: &mut [usize],
        pool: &SolutionPool,
        now: f64,
    ) {
        let cfg = &self.cfg;
        loop {
            let Some(pos) = queue
                .iter()
                .enumerate()
                .min_by_key(|&(_, &j)| {
                    (
                        Reverse(self.tenants[states[j].spec.tenant].priority),
                        states[j].queued_seq,
                    )
                })
                .map(|(pos, _)| pos)
            else {
                return;
            };
            let job = queue[pos];
            let width = states[job].spec.width.clamp(1, ranks.total());
            if ranks.free() < width {
                return;
            }
            let lease = ranks.lease(width).expect("free count checked");
            queue.remove(pos);
            queued_per_tenant[states[job].spec.tenant] -= 1;
            states[job].attempts += 1;
            states[job].last_start_ns = now;
            metrics.observe(
                names::SERVE_QUEUE_WAIT_NS,
                now - states[job].spec.arrival_ns,
            );

            let hint = pool.warm(&states[job].canon);
            let warm_requested = hint.is_some();
            let attempt = states[job].spec.id * 8 + u64::from(states[job].attempts);
            let solve = SolveOptions {
                chaos: cfg.solve.chaos.as_ref().map(|c| c.derive(attempt)),
                warm: hint.unwrap_or_default(),
                ..cfg.solve.clone()
            };
            record(|| {
                Event::instant(Track::serve(0), "dispatch", now)
                    .arg("job", states[job].spec.id)
                    .arg("width", width)
                    .arg("warm", u64::from(warm_requested))
            });
            let path = SolvePath::Cluster(lease.width(), None);
            match path.run(&states[job].spec.instance, &solve) {
                Ok(Solved::Cluster(res)) if res.stats.makespan_ns <= cfg.attempt_timeout_ns => {
                    let warm =
                        warm_requested && res.stats.metrics.counter(names::BB_WARM_SEEDS) > 0.0;
                    let time = now + res.stats.makespan_ns;
                    let outcome = Box::new(AttemptOutcome { res, warm });
                    events.push(time, job, Ev::Finish { lease, outcome });
                }
                _ => {
                    // Attempt deadline blown (or the solve errored): the
                    // lease is held until the timeout fires, then retried.
                    events.push(now + cfg.attempt_timeout_ns, job, Ev::Abort { lease });
                }
            }
        }
    }
}

fn tenant_name(tenants: &[TenantSpec], t: usize) -> &'static str {
    intern(tenants[t].name.clone())
}
