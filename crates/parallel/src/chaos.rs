//! `gmip-chaos`: deterministic fault injection for the simulated cluster.
//!
//! Long-running parallel MIP on leadership machines must assume components
//! fail — the paper's Sections 2.1/2.3 motivate checkpoint-and-restart as
//! the resilience mechanism, and the UG-style coordination it cites assumes
//! workers can be lost and re-fed. This module makes failure *testable*: a
//! seeded [`FaultPlan`] (vendored ChaCha RNG, scheduled on the simulated-ns
//! clock) injects worker crashes, message drops, message delays, and
//! straggler slowdowns into the discrete-event cluster, so identical seeds
//! reproduce identical failure timelines byte-for-byte.
//!
//! The DES supervisor is omniscient about *when* a fault happened, but the
//! modeled recovery protocol still pays the realistic price: crashes are
//! only *detected* a heartbeat timeout later, lost messages only after an
//! ack timeout, and respawns wait out an exponential backoff — all of which
//! shows up on the Perfetto timeline and in the makespan.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Tunable fault-injection profile. Every field is deterministic given
/// `seed`; the concrete schedule is sampled once by [`FaultPlan::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// RNG seed: identical seeds reproduce identical fault timelines.
    pub seed: u64,
    /// Worker crashes to schedule, uniform over `[0, horizon_ns)`.
    pub crashes: usize,
    /// Per-message probability that it is silently dropped.
    pub drop_prob: f64,
    /// Per-message probability that it is delayed.
    pub delay_prob: f64,
    /// Mean injected delay, ns (sampled uniform in `[0.5, 1.5] ×` this).
    pub delay_ns: f64,
    /// Straggler windows to schedule, uniform over `[0, horizon_ns)`.
    pub stragglers: usize,
    /// Evaluation slowdown factor inside a straggler window.
    pub straggle_factor: f64,
    /// Duration of each straggler window, ns.
    pub straggle_ns: f64,
    /// Time horizon the crash/straggler schedules are drawn from, ns.
    pub horizon_ns: f64,
    /// How long after a crash the supervisor notices the missing
    /// heartbeats and starts recovery, ns.
    pub heartbeat_timeout_ns: f64,
    /// How long the supervisor waits for a report before declaring the
    /// exchange lost and reassigning the subproblem, ns.
    pub ack_timeout_ns: f64,
    /// Base respawn backoff, ns; attempt `k` waits `2^k ×` this.
    pub respawn_backoff_ns: f64,
    /// Respawns granted per rank before it is permanently retired and the
    /// cluster degrades to fewer ranks. The last alive rank is immune so
    /// the search always terminates.
    pub max_respawns: usize,
    /// Sub-supervisor crashes to schedule, uniform over `[0, horizon_ns)`
    /// (hierarchical clusters only; each takes a whole group down until the
    /// root detects it, reassigns the group's subtrees, and respawns it).
    pub sub_crashes: usize,
    /// Slowdown factor applied to every root ↔ sub-supervisor transfer
    /// (hierarchical clusters only; 1.0 = healthy root link). Models a
    /// straggling top-of-fabric switch: summaries, incumbent broadcasts and
    /// stolen subtrees all pay the inflated latency.
    pub root_slow_factor: f64,
    /// Targeted wipe: crash *every* rank of this group at
    /// [`ChaosConfig::kill_group_at_ns`] (hierarchical clusters only). The
    /// sub-supervisor survives, detects each rank, and recovers via the
    /// normal respawn path.
    pub kill_group: Option<usize>,
    /// When the [`ChaosConfig::kill_group`] wipe fires, ns.
    pub kill_group_at_ns: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            crashes: 2,
            drop_prob: 0.02,
            delay_prob: 0.05,
            delay_ns: 20_000.0,
            stragglers: 1,
            straggle_factor: 4.0,
            straggle_ns: 250_000.0,
            horizon_ns: 1_000_000.0,
            heartbeat_timeout_ns: 25_000.0,
            ack_timeout_ns: 40_000.0,
            respawn_backoff_ns: 50_000.0,
            max_respawns: 3,
            sub_crashes: 0,
            root_slow_factor: 1.0,
            kill_group: None,
            kill_group_at_ns: 0.0,
        }
    }
}

impl ChaosConfig {
    /// A plan that injects nothing (useful as a parsing base).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            crashes: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            stragglers: 0,
            ..Self::default()
        }
    }

    /// Re-seeds this profile deterministically for a sub-scope (one job of
    /// a traffic stream, one retry attempt): the fault *knobs* are shared
    /// while the concrete schedule differs per salt. SplitMix64 on
    /// `seed ^ salt` keeps nearby salts decorrelated.
    pub fn derive(&self, salt: u64) -> Self {
        let mut z = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self {
            seed: z ^ (z >> 31),
            ..self.clone()
        }
    }

    /// Parses a `--faults` spec: either a bare seed (`"42"`, the default
    /// chaos profile) or comma-separated `key=value` pairs, e.g.
    /// `"seed=42,crash=3,drop=0.05,delay=0.1,straggle=2,horizon=2e6"`.
    ///
    /// Keys: `seed`, `crash`, `drop`, `delay`, `delay-ns`, `straggle`,
    /// `factor`, `straggle-ns`, `horizon`, `heartbeat`, `ack`, `backoff`,
    /// `respawns`, and the hierarchy-only knobs `sub-crash`, `root-slow`,
    /// `kill-group`, `kill-group-at`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Ok(seed) = spec.trim().parse::<u64>() {
            return Ok(Self {
                seed,
                ..Self::default()
            });
        }
        let mut cfg = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let fnum = || -> Result<f64, String> {
                value
                    .parse()
                    .map_err(|_| format!("fault spec `{key}` needs a number, got `{value}`"))
            };
            let unum = || -> Result<usize, String> {
                value
                    .parse()
                    .map_err(|_| format!("fault spec `{key}` needs an integer, got `{value}`"))
            };
            match key {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec seed needs an integer, got `{value}`"))?
                }
                "crash" | "crashes" => cfg.crashes = unum()?,
                "drop" => cfg.drop_prob = fnum()?,
                "delay" => cfg.delay_prob = fnum()?,
                "delay-ns" => cfg.delay_ns = fnum()?,
                "straggle" | "stragglers" => cfg.stragglers = unum()?,
                "factor" => cfg.straggle_factor = fnum()?,
                "straggle-ns" => cfg.straggle_ns = fnum()?,
                "horizon" => cfg.horizon_ns = fnum()?,
                "heartbeat" => cfg.heartbeat_timeout_ns = fnum()?,
                "ack" => cfg.ack_timeout_ns = fnum()?,
                "backoff" => cfg.respawn_backoff_ns = fnum()?,
                "respawns" => cfg.max_respawns = unum()?,
                "sub-crash" | "sub-crashes" => cfg.sub_crashes = unum()?,
                "root-slow" => cfg.root_slow_factor = fnum()?,
                "kill-group" => cfg.kill_group = Some(unum()?),
                "kill-group-at" => cfg.kill_group_at_ns = fnum()?,
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        if !(0.0..=1.0).contains(&cfg.drop_prob) || !(0.0..=1.0).contains(&cfg.delay_prob) {
            return Err("fault probabilities must be in [0, 1]".into());
        }
        if cfg.root_slow_factor < 1.0 {
            return Err("root-slow must be >= 1.0 (it is a slowdown factor)".into());
        }
        Ok(cfg)
    }
}

/// The fate of one message crossing the (now unreliable) interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFate {
    /// The message never arrives.
    pub dropped: bool,
    /// Extra latency injected on top of the modeled transfer, ns.
    pub extra_ns: f64,
}

impl MessageFate {
    /// A message that arrives on time.
    pub fn clean() -> Self {
        Self {
            dropped: false,
            extra_ns: 0.0,
        }
    }
}

/// A concrete, seeded fault schedule for one cluster run.
///
/// Crash times and straggler windows are sampled up front (so the schedule
/// is independent of how the run unfolds); per-message drop/delay draws are
/// consumed serially from the same ChaCha stream, which is deterministic
/// because the discrete-event supervisor makes decisions in a fixed order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: ChaosConfig,
    rng: ChaCha8Rng,
    /// Scheduled crashes, `(time_ns, worker)`, sorted by time.
    crashes: Vec<(f64, usize)>,
    /// Straggler windows, `(worker, from_ns, until_ns)`.
    stragglers: Vec<(usize, f64, f64)>,
}

impl FaultPlan {
    /// Samples the concrete schedule for a cluster of `workers` ranks.
    pub fn new(cfg: ChaosConfig, workers: usize) -> Self {
        assert!(workers >= 1, "fault plan needs at least one worker");
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut crashes: Vec<(f64, usize)> = (0..cfg.crashes)
            .map(|_| {
                let t = rng.gen_range(0.0..cfg.horizon_ns.max(1.0));
                let w = rng.gen_range(0..workers);
                (t, w)
            })
            .collect();
        crashes.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
        });
        let stragglers: Vec<(usize, f64, f64)> = (0..cfg.stragglers)
            .map(|_| {
                let t = rng.gen_range(0.0..cfg.horizon_ns.max(1.0));
                let w = rng.gen_range(0..workers);
                (w, t, t + cfg.straggle_ns)
            })
            .collect();
        Self {
            cfg,
            rng,
            crashes,
            stragglers,
        }
    }

    /// The profile this plan was sampled from.
    pub fn cfg(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Scheduled crashes as `(time_ns, worker)`, sorted by time.
    pub fn crash_schedule(&self) -> &[(f64, usize)] {
        &self.crashes
    }

    /// Draws the fate of the next message on the wire (consumes RNG state).
    pub fn sample_fate(&mut self) -> MessageFate {
        let dropped = self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob);
        let extra_ns =
            if !dropped && self.cfg.delay_prob > 0.0 && self.rng.gen_bool(self.cfg.delay_prob) {
                self.cfg.delay_ns * self.rng.gen_range(0.5..1.5)
            } else {
                0.0
            };
        MessageFate { dropped, extra_ns }
    }

    /// The evaluation slowdown factor for `worker` at simulated time `t`
    /// (1.0 outside every straggler window).
    pub fn slowdown(&self, worker: usize, t: f64) -> f64 {
        for &(w, from, until) in &self.stragglers {
            if w == worker && t >= from && t < until {
                return self.cfg.straggle_factor.max(1.0);
            }
        }
        1.0
    }

    /// Scheduled sub-supervisor crashes for a hierarchy of `groups` groups,
    /// as `(time_ns, group)` sorted by time. Sampled from a fork of the
    /// seed (like [`Self::thread_crash_points`]) so the schedule neither
    /// consumes nor perturbs the per-message fate stream.
    pub fn sub_crash_schedule(&self, groups: usize) -> Vec<(f64, usize)> {
        assert!(groups >= 1, "hierarchy needs at least one group");
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0xD6E8_FEB8_6659_FD93);
        let mut crashes: Vec<(f64, usize)> = (0..self.cfg.sub_crashes)
            .map(|_| {
                let t = rng.gen_range(0.0..self.cfg.horizon_ns.max(1.0));
                let g = rng.gen_range(0..groups);
                (t, g)
            })
            .collect();
        crashes.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
        });
        crashes
    }

    /// Crash points for the *threaded* backend, which has no simulated
    /// clock: for each rank, `Some(k)` means its worker thread dies when
    /// handed its `k+1`-th assignment (silently, without reporting).
    /// Derived from a fork of the seed so it does not perturb the
    /// message-fate stream of the DES backend.
    pub fn thread_crash_points(&self, workers: usize) -> Vec<Option<usize>> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut points = vec![None; workers];
        for _ in 0..self.cfg.crashes {
            let w = rng.gen_range(0..workers);
            let k = rng.gen_range(0..3usize);
            if points[w].is_none() {
                points[w] = Some(k);
            }
        }
        points
    }
}

/// Counters of injected faults and the recovery actions they triggered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crashes that landed on an alive rank.
    pub crashes: usize,
    /// Messages silently dropped.
    pub drops: usize,
    /// Messages delayed on the wire.
    pub delays: usize,
    /// Evaluations slowed by a straggler window.
    pub straggles: usize,
    /// Lost subproblems reassigned (from crash detection or ack timeout).
    pub reassignments: usize,
    /// Ranks respawned after a crash.
    pub respawns: usize,
    /// Ranks permanently retired after exhausting their respawn budget.
    pub degraded_ranks: usize,
    /// Sub-supervisor crashes that landed on an alive group (hierarchy).
    pub sub_crashes: usize,
    /// Sub-supervisors brought back after their backoff (hierarchy).
    pub sub_respawns: usize,
    /// Subtrees the root shipped off a dead or fully-retired group to
    /// survivors (hierarchy; open nodes plus written-off in-flight work).
    pub group_reassigned_subtrees: usize,
}

impl FaultStats {
    /// Whether any fault was injected at all.
    pub fn any(&self) -> bool {
        self.crashes + self.drops + self.delays + self.straggles + self.sub_crashes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_schedules_and_fates() {
        let mk = || {
            FaultPlan::new(
                ChaosConfig {
                    seed: 42,
                    crashes: 5,
                    drop_prob: 0.3,
                    delay_prob: 0.3,
                    stragglers: 2,
                    ..Default::default()
                },
                4,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(a.crash_schedule(), b.crash_schedule());
        for _ in 0..64 {
            assert_eq!(a.sample_fate(), b.sample_fate());
        }
        assert_eq!(a.thread_crash_points(4), b.thread_crash_points(4));
    }

    #[test]
    fn crash_schedule_is_sorted_and_in_horizon() {
        let plan = FaultPlan::new(
            ChaosConfig {
                crashes: 8,
                horizon_ns: 5_000.0,
                ..Default::default()
            },
            3,
        );
        let sched = plan.crash_schedule();
        assert_eq!(sched.len(), 8);
        for w in sched.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(t, w) in sched {
            assert!((0.0..5_000.0).contains(&t));
            assert!(w < 3);
        }
    }

    #[test]
    fn slowdown_applies_only_inside_window() {
        let plan = FaultPlan::new(
            ChaosConfig {
                stragglers: 1,
                straggle_factor: 3.0,
                straggle_ns: 100.0,
                horizon_ns: 1_000.0,
                crashes: 0,
                ..Default::default()
            },
            2,
        );
        let &(w, from, until) = &plan.stragglers[0];
        assert_eq!(plan.slowdown(w, from + 1.0), 3.0);
        assert_eq!(plan.slowdown(w, until + 1.0), 1.0);
        assert_eq!(plan.slowdown((w + 1) % 2, from + 1.0), 1.0);
    }

    #[test]
    fn quiet_plan_never_injects() {
        let mut plan = FaultPlan::new(ChaosConfig::quiet(7), 2);
        assert!(plan.crash_schedule().is_empty());
        for _ in 0..32 {
            assert_eq!(plan.sample_fate(), MessageFate::clean());
        }
        assert_eq!(plan.slowdown(0, 0.0), 1.0);
    }

    #[test]
    fn spec_parsing() {
        let bare = ChaosConfig::parse("42").unwrap();
        assert_eq!(bare.seed, 42);
        assert_eq!(bare.crashes, ChaosConfig::default().crashes);
        let full = ChaosConfig::parse(
            "seed=7,crash=3,drop=0.1,delay=0.2,straggle=2,horizon=5e5,respawns=1",
        )
        .unwrap();
        assert_eq!(full.seed, 7);
        assert_eq!(full.crashes, 3);
        assert!((full.drop_prob - 0.1).abs() < 1e-12);
        assert!((full.delay_prob - 0.2).abs() < 1e-12);
        assert_eq!(full.stragglers, 2);
        assert!((full.horizon_ns - 5e5).abs() < 1e-6);
        assert_eq!(full.max_respawns, 1);
        assert!(ChaosConfig::parse("drop=2.0").is_err(), "probability > 1");
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("crash").is_err(), "missing value");
    }

    #[test]
    fn hierarchy_spec_keys() {
        let cfg =
            ChaosConfig::parse("seed=5,sub-crash=2,root-slow=8,kill-group=1,kill-group-at=4e5")
                .unwrap();
        assert_eq!(cfg.sub_crashes, 2);
        assert!((cfg.root_slow_factor - 8.0).abs() < 1e-12);
        assert_eq!(cfg.kill_group, Some(1));
        assert!((cfg.kill_group_at_ns - 4e5).abs() < 1e-6);
        assert!(
            ChaosConfig::parse("root-slow=0.5").is_err(),
            "a speedup is not a straggle"
        );
    }

    #[test]
    fn sub_crash_schedule_is_deterministic_and_independent_of_fates() {
        let mk = || {
            FaultPlan::new(
                ChaosConfig {
                    sub_crashes: 3,
                    drop_prob: 0.3,
                    horizon_ns: 9_000.0,
                    ..ChaosConfig::quiet(13)
                },
                8,
            )
        };
        let (mut a, b) = (mk(), mk());
        // Consuming message fates must not move the sub-crash schedule.
        for _ in 0..10 {
            a.sample_fate();
        }
        assert_eq!(a.sub_crash_schedule(4), b.sub_crash_schedule(4));
        let sched = b.sub_crash_schedule(4);
        assert_eq!(sched.len(), 3);
        for w in sched.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(t, g) in &sched {
            assert!((0.0..9_000.0).contains(&t));
            assert!(g < 4);
        }
    }
}
