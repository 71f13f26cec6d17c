//! The global span recorder: thread-local ring buffers behind one atomic.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Every instrumentation site calls
//!    [`record`] with a closure; the only work done while no session is
//!    active is a relaxed [`AtomicBool`] load — the event (and any argument
//!    formatting) is never constructed.
//! 2. **No cross-thread contention when enabled.** Events land in a
//!    thread-local buffer and are flushed into the global collector only
//!    when the buffer fills or the thread exits (cluster worker threads are
//!    joined before a session finishes, so nothing is lost).
//! 3. **Deterministic output.** [`TraceSession::finish`] sorts the stream
//!    by (track, simulated time, per-thread sequence). Since each track is
//!    written by exactly one thread, two runs with identical seeds produce
//!    byte-identical exported traces regardless of thread scheduling.
//!
//! Sessions are serialized through a process-wide gate so concurrently
//! running tests that each open a session cannot interleave their events.

use crate::event::{Event, TraceEvent};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Thread-local buffer capacity before a flush into the global collector.
const FLUSH_AT: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped at every session start so stale thread-local buffers from a
/// previous session self-invalidate instead of leaking into the next one.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// Held (as a guard inside [`TraceSession`]) for the session's lifetime.
static SESSION_GATE: Mutex<()> = Mutex::new(());

fn wall_epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

struct LocalBuf {
    epoch: u64,
    seq: u64,
    buf: Vec<TraceEvent>,
}

impl LocalBuf {
    fn flush(&mut self) {
        // Events of an earlier session are dropped, never handed to this one.
        if self.epoch != EPOCH.load(Ordering::Acquire) {
            self.buf.clear();
        }
        if self.buf.is_empty() {
            return;
        }
        let mut collector = COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner);
        collector.append(&mut self.buf);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // A worker thread exiting mid-session hands its events over; events
        // of a session that already ended are from a dead epoch, and `flush`
        // discards them.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf { epoch: 0, seq: 0, buf: Vec::new() })
    };
}

/// Whether a trace session is currently recording.
///
/// Instrumentation that must do preparatory work before building an event
/// (e.g. snapshot a clock *before* an operation) should gate on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records the event built by `build` — if a session is active.
///
/// The closure is not invoked when recording is disabled, so argument
/// construction costs nothing on the common path.
#[inline]
pub fn record(build: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    let epoch = EPOCH.load(Ordering::Acquire);
    let wall_ns = wall_epoch().elapsed().as_nanos() as u64;
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        if local.epoch != epoch {
            // Stale events from a previous session: drop them.
            local.buf.clear();
            local.epoch = epoch;
            local.seq = 0;
        }
        let seq = local.seq;
        local.seq += 1;
        local.buf.push(TraceEvent {
            event: build(),
            seq,
            wall_ns,
        });
        if local.buf.len() >= FLUSH_AT {
            local.flush();
        }
    });
}

/// The finished, deterministically ordered event stream of one session.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by (track, simulated timestamp, per-thread sequence).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the stream as Chrome trace-event JSON (see [`crate::export`]).
    pub fn to_chrome_json(&self) -> String {
        crate::export::chrome_trace_json(&self.events)
    }
}

/// An exclusive recording session. Starting one enables the global
/// recorder; [`finish`](TraceSession::finish) disables it and returns the
/// ordered stream. Only one session exists at a time (a second `start`
/// blocks until the first finishes).
#[derive(Debug)]
pub struct TraceSession {
    _gate: MutexGuard<'static, ()>,
    finished: bool,
}

impl TraceSession {
    /// Opens a session: clears the collector and enables recording.
    pub fn start() -> Self {
        let gate = SESSION_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        COLLECTOR
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        EPOCH.fetch_add(1, Ordering::Release);
        ENABLED.store(true, Ordering::Release);
        TraceSession {
            _gate: gate,
            finished: false,
        }
    }

    /// Stops recording and returns the deterministic event stream.
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        ENABLED.store(false, Ordering::Release);
        // Flush the finishing thread's buffer; other threads that recorded
        // events are expected to have exited (and flushed via Drop) by now.
        // Stale buffers from earlier sessions cleared themselves on their
        // first write of this epoch, and the collector was cleared at start.
        LOCAL.with(|cell| cell.borrow_mut().flush());
        let mut events =
            std::mem::take(&mut *COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner));
        events.sort_by_key(TraceEvent::sort_key);
        Trace { events }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;

    /// Holds the session gate without enabling recording: a test that
    /// asserts nothing records keeps every session out while it looks.
    fn hold_gate() -> MutexGuard<'static, ()> {
        SESSION_GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_drops_events() {
        // No session: the closure must not even run.
        let _gate = hold_gate();
        let mut ran = false;
        record(|| {
            ran = true;
            Event::instant(Track::solver(), "x", 0.0)
        });
        assert!(!ran);
    }

    #[test]
    fn session_collects_and_sorts() {
        let session = TraceSession::start();
        record(|| Event::instant(Track::solver(), "b", 20.0));
        record(|| Event::instant(Track::solver(), "a", 10.0));
        record(|| Event::complete(Track::gpu_stream(0, 0), "k", 0.0, 5.0));
        let trace = session.finish();
        assert_eq!(trace.len(), 3);
        // Solver (pid 2) precedes GPU (pid 16); within a track, time order.
        assert_eq!(trace.events[0].event.name, "a");
        assert_eq!(trace.events[1].event.name, "b");
        assert_eq!(trace.events[2].event.name, "k");
        // Recording stops at finish.
        record(|| Event::instant(Track::solver(), "late", 0.0));
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(trace.is_empty());
    }

    #[test]
    fn worker_thread_events_survive_join() {
        let session = TraceSession::start();
        let handle = std::thread::spawn(|| {
            for i in 0..10 {
                record(|| Event::instant(Track::cluster_rank(1), "tick", f64::from(i)));
            }
        });
        handle.join().unwrap();
        let trace = session.finish();
        assert_eq!(trace.len(), 10);
        // Per-thread seq keeps equal-track events in emission order.
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.event.ts_ns, i as f64);
        }
    }
}
