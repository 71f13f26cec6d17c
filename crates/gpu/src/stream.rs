//! Streams: per-queue logical timelines for concurrent kernel execution.
//!
//! Section 5.5: "multiple concurrent streams can be created and launched at
//! a given time on the same GPU". The simulator models a stream as a
//! completion-time line; kernel bodies and transfers enqueued on different
//! streams overlap in simulated time, and `sync` joins them.
//!
//! What streams do **not** multiply is the host that feeds them: a device
//! has one launch-issue queue. [`StreamSet::launch`] starts a kernel at
//! `max(stream time, issue free)` and holds the issue slot for the launch's
//! latency, so N streams issue N launches one after the other and overlap
//! only what follows the launch — the reason Section 5.5 prefers one batched
//! launch to N streamed ones. A program that only ever uses one stream never
//! waits for the slot (it ends before the stream's own completion time), so
//! its clock is the plain sum of its costs.
//!
//! A stream also knows whether its host-side submission is **held**: its
//! last launch chain read nothing back, so the device has not been told to
//! run it yet and the next chain on the stream joins the same submission
//! instead of launching ([`GpuDevice::chain`](crate::GpuDevice::chain)).
//! [`StreamSet::sync`] submits every held stream.

/// Identifier of a stream on a device. Stream 0 always exists (the default
/// stream).
pub type StreamId = usize;

/// The set of stream timelines of one device.
#[derive(Debug, Clone)]
pub struct StreamSet {
    streams: Vec<Stream>,
    /// When the device's launch-issue slot is next free.
    issue_free_ns: f64,
}

/// One stream: when its last operation completes, and whether its launch
/// is held open for the next chain.
#[derive(Debug, Clone, Copy)]
struct Stream {
    completion_ns: f64,
    held: bool,
}

impl Stream {
    fn at(completion_ns: f64) -> Self {
        Self {
            completion_ns,
            held: false,
        }
    }
}

impl StreamSet {
    /// Creates a stream set with `n` streams (at least 1 is enforced).
    pub fn new(n: usize) -> Self {
        Self {
            streams: vec![Stream::at(0.0); n.max(1)],
            issue_free_ns: 0.0,
        }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Always false: stream 0 exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a stream, returning its id. New streams start at the current
    /// device-wide frontier so they cannot "execute in the past".
    pub fn create(&mut self) -> StreamId {
        let start = self.frontier();
        self.streams.push(Stream::at(start));
        self.streams.len() - 1
    }

    /// Enqueues an operation of duration `cost_ns` that needs no launch of
    /// its own — a transfer, or a later kernel of a launch chain — on
    /// `stream`; returns the operation's completion timestamp.
    ///
    /// # Panics
    /// Panics if `stream` does not exist (device programming error).
    pub fn enqueue(&mut self, stream: StreamId, cost_ns: f64) -> f64 {
        let t = &mut self.streams[stream].completion_ns;
        *t += cost_ns;
        *t
    }

    /// Enqueues a kernel launch of duration `cost_ns` on `stream`, its first
    /// `issue_ns` (at most `cost_ns`) spent in the device's one issue queue:
    /// the launch starts when both the stream and the issue slot are free,
    /// and holds the slot for `issue_ns`. A launch submits whatever launch
    /// the stream held. Returns the completion timestamp.
    ///
    /// # Panics
    /// Panics if `stream` does not exist (device programming error).
    pub fn launch(&mut self, stream: StreamId, cost_ns: f64, issue_ns: f64) -> f64 {
        let s = &mut self.streams[stream];
        let start = s.completion_ns.max(self.issue_free_ns);
        self.issue_free_ns = start + issue_ns;
        s.completion_ns = start + cost_ns;
        s.held = false;
        s.completion_ns
    }

    /// Holds `stream`'s launch open (`true`) or submits it (`false`).
    ///
    /// # Panics
    /// Panics if `stream` does not exist (device programming error).
    pub(crate) fn set_held(&mut self, stream: StreamId, held: bool) {
        self.streams[stream].held = held;
    }

    /// Whether `stream`'s launch is held open for the next chain on it.
    pub(crate) fn held(&self, stream: StreamId) -> bool {
        self.streams[stream].held
    }

    /// Device-wide completion frontier (max over streams).
    pub fn frontier(&self) -> f64 {
        self.streams
            .iter()
            .map(|s| s.completion_ns)
            .fold(0.0, f64::max)
    }

    /// Joins all streams at the frontier (device synchronize), submitting
    /// every held launch; returns the frontier timestamp.
    pub fn sync(&mut self) -> f64 {
        let f = self.frontier();
        self.streams.fill(Stream::at(f));
        f
    }

    /// Current completion time of one stream.
    pub fn stream_time(&self, stream: StreamId) -> f64 {
        self.streams[stream].completion_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn independent_streams_overlap() {
        let mut s = StreamSet::new(2);
        s.enqueue(0, 100.0);
        s.enqueue(1, 80.0);
        // Overlapping: frontier is the max, not the sum.
        assert_eq!(s.frontier(), 100.0);
        s.enqueue(1, 30.0);
        assert_eq!(s.frontier(), 110.0);
    }

    #[test]
    fn serial_on_one_stream_accumulates() {
        let mut s = StreamSet::new(1);
        s.enqueue(0, 50.0);
        s.enqueue(0, 50.0);
        assert_eq!(s.frontier(), 100.0);
    }

    #[test]
    fn sync_joins_all_streams() {
        let mut s = StreamSet::new(3);
        s.enqueue(0, 10.0);
        s.enqueue(2, 99.0);
        let f = s.sync();
        assert_eq!(f, 99.0);
        for i in 0..3 {
            assert_eq!(s.stream_time(i), 99.0);
        }
    }

    #[test]
    fn created_streams_start_at_frontier() {
        let mut s = StreamSet::new(1);
        s.enqueue(0, 500.0);
        let id = s.create();
        assert_eq!(s.stream_time(id), 500.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn launches_serialise_and_everything_else_overlaps() {
        // Latency 8, bodies 100 / 50 / 10 on streams 0 / 1 / 2.
        let mut s = StreamSet::new(3);
        assert_eq!(s.launch(0, 108.0, 8.0), 108.0);
        // Stream 1 is free at 0 but the issue slot is not before 8; its body
        // then runs beside stream 0's.
        assert_eq!(s.launch(1, 58.0, 8.0), 66.0);
        assert_eq!(s.launch(2, 18.0, 8.0), 34.0);
        // A transfer never waits for the slot.
        let mut t = StreamSet::new(2);
        t.launch(0, 108.0, 8.0);
        assert_eq!(t.enqueue(1, 5.0), 5.0);
        // A stream that is itself busy past the slot starts when it is free,
        // and holds the slot from there.
        assert_eq!(s.launch(0, 28.0, 8.0), 136.0);
        assert_eq!(s.launch(1, 9.0, 8.0), 125.0);
        assert_eq!(s.frontier(), 136.0);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Launch { body: f64, latency: f64 },
        Transfer(f64),
        Sync,
        Create,
    }

    fn op() -> impl Strategy<Value = Op> {
        let ns = || (0u32..2_000_000).prop_map(|v| f64::from(v) / 7.0);
        prop_oneof![
            (ns(), ns()).prop_map(|(body, latency)| Op::Launch { body, latency }),
            ns().prop_map(|body| Op::Launch {
                body,
                latency: 8_000.0
            }),
            ns().prop_map(Op::Transfer),
            Just(Op::Sync),
            Just(Op::Create),
        ]
    }

    proptest! {
        /// A program confined to one stream never meets the issue queue: its
        /// clock is bit for bit the running sum of its costs, whatever it
        /// launches, transfers, joins or creates on the side.
        #[test]
        fn one_stream_never_waits_for_the_issue_slot(
            ops in proptest::collection::vec(op(), 0..80)
        ) {
            let mut set = StreamSet::new(1);
            // `enqueue` alone: what every operation cost before launches
            // were told apart.
            let mut plain = StreamSet::new(1);
            for op in ops {
                match op {
                    Op::Launch { body, latency } => {
                        let t = latency + body;
                        let done = set.launch(0, t, latency);
                        prop_assert_eq!(done.to_bits(), plain.enqueue(0, t).to_bits());
                    }
                    Op::Transfer(t) => {
                        let done = set.enqueue(0, t);
                        prop_assert_eq!(done.to_bits(), plain.enqueue(0, t).to_bits());
                    }
                    Op::Sync => prop_assert_eq!(set.sync().to_bits(), plain.sync().to_bits()),
                    Op::Create => prop_assert_eq!(set.create(), plain.create()),
                }
                prop_assert_eq!(set.frontier().to_bits(), plain.frontier().to_bits());
                for i in 0..set.len() {
                    prop_assert_eq!(set.stream_time(i).to_bits(), plain.stream_time(i).to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_streams_clamped_to_one() {
        let s = StreamSet::new(0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
