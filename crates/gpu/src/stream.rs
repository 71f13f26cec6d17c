//! Streams: per-queue logical timelines for concurrent kernel execution.
//!
//! Section 5.5: "multiple concurrent streams can be created and launched at
//! a given time on the same GPU". The simulator models a stream as an
//! independent completion-time line; operations enqueued on different
//! streams overlap in simulated time, and `sync` joins them. Events capture
//! a stream's current timestamp for cross-stream waits.

/// Identifier of a stream on a device. Stream 0 always exists (the default
/// stream).
pub type StreamId = usize;

/// A recorded event: the simulated timestamp a stream had reached when the
/// event was recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Timestamp (ns) at which the event completes.
    pub at_ns: f64,
}

/// The set of stream timelines of one device.
#[derive(Debug, Clone)]
pub struct StreamSet {
    completion_ns: Vec<f64>,
}

impl StreamSet {
    /// Creates a stream set with `n` streams (at least 1 is enforced).
    pub fn new(n: usize) -> Self {
        Self {
            completion_ns: vec![0.0; n.max(1)],
        }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.completion_ns.len()
    }

    /// Always false: stream 0 exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a stream, returning its id. New streams start at the current
    /// device-wide frontier so they cannot "execute in the past".
    pub fn create(&mut self) -> StreamId {
        let start = self.frontier();
        self.completion_ns.push(start);
        self.completion_ns.len() - 1
    }

    /// Enqueues an operation of duration `cost_ns` on `stream`; returns the
    /// operation's completion timestamp.
    ///
    /// # Panics
    /// Panics if `stream` does not exist (device programming error).
    pub fn enqueue(&mut self, stream: StreamId, cost_ns: f64) -> f64 {
        let t = &mut self.completion_ns[stream];
        *t += cost_ns;
        *t
    }

    /// Records an event on `stream`.
    pub fn record(&self, stream: StreamId) -> Event {
        Event {
            at_ns: self.completion_ns[stream],
        }
    }

    /// Device-wide completion frontier (max over streams).
    pub fn frontier(&self) -> f64 {
        self.completion_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Joins all streams at the frontier (device synchronize); returns the
    /// frontier timestamp.
    pub fn sync(&mut self) -> f64 {
        let f = self.frontier();
        for t in &mut self.completion_ns {
            *t = f;
        }
        f
    }

    /// Current completion time of one stream.
    pub fn stream_time(&self, stream: StreamId) -> f64 {
        self.completion_ns[stream]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_streams_clamped_to_one() {
        let s = StreamSet::new(0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
