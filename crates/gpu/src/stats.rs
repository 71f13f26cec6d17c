//! Operation counters for a simulated device.
//!
//! Every experiment in the reproduction reports some subset of these: E3a–E3c
//! count host↔device transfers (Section 5's reuse arguments), E4 counts
//! kernel launches (batching), E1/E8 report simulated busy time.
//!
//! The ledger of record is the device's private `Ledger`: one `f64` slot
//! per `gpu.*` series of [`gmip_trace::names`], bumped by array index on
//! every charge — a simulated operation must not cost a string-keyed map
//! lookup. The two public views are materialized from it only when read:
//!
//! * [`DeviceStats`], the stable reporting struct, filled straight from the
//!   slots by [`GpuDevice::stats`](crate::device::GpuDevice::stats);
//! * a [`MetricsRegistry`] holding exactly the series that were ever
//!   charged, built by [`GpuDevice::metrics`](crate::device::GpuDevice::metrics)
//!   for session-level merging.
//!
//! Each slot accumulates in charge order, so both views carry the same bits
//! a registry updated per operation would. [`DeviceStats::from_registry`]
//! and [`DeviceStats::to_registry`] convert between the two views.

use gmip_trace::{names, MetricsRegistry};

/// The `gpu.*` series a device keeps, as slots of its [`Ledger`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Series {
    H2dTransfers,
    H2dBytes,
    D2hTransfers,
    D2hBytes,
    KernelLaunches,
    KernelFlops,
    TransferNs,
    KernelNs,
    Syncs,
    /// The one gauge: high-water mark of device bytes over object inserts.
    MemPeakBytes,
}

/// Registry key of every [`Series`], in slot order.
const SERIES_NAMES: [&str; 10] = [
    names::GPU_H2D_TRANSFERS,
    names::GPU_H2D_BYTES,
    names::GPU_D2H_TRANSFERS,
    names::GPU_D2H_BYTES,
    names::GPU_KERNEL_LAUNCHES,
    names::GPU_KERNEL_FLOPS,
    names::GPU_TRANSFER_NS,
    names::GPU_KERNEL_NS,
    names::GPU_SYNCS,
    names::GPU_MEM_PEAK_BYTES,
];

/// Fixed-slot ledger of a device's `gpu.*` series.
///
/// A slot is *touched* once anything has been charged to it; untouched
/// series are absent from the materialized registry, as they would be from
/// one updated per operation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    values: [f64; SERIES_NAMES.len()],
    touched: u16,
}

impl Ledger {
    /// Adds `by` to counter `series`.
    #[inline]
    pub(crate) fn incr(&mut self, series: Series, by: f64) {
        self.values[series as usize] += by;
        self.touched |= 1 << series as usize;
    }

    /// Raises gauge `series` to `value` if larger.
    #[inline]
    pub(crate) fn max_gauge(&mut self, series: Series, value: f64) {
        let slot = &mut self.values[series as usize];
        if self.touched & (1 << series as usize) == 0 {
            self.touched |= 1 << series as usize;
            *slot = f64::NEG_INFINITY;
        }
        if value > *slot {
            *slot = value;
        }
    }

    fn get(&self, series: Series) -> f64 {
        self.values[series as usize]
    }

    /// The reporting view over the eight transfer/kernel counters.
    pub(crate) fn stats(&self) -> DeviceStats {
        DeviceStats {
            h2d_transfers: self.get(Series::H2dTransfers) as u64,
            h2d_bytes: self.get(Series::H2dBytes) as u64,
            d2h_transfers: self.get(Series::D2hTransfers) as u64,
            d2h_bytes: self.get(Series::D2hBytes) as u64,
            kernel_launches: self.get(Series::KernelLaunches) as u64,
            flops: self.get(Series::KernelFlops),
            transfer_ns: self.get(Series::TransferNs),
            kernel_ns: self.get(Series::KernelNs),
        }
    }

    /// The touched series as a registry.
    pub(crate) fn to_registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for (i, name) in SERIES_NAMES.into_iter().enumerate() {
            if self.touched & (1 << i) == 0 {
                continue;
            }
            if i == Series::MemPeakBytes as usize {
                r.set_gauge(name, self.values[i]);
            } else {
                r.incr(name, self.values[i]);
            }
        }
        r
    }
}

/// Cumulative counters maintained by a [`crate::device::GpuDevice`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Host→device transfer count.
    pub h2d_transfers: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host transfer count.
    pub d2h_transfers: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Kernel launches issued (a batched launch counts once).
    pub kernel_launches: u64,
    /// Floating-point operations charged to the device.
    pub flops: f64,
    /// Simulated nanoseconds spent in transfers.
    pub transfer_ns: f64,
    /// Simulated nanoseconds spent in kernels.
    pub kernel_ns: f64,
}

impl DeviceStats {
    /// Materializes the reporting view from a device's metrics registry.
    pub fn from_registry(r: &MetricsRegistry) -> Self {
        DeviceStats {
            h2d_transfers: r.counter(names::GPU_H2D_TRANSFERS) as u64,
            h2d_bytes: r.counter(names::GPU_H2D_BYTES) as u64,
            d2h_transfers: r.counter(names::GPU_D2H_TRANSFERS) as u64,
            d2h_bytes: r.counter(names::GPU_D2H_BYTES) as u64,
            kernel_launches: r.counter(names::GPU_KERNEL_LAUNCHES) as u64,
            flops: r.counter(names::GPU_KERNEL_FLOPS),
            transfer_ns: r.counter(names::GPU_TRANSFER_NS),
            kernel_ns: r.counter(names::GPU_KERNEL_NS),
        }
    }

    /// Writes the counters back out as a registry fragment (for merging a
    /// snapshot into a session-level summary).
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.incr(names::GPU_H2D_TRANSFERS, self.h2d_transfers as f64);
        r.incr(names::GPU_H2D_BYTES, self.h2d_bytes as f64);
        r.incr(names::GPU_D2H_TRANSFERS, self.d2h_transfers as f64);
        r.incr(names::GPU_D2H_BYTES, self.d2h_bytes as f64);
        r.incr(names::GPU_KERNEL_LAUNCHES, self.kernel_launches as f64);
        r.incr(names::GPU_KERNEL_FLOPS, self.flops);
        r.incr(names::GPU_TRANSFER_NS, self.transfer_ns);
        r.incr(names::GPU_KERNEL_NS, self.kernel_ns);
        r
    }

    /// Total transfers in both directions.
    pub fn total_transfers(&self) -> u64 {
        self.h2d_transfers + self.d2h_transfers
    }

    /// Total bytes moved in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    /// Total simulated busy time (transfers + kernels), ns.
    pub fn busy_ns(&self) -> f64 {
        self.transfer_ns + self.kernel_ns
    }

    /// Adds another stats block into this one (aggregating multiple devices
    /// or workers).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.h2d_transfers += other.h2d_transfers;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_transfers += other.d2h_transfers;
        self.d2h_bytes += other.d2h_bytes;
        self.kernel_launches += other.kernel_launches;
        self.flops += other.flops;
        self.transfer_ns += other.transfer_ns;
        self.kernel_ns += other.kernel_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = DeviceStats {
            h2d_transfers: 1,
            h2d_bytes: 100,
            d2h_transfers: 2,
            d2h_bytes: 50,
            kernel_launches: 3,
            flops: 10.0,
            transfer_ns: 5.0,
            kernel_ns: 7.0,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.h2d_transfers, 2);
        assert_eq!(a.total_transfers(), 6);
        assert_eq!(a.total_bytes(), 300);
        assert_eq!(a.kernel_launches, 6);
        assert_eq!(a.busy_ns(), 24.0);
    }

    #[test]
    fn ledger_matches_a_registry_updated_per_operation() {
        let mut ledger = Ledger::default();
        let mut reference = MetricsRegistry::new();
        assert!(ledger.to_registry().is_empty());
        for (i, by) in [0.1, 0.7, 1e9, 3.3].into_iter().enumerate() {
            ledger.incr(Series::KernelNs, by);
            reference.incr(names::GPU_KERNEL_NS, by);
            ledger.incr(Series::KernelLaunches, 1.0);
            reference.incr(names::GPU_KERNEL_LAUNCHES, 1.0);
            let used = [64.0, 8.0, 4096.0, 0.0][i];
            ledger.max_gauge(Series::MemPeakBytes, used);
            reference.max_gauge(names::GPU_MEM_PEAK_BYTES, used);
        }
        // Same keys present (transfers and syncs stay absent), same bits.
        assert_eq!(ledger.to_registry(), reference);
        assert_eq!(ledger.to_registry().counters().count(), 2);
        assert_eq!(ledger.stats(), DeviceStats::from_registry(&reference));
    }

    #[test]
    fn default_is_zero() {
        let s = DeviceStats::default();
        assert_eq!(s.total_transfers(), 0);
        assert_eq!(s.busy_ns(), 0.0);
    }

    #[test]
    fn registry_round_trip_preserves_counters() {
        let s = DeviceStats {
            h2d_transfers: 3,
            h2d_bytes: 4096,
            d2h_transfers: 1,
            d2h_bytes: 64,
            kernel_launches: 17,
            flops: 1.5e6,
            transfer_ns: 250.0,
            kernel_ns: 900.0,
        };
        assert_eq!(DeviceStats::from_registry(&s.to_registry()), s);
        // An empty registry materializes to the zero view.
        assert_eq!(
            DeviceStats::from_registry(&MetricsRegistry::new()),
            DeviceStats::default()
        );
    }

    #[test]
    fn merging_registries_matches_merging_stats() {
        let a = DeviceStats {
            h2d_transfers: 2,
            h2d_bytes: 100,
            d2h_transfers: 5,
            d2h_bytes: 700,
            kernel_launches: 9,
            flops: 50.0,
            transfer_ns: 10.0,
            kernel_ns: 20.0,
        };
        let b = DeviceStats {
            h2d_transfers: 1,
            h2d_bytes: 11,
            d2h_transfers: 0,
            d2h_bytes: 0,
            kernel_launches: 4,
            flops: 8.0,
            transfer_ns: 2.5,
            kernel_ns: 4.5,
        };
        // Aggregating via the registry (counters add under merge) agrees
        // with the legacy DeviceStats::merge path.
        let mut reg = a.to_registry();
        reg.merge(&b.to_registry());
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(DeviceStats::from_registry(&reg), direct);
    }
}
