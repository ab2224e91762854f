//! Storage-device parameter sets.
//!
//! The presets are calibrated against the paper's own microbenchmarks:
//! Table 3 profiles the HDD-backed Ceph cluster with `fio` (219 MB/s
//! single-stream sequential, 910 MB/s with 8 streams, 6.6 MB/s /
//! 40.4 MB/s for 0.2 MB random files) behind a 10 Gb/s link; the SSD
//! numbers are inferred from the paper's Table 4 (CV unprocessed is
//! ~6× faster on SSD; sequential access is equal).

use crate::time::Nanos;

/// Parameters of one storage backend (device + network path).
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Streaming bandwidth achievable by a single reader, bytes/s.
    pub per_stream_bw: f64,
    /// Aggregate bandwidth across all readers, bytes/s (already
    /// including the network-link cap).
    pub aggregate_bw: f64,
    /// Latency to open a file / first byte of a fresh object.
    pub open_latency: Nanos,
    /// Admission rate for file opens, requests per second. Models
    /// metadata servers + head movement; continuation reads within an
    /// open file are not charged.
    pub iops_cap: f64,
    /// Write bandwidth per stream, bytes/s.
    pub write_per_stream_bw: f64,
    /// Aggregate write bandwidth, bytes/s.
    pub write_aggregate_bw: f64,
    /// Multiplier on dataset-specific per-file penalties (metadata
    /// pressure at huge file populations). 1.0 for the HDD cluster —
    /// seek-bound metadata — and 0.0 for SSD/NVMe where the base open
    /// latency already covers it.
    pub metadata_pressure: f64,
}

/// Megabytes per second helper (decimal, as the paper reports).
pub const fn mbps(mb: f64) -> f64 {
    mb * 1e6
}

impl DeviceProfile {
    /// The paper's HDD-backed Ceph cluster over a 10 Gb/s link.
    pub fn hdd_ceph() -> Self {
        DeviceProfile {
            name: "ceph-hdd",
            per_stream_bw: mbps(219.0),
            aggregate_bw: mbps(910.0),
            open_latency: Nanos::from_micros(28_500),
            iops_cap: 205.0,
            write_per_stream_bw: mbps(180.0),
            write_aggregate_bw: mbps(700.0),
            metadata_pressure: 1.0,
        }
    }

    /// The paper's SSD-backed Ceph cluster (Section 4.1: ~6× faster
    /// random access, equal sequential throughput).
    pub fn ssd_ceph() -> Self {
        DeviceProfile {
            name: "ceph-ssd",
            per_stream_bw: mbps(219.0),
            aggregate_bw: mbps(910.0),
            open_latency: Nanos::from_micros(4_200),
            iops_cap: 8_000.0,
            write_per_stream_bw: mbps(200.0),
            write_aggregate_bw: mbps(800.0),
            metadata_pressure: 0.0,
        }
    }

    /// A generous local-NVMe profile for the real (non-simulated)
    /// execution engine's documentation and tests.
    pub fn local_nvme() -> Self {
        DeviceProfile {
            name: "local-nvme",
            per_stream_bw: mbps(1800.0),
            aggregate_bw: mbps(3500.0),
            open_latency: Nanos::from_micros(60),
            iops_cap: 300_000.0,
            write_per_stream_bw: mbps(1500.0),
            write_aggregate_bw: mbps(3000.0),
            metadata_pressure: 0.0,
        }
    }

    /// The VM's memory bus (the paper's sysbench figure: 166 GB/s
    /// aggregate; a single stream is bounded far lower).
    pub fn memory_bus() -> Self {
        DeviceProfile {
            name: "memory",
            per_stream_bw: 24e9,
            aggregate_bw: 166e9,
            open_latency: Nanos::ZERO,
            iops_cap: f64::INFINITY,
            write_per_stream_bw: 24e9,
            write_aggregate_bw: 166e9,
            metadata_pressure: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_matches_table3_anchors() {
        let hdd = DeviceProfile::hdd_ceph();
        assert_eq!(hdd.per_stream_bw, 219e6);
        assert_eq!(hdd.aggregate_bw, 910e6);
        // Random 0.2 MB file: open + transfer ≈ 28.5ms + 0.9ms → ~34 files/s
        // → ~6.8 MB/s single-threaded, near the paper's 6.6 MB/s.
        let per_file = hdd.open_latency.as_secs_f64() + 0.2e6 / hdd.per_stream_bw;
        let mb_per_s = 0.2 / per_file;
        assert!((mb_per_s - 6.6).abs() < 0.5, "got {mb_per_s:.2} MB/s");
        // 8 threads want ~272 files/s; the IOPS cap (205/s) yields ~41 MB/s.
        assert!((hdd.iops_cap * 0.2 - 40.4).abs() < 1.0);
    }

    #[test]
    fn ssd_is_much_faster_for_random_but_equal_sequential() {
        let hdd = DeviceProfile::hdd_ceph();
        let ssd = DeviceProfile::ssd_ceph();
        assert_eq!(hdd.aggregate_bw, ssd.aggregate_bw);
        assert!(ssd.open_latency.0 * 5 < hdd.open_latency.0);
        assert!(ssd.iops_cap > hdd.iops_cap * 10.0);
    }

    #[test]
    fn memory_bus_matches_sysbench() {
        assert_eq!(DeviceProfile::memory_bus().aggregate_bw, 166e9);
    }
}
