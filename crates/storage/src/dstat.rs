//! Run counters mirroring the paper's `dstat` side-channel: where bytes
//! came from, how often the dispatcher ran (a context-switch proxy),
//! lock contention, and resource utilization.

use crate::time::Nanos;

/// Counters accumulated over one simulated run.
#[derive(Debug, Clone, Default)]
pub struct Dstat {
    /// Bytes read from the storage device (network reads in the paper).
    pub storage_read_bytes: u64,
    /// Bytes served by the page cache.
    pub cache_read_bytes: u64,
    /// Bytes copied from application-level caches / memory.
    pub memcpy_bytes: u64,
    /// Bytes written to storage (offline materialization).
    pub storage_write_bytes: u64,
    /// Read requests charged against the IOPS budget (file opens).
    pub io_requests: u64,
    /// Dispatcher acquisitions — one per sample scheduling, the paper's
    /// context-switch proxy.
    pub dispatches: u64,
    /// Nanoseconds of single-core CPU work executed.
    pub cpu_work: Nanos,
    /// Total time spent waiting on locks.
    pub lock_wait: Nanos,
    /// Samples completed.
    pub samples: u64,
    /// Virtual wall-clock span of the run.
    pub span: Nanos,
}

impl Dstat {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average storage ("network") read rate in MB/s over the run.
    pub fn network_read_mbps(&self) -> f64 {
        if self.span == Nanos::ZERO {
            return 0.0;
        }
        self.storage_read_bytes as f64 / 1e6 / self.span.as_secs_f64()
    }

    /// Samples per second — the paper's T4 throughput metric.
    pub fn samples_per_second(&self) -> f64 {
        if self.span == Nanos::ZERO {
            return 0.0;
        }
        self.samples as f64 / self.span.as_secs_f64()
    }

    /// Dispatcher invocations per second (context-switch proxy).
    pub fn dispatches_per_second(&self) -> f64 {
        if self.span == Nanos::ZERO {
            return 0.0;
        }
        self.dispatches as f64 / self.span.as_secs_f64()
    }

    /// Mean CPU utilization in cores over the run.
    pub fn cpu_utilization_cores(&self) -> f64 {
        if self.span == Nanos::ZERO {
            return 0.0;
        }
        self.cpu_work.as_secs_f64() / self.span.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_derive_from_span() {
        let stats = Dstat {
            storage_read_bytes: 500_000_000,
            samples: 1000,
            dispatches: 1000,
            cpu_work: Nanos::from_secs(20),
            span: Nanos::from_secs(10),
            ..Dstat::default()
        };
        assert!((stats.network_read_mbps() - 50.0).abs() < 1e-9);
        assert!((stats.samples_per_second() - 100.0).abs() < 1e-9);
        assert!((stats.dispatches_per_second() - 100.0).abs() < 1e-9);
        assert!((stats.cpu_utilization_cores() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_is_safe() {
        let stats = Dstat::new();
        assert_eq!(stats.network_read_mbps(), 0.0);
        assert_eq!(stats.samples_per_second(), 0.0);
        assert_eq!(stats.cpu_utilization_cores(), 0.0);
    }
}
