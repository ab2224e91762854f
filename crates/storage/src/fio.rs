//! `fio`-style storage microbenchmark driver — regenerates the paper's
//! Table 3 against a [`DeviceProfile`].
//!
//! The paper profiles four workloads: {1, 8} threads × {one 5 GB file
//! sequential, 5000 × 0.2 MB files random} and reports the achieved
//! bandwidth. The driver runs the same access patterns through the
//! discrete-event machine.

use crate::device::DeviceProfile;
use crate::machine::{MachineConfig, ReadReq, SimMachine, Stage};
use crate::time::Nanos;

/// One fio workload.
#[derive(Debug, Clone, Copy)]
pub struct FioWorkload {
    /// Concurrent reader threads.
    pub threads: usize,
    /// Files read by each thread.
    pub files_per_thread: usize,
    /// Size of each file in bytes.
    pub file_bytes: u64,
    /// Sequential (one stream per file, opened once) or random
    /// (every file open is an independent random access).
    pub sequential: bool,
}

impl FioWorkload {
    /// The four rows of the paper's Table 3.
    pub fn table3() -> [FioWorkload; 4] {
        [
            FioWorkload {
                threads: 1,
                files_per_thread: 1,
                file_bytes: 5_000_000_000,
                sequential: true,
            },
            FioWorkload {
                threads: 8,
                files_per_thread: 1,
                file_bytes: 5_000_000_000,
                sequential: true,
            },
            FioWorkload {
                threads: 1,
                files_per_thread: 5000,
                file_bytes: 200_000,
                sequential: false,
            },
            FioWorkload {
                threads: 8,
                files_per_thread: 5000,
                file_bytes: 200_000,
                sequential: false,
            },
        ]
    }

    /// Total bytes moved by the workload.
    pub fn total_bytes(&self) -> u64 {
        self.threads as u64 * self.files_per_thread as u64 * self.file_bytes
    }
}

/// Result of one fio run.
#[derive(Debug, Clone, Copy)]
pub struct FioResult {
    /// Achieved bandwidth, MB/s (decimal, as the paper reports).
    pub bandwidth_mbps: f64,
    /// Virtual elapsed time.
    pub elapsed: Nanos,
    /// Requests issued.
    pub requests: u64,
    /// Requests per second.
    pub iops: f64,
}

/// Run one workload against a device.
pub fn run(device: &DeviceProfile, workload: FioWorkload) -> FioResult {
    let mut machine = SimMachine::new(MachineConfig {
        cores: workload.threads.max(1),
        device: device.clone(),
        page_cache_bytes: 0,
        locks: 1,
    });
    for thread in 0..workload.threads as u64 {
        // Each file is opened fresh: the random workload's cost is the
        // per-file open + IOPS admission, while the sequential workload
        // amortizes its single open over 5 GB.
        machine.add_task(Box::new((0..workload.files_per_thread as u64).map(
            move |file| {
                let mut req = ReadReq::open_file(thread * 1_000_000 + file, workload.file_bytes);
                req.cacheable = false; // fio drops caches; isolate the device
                Stage::Read(req)
            },
        )));
    }
    let stats = machine.run();
    let secs = stats.span.as_secs_f64();
    FioResult {
        bandwidth_mbps: if secs > 0.0 {
            workload.total_bytes() as f64 / 1e6 / secs
        } else {
            0.0
        },
        elapsed: stats.span,
        requests: stats.io_requests,
        iops: if secs > 0.0 {
            stats.io_requests as f64 / secs
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline calibration test: the simulated cluster must land
    /// near the paper's Table 3 fio numbers.
    #[test]
    fn hdd_ceph_reproduces_table3() {
        let device = DeviceProfile::hdd_ceph();
        let rows = FioWorkload::table3();
        let expected = [219.0, 910.0, 6.6, 40.4];
        let tolerance = [0.05, 0.05, 0.15, 0.15];
        for ((workload, paper), tol) in rows.iter().zip(expected).zip(tolerance) {
            let result = run(&device, *workload);
            let rel = (result.bandwidth_mbps - paper).abs() / paper;
            assert!(
                rel < tol,
                "{} threads, {} files: got {:.1} MB/s, paper {paper} MB/s",
                workload.threads,
                workload.files_per_thread,
                result.bandwidth_mbps
            );
        }
    }

    #[test]
    fn sequential_is_much_faster_than_random() {
        let device = DeviceProfile::hdd_ceph();
        let seq = run(&device, FioWorkload::table3()[0]);
        let rand = run(&device, FioWorkload::table3()[2]);
        let factor = seq.bandwidth_mbps / rand.bandwidth_mbps;
        // Paper: 33× single-threaded.
        assert!(factor > 20.0 && factor < 50.0, "factor {factor:.1}");
    }

    #[test]
    fn ssd_improves_random_but_not_sequential() {
        let hdd = DeviceProfile::hdd_ceph();
        let ssd = DeviceProfile::ssd_ceph();
        let seq_hdd = run(&hdd, FioWorkload::table3()[1]);
        let seq_ssd = run(&ssd, FioWorkload::table3()[1]);
        assert!((seq_hdd.bandwidth_mbps - seq_ssd.bandwidth_mbps).abs() < 1.0);
        let rand_hdd = run(&hdd, FioWorkload::table3()[3]);
        let rand_ssd = run(&ssd, FioWorkload::table3()[3]);
        assert!(rand_ssd.bandwidth_mbps > rand_hdd.bandwidth_mbps * 4.0);
    }

    #[test]
    fn multithreading_scales_random_reads_sublinearly() {
        let device = DeviceProfile::hdd_ceph();
        let one = run(&device, FioWorkload::table3()[2]);
        let eight = run(&device, FioWorkload::table3()[3]);
        let speedup = eight.bandwidth_mbps / one.bandwidth_mbps;
        // Paper: 6.6 → 40.4 is ~6.1×.
        assert!(speedup > 4.0 && speedup < 8.0, "speedup {speedup:.1}");
    }
}
