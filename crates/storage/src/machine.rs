//! The discrete-event execution machine.
//!
//! A [`SimMachine`] co-simulates N worker *programs* (state machines)
//! contending for four shared facilities on a virtual clock:
//!
//! - the **CPU pool** (processor sharing, capacity = core count),
//! - the **storage device** (processor-sharing bandwidth + open
//!   latency + IOPS admission, page-cache aware),
//! - the **memory bus** (processor sharing),
//! - **FIFO locks** (the tf.data dispatcher and GIL-style
//!   `py_function` sections).
//!
//! A program is stepped each time its previous stage completes and
//! returns the next [`Stage`]; any iterator of stages is a program.
//! The machine is single-threaded and fully deterministic. Its clock
//! and its timers (the storage-admission waits) live on one
//! [`EventLoop`]; the processor-sharing resources and the locks are
//! polled for their next completion, because a shared resource's
//! completion instants move whenever a job joins or leaves. Time only
//! advances to the earliest of these, and the tasks woken at one
//! instant are stepped in a fixed order: resource completions (CPU,
//! storage, memory bus), then timers in the loop's order, then lock
//! releases by lock index.

use crate::cache::PageCache;
use crate::device::DeviceProfile;
use crate::dstat::Dstat;
use crate::resource::{FifoLock, JobId, PsResource};
use crate::time::{EventLoop, Nanos};
use std::collections::{HashMap, VecDeque};

/// Index of a task (worker program) in the machine.
pub type TaskId = usize;
/// Index of a lock in the machine.
pub type LockId = usize;

/// A storage read request.
#[derive(Debug, Clone, Copy)]
pub struct ReadReq {
    /// File identity (for page-cache keying).
    pub file: u64,
    /// Byte offset within the file.
    pub offset: u64,
    /// Bytes to read.
    pub bytes: u64,
    /// True if this read opens the file (pays open latency + IOPS).
    pub open: bool,
    /// Whether missed granules enter the page cache.
    pub cacheable: bool,
    /// Total file length (`u64::MAX` if unknown) — lets the page cache
    /// mark a trailing partial granule resident at end of file.
    pub file_len: u64,
}

impl ReadReq {
    /// A fresh whole-file read.
    pub fn open_file(file: u64, bytes: u64) -> Self {
        ReadReq {
            file,
            offset: 0,
            bytes,
            open: true,
            cacheable: true,
            file_len: bytes,
        }
    }
}

/// What a program asks the machine to do next.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    /// Hold `lock` for `hold` (FIFO queueing when contended).
    Lock {
        /// Which lock.
        lock: LockId,
        /// How long the lock is held once acquired.
        hold: Nanos,
    },
    /// Read from storage through the page cache.
    Read(ReadReq),
    /// Write bytes to storage.
    Write {
        /// Bytes written.
        bytes: u64,
    },
    /// Single-core CPU work (parallel across workers up to core count).
    Cpu {
        /// Single-core duration of the work.
        work: Nanos,
    },
    /// Copy bytes over the memory bus.
    MemCopy {
        /// Bytes copied.
        bytes: u64,
    },
    /// The program has finished.
    Done,
}

/// A worker state machine.
pub trait Program {
    /// Called when the previous stage completes (and once at start);
    /// programs bump the run counters (`samples`, `dispatches`…).
    fn step(&mut self, stats: &mut Dstat) -> Stage;
}

/// A fixed script of stages is a program; it is done when the
/// iterator runs out.
impl<I: Iterator<Item = Stage>> Program for I {
    fn step(&mut self, _stats: &mut Dstat) -> Stage {
        self.next().unwrap_or(Stage::Done)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Res {
    Cpu,
    Storage,
    Membus,
}

#[derive(Debug, Clone, Copy)]
enum TimerEvent {
    /// Admission/latency wait finished: start the storage transfer.
    StorageStart { task: TaskId, bytes: u64 },
}

struct TaskSlot {
    program: Box<dyn Program>,
    /// Outstanding sub-operations of the current stage.
    parts_left: u8,
    done: bool,
}

/// Configuration of a [`SimMachine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU cores available to workers.
    pub cores: usize,
    /// Storage backend parameters.
    pub device: DeviceProfile,
    /// Page-cache capacity in bytes (0 disables system-level caching).
    pub page_cache_bytes: u64,
    /// Number of FIFO locks (lock 0 is conventionally the dispatcher).
    pub locks: usize,
}

impl MachineConfig {
    /// The paper's VM: 8 VCPUs, HDD Ceph, 80 GB RAM, dispatcher + GIL.
    pub fn paper_vm() -> Self {
        MachineConfig {
            cores: 8,
            device: DeviceProfile::hdd_ceph(),
            page_cache_bytes: 80 * 1_000_000_000,
            locks: 2,
        }
    }
}

/// The discrete-event machine. See module docs.
pub struct SimMachine {
    /// The clock and the storage-admission timers.
    events: EventLoop<TimerEvent>,
    cpu: PsResource,
    storage: PsResource,
    membus: PsResource,
    device: DeviceProfile,
    iops_free: Nanos,
    cache: PageCache,
    locks: Vec<FifoLock>,
    tasks: Vec<TaskSlot>,
    ready: VecDeque<TaskId>,
    jobs: HashMap<(Res, JobId), TaskId>,
    stats: Dstat,
    live: usize,
    phase_start: Nanos,
    lock_wait_base: Nanos,
}

impl SimMachine {
    /// Build a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let membus_profile = DeviceProfile::memory_bus();
        SimMachine {
            events: EventLoop::new(),
            cpu: PsResource::new(config.cores as f64),
            storage: PsResource::new(config.device.aggregate_bw),
            membus: PsResource::new(membus_profile.aggregate_bw),
            device: config.device,
            iops_free: Nanos::ZERO,
            cache: PageCache::new(config.page_cache_bytes),
            locks: (0..config.locks.max(1)).map(|_| FifoLock::new()).collect(),
            tasks: Vec::new(),
            ready: VecDeque::new(),
            jobs: HashMap::new(),
            stats: Dstat::new(),
            live: 0,
            phase_start: Nanos::ZERO,
            lock_wait_base: Nanos::ZERO,
        }
    }

    /// Start a new measurement phase: counters reset, the clock and the
    /// page cache persist. Used to run successive epochs on one machine.
    pub fn begin_phase(&mut self) {
        self.stats = Dstat::new();
        self.phase_start = self.events.now();
        self.lock_wait_base = self
            .locks
            .iter()
            .fold(Nanos::ZERO, |acc, lock| acc + lock.total_wait);
    }

    /// Register a worker program; it is stepped when `run` starts.
    pub fn add_task(&mut self, program: Box<dyn Program>) -> TaskId {
        let id = self.tasks.len();
        self.tasks.push(TaskSlot {
            program,
            parts_left: 0,
            done: false,
        });
        self.ready.push_back(id);
        self.live += 1;
        id
    }

    /// Access the page cache (e.g. to pre-warm or flush between epochs).
    pub fn cache_mut(&mut self) -> &mut PageCache {
        &mut self.cache
    }

    /// Run until every task is done. Returns the final counters.
    pub fn run(&mut self) -> Dstat {
        while self.live > 0 {
            while let Some(task) = self.ready.pop_front() {
                self.step_task(task);
            }
            if self.live == 0 {
                break;
            }
            let Some(next) = self.next_event_time() else {
                panic!(
                    "simulation deadlock: {} tasks live but no pending events",
                    self.live
                );
            };
            self.advance_to(next);
        }
        self.stats.span = self.events.now().saturating_sub(self.phase_start);
        let total_lock_wait = self
            .locks
            .iter()
            .fold(Nanos::ZERO, |acc, lock| acc + lock.total_wait);
        self.stats.lock_wait = total_lock_wait.saturating_sub(self.lock_wait_base);
        self.stats.clone()
    }

    fn next_event_time(&self) -> Option<Nanos> {
        let mut next = None;
        let mut consider = |t: Option<Nanos>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n: Nanos| n.min(t)));
            }
        };
        consider(self.events.next_at());
        consider(self.cpu.next_completion());
        consider(self.storage.next_completion());
        consider(self.membus.next_completion());
        for lock in &self.locks {
            consider(lock.release_time());
        }
        next
    }

    fn advance_to(&mut self, t: Nanos) {
        self.events.advance_to(t);
        // Resources.
        for res in [Res::Cpu, Res::Storage, Res::Membus] {
            let completed = match res {
                Res::Cpu => self.cpu.advance(t),
                Res::Storage => self.storage.advance(t),
                Res::Membus => self.membus.advance(t),
            };
            for job in completed {
                if let Some(task) = self.jobs.remove(&(res, job)) {
                    self.part_done(task);
                }
            }
        }
        // Timers.
        while let Some((_, event)) = (self.events.next_at())
            .filter(|&at| at <= t)
            .and_then(|_| self.events.pop())
        {
            match event {
                TimerEvent::StorageStart { task, bytes } => {
                    let job = self.storage.add(t, bytes as f64, self.device.per_stream_bw);
                    self.jobs.insert((Res::Storage, job), task);
                }
            }
        }
        // Locks.
        for lock in &mut self.locks {
            while let Some(release) = lock.release_time() {
                if release > t {
                    break;
                }
                let (owner, _next) = lock.release(release);
                self.ready.push_back(owner as TaskId);
            }
        }
    }

    fn part_done(&mut self, task: TaskId) {
        let slot = &mut self.tasks[task];
        debug_assert!(slot.parts_left > 0);
        slot.parts_left -= 1;
        if slot.parts_left == 0 {
            self.ready.push_back(task);
        }
    }

    fn step_task(&mut self, task: TaskId) {
        if self.tasks[task].done {
            return;
        }
        let now = self.events.now();
        match self.tasks[task].program.step(&mut self.stats) {
            Stage::Done => {
                self.tasks[task].done = true;
                self.live -= 1;
            }
            Stage::Cpu { work } => {
                if work == Nanos::ZERO {
                    self.ready.push_back(task);
                    return;
                }
                self.stats.cpu_work += work;
                self.tasks[task].parts_left = 1;
                let job = self.cpu.add(now, work.as_secs_f64(), 1.0);
                self.jobs.insert((Res::Cpu, job), task);
            }
            Stage::MemCopy { bytes } => {
                if bytes == 0 {
                    self.ready.push_back(task);
                    return;
                }
                self.stats.memcpy_bytes += bytes;
                self.tasks[task].parts_left = 1;
                let job =
                    self.membus
                        .add(now, bytes as f64, DeviceProfile::memory_bus().per_stream_bw);
                self.jobs.insert((Res::Membus, job), task);
            }
            Stage::Write { bytes } => {
                if bytes == 0 {
                    self.ready.push_back(task);
                    return;
                }
                self.stats.storage_write_bytes += bytes;
                self.tasks[task].parts_left = 1;
                let job = self
                    .storage
                    .add(now, bytes as f64, self.device.write_per_stream_bw);
                self.jobs.insert((Res::Storage, job), task);
            }
            Stage::Read(req) => self.start_read(task, req),
            Stage::Lock { lock, hold } => {
                assert!(lock < self.locks.len(), "unknown lock {lock}");
                // Acquire; if immediate, the release event completes the
                // stage. If queued, release of predecessors will chain.
                let _ = self.locks[lock].acquire(now, task as u64, hold);
            }
        }
    }

    fn start_read(&mut self, task: TaskId, req: ReadReq) {
        let now = self.events.now();
        let split = self
            .cache
            .access(req.file, req.offset, req.bytes, req.cacheable, req.file_len);
        self.stats.storage_read_bytes += split.miss;
        self.stats.cache_read_bytes += split.hit;
        let mut parts = 0u8;
        if split.hit > 0 {
            parts += 1;
        }
        if split.miss > 0 {
            parts += 1;
        }
        if parts == 0 {
            self.ready.push_back(task);
            return;
        }
        self.tasks[task].parts_left = parts;
        if split.hit > 0 {
            let job = self.membus.add(
                now,
                split.hit as f64,
                DeviceProfile::memory_bus().per_stream_bw,
            );
            self.jobs.insert((Res::Membus, job), task);
        }
        if split.miss > 0 {
            let mut start = now;
            if req.open {
                start += self.device.open_latency;
                self.stats.io_requests += 1;
                if self.device.iops_cap.is_finite() {
                    let gap = Nanos::from_secs_f64(1.0 / self.device.iops_cap);
                    self.iops_free = self.iops_free.max(now) + gap;
                    start = start.max(self.iops_free);
                }
            }
            if start <= now {
                let job = self
                    .storage
                    .add(now, split.miss as f64, self.device.per_stream_bw);
                self.jobs.insert((Res::Storage, job), task);
            } else {
                let bytes = split.miss;
                self.events
                    .schedule(start, TimerEvent::StorageStart { task, bytes });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::mbps;

    fn test_device() -> DeviceProfile {
        DeviceProfile {
            name: "test",
            per_stream_bw: mbps(100.0),
            aggregate_bw: mbps(400.0),
            open_latency: Nanos::from_millis(10),
            iops_cap: f64::INFINITY,
            write_per_stream_bw: mbps(100.0),
            write_aggregate_bw: mbps(400.0),
            metadata_pressure: 1.0,
        }
    }

    fn machine(cores: usize, cache_bytes: u64) -> SimMachine {
        SimMachine::new(MachineConfig {
            cores,
            device: test_device(),
            page_cache_bytes: cache_bytes,
            locks: 2,
        })
    }

    /// A program executing a fixed list of stages.
    fn script(stages: Vec<Stage>) -> Box<dyn Program> {
        Box::new(stages.into_iter())
    }

    #[test]
    fn cpu_work_takes_expected_time() {
        let mut m = machine(4, 0);
        m.add_task(script(vec![Stage::Cpu {
            work: Nanos::from_secs(2),
        }]));
        let stats = m.run();
        assert_eq!(stats.span, Nanos::from_secs(2));
        assert_eq!(stats.cpu_work, Nanos::from_secs(2));
    }

    #[test]
    fn cpu_oversubscription_shares_cores() {
        // 4 jobs of 1s on 2 cores: span = 2s.
        let mut m = machine(2, 0);
        for _ in 0..4 {
            m.add_task(script(vec![Stage::Cpu {
                work: Nanos::from_secs(1),
            }]));
        }
        let stats = m.run();
        assert_eq!(stats.span, Nanos::from_secs(2));
    }

    #[test]
    fn parallel_cpu_within_core_count_overlaps() {
        let mut m = machine(8, 0);
        for _ in 0..8 {
            m.add_task(script(vec![Stage::Cpu {
                work: Nanos::from_secs(1),
            }]));
        }
        assert_eq!(m.run().span, Nanos::from_secs(1));
    }

    #[test]
    fn single_stream_read_time_is_open_plus_transfer() {
        let mut m = machine(1, 0);
        // 100 MB at 100 MB/s + 10 ms open.
        m.add_task(script(vec![Stage::Read(ReadReq::open_file(
            0,
            100_000_000,
        ))]));
        let stats = m.run();
        assert_eq!(stats.span, Nanos::from_millis(1010));
        assert_eq!(stats.storage_read_bytes, 100_000_000);
    }

    #[test]
    fn aggregate_bandwidth_limits_many_streams() {
        // 8 streams × 100 MB, per-stream 100 MB/s, aggregate 400 MB/s:
        // total 800 MB at 400 MB/s = 2 s (+ 10 ms open, concurrent).
        let mut m = machine(8, 0);
        for i in 0..8 {
            m.add_task(script(vec![Stage::Read(ReadReq::open_file(
                i,
                100_000_000,
            ))]));
        }
        let stats = m.run();
        let secs = stats.span.as_secs_f64();
        assert!((secs - 2.01).abs() < 0.02, "span {secs}");
    }

    #[test]
    fn second_epoch_hits_cache_and_uses_memory_bus() {
        let mut m = machine(1, 1 << 30);
        let read = Stage::Read(ReadReq::open_file(7, 50_000_000));
        m.add_task(script(vec![read, read]));
        let stats = m.run();
        assert_eq!(stats.storage_read_bytes, 50_000_000);
        assert_eq!(stats.cache_read_bytes, 50_000_000);
        // Second read at memory speed is negligible next to the first.
        assert!(stats.span < Nanos::from_millis(600));
    }

    #[test]
    fn lock_serializes_holders() {
        let mut m = machine(8, 0);
        for _ in 0..4 {
            m.add_task(script(vec![Stage::Lock {
                lock: 0,
                hold: Nanos::from_millis(10),
            }]));
        }
        let stats = m.run();
        assert_eq!(stats.span, Nanos::from_millis(40));
        assert!(stats.lock_wait >= Nanos::from_millis(10 + 20 + 30));
    }

    #[test]
    fn iops_cap_throttles_small_random_reads() {
        let mut device = test_device();
        device.iops_cap = 100.0; // 10 ms between admissions
        device.open_latency = Nanos::ZERO;
        let mut m = SimMachine::new(MachineConfig {
            cores: 8,
            device,
            page_cache_bytes: 0,
            locks: 1,
        });
        // 8 workers × 25 tiny opens = 200 requests at 100/s → ≥ 2 s.
        for w in 0..8u64 {
            let stages: Vec<Stage> = (0..25)
                .map(|i| Stage::Read(ReadReq::open_file(w * 1000 + i, 1000)))
                .collect();
            m.add_task(script(stages));
        }
        let stats = m.run();
        assert!(stats.span >= Nanos::from_secs(2), "span {}", stats.span);
        assert_eq!(stats.io_requests, 200);
    }

    #[test]
    fn write_consumes_storage_bandwidth() {
        let mut m = machine(1, 0);
        m.add_task(script(vec![Stage::Write { bytes: 100_000_000 }]));
        let stats = m.run();
        assert_eq!(stats.span, Nanos::from_secs(1));
        assert_eq!(stats.storage_write_bytes, 100_000_000);
    }

    #[test]
    fn yield_and_zero_cost_stages_terminate() {
        let mut m = machine(1, 0);
        m.add_task(script(vec![
            Stage::Cpu { work: Nanos::ZERO },
            Stage::MemCopy { bytes: 0 },
            Stage::Read(ReadReq::open_file(0, 0)),
        ]));
        let stats = m.run();
        assert_eq!(stats.span, Nanos::ZERO);
    }

    #[test]
    fn mixed_read_compute_pipeline_overlaps() {
        // Two workers: each reads 100 MB (1 s + open) then computes 1 s.
        // With independent resources the span is ~2.01 s, not 4 s.
        let mut m = machine(2, 0);
        for i in 0..2 {
            m.add_task(script(vec![
                Stage::Read(ReadReq::open_file(i, 100_000_000)),
                Stage::Cpu {
                    work: Nanos::from_secs(1),
                },
            ]));
        }
        let stats = m.run();
        let secs = stats.span.as_secs_f64();
        assert!((secs - 2.01).abs() < 0.02, "span {secs}");
    }
}
