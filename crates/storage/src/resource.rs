//! Max–min-fair processor-sharing resources.
//!
//! A [`PsResource`] holds a set of jobs, each with remaining work and a
//! per-stream rate cap, sharing total capacity by water-filling: excess
//! capacity left by capped jobs is redistributed to the rest. This
//! models the paper's three shared channels:
//!
//! - cluster bandwidth: per-stream cap 219 MB/s, aggregate 910 MB/s
//!   (their Table 3 — 1 thread vs 8 threads sequential),
//! - CPU: per-job cap one core, aggregate = core count,
//! - memory bus: per-stream cap well below the 166 GB/s aggregate.

use crate::time::Nanos;
use std::collections::{BTreeMap, HashMap};

/// Identifier of a job inside one resource.
pub type JobId = u64;

#[derive(Debug, Clone)]
struct Job {
    /// Remaining work, in abstract units (bytes or cpu-ns).
    remaining: f64,
    /// Per-stream cap, units per second.
    cap: f64,
}

/// A processor-sharing server with max–min fairness.
#[derive(Debug)]
pub struct PsResource {
    /// Total capacity, units per second.
    capacity: f64,
    /// Active jobs, ordered by id. A `BTreeMap` (not `HashMap`) on
    /// purpose: [`PsResource::advance`] reports completions in
    /// iteration order, which feeds task wakeup order in the machine —
    /// hash-seed-dependent iteration would make simulation results vary
    /// across threads and processes.
    jobs: BTreeMap<JobId, Job>,
    next_id: JobId,
    last_update: Nanos,
    /// Cached per-job rates, recomputed on membership change.
    rates: HashMap<JobId, f64>,
}

/// Work below this is considered finished (absorbs f64 drift).
const WORK_EPSILON: f64 = 1e-6;

impl PsResource {
    /// A resource with `capacity` units per second.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0);
        PsResource {
            capacity,
            jobs: BTreeMap::new(),
            next_id: 0,
            last_update: Nanos::ZERO,
            rates: HashMap::new(),
        }
    }

    /// Add a job with `work` units and a per-stream rate cap
    /// (units/second). The caller must have advanced the clock to `now`.
    pub fn add(&mut self, now: Nanos, work: f64, per_stream_cap: f64) -> JobId {
        debug_assert!(now >= self.last_update);
        self.advance_internal(now);
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                remaining: work.max(0.0),
                cap: per_stream_cap.max(0.0),
            },
        );
        self.recompute_rates();
        id
    }

    /// Advance virtual time to `now`, returning the ids of jobs that
    /// completed at or before `now`, in ascending id order (so the
    /// caller's wakeup order is deterministic).
    pub fn advance(&mut self, now: Nanos) -> Vec<JobId> {
        self.advance_internal(now);
        let done: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.remaining <= WORK_EPSILON)
            .map(|(&id, _)| id)
            .collect();
        if !done.is_empty() {
            for id in &done {
                self.jobs.remove(id);
            }
            self.recompute_rates();
        }
        done
    }

    fn advance_internal(&mut self, now: Nanos) {
        if now <= self.last_update || self.jobs.is_empty() {
            self.last_update = self.last_update.max(now);
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        for (id, job) in self.jobs.iter_mut() {
            let rate = self.rates.get(id).copied().unwrap_or(0.0);
            let progress = (rate * dt).min(job.remaining);
            job.remaining -= progress;
        }
        self.last_update = now;
    }

    /// Max–min fair (water-filling) rate assignment.
    fn recompute_rates(&mut self) {
        self.rates.clear();
        if self.jobs.is_empty() {
            return;
        }
        let mut remaining_capacity = self.capacity;
        let mut unassigned: Vec<(JobId, f64)> =
            self.jobs.iter().map(|(&id, j)| (id, j.cap)).collect();
        // Sort by cap ascending; repeatedly satisfy jobs whose cap is
        // below the fair share.
        unassigned.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let mut i = 0;
        while i < unassigned.len() {
            let n_left = (unassigned.len() - i) as f64;
            let fair = remaining_capacity / n_left;
            let (id, cap) = unassigned[i];
            if cap <= fair {
                self.rates.insert(id, cap);
                remaining_capacity -= cap;
                i += 1;
            } else {
                // All remaining jobs are capped above the fair share.
                for &(id, _) in &unassigned[i..] {
                    self.rates.insert(id, fair);
                }
                return;
            }
        }
    }

    /// Current rate of a job, units per second.
    pub fn rate_of(&self, id: JobId) -> f64 {
        self.rates.get(&id).copied().unwrap_or(0.0)
    }

    /// Earliest completion time among active jobs, given current rates.
    pub fn next_completion(&self) -> Option<Nanos> {
        self.jobs
            .iter()
            .filter_map(|(id, job)| {
                let rate = self.rates.get(id).copied().unwrap_or(0.0);
                if job.remaining <= WORK_EPSILON {
                    Some(self.last_update)
                } else if rate > 0.0 {
                    // Ceil: an under-estimate would re-fire at the same
                    // instant with the job still fractionally incomplete.
                    Some(self.last_update + Nanos::from_secs_f64_ceil(job.remaining / rate))
                } else {
                    None
                }
            })
            .min()
    }
}

/// A FIFO mutual-exclusion lock with timed holds — the dispatcher
/// serialization and the GIL-style `py_function` sections.
#[derive(Debug, Default)]
pub struct FifoLock {
    /// Current holder and its release time.
    holder: Option<(u64, Nanos)>,
    /// Waiters: (owner token, hold duration) in arrival order.
    queue: std::collections::VecDeque<(u64, Nanos)>,
    /// Total time tasks spent waiting (for diagnostics).
    pub total_wait: Nanos,
    /// Number of acquisitions.
    pub acquisitions: u64,
    /// Arrival times of queued waiters, parallel to `queue`.
    arrivals: std::collections::VecDeque<Nanos>,
}

impl FifoLock {
    /// New, free lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request the lock at `now` for `hold`; returns `true` if acquired
    /// immediately (release scheduled), `false` if queued.
    pub fn acquire(&mut self, now: Nanos, owner: u64, hold: Nanos) -> bool {
        self.acquisitions += 1;
        if self.holder.is_none() {
            self.holder = Some((owner, now + hold));
            true
        } else {
            self.queue.push_back((owner, hold));
            self.arrivals.push_back(now);
            false
        }
    }

    /// When the current hold ends, if any.
    pub fn release_time(&self) -> Option<Nanos> {
        self.holder.map(|(_, t)| t)
    }

    /// Advance past the current release: returns `(released_owner,
    /// newly_acquired_owner)`. Panics if called with no holder or before
    /// the release time.
    pub fn release(&mut self, now: Nanos) -> (u64, Option<u64>) {
        let (owner, release) = self.holder.take().expect("release without holder");
        debug_assert!(now >= release, "released early");
        let next = self.queue.pop_front().map(|(next_owner, hold)| {
            let arrived = self.arrivals.pop_front().unwrap_or(now);
            self.total_wait += now.saturating_sub(arrived);
            self.holder = Some((next_owner, now + hold));
            next_owner
        });
        (owner, next)
    }

    /// Number of queued waiters.
    pub fn waiters(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_at_its_cap() {
        let mut res = PsResource::new(1000.0);
        let id = res.add(Nanos::ZERO, 100.0, 200.0);
        assert_eq!(res.rate_of(id), 200.0);
        let finish = res.next_completion().unwrap();
        assert_eq!(finish, Nanos::from_secs_f64(0.5));
        let done = res.advance(finish);
        assert_eq!(done, vec![id]);
    }

    #[test]
    fn fair_share_when_uncapped() {
        let mut res = PsResource::new(900.0);
        let a = res.add(Nanos::ZERO, 900.0, 1e12);
        let b = res.add(Nanos::ZERO, 900.0, 1e12);
        let c = res.add(Nanos::ZERO, 900.0, 1e12);
        for id in [a, b, c] {
            assert!((res.rate_of(id) - 300.0).abs() < 1e-9);
        }
    }

    #[test]
    fn water_filling_redistributes_capped_slack() {
        let mut res = PsResource::new(900.0);
        let slow = res.add(Nanos::ZERO, 1e9, 100.0); // capped below fair share
        let fast1 = res.add(Nanos::ZERO, 1e9, 1e12);
        let fast2 = res.add(Nanos::ZERO, 1e9, 1e12);
        assert!((res.rate_of(slow) - 100.0).abs() < 1e-9);
        // Remaining 800 split between the two uncapped jobs.
        assert!((res.rate_of(fast1) - 400.0).abs() < 1e-9);
        assert!((res.rate_of(fast2) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn eight_streams_hit_aggregate_cap() {
        // The Table 3 shape: per-stream 219, aggregate 910.
        let mut res = PsResource::new(910e6);
        let ids: Vec<_> = (0..8).map(|_| res.add(Nanos::ZERO, 5e9, 219e6)).collect();
        let total: f64 = ids.iter().map(|&id| res.rate_of(id)).sum();
        assert!((total - 910e6).abs() < 1.0);
        // One stream alone gets its full 219 MB/s.
        let mut solo = PsResource::new(910e6);
        let id = solo.add(Nanos::ZERO, 5e9, 219e6);
        assert!((solo.rate_of(id) - 219e6).abs() < 1.0);
    }

    #[test]
    fn completion_order_respects_work() {
        let mut res = PsResource::new(100.0);
        let small = res.add(Nanos::ZERO, 10.0, 1e12);
        let big = res.add(Nanos::ZERO, 1000.0, 1e12);
        let t1 = res.next_completion().unwrap();
        let done = res.advance(t1);
        assert_eq!(done, vec![small]);
        // Big job now gets the full capacity.
        assert!((res.rate_of(big) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn departures_speed_up_remaining_jobs() {
        let mut res = PsResource::new(100.0);
        let a = res.add(Nanos::ZERO, 100.0, 1e12);
        let _b = res.add(Nanos::ZERO, 50.0, 1e12);
        // Both at 50/s. b finishes at t=1; a has 50 left, then runs at 100/s.
        let t1 = res.next_completion().unwrap();
        assert_eq!(t1, Nanos::from_secs(1));
        res.advance(t1);
        let t2 = res.next_completion().unwrap();
        assert_eq!(t2, Nanos::from_secs_f64(1.5));
        assert_eq!(res.advance(t2), vec![a]);
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut res = PsResource::new(10.0);
        let id = res.add(Nanos::from_secs(1), 0.0, 10.0);
        let done = res.advance(Nanos::from_secs(1));
        assert_eq!(done, vec![id]);
    }

    #[test]
    fn fifo_lock_orders_waiters() {
        let mut lock = FifoLock::new();
        assert!(lock.acquire(Nanos::ZERO, 1, Nanos::from_millis(10)));
        assert!(!lock.acquire(Nanos::ZERO, 2, Nanos::from_millis(10)));
        assert!(!lock.acquire(Nanos::ZERO, 3, Nanos::from_millis(10)));
        assert_eq!(lock.waiters(), 2);
        let release = lock.release_time().unwrap();
        assert_eq!(release, Nanos::from_millis(10));
        let (released, next) = lock.release(release);
        assert_eq!((released, next), (1, Some(2)));
        let (released, next) = lock.release(Nanos::from_millis(20));
        assert_eq!((released, next), (2, Some(3)));
        let (released, next) = lock.release(Nanos::from_millis(30));
        assert_eq!((released, next), (3, None));
        assert_eq!(lock.acquisitions, 3);
        assert_eq!(lock.total_wait, Nanos::from_millis(10 + 20));
    }

    #[test]
    fn lock_serializes_throughput() {
        // Three tasks holding 1 ms each: total span 3 ms regardless of
        // arrival pattern — the mechanism behind dispatch-bound SPS.
        let mut lock = FifoLock::new();
        lock.acquire(Nanos::ZERO, 0, Nanos::from_millis(1));
        lock.acquire(Nanos::ZERO, 1, Nanos::from_millis(1));
        lock.acquire(Nanos::ZERO, 2, Nanos::from_millis(1));
        let mut now = Nanos::ZERO;
        let mut releases = 0;
        while let Some(t) = lock.release_time() {
            now = t;
            lock.release(now);
            releases += 1;
        }
        assert_eq!(releases, 3);
        assert_eq!(now, Nanos::from_millis(3));
    }
}
