//! The hot data plane of the streaming engine: pooled buffers, sample
//! bundles, and the sharded MPSC ring that replaced the single bounded
//! channel.
//!
//! The realrun epoch document committed in PR 8 (its successor is
//! `tests/fixtures/realrun-epoch.json`) showed the paper's "hidden
//! trade-off" live in this repo: ~86% of epoch busy time went
//! to the two deliver phases (`queue-wait` + `hand-off`) while the
//! preprocessing steps themselves were cheap. Three mechanics fix it:
//!
//! - [`SampleBundle`]: workers hand whole bundles through the queue
//!   instead of per-sample sends, cutting hand-off count from
//!   O(samples) to O(samples / bundle_size),
//! - [`BufferPool`]: bundle containers and encode scratch are recycled
//!   across shards instead of reallocated per send,
//! - [`ring()`]: one queue lane per producer with a min-ready consumer
//!   merge, so producers never contend on a single channel's lock and
//!   a slow lane cannot convoy the others (the per-worker deliver skew
//!   visible in the old telemetry).
//!
//! The ring deliberately keeps the old channel's observable semantics:
//! bounded capacity with blocking producers (backpressure), receiver
//! drop unblocks and stops producers, and all-senders-done ends the
//! stream. Blocking sends report every individual condvar wait to the
//! caller, so telemetry can record one `queue-wait` span per blocked
//! episode instead of one coalesced span per sample.

use crate::sample::Sample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Default samples per [`SampleBundle`] (the `--bundle-size` knob).
pub const DEFAULT_BUNDLE_SIZE: usize = 16;

/// Buffers kept idle per pool shelf before further returns are dropped
/// (bounds pool memory on bursty epochs).
const POOL_SHELF_CAP: usize = 64;

/// A fixed-capacity batch of finished samples: the unit of hand-off on
/// the streaming data plane. Workers fill one per shard (flushing early
/// when `capacity` is reached) so per-shard sample order is preserved
/// and a bundle never spans shards.
#[derive(Debug)]
pub struct SampleBundle {
    /// The samples, in production order.
    pub samples: Vec<Sample>,
}

impl SampleBundle {
    /// An empty bundle wrapping `container` (usually pool-recycled).
    pub fn from_container(container: Vec<Sample>) -> Self {
        SampleBundle { samples: container }
    }

    /// Samples in the bundle.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the bundle holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A free-list of reusable buffers for the hot path: bundle containers
/// (`Vec<Sample>`) and byte scratch (`Vec<u8>`, e.g. the serve wire
/// encoder). Returned buffers are always cleared before they are
/// shelved, so a buffer recycled after a fault/resync can never leak
/// stale samples into the next shard. Acquire methods report whether
/// the request was served from the shelf (`true`) or had to allocate.
#[derive(Debug)]
pub struct BufferPool {
    bundles: Mutex<Vec<Vec<Sample>>>,
    bytes: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Idle buffers kept per shelf; further returns are dropped.
    shelf_cap: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::with_shelf_cap(POOL_SHELF_CAP)
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// An empty pool that keeps at most `shelf_cap` idle buffers per
    /// shelf — sized to what its users can have in flight.
    pub fn with_shelf_cap(shelf_cap: usize) -> Self {
        BufferPool {
            bundles: Mutex::default(),
            bytes: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shelf_cap,
        }
    }

    /// A bundle container with room for `capacity` samples, recycled
    /// when possible. Returns `(container, served_from_pool)`.
    pub fn get_bundle(&self, capacity: usize) -> (Vec<Sample>, bool) {
        if let Some(mut v) = self.bundles.lock().unwrap().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.reserve(capacity.saturating_sub(v.capacity()));
            return (v, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (Vec::with_capacity(capacity), false)
    }

    /// Return a bundle container for reuse. The container is cleared
    /// here — never by the next user — so a poisoned or partially
    /// filled buffer from a degraded shard cannot resurface.
    pub fn put_bundle(&self, mut container: Vec<Sample>) {
        container.clear();
        let mut shelf = self.bundles.lock().unwrap();
        if shelf.len() < self.shelf_cap {
            shelf.push(container);
        }
    }

    /// A byte scratch buffer of at least `capacity` bytes, recycled
    /// when possible. Returns `(buffer, served_from_pool)`.
    pub fn get_bytes(&self, capacity: usize) -> (Vec<u8>, bool) {
        if let Some(mut v) = self.bytes.lock().unwrap().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.reserve(capacity.saturating_sub(v.capacity()));
            return (v, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (Vec::with_capacity(capacity), false)
    }

    /// Return a byte scratch buffer for reuse (cleared here).
    pub fn put_bytes(&self, mut buffer: Vec<u8>) {
        buffer.clear();
        let mut shelf = self.bytes.lock().unwrap();
        if shelf.len() < self.shelf_cap {
            shelf.push(buffer);
        }
    }

    /// Acquisitions served from the shelf.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to allocate fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One producer lane: a bounded FIFO plus the condvar its blocked
/// producer sleeps on.
#[derive(Debug)]
struct Lane<T> {
    queue: Mutex<VecDeque<(u64, T)>>,
    space: Condvar,
    capacity: usize,
}

/// State shared by all lanes: the global ready count (how many items
/// sit in lanes, total), the consumer's wakeup, and liveness flags.
#[derive(Debug)]
struct RingShared<T> {
    lanes: Vec<Lane<T>>,
    ready: Mutex<u64>,
    ready_cv: Condvar,
    /// Arrival stamp for the min-ready merge.
    next_seq: AtomicU64,
    open_senders: AtomicUsize,
    /// Receiver hung up: senders must stop.
    closed: AtomicBool,
}

impl<T> RingShared<T> {
    fn note_ready(&self) {
        *self.ready.lock().unwrap() += 1;
        self.ready_cv.notify_one();
    }
}

/// Error returned by a send on a ring whose receiver hung up; carries
/// the unsent item back.
#[derive(Debug)]
pub struct RingClosed<T>(pub T);

/// A `try_send` that found its lane full; carries the item back.
#[derive(Debug)]
pub struct LaneFull<T>(pub T);

/// Producer handle bound to one lane of the ring.
#[derive(Debug)]
pub struct RingSender<T> {
    shared: Arc<RingShared<T>>,
    lane: usize,
}

impl<T> RingSender<T> {
    /// Non-blocking send: enqueue if the lane has room.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(TrySendError::Closed(item));
        }
        let lane = &self.shared.lanes[self.lane];
        {
            let mut queue = lane.queue.lock().unwrap();
            if queue.len() >= lane.capacity {
                return Err(TrySendError::Full(item));
            }
            let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
            queue.push_back((seq, item));
        }
        self.shared.note_ready();
        Ok(())
    }

    /// Blocking send: wait for lane space, reporting each individual
    /// condvar wait to `waited` with the instant the wait began (the
    /// per-blocked-wait `queue-wait` span hook). Returns the item when
    /// the receiver hung up.
    pub fn send(&self, item: T, waited: &mut dyn FnMut(Instant)) -> Result<(), RingClosed<T>> {
        let lane = &self.shared.lanes[self.lane];
        let mut queue = lane.queue.lock().unwrap();
        loop {
            if self.shared.closed.load(Ordering::Acquire) {
                return Err(RingClosed(item));
            }
            if queue.len() < lane.capacity {
                let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
                queue.push_back((seq, item));
                drop(queue);
                self.shared.note_ready();
                return Ok(());
            }
            let t0 = Instant::now();
            queue = lane.space.wait(queue).unwrap();
            waited(t0);
        }
    }

    /// Block until this sender's lane has room, sending nothing: where
    /// a producer waits so as not to work ahead of its consumer. False
    /// once the receiver hung up.
    pub fn wait_room(&self) -> bool {
        const POISONED: &str = "a ring lane's lock holder panicked";
        let lane = &self.shared.lanes[self.lane];
        let mut queue = lane.queue.lock().expect(POISONED);
        loop {
            if self.shared.closed.load(Ordering::Acquire) {
                return false;
            }
            if queue.len() < lane.capacity {
                return true;
            }
            queue = lane.space.wait(queue).expect(POISONED);
        }
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        if self.shared.open_senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last producer out: wake the consumer so it can observe
            // end-of-stream instead of sleeping forever.
            let _ready = self.shared.ready.lock().unwrap();
            self.shared.ready_cv.notify_all();
        }
    }
}

/// Outcome of [`RingSender::try_send`].
#[derive(Debug)]
pub enum TrySendError<T> {
    /// The lane is at capacity; item returned.
    Full(T),
    /// The receiver hung up; item returned.
    Closed(T),
}

/// Consumer handle merging all lanes, oldest-arrival first.
#[derive(Debug)]
pub struct RingReceiver<T> {
    shared: Arc<RingShared<T>>,
}

impl<T> RingReceiver<T> {
    /// Receive the oldest ready item across all lanes; `None` when
    /// every sender is done and the ring is drained.
    pub fn recv(&self) -> Option<T> {
        {
            let mut ready = self.shared.ready.lock().unwrap();
            loop {
                if *ready > 0 {
                    *ready -= 1;
                    break;
                }
                if self.shared.open_senders.load(Ordering::Acquire) == 0 {
                    return None;
                }
                ready = self.shared.ready_cv.wait(ready).unwrap();
            }
        }
        // A ready item is guaranteed present (it is pushed before the
        // count is bumped); find the lane whose head arrived first.
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (idx, lane) in self.shared.lanes.iter().enumerate() {
                let queue = lane.queue.lock().unwrap();
                if let Some(&(seq, _)) = queue.front() {
                    if best.map(|(s, _)| seq < s).unwrap_or(true) {
                        best = Some((seq, idx));
                    }
                }
            }
            if let Some((_, idx)) = best {
                let lane = &self.shared.lanes[idx];
                let item = {
                    let mut queue = lane.queue.lock().unwrap();
                    // Another pass cannot race us — there is exactly one
                    // receiver — but the head may have been beaten by a
                    // lower stamp landing between scan and pop; either
                    // way popping the current head is a valid merge.
                    queue.pop_front()
                };
                match item {
                    Some((_, item)) => {
                        lane.space.notify_one();
                        return Some(item);
                    }
                    None => continue, // stamped but not yet visible: rescan
                }
            }
            std::hint::spin_loop();
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        for lane in &self.shared.lanes {
            let _queue = lane.queue.lock().unwrap();
            lane.space.notify_all();
        }
        let _ready = self.shared.ready.lock().unwrap();
        self.shared.ready_cv.notify_all();
    }
}

/// Build a sharded MPSC ring with `lanes` producer lanes of
/// `lane_capacity` items each. Returns one sender per lane and the
/// single receiver.
pub fn ring<T>(lanes: usize, lane_capacity: usize) -> (Vec<RingSender<T>>, RingReceiver<T>) {
    assert!(lanes > 0, "ring needs at least one lane");
    let shared = Arc::new(RingShared {
        lanes: (0..lanes)
            .map(|_| Lane {
                queue: Mutex::new(VecDeque::with_capacity(lane_capacity)),
                space: Condvar::new(),
                capacity: lane_capacity.max(1),
            })
            .collect(),
        ready: Mutex::new(0),
        ready_cv: Condvar::new(),
        next_seq: AtomicU64::new(0),
        open_senders: AtomicUsize::new(lanes),
        closed: AtomicBool::new(false),
    });
    let senders = (0..lanes)
        .map(|lane| RingSender {
            shared: Arc::clone(&shared),
            lane,
        })
        .collect();
    (senders, RingReceiver { shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ring_delivers_everything_across_lanes() {
        let (senders, receiver) = ring::<u64>(4, 2);
        let mut handles = Vec::new();
        for (lane, sender) in senders.into_iter().enumerate() {
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    sender
                        .send(lane as u64 * 1000 + i, &mut |_| {})
                        .expect("receiver alive");
                }
            }));
        }
        let mut got = Vec::new();
        while let Some(item) = receiver.recv() {
            got.push(item);
        }
        for handle in handles {
            handle.join().unwrap();
        }
        got.sort_unstable();
        let mut want: Vec<u64> = (0..4u64)
            .flat_map(|lane| (0..50u64).map(move |i| lane * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn ring_preserves_fifo_within_a_lane() {
        let (senders, receiver) = ring::<u64>(1, 4);
        let sender = senders.into_iter().next().unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..100u64 {
                sender.send(i, &mut |_| {}).unwrap();
            }
        });
        let got: Vec<u64> = std::iter::from_fn(|| receiver.recv()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn try_send_reports_full_and_blocking_send_reports_waits() {
        let (senders, receiver) = ring::<u64>(1, 1);
        let sender = senders.into_iter().next().unwrap();
        sender.try_send(1).unwrap();
        assert!(matches!(sender.try_send(2), Err(TrySendError::Full(2))));
        let producer = std::thread::spawn(move || {
            let mut waits = 0usize;
            sender.send(2, &mut |_| waits += 1).unwrap();
            waits
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(receiver.recv(), Some(1));
        assert_eq!(receiver.recv(), Some(2));
        let waits = producer.join().unwrap();
        assert!(waits >= 1, "a blocked send must report its waits");
        assert_eq!(receiver.recv(), None, "all senders dropped");
    }

    #[test]
    fn wait_room_waits_for_the_consumer_without_sending() {
        let (senders, receiver) = ring::<u64>(1, 1);
        let sender = senders.into_iter().next().unwrap();
        sender.try_send(1).unwrap();
        let waiter = std::thread::spawn(move || (sender.wait_room(), sender));
        assert_eq!(receiver.recv(), Some(1));
        let (room, sender) = waiter.join().unwrap();
        assert!(room, "the lane has room once its item is taken");
        sender.try_send(2).unwrap();
        drop(receiver);
        assert!(
            !sender.wait_room(),
            "a hung-up ring has no room to wait for"
        );
    }

    #[test]
    fn receiver_drop_unblocks_and_stops_senders() {
        let (senders, receiver) = ring::<u64>(2, 1);
        let mut handles = Vec::new();
        for sender in senders {
            handles.push(std::thread::spawn(move || {
                let mut sent = 0usize;
                for i in 0..1000u64 {
                    match sender.send(i, &mut |_| {}) {
                        Ok(()) => sent += 1,
                        Err(RingClosed(_)) => break,
                    }
                }
                sent
            }));
        }
        // Take a couple of items, then hang up.
        assert!(receiver.recv().is_some());
        assert!(receiver.recv().is_some());
        drop(receiver);
        for handle in handles {
            let sent = handle.join().unwrap();
            assert!(sent < 1000, "sender must stop after receiver drop");
        }
    }

    #[test]
    fn min_ready_merge_prefers_oldest_arrival() {
        let (senders, receiver) = ring::<&str>(2, 4);
        senders[0].try_send("first").unwrap();
        senders[1].try_send("second").unwrap();
        senders[0].try_send("third").unwrap();
        assert_eq!(receiver.recv(), Some("first"));
        assert_eq!(receiver.recv(), Some("second"));
        assert_eq!(receiver.recv(), Some("third"));
    }

    #[test]
    fn pool_recycles_and_counts() {
        let pool = BufferPool::new();
        let (b1, hit) = pool.get_bundle(8);
        assert!(!hit);
        pool.put_bundle(b1);
        let (b2, hit) = pool.get_bundle(8);
        assert!(hit);
        assert!(b2.is_empty(), "recycled container must come back empty");
        assert!(b2.capacity() >= 8);
        pool.put_bundle(b2);
        let (s1, hit) = pool.get_bytes(1024);
        assert!(!hit);
        pool.put_bytes(s1);
        let (s2, hit) = pool.get_bytes(16);
        assert!(hit);
        assert!(s2.is_empty());
        assert_eq!(pool.hits(), 2);
        assert_eq!(pool.misses(), 2);
    }

    #[test]
    fn pool_never_returns_stale_contents() {
        // The fault path hands back partially filled buffers; the pool
        // clears on return so the next user cannot observe them.
        let pool = BufferPool::new();
        let (mut container, _) = pool.get_bundle(4);
        container.push(Sample::from_bytes(1, vec![1u8, 2, 3]));
        container.push(Sample::from_bytes(2, vec![4u8]));
        pool.put_bundle(container);
        let (recycled, hit) = pool.get_bundle(4);
        assert!(hit);
        assert!(recycled.is_empty(), "poisoned buffer leaked samples");
        let (mut scratch, _) = pool.get_bytes(8);
        scratch.extend_from_slice(b"garbage");
        pool.put_bytes(scratch);
        let (recycled, _) = pool.get_bytes(8);
        assert!(recycled.is_empty());
    }

    #[test]
    fn bundle_wraps_container() {
        let bundle = SampleBundle::from_container(Vec::with_capacity(4));
        assert!(bundle.is_empty());
        assert_eq!(bundle.len(), 0);
    }
}
