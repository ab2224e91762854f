//! Virtual time: the [`Nanos`] instant and the [`EventLoop`] every
//! discrete-event model in the workspace runs on.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the simulation's virtual clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero.
    pub const ZERO: Nanos = Nanos(0);
    /// Largest representable instant (used as "never").
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// From fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Nanos {
        Nanos((s.max(0.0) * 1e9).round() as u64)
    }

    /// From fractional seconds, rounding up. Event schedulers must use
    /// this for completion times: rounding down would leave a sliver of
    /// work behind and re-fire the event at the same instant forever.
    pub fn from_secs_f64_ceil(s: f64) -> Nanos {
        Nanos((s.max(0.0) * 1e9).ceil() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "negative virtual duration");
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A discrete-event queue on a virtual clock: events scheduled at
/// [`Nanos`] instants pop in time order, and `pop` moves the clock to
/// the popped event's instant.
///
/// **Tie rule.** Events at the same instant pop in the order they were
/// scheduled (FIFO on a sequence number), so an event scheduled at
/// `now` while the loop drains pops after every event already due at
/// `now`. This is the one tie rule of the workspace's models; it makes
/// every run a pure function of its schedule.
#[derive(Debug)]
pub struct EventLoop<E> {
    now: Nanos,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
}

#[derive(Debug)]
struct Scheduled<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> Default for EventLoop<E> {
    fn default() -> Self {
        EventLoop {
            now: Nanos::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }
}

impl<E> EventLoop<E> {
    /// An empty loop at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedule `event` at `at`, which must not lie in the past.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Instant of the next pending event.
    pub fn next_at(&self) -> Option<Nanos> {
        self.queue.peek().map(|next| next.0.at)
    }

    /// Pop the next event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse(next) = self.queue.pop()?;
        self.now = next.at;
        Some((next.at, next.event))
    }

    /// Advance the clock to `t` without popping; no pending event may be
    /// due before `t`.
    pub fn advance_to(&mut self, t: Nanos) {
        debug_assert!(t >= self.now, "virtual time went backwards");
        debug_assert!(self.next_at().is_none_or(|at| at >= t), "skipped an event");
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_secs(2).0, 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).0, 3_000_000);
        assert_eq!(Nanos::from_micros(5).0, 5_000);
        assert!((Nanos::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_secs(1);
        let b = Nanos::from_millis(500);
        assert_eq!(a + b, Nanos(1_500_000_000));
        assert_eq!(a - b, Nanos(500_000_000));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(Nanos::MAX + a, Nanos::MAX);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Nanos::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn equal_time_events_pop_in_schedule_order() {
        let mut events = EventLoop::new();
        for (at, tag) in [(5, 'a'), (3, 'b'), (5, 'c'), (3, 'd'), (5, 'e')] {
            events.schedule(Nanos(at), tag);
        }
        let order: Vec<(u64, char)> = std::iter::from_fn(|| events.pop())
            .map(|(at, tag)| (at.0, tag))
            .collect();
        assert_eq!(order, [(3, 'b'), (3, 'd'), (5, 'a'), (5, 'c'), (5, 'e')]);
    }

    #[test]
    fn event_scheduled_at_now_pops_after_those_already_due() {
        let mut events = EventLoop::new();
        events.schedule(Nanos(10), "first");
        events.schedule(Nanos(10), "second");
        assert_eq!(events.pop(), Some((Nanos(10), "first")));
        events.schedule(events.now(), "late");
        assert_eq!(events.pop(), Some((Nanos(10), "second")));
        assert_eq!(events.pop(), Some((Nanos(10), "late")));
    }

    #[test]
    fn now_never_goes_backwards() {
        let mut events = EventLoop::new();
        events.advance_to(Nanos(2));
        for at in [9, 4, 4, 7, 2] {
            events.schedule(Nanos(at), ());
        }
        let mut last = events.now();
        while let Some((at, ())) = events.pop() {
            assert_eq!(events.now(), at);
            assert!(at >= last, "{at} after {last}");
            last = at;
        }
        assert_eq!(events.now(), Nanos(9));
        events.advance_to(Nanos(12));
        assert_eq!(events.now(), Nanos(12));
    }

    #[test]
    fn popping_an_empty_loop_returns_none() {
        let mut events: EventLoop<u8> = EventLoop::new();
        assert_eq!(events.next_at(), None);
        assert_eq!(events.pop(), None);
        assert_eq!(events.now(), Nanos::ZERO);
    }
}
