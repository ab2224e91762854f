//! Buffer-based shuffling (the paper's Section 4.5).
//!
//! A fixed-size buffer is filled from the upstream iterator; each pull
//! swaps a random buffer slot out and refills it — `tf.data`'s
//! with-replacement windowed shuffle, akin to reservoir sampling. The
//! per-sample cost is constant, so shuffling relates linearly to sample
//! count and the paper recommends placing it where samples are
//! smallest (most samples fit in a fixed-size buffer → higher entropy).

use crate::error::PipelineError;
use crate::real::{EpochStats, EpochStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A windowed shuffler over any iterator.
#[derive(Debug)]
pub struct ShuffleBuffer<I: Iterator> {
    upstream: I,
    buffer: Vec<I::Item>,
    capacity: usize,
    rng: SmallRng,
}

impl<I: Iterator> ShuffleBuffer<I> {
    /// Shuffle `upstream` through a buffer of `capacity` items.
    pub fn new(upstream: I, capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "shuffle buffer must hold at least one item");
        ShuffleBuffer {
            upstream,
            buffer: Vec::with_capacity(capacity),
            capacity,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn fill(&mut self) {
        while self.buffer.len() < self.capacity {
            match self.upstream.next() {
                Some(item) => self.buffer.push(item),
                None => break,
            }
        }
    }
}

impl<I: Iterator> Iterator for ShuffleBuffer<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.fill();
        if self.buffer.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.buffer.len());
        let item = self.buffer.swap_remove(idx);
        Some(item)
    }
}

impl ShuffleBuffer<EpochStream> {
    /// Join the shuffled epoch ([`EpochStream::join`]). The samples
    /// still in the window never reached the caller, so its stats do
    /// not count them.
    pub fn join(self) -> Result<EpochStats, PipelineError> {
        let held = self.buffer.iter().filter(|item| item.is_ok()).count();
        self.upstream.join_holding(held as u64)
    }
}

/// Buffer size that fits `budget_bytes` given a per-sample size — the
/// paper's recommendation: shuffle after the step with the smallest
/// sample size to maximize buffered samples (entropy).
pub fn buffer_capacity_for(budget_bytes: u64, sample_bytes: u64) -> usize {
    (budget_bytes / sample_bytes.max(1)).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn emits_every_item_exactly_once() {
        let items: Vec<u32> = (0..1000).collect();
        let shuffled: Vec<u32> = ShuffleBuffer::new(items.clone().into_iter(), 64, 7).collect();
        assert_eq!(shuffled.len(), items.len());
        let set: HashSet<u32> = shuffled.iter().copied().collect();
        assert_eq!(set.len(), items.len());
    }

    #[test]
    fn actually_permutes_with_reasonable_buffer() {
        let items: Vec<u32> = (0..1000).collect();
        let shuffled: Vec<u32> = ShuffleBuffer::new(items.clone().into_iter(), 256, 42).collect();
        assert_ne!(shuffled, items, "order must change");
        // Displacement should be bounded-ish by buffer size for a
        // windowed shuffle: early items cannot appear arbitrarily late…
        // but every position must move on average.
        let moved = shuffled
            .iter()
            .enumerate()
            .filter(|(i, &v)| *i as u32 != v)
            .count();
        assert!(moved > 900, "only {moved} items moved");
    }

    #[test]
    fn buffer_of_one_is_identity() {
        let items: Vec<u32> = (0..100).collect();
        let out: Vec<u32> = ShuffleBuffer::new(items.clone().into_iter(), 1, 3).collect();
        assert_eq!(out, items);
    }

    #[test]
    fn window_bounds_displacement() {
        // An item cannot be emitted before `its index - buffer size`
        // items have been emitted: windowed semantics.
        let n = 10_000u32;
        let cap = 100usize;
        let shuffled: Vec<u32> = ShuffleBuffer::new(0..n, cap, 9).collect();
        for (pos, &value) in shuffled.iter().enumerate() {
            assert!(
                (value as usize) <= pos + cap,
                "item {value} appeared at {pos}, beyond the window"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a: Vec<u32> = ShuffleBuffer::new(0..500, 32, 11).collect();
        let b: Vec<u32> = ShuffleBuffer::new(0..500, 32, 11).collect();
        let c: Vec<u32> = ShuffleBuffer::new(0..500, 32, 12).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn capacity_helper_prefers_small_samples() {
        // 1 GB budget: 0.01 MB samples → 100k slots; 1 MB → 1k slots.
        assert_eq!(buffer_capacity_for(1_000_000_000, 10_000), 100_000);
        assert_eq!(buffer_capacity_for(1_000_000_000, 1_000_000), 1_000);
        assert_eq!(buffer_capacity_for(10, 0), 10);
    }

    #[test]
    fn empty_upstream_yields_nothing() {
        let out: Vec<u32> = ShuffleBuffer::new(std::iter::empty(), 8, 1).collect();
        assert!(out.is_empty());
    }
}
