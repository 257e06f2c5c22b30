//! The admission queue feeding a persistent shard engine.
//!
//! A shard's simulated FPGA reads its input through the same
//! [`StreamSource`] abstraction the offline runs use; the serving layer
//! swaps the in-memory dataset for a [`SharedQueue`] that the shard thread
//! appends admitted batches to. A [`RateLimiter`] models the ingress
//! interface (network/DMA) bandwidth, exactly like the Fig. 9 experiment's
//! "memory interface used to simulate the 100 Gbps network interface".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datagen::Tuple;
use hls_sim::{Cycle, RateLimiter, StreamSource};

#[derive(Debug, Default)]
struct QueueInner {
    queue: Mutex<VecDeque<Tuple>>,
    closed: AtomicBool,
    pushed: AtomicU64,
    popped: AtomicU64,
}

/// A FIFO of admitted tuples shared between a shard thread (producer) and
/// its engine's memory-reader kernel (consumer, via [`QueueSource`]).
///
/// The queue is unbounded on the admission side — backpressure is the
/// cluster's job (queue-depth metrics feed the balancer); the *drain* side
/// is rate-limited by the source's ingress model.
///
/// # Example
///
/// ```
/// use ditto_serve::SharedQueue;
/// use datagen::Tuple;
/// use hls_sim::StreamSource;
///
/// let q = SharedQueue::new();
/// q.push_batch(&[Tuple::from_key(1), Tuple::from_key(2)]);
/// let mut src = q.source(8.0);
/// let mut out = Vec::new();
/// assert_eq!(src.pull(0, 16, &mut out), 2);
/// assert!(!src.exhausted(), "open queue may produce more");
/// q.close();
/// assert!(src.exhausted());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedQueue {
    inner: Arc<QueueInner>,
}

impl SharedQueue {
    /// Creates an empty, open queue.
    pub fn new() -> Self {
        SharedQueue::default()
    }

    /// Appends a batch of tuples in admission order.
    pub fn push_batch(&self, tuples: &[Tuple]) {
        let mut q = self.inner.queue.lock().expect("queue lock");
        q.extend(tuples.iter().copied());
        self.inner
            .pushed
            .fetch_add(tuples.len() as u64, Ordering::Relaxed);
    }

    /// Closes the queue: once drained, sources over it report exhaustion,
    /// letting the shard engine quiesce.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Relaxed);
    }

    /// Tuples admitted so far.
    pub fn pushed(&self) -> u64 {
        self.inner.pushed.load(Ordering::Relaxed)
    }

    /// Tuples admitted but not yet pulled by the engine.
    pub fn depth(&self) -> u64 {
        self.inner.pushed.load(Ordering::Relaxed) - self.inner.popped.load(Ordering::Relaxed)
    }

    /// Creates a [`StreamSource`] view over this queue delivering at most
    /// `rate` tuples per simulated cycle (the shard's ingress bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    pub fn source(&self, rate: f64) -> QueueSource {
        QueueSource {
            inner: Arc::clone(&self.inner),
            limiter: RateLimiter::new(rate, rate.ceil() as usize * 2),
            produced: 0,
        }
    }
}

/// The engine-side endpoint of a [`SharedQueue`].
#[derive(Debug)]
pub struct QueueSource {
    inner: Arc<QueueInner>,
    limiter: RateLimiter,
    produced: u64,
}

impl StreamSource<Tuple> for QueueSource {
    fn pull(&mut self, cy: Cycle, max: usize, out: &mut Vec<Tuple>) -> usize {
        let granted = self.limiter.grant(cy, max);
        if granted == 0 {
            return 0;
        }
        let mut q = self.inner.queue.lock().expect("queue lock");
        let take = granted.min(q.len());
        for _ in 0..take {
            out.push(q.pop_front().expect("len checked"));
        }
        drop(q);
        self.inner.popped.fetch_add(take as u64, Ordering::Relaxed);
        self.produced += take as u64;
        take
    }

    fn exhausted(&self) -> bool {
        self.inner.closed.load(Ordering::Relaxed)
            && self.inner.queue.lock().expect("queue lock").is_empty()
    }

    fn produced(&self) -> u64 {
        self.produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let q = SharedQueue::new();
        q.push_batch(&[Tuple::from_key(1), Tuple::from_key(2)]);
        q.push_batch(&[Tuple::from_key(3)]);
        let mut src = q.source(64.0);
        let mut out = Vec::new();
        src.pull(0, 10, &mut out);
        assert_eq!(out.iter().map(|t| t.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.pushed(), 3);
    }

    #[test]
    fn rate_limits_delivery() {
        let q = SharedQueue::new();
        let tuples: Vec<Tuple> = (0..100).map(Tuple::from_key).collect();
        q.push_batch(&tuples);
        let mut src = q.source(2.0);
        let mut out = Vec::new();
        let mut got = 0;
        for cy in 0..10 {
            got += src.pull(cy, 100, &mut out);
        }
        // ~2 tuples/cycle over 10 cycles (plus the initial burst headroom).
        assert!(got <= 24, "{got}");
        assert!(got >= 20, "{got}");
    }

    #[test]
    fn exhaustion_requires_close_and_empty() {
        let q = SharedQueue::new();
        q.push_batch(&[Tuple::from_key(9)]);
        let mut src = q.source(8.0);
        assert!(!src.exhausted());
        q.close();
        assert!(!src.exhausted(), "still holds a tuple");
        let mut out = Vec::new();
        src.pull(0, 4, &mut out);
        assert!(src.exhausted());
        assert_eq!(src.produced(), 1);
    }
}
