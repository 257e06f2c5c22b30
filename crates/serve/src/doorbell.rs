//! The completion doorbell: how a cluster's shard threads wake the thread
//! that collects their completions, instead of that thread polling on a
//! timer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

/// A handle on a thread that parks until shard events wake it.
///
/// [`Cluster::attach_doorbell`](crate::Cluster::attach_doorbell) hands one
/// to every shard thread of a cluster; each shard rings it right after it
/// streams a completion or its death notice. [`ring`](Self::ring) flags
/// the ring and then calls [`Thread::unpark`] on the owner, which
/// [`wait`](Self::wait)s for it.
///
/// The flag is what makes a ring impossible to lose. A ring that lands
/// while the owner is busy leaves the flag set, so the owner's next `wait`
/// returns at once. That holds even when the owner spent the ring's unpark
/// elsewhere: a blocking `std::sync::mpsc` receive parks the thread too,
/// and takes any unpark that arrives meanwhile as a wake-up of its own.
#[derive(Debug, Clone)]
pub struct Doorbell {
    owner: Thread,
    rung: Arc<AtomicBool>,
}

impl Doorbell {
    /// A doorbell owned by the calling thread.
    pub fn current() -> Self {
        Doorbell {
            owner: std::thread::current(),
            rung: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Wakes the owner.
    pub fn ring(&self) {
        // Pairs with the `Acquire` swaps in `wait`: an owner that sees the
        // flag also sees whatever the ringer did before ringing.
        self.rung.store(true, Ordering::Release);
        self.owner.unpark();
    }

    /// Parks the owner until a ring or `timeout`, whichever comes first,
    /// and returns whether a ring arrived since the last call. Call it only
    /// from the owning thread.
    pub fn wait(&self, timeout: Duration) -> bool {
        debug_assert_eq!(std::thread::current().id(), self.owner.id());
        // A ring flagged while the owner was busy: take the token it may
        // have left without sleeping.
        let early = self.rung.swap(false, Ordering::Acquire);
        std::thread::park_timeout(if early { Duration::ZERO } else { timeout });
        early | self.rung.swap(false, Ordering::Acquire)
    }
}
