//! Admission control: watermark-based load shedding with optional defer.
//!
//! The serve layer's queues are unbounded by design (the cluster tracks
//! batches by watermark, not by slot), so under sustained overload an
//! unguarded front-end would queue forever and every client would see
//! unbounded latency. The wire server instead makes the decision *at the
//! socket*: before a batch is admitted, the live cluster-wide queue depth
//! ([`Cluster::queue_depth`](ditto_serve::Cluster::queue_depth), fed by the
//! per-shard `queue_depth` counters) is compared against a configurable
//! high-watermark. Past it, the batch is either *deferred* — the connection
//! handler backs off briefly and re-checks, smoothing short bursts — or
//! *shed* with an explicit [`Overloaded`](crate::frame::Response::Overloaded)
//! response, so the client learns immediately instead of waiting in an
//! ever-deepening queue.

use std::time::Duration;

/// Admission tuning for a wire server.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queue-depth high-watermark in tuples: a batch is admitted only while
    /// the cluster-wide queue depth is *below* this.
    pub max_queue_tuples: u64,
    /// Times a connection re-checks a full queue before shedding. Zero
    /// sheds immediately at the watermark.
    pub defer_retries: u32,
    /// Back-off between defer re-checks.
    pub defer_wait: Duration,
    /// Server-wide budget on concurrently open connections: an accept past
    /// it is answered with one
    /// [`TOO_MANY_CONNECTIONS`](crate::frame::error_code::TOO_MANY_CONNECTIONS)
    /// error frame and closed — admission control at the socket level, so
    /// a connect storm degrades into explicit refusals instead of fd
    /// exhaustion. Default: 10 240, comfortably above a 1k-connection
    /// fan-in while staying under common fd ulimits with room for the
    /// client side.
    pub max_connections: usize,
}

impl AdmissionConfig {
    /// A permissive default: a deep watermark (1 Mi tuples) with two brief
    /// defer rounds — overload protection without shedding under ordinary
    /// bursts — and a budget of 10 240 open connections.
    pub fn new() -> Self {
        AdmissionConfig {
            max_queue_tuples: 1 << 20,
            defer_retries: 2,
            defer_wait: Duration::from_millis(1),
            max_connections: 10_240,
        }
    }

    /// Sets the queue-depth high-watermark in tuples.
    pub fn with_watermark(mut self, tuples: u64) -> Self {
        self.max_queue_tuples = tuples;
        self
    }

    /// Sets the defer policy (`retries` re-checks, `wait` apart). Zero
    /// retries sheds immediately at the watermark.
    pub fn with_defer(mut self, retries: u32, wait: Duration) -> Self {
        self.defer_retries = retries;
        self.defer_wait = wait;
        self
    }

    /// Sets the concurrent-connection budget.
    ///
    /// # Panics
    ///
    /// Panics on a zero budget (a server that can never accept is a
    /// configuration bug, not a policy).
    pub fn with_max_connections(mut self, connections: usize) -> Self {
        assert!(connections > 0, "connection budget must be nonzero");
        self.max_connections = connections;
        self
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::new()
    }
}

/// The outcome of one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Queue depth is below the watermark: admit the batch.
    Admit,
    /// Queue is full but attempts remain: back off and re-check.
    Defer,
    /// Queue is full and attempts are exhausted: shed the batch.
    Shed,
}

/// Evaluates admission attempts against an [`AdmissionConfig`].
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    /// Creates a controller.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController { config }
    }

    /// The configured tuning.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides attempt number `attempt` (0-based) at the observed
    /// cluster-wide `queue_depth`.
    pub fn evaluate(&self, queue_depth: u64, attempt: u32) -> AdmissionDecision {
        if queue_depth < self.config.max_queue_tuples {
            AdmissionDecision::Admit
        } else if attempt < self.config.defer_retries {
            AdmissionDecision::Defer
        } else {
            AdmissionDecision::Shed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(watermark: u64, retries: u32) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig::new()
                .with_watermark(watermark)
                .with_defer(retries, Duration::from_micros(1)),
        )
    }

    #[test]
    fn below_watermark_admits() {
        let c = controller(100, 2);
        assert_eq!(c.evaluate(0, 0), AdmissionDecision::Admit);
        assert_eq!(c.evaluate(99, 5), AdmissionDecision::Admit);
    }

    #[test]
    fn at_watermark_defers_then_sheds() {
        let c = controller(100, 2);
        assert_eq!(c.evaluate(100, 0), AdmissionDecision::Defer);
        assert_eq!(c.evaluate(5_000, 1), AdmissionDecision::Defer);
        assert_eq!(c.evaluate(100, 2), AdmissionDecision::Shed);
    }

    #[test]
    fn zero_retries_sheds_immediately() {
        let c = controller(1, 0);
        assert_eq!(c.evaluate(1, 0), AdmissionDecision::Shed);
        assert_eq!(c.evaluate(0, 0), AdmissionDecision::Admit);
    }

    #[test]
    fn connection_budget_defaults_and_overrides() {
        assert_eq!(AdmissionConfig::new().max_connections, 10_240);
        assert_eq!(
            AdmissionConfig::new()
                .with_max_connections(3)
                .max_connections,
            3
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_connection_budget_panics() {
        let _ = AdmissionConfig::new().with_max_connections(0);
    }
}
