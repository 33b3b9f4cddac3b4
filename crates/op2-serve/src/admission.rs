//! Admission control: bounded queues and token-bucket quotas.
//!
//! Overload is handled by **shedding load with typed rejections**, never by
//! panicking or by letting the queue grow without bound: a submission that
//! would exceed the queue-depth limit or the tenant's rate quota is refused
//! *at the front door* with an [`AdmissionError`] carrying enough context
//! for the client to back off intelligently (current depth, available
//! tokens). Accepted jobs therefore see bounded queueing delay — the
//! backpressure invariant the overload tests pin (accepted-job p99 within a
//! constant factor of the uncontended baseline).

use std::time::{Duration, Instant};

/// Why a submission was refused at admission. Typed load shedding: the
/// caller can distinguish transient overload (retry with backoff) from a
/// spent quota (retry after refill) from a closed service (don't retry).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The bounded admission queue is at capacity.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The token-bucket quota for this tenant (or the global bucket) has no
    /// capacity for the job's cost.
    QuotaExhausted {
        /// The throttled tenant.
        tenant: String,
        /// Tokens available at refusal.
        available: f64,
        /// Tokens the job needed.
        cost: f64,
    },
    /// The service is shutting down and accepts no further work.
    ShuttingDown,
    /// A durable submission named a recipe no program factory is
    /// registered for (see [`crate::ServeOptions::recipe`]).
    UnknownRecipe {
        /// The recipe name the submission asked for.
        recipe: String,
    },
    /// A durable submission reached a service started without
    /// [`crate::ServeOptions::journal`]: there is nowhere to record it.
    NoJournal,
}

impl AdmissionError {
    /// Stable numeric code for trace events (0 queue-full, 1 quota,
    /// 2 shutdown, 3 unknown-recipe, 4 no-journal).
    pub fn code(&self) -> u64 {
        match self {
            AdmissionError::QueueFull { .. } => 0,
            AdmissionError::QuotaExhausted { .. } => 1,
            AdmissionError::ShuttingDown => 2,
            AdmissionError::UnknownRecipe { .. } => 3,
            AdmissionError::NoJournal => 4,
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, limit } => {
                write!(f, "admission queue full ({depth}/{limit})")
            }
            AdmissionError::QuotaExhausted {
                tenant,
                available,
                cost,
            } => write!(
                f,
                "quota exhausted for tenant '{tenant}' ({available:.2} tokens available, {cost:.2} needed)"
            ),
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
            AdmissionError::UnknownRecipe { recipe } => {
                write!(f, "no program factory registered for recipe '{recipe}'")
            }
            AdmissionError::NoJournal => {
                write!(f, "durable submission requires a service started with a journal")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Rate-quota configuration (see [`TokenBucket`]).
#[derive(Debug, Clone, Copy)]
pub struct QuotaSpec {
    /// Burst capacity in job-cost units.
    pub capacity: f64,
    /// Refill rate, tokens per second (`0.0` = a hard budget that never
    /// refills — useful for tests).
    pub refill_per_sec: f64,
    /// One bucket per tenant (`true`) or a single shared bucket (`false`).
    pub per_tenant: bool,
}

/// A standard token bucket: `capacity` burst, `refill_per_sec` sustained.
/// Refill is computed lazily from elapsed wall time at each take.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(spec: QuotaSpec, now: Instant) -> TokenBucket {
        TokenBucket {
            capacity: spec.capacity.max(0.0),
            refill_per_sec: spec.refill_per_sec.max(0.0),
            tokens: spec.capacity.max(0.0),
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        if self.refill_per_sec > 0.0 {
            let dt = now.saturating_duration_since(self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        }
        self.last = now;
    }

    /// Take `cost` tokens, or report how many were available.
    pub fn try_take(&mut self, cost: f64, now: Instant) -> Result<(), f64> {
        self.refill(now);
        if self.tokens + 1e-9 >= cost {
            self.tokens -= cost;
            Ok(())
        } else {
            Err(self.tokens)
        }
    }

    /// Time until `cost` tokens will be available (`None` if they never
    /// will be — cost exceeds capacity or the bucket does not refill).
    pub fn eta(&self, cost: f64) -> Option<Duration> {
        if self.tokens + 1e-9 >= cost {
            return Some(Duration::ZERO);
        }
        if cost > self.capacity || self.refill_per_sec <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64((cost - self.tokens) / self.refill_per_sec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(capacity: f64, refill: f64) -> QuotaSpec {
        QuotaSpec {
            capacity,
            refill_per_sec: refill,
            per_tenant: false,
        }
    }

    #[test]
    fn hard_budget_exhausts() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(spec(2.0, 0.0), t0);
        assert!(b.try_take(1.0, t0).is_ok());
        assert!(b.try_take(1.0, t0).is_ok());
        let available = b.try_take(1.0, t0).unwrap_err();
        assert!(available.abs() < 1e-6);
        assert_eq!(b.eta(1.0), None);
    }

    #[test]
    fn refill_restores_tokens() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(spec(1.0, 10.0), t0);
        assert!(b.try_take(1.0, t0).is_ok());
        assert!(b.try_take(1.0, t0).is_err());
        // 100 ms at 10 tokens/s refills the single-token capacity.
        assert!(b.try_take(1.0, t0 + Duration::from_millis(150)).is_ok());
    }

    #[test]
    fn admission_error_codes_and_display() {
        let e = AdmissionError::QueueFull { depth: 8, limit: 8 };
        assert_eq!(e.code(), 0);
        assert!(e.to_string().contains("8/8"));
        let e = AdmissionError::QuotaExhausted {
            tenant: "t".into(),
            available: 0.5,
            cost: 1.0,
        };
        assert_eq!(e.code(), 1);
        assert_eq!(AdmissionError::ShuttingDown.code(), 2);
        assert_eq!(AdmissionError::NoJournal.code(), 4);
        assert!(AdmissionError::NoJournal.to_string().contains("journal"));
    }
}
