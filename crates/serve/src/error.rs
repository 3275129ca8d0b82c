//! Typed errors of the request-serving path.
//!
//! Everything a caller can hit while a request is in flight is an error
//! value, not a panic: the service stays up when one tenant misbehaves.
//! Construction-time contract violations (zero shards, zero workers)
//! remain documented panics, matching the rest of the workspace.

use crate::store::TenantId;
use antarex_apps::nav::NavError;
use std::fmt;

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The tenant was never registered (or was evicted).
    UnknownTenant(TenantId),
    /// A tenant with this id is already registered.
    TenantExists(TenantId),
    /// Admission control shed the request: the evaluation queue was
    /// full when its probe had to be scheduled.
    Shed {
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// No operating point satisfies the tenant's SLA constraints; the
    /// caller should renegotiate the SLA or escalate to the RTRM.
    Infeasible(TenantId),
    /// The tenant's knowledge base is empty — nothing to select from.
    EmptyKnowledge(TenantId),
    /// Every evaluation attempt of the probe died with its worker (or
    /// failed its result-integrity check and exhausted the retry
    /// budget). The id names the worker of the last failed attempt.
    WorkerFailed {
        /// Virtual worker that ran the last failed attempt.
        worker: usize,
    },
    /// The probe — including retries and hedges — could not produce a
    /// verified result within the request's deadline budget.
    Deadline,
    /// The tenant's circuit breaker is open: its recent probes failed
    /// consecutively, so the service fails fast instead of letting the
    /// poisoned evaluator consume pool capacity. Retry after the
    /// breaker's cooldown.
    CircuitOpen {
        /// Tenant whose breaker tripped.
        tenant: TenantId,
    },
    /// The admission controller rejected the request: the tenant is
    /// burning its SLO error budget too fast (hard shed), or is in the
    /// degraded tier and demanded a fresh probe the cache could not
    /// answer. Unlike [`ServeError::Shed`] this is *deliberate*
    /// backpressure against this tenant, not global queue overflow —
    /// blind retries would stampede a controller that is telling the
    /// tenant to back off, so it is **not retryable** until the
    /// carried hint elapses.
    AdmissionRejected {
        /// The over-budget tenant.
        tenant: TenantId,
        /// Backpressure hint: earliest sensible retry, milliseconds of
        /// virtual time from the rejection (integer so the error stays
        /// `Eq`).
        retry_after_ms: u64,
    },
    /// A caller-supplied configuration violates a construction
    /// contract (zero workers, zero capacity, zero virtual cores). The
    /// legacy constructors still panic; the `try_` paths surface this
    /// instead so embedding callers can keep the process up.
    InvalidConfig {
        /// The violated contract, stated as the legacy panic message.
        reason: &'static str,
    },
}

impl ServeError {
    /// Is retrying this request (later, or against a healthy worker)
    /// worthwhile? Transient capacity and fault errors are retryable;
    /// contract errors (unknown tenant, infeasible SLA, empty
    /// knowledge) never clear on their own. An admission rejection is
    /// also **not** retryable: the controller is deliberately shedding
    /// this tenant, and an immediate retry (or a hedge) would stampede
    /// the very backpressure protecting its neighbors — honor
    /// [`ServeError::retry_after_ms`] instead.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Shed { .. }
            | ServeError::WorkerFailed { .. }
            | ServeError::Deadline
            | ServeError::CircuitOpen { .. } => true,
            ServeError::UnknownTenant(_)
            | ServeError::TenantExists(_)
            | ServeError::Infeasible(_)
            | ServeError::EmptyKnowledge(_)
            | ServeError::AdmissionRejected { .. }
            | ServeError::InvalidConfig { .. } => false,
        }
    }

    /// The serving counter a failed request is booked under: shed is
    /// load (queue overflow or deliberate backpressure), infrastructure
    /// faults are failures, tenant contract errors are rejections.
    pub(crate) fn failure_class(&self) -> FailureClass {
        match self {
            ServeError::Shed { .. } | ServeError::AdmissionRejected { .. } => FailureClass::Shed,
            ServeError::WorkerFailed { .. }
            | ServeError::Deadline
            | ServeError::CircuitOpen { .. } => FailureClass::Failed,
            _ => FailureClass::Rejected,
        }
    }

    /// Does this failure burn the tenant's SLO budget at the front
    /// door? An infrastructure failure does (the service answered
    /// badly), and so does unmet probe demand: a queue overflow, or a
    /// cache miss rejected while the tenant is `degraded`. That is what
    /// escalates a flooding tenant to the shed tier while a tenant
    /// mostly served from cache dilutes the odd overflow. A hard shed
    /// burns nothing, so a backed-off tenant decays home.
    pub(crate) fn burns_budget(&self, degraded: bool) -> bool {
        match self {
            ServeError::WorkerFailed { .. } | ServeError::Deadline | ServeError::Shed { .. } => {
                true
            }
            ServeError::AdmissionRejected { .. } => degraded,
            _ => false,
        }
    }

    /// Does this failure count against the tenant's circuit breaker?
    /// Worker faults and missed deadlines say the evaluation path is
    /// unhealthy for the tenant; sheds, open circuits, and contract
    /// errors do not.
    pub(crate) fn is_breaker_failure(&self) -> bool {
        matches!(self, ServeError::WorkerFailed { .. } | ServeError::Deadline)
    }

    /// The backpressure hint carried by an admission rejection:
    /// milliseconds of virtual time after which a retry becomes
    /// sensible. `None` for every other error.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::AdmissionRejected { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

/// The serving counter a failed request lands in
/// ([`ServeError::failure_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailureClass {
    /// Load: queue overflow or deliberate admission backpressure.
    Shed,
    /// Infrastructure fault: worker crash, missed deadline, open circuit.
    Failed,
    /// Tenant contract error: unknown tenant, infeasible SLA, ...
    Rejected,
}

/// Maps serving-tier failures onto the navigation app's error type, so
/// `try_serve_resilient` can distinguish retryable from terminal
/// failures via [`NavError::is_retryable`].
impl From<ServeError> for NavError {
    fn from(e: ServeError) -> Self {
        NavError::Upstream {
            retryable: e.is_retryable(),
            reason: e.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t} already registered"),
            ServeError::Shed { capacity } => {
                write!(
                    f,
                    "request shed: evaluation queue full (capacity {capacity})"
                )
            }
            ServeError::Infeasible(t) => {
                write!(f, "tenant {t}: no operating point satisfies the SLA")
            }
            ServeError::EmptyKnowledge(t) => {
                write!(f, "tenant {t}: empty knowledge base")
            }
            ServeError::WorkerFailed { worker } => {
                write!(
                    f,
                    "evaluation failed: worker {worker} crashed or corrupted the result"
                )
            }
            ServeError::Deadline => {
                write!(f, "evaluation missed its deadline budget")
            }
            ServeError::CircuitOpen { tenant } => {
                write!(f, "tenant {tenant}: circuit breaker open, failing fast")
            }
            ServeError::AdmissionRejected {
                tenant,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "tenant {tenant}: admission rejected (SLO budget exhausted), \
                     retry after {retry_after_ms} ms"
                )
            }
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert_eq!(ServeError::UnknownTenant(7).to_string(), "unknown tenant 7");
        assert!(ServeError::Shed { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(ServeError::Infeasible(3).to_string().contains("SLA"));
        let boxed: Box<dyn std::error::Error> = Box::new(ServeError::TenantExists(1));
        assert!(boxed.to_string().contains("already registered"));
        assert!(ServeError::WorkerFailed { worker: 2 }
            .to_string()
            .contains("worker 2"));
        assert!(ServeError::Deadline.to_string().contains("deadline"));
        assert!(ServeError::CircuitOpen { tenant: 5 }
            .to_string()
            .contains("breaker open"));
        let rejected = ServeError::AdmissionRejected {
            tenant: 11,
            retry_after_ms: 5000,
        };
        assert!(rejected.to_string().contains("tenant 11"));
        assert!(rejected.to_string().contains("retry after 5000 ms"));
        assert_eq!(
            ServeError::InvalidConfig {
                reason: "pool needs at least one worker"
            }
            .to_string(),
            "invalid configuration: pool needs at least one worker"
        );
    }

    /// Every variant, pinned for all four classifiers:
    /// `(error, retryable, counter class, burns budget when admitted,
    /// burns budget when degraded, breaker feedback)`.
    #[test]
    fn retryability_classifier() {
        use FailureClass::{Failed, Rejected, Shed};
        let rejected = ServeError::AdmissionRejected {
            tenant: 1,
            retry_after_ms: 1000,
        };
        let misconfigured = ServeError::InvalidConfig {
            reason: "need at least one virtual worker",
        };
        let table = [
            (
                ServeError::UnknownTenant(1),
                false,
                Rejected,
                false,
                false,
                false,
            ),
            (
                ServeError::TenantExists(1),
                false,
                Rejected,
                false,
                false,
                false,
            ),
            (
                ServeError::Shed { capacity: 4 },
                true,
                Shed,
                true,
                true,
                false,
            ),
            (
                ServeError::Infeasible(1),
                false,
                Rejected,
                false,
                false,
                false,
            ),
            (
                ServeError::EmptyKnowledge(1),
                false,
                Rejected,
                false,
                false,
                false,
            ),
            (
                ServeError::WorkerFailed { worker: 0 },
                true,
                Failed,
                true,
                true,
                true,
            ),
            (ServeError::Deadline, true, Failed, true, true, true),
            (
                ServeError::CircuitOpen { tenant: 1 },
                true,
                Failed,
                false,
                false,
                false,
            ),
            // a shedding controller must not be retried blind, and a
            // hard shed burns nothing; a degraded tenant's rejected
            // cache miss is unmet probe demand and does burn
            (rejected, false, Shed, false, true, false),
            // misconfiguration never clears on its own
            (misconfigured, false, Rejected, false, false, false),
        ];
        for (error, retryable, class, burns_admitted, burns_degraded, breaker) in table {
            assert_eq!(error.is_retryable(), retryable, "{error:?} retryable");
            assert_eq!(error.failure_class(), class, "{error:?} class");
            assert_eq!(error.burns_budget(false), burns_admitted, "{error:?} burn");
            assert_eq!(error.burns_budget(true), burns_degraded, "{error:?} burn");
            assert_eq!(error.is_breaker_failure(), breaker, "{error:?} breaker");
        }
    }

    #[test]
    fn retry_after_hint_surfaces_only_on_admission_rejections() {
        let rejected = ServeError::AdmissionRejected {
            tenant: 3,
            retry_after_ms: 7500,
        };
        assert_eq!(rejected.retry_after_ms(), Some(7500));
        assert_eq!(ServeError::Shed { capacity: 4 }.retry_after_ms(), None);
        assert_eq!(ServeError::CircuitOpen { tenant: 3 }.retry_after_ms(), None);
    }

    /// The stampede guard: a hedged-retry client looping on
    /// `is_retryable` — the exact stop condition of the nav server's
    /// `try_serve_resilient` — must burn exactly ONE attempt against a
    /// shedding tenant, while a transient fault still gets its full
    /// retry budget.
    #[test]
    fn hedged_retries_do_not_stampede_a_shedding_tenant() {
        fn drive_retries(error: ServeError, max_attempts: u32) -> u32 {
            let mut attempts = 0;
            for attempt in 1..=max_attempts {
                attempts = attempt;
                // mirror of `try_serve_resilient`'s loop: stop on a
                // non-retryable error or an exhausted budget
                if !error.is_retryable() || attempt == max_attempts {
                    break;
                }
            }
            attempts
        }
        let shedding = ServeError::AdmissionRejected {
            tenant: 7,
            retry_after_ms: 5000,
        };
        assert_eq!(drive_retries(shedding, 5), 1, "one attempt, then back off");
        assert_eq!(
            drive_retries(ServeError::WorkerFailed { worker: 0 }, 5),
            5,
            "transient faults keep their retry budget"
        );
    }

    #[test]
    fn maps_into_nav_error_preserving_retryability() {
        let transient: NavError = ServeError::WorkerFailed { worker: 3 }.into();
        assert!(transient.is_retryable());
        assert!(transient.to_string().contains("worker 3"));
        let terminal: NavError = ServeError::Infeasible(9).into();
        assert!(!terminal.is_retryable());
        let breaker: NavError = ServeError::CircuitOpen { tenant: 2 }.into();
        assert!(breaker.is_retryable(), "breaker opens clear after cooldown");
        // the mapping is what stops `try_serve_resilient` from
        // stampeding a shedding tenant through the nav retry path
        let shed: NavError = ServeError::AdmissionRejected {
            tenant: 4,
            retry_after_ms: 5000,
        }
        .into();
        assert!(!shed.is_retryable());
        assert!(shed.to_string().contains("retry after 5000 ms"));
    }
}
