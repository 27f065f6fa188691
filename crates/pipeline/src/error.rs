//! Pipeline error type.

use std::fmt;

use sti_device::SimTime;
use sti_storage::StorageError;

/// Errors surfaced while executing a pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// A shard load failed.
    Storage(StorageError),
    /// The plan references weights inconsistent with the model.
    PlanMismatch(String),
    /// The preload buffer cannot hold a shard it was asked to admit.
    PreloadOverflow {
        /// Bytes the shard needs.
        needed: u64,
        /// Bytes still free.
        available: u64,
    },
    /// Admission control rejected the engagement: even the best plan's
    /// predicted *contended* latency under the current co-runner count
    /// misses the requested SLO.
    AdmissionRejected {
        /// Predicted contended latency of the best candidate plan.
        predicted: SimTime,
        /// The SLO the session asked for.
        slo: SimTime,
        /// Co-runners the prediction assumed (sessions open at admission).
        co_runners: usize,
    },
    /// The infer-time backpressure gate shed the engagement: against the
    /// sessions open now, its predicted contended latency misses the
    /// session SLO even at the best admissible queue delay.
    Backpressure {
        /// Best achievable predicted contended latency (at the gate's
        /// maximum admissible delay; the prediction *now* for pure shed).
        predicted: SimTime,
        /// The SLO the session carries.
        slo: SimTime,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Storage(e) => write!(f, "pipeline storage failure: {e}"),
            PipelineError::PlanMismatch(why) => write!(f, "plan/model mismatch: {why}"),
            PipelineError::PreloadOverflow { needed, available } => {
                write!(f, "preload buffer overflow: need {needed} bytes, {available} free")
            }
            PipelineError::AdmissionRejected { predicted, slo, co_runners } => {
                write!(
                    f,
                    "admission rejected: predicted contended latency {predicted} misses the \
                     {slo} SLO with {co_runners} co-runners"
                )
            }
            PipelineError::Backpressure { predicted, slo } => {
                write!(
                    f,
                    "backpressure shed: predicted contended latency {predicted} misses the \
                     {slo} SLO against the open sessions"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for PipelineError {
    fn from(e: StorageError) -> Self {
        PipelineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = PipelineError::PreloadOverflow { needed: 10, available: 5 };
        assert!(e.to_string().contains("overflow"));
        let e = PipelineError::PlanMismatch("depth".into());
        assert!(e.to_string().contains("depth"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PipelineError>();
    }
}
