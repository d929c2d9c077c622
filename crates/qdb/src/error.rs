//! The typed error hierarchy of the serving path.
//!
//! Every fallible qdb operation reports a [`QdbError`]; nothing on the
//! submit/drain path panics. Errors carry enough structure for the
//! server's resilience machinery to act on them: [`QdbError::is_transient`]
//! separates faults worth retrying (injected device faults, transient
//! allocation failures) from permanent ones (malformed SQL, an
//! over-budget launch shape), and the shedding/timeout variants record
//! the limits that were exceeded.

use simt::topology::TransferError;
use simt::{LaunchError, OutOfMemory, SimTime};
use topk::TopKError;

use crate::sql::SqlError;

/// Any error the qdb serving path can report.
#[derive(Debug, Clone, PartialEq)]
pub enum QdbError {
    /// The SQL text failed to parse or asks for an unsupported shape.
    Parse(SqlError),
    /// LIMIT k is unusable against the resident table (k = 0 or k > n).
    InvalidK {
        /// The requested k.
        k: usize,
        /// Rows in the resident table.
        n: usize,
    },
    /// The resident table has no rows.
    EmptyTable,
    /// The query was submitted with a deadline that had already passed.
    DeadlineExpired {
        /// The dead-on-arrival deadline.
        deadline: SimTime,
    },
    /// The query's deadline elapsed before an attempt could complete.
    Timeout {
        /// The per-query deadline.
        deadline: SimTime,
        /// Simulated time spent when the query was cancelled.
        spent: SimTime,
    },
    /// Admission control shed the query: the submit queue was full.
    Overloaded {
        /// Queue length at submission.
        queue_len: usize,
        /// The configured queue bound.
        max_queue: usize,
    },
    /// A device fault (injected or real) defeated the query.
    DeviceFault {
        /// Human-readable cause.
        what: String,
        /// True when retrying could have succeeded (the retry budget was
        /// simply exhausted).
        transient: bool,
        /// Execution attempts made before giving up.
        attempts: usize,
        /// Cluster index of the faulting device, when known (sharded
        /// paths attribute the shard's serving device; the single-device
        /// server has no cluster index).
        device: Option<usize>,
    },
    /// An internal invariant was violated — a bug in this library, not
    /// in the query or the device. Typed (instead of a panic) so the
    /// no-panics contract holds on every serving path.
    Internal {
        /// The violated invariant.
        what: String,
    },
    /// An append would overflow the rows the table's device columns
    /// were allocated for (see `GpuTweetTable::upload_with_capacity`).
    /// Device buffers have fixed extents, so growth headroom is a
    /// provisioning decision made at load time — running out is a typed,
    /// recoverable condition, not a panic.
    CapacityExceeded {
        /// Rows the table would hold after the append.
        needed: usize,
        /// Rows the device columns were allocated for.
        cap: usize,
    },
    /// The query asks for a simulator-only feature on a backend that
    /// lacks it (e.g. `EXPLAIN SANITIZE` on the CPU backend). Typed so
    /// callers can route around it; never a silent degradation.
    UnsupportedOnBackend {
        /// The backend that rejected the request.
        backend: &'static str,
        /// The unavailable feature.
        feature: &'static str,
    },
}

impl QdbError {
    /// True for errors a retry may clear (injected launch faults and
    /// allocation failures); parse, validation, timeout and shed errors
    /// are final.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QdbError::DeviceFault {
                transient: true,
                ..
            }
        )
    }

    /// Stable kind name for reports and JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            QdbError::Parse(_) => "parse",
            QdbError::InvalidK { .. } => "invalid-k",
            QdbError::EmptyTable => "empty-table",
            QdbError::DeadlineExpired { .. } => "deadline-expired",
            QdbError::Timeout { .. } => "timeout",
            QdbError::Overloaded { .. } => "overloaded",
            QdbError::DeviceFault { .. } => "device-fault",
            QdbError::Internal { .. } => "internal",
            QdbError::CapacityExceeded { .. } => "capacity-exceeded",
            QdbError::UnsupportedOnBackend { .. } => "unsupported-on-backend",
        }
    }
}

/// The one transient-fault retry loop of qdb: calls `attempt` until it
/// succeeds, fails with an error that is not transient, or has been
/// retried `max_retries` times. `attempt` receives the retries made
/// before it (0 on the first call), so a caller can charge its own
/// policy there (the serving lane's backoff and deadline); `retries`
/// counts every retry, whether or not one succeeds. A device fault that
/// ends the loop reports `attempts` = retries + 1.
pub(crate) fn retry<T>(
    max_retries: usize,
    retries: &mut usize,
    mut attempt: impl FnMut(usize) -> Result<T, QdbError>,
) -> Result<T, QdbError> {
    let mut n = 0;
    loop {
        match attempt(n) {
            Err(e) if e.is_transient() && n < max_retries => {
                n += 1;
                *retries += 1;
            }
            Err(mut e) => {
                if let QdbError::DeviceFault { attempts, .. } = &mut e {
                    *attempts = n + 1;
                }
                return Err(e);
            }
            done => return done,
        }
    }
}

impl std::fmt::Display for QdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QdbError::Parse(e) => write!(f, "{e}"),
            QdbError::InvalidK { k, n } => {
                write!(f, "LIMIT {k} unusable against a {n}-row table")
            }
            QdbError::EmptyTable => write!(f, "resident table is empty"),
            QdbError::DeadlineExpired { deadline } => {
                write!(f, "deadline {deadline} already expired at submission")
            }
            QdbError::Timeout { deadline, spent } => {
                write!(f, "deadline {deadline} exceeded after {spent}")
            }
            QdbError::Overloaded {
                queue_len,
                max_queue,
            } => write!(
                f,
                "shed: submit queue full ({queue_len} of {max_queue} slots)"
            ),
            QdbError::DeviceFault {
                what,
                transient,
                attempts,
                device,
            } => {
                let class = if *transient { "transient" } else { "fatal" };
                write!(f, "{class} device fault")?;
                if let Some(d) = device {
                    write!(f, " on dev{d}")?;
                }
                write!(f, " after {attempts} attempt(s): {what}")
            }
            QdbError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
            QdbError::CapacityExceeded { needed, cap } => {
                write!(
                    f,
                    "append needs {needed} rows but the device columns were \
                     allocated for {cap}"
                )
            }
            QdbError::UnsupportedOnBackend { backend, feature } => {
                write!(f, "the {backend} backend does not support {feature}")
            }
        }
    }
}

impl std::error::Error for QdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QdbError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SqlError> for QdbError {
    fn from(e: SqlError) -> Self {
        QdbError::Parse(e)
    }
}

impl From<LaunchError> for QdbError {
    fn from(e: LaunchError) -> Self {
        QdbError::DeviceFault {
            transient: e.is_transient(),
            what: e.to_string(),
            attempts: 1,
            device: None,
        }
    }
}

impl From<OutOfMemory> for QdbError {
    fn from(e: OutOfMemory) -> Self {
        // allocation pressure is transient by nature: buffers retire as
        // queries drain (and injected OOMs model exactly that)
        QdbError::DeviceFault {
            what: e.to_string(),
            transient: true,
            attempts: 1,
            device: None,
        }
    }
}

impl From<TransferError> for QdbError {
    /// A dropped transfer is transient (each retry re-rolls the fault
    /// plan); a permanently down endpoint is not. Either way the device
    /// is named, so ledgers attribute the fault to hardware, not to the
    /// query.
    fn from(e: TransferError) -> Self {
        QdbError::DeviceFault {
            what: e.to_string(),
            transient: !e.permanent,
            attempts: 1,
            device: Some(e.device),
        }
    }
}

impl From<TopKError> for QdbError {
    fn from(e: TopKError) -> Self {
        match e {
            TopKError::ZeroK => QdbError::InvalidK { k: 0, n: 0 },
            TopKError::EmptyInput => QdbError::EmptyTable,
            TopKError::Launch(l) => l.into(),
            TopKError::UnsupportedOnBackend { backend, feature } => {
                QdbError::UnsupportedOnBackend { backend, feature }
            }
            // a buffer routed to the wrong engine is a permanent plan
            // defect, not something a retry can clear
            TopKError::BackendMismatch { backend, buffer } => QdbError::DeviceFault {
                what: format!("the {backend} backend was handed a {buffer} buffer"),
                transient: false,
                attempts: 1,
                device: None,
            },
            // qdb builds its algorithm configs itself
            e @ TopKError::InvalidConfig { .. } => QdbError::Internal {
                what: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transiency_classification() {
        let injected: QdbError = LaunchError::DeviceFault { kernel: "k" }.into();
        assert!(injected.is_transient());
        let shape: QdbError = LaunchError::EmptyLaunch.into();
        assert!(!shape.is_transient());
        // a down device is final: the conversion must classify it fatal
        let down: QdbError = LaunchError::DeviceDown { kernel: "k" }.into();
        assert!(!down.is_transient());
        assert!(!QdbError::Internal {
            what: "x".to_string()
        }
        .is_transient());
        let oom: QdbError = OutOfMemory {
            requested: 1,
            in_use: 0,
            capacity: 1,
        }
        .into();
        assert!(oom.is_transient());
        assert!(!QdbError::EmptyTable.is_transient());
        assert!(!QdbError::Timeout {
            deadline: SimTime(1e-3),
            spent: SimTime(2e-3),
        }
        .is_transient());
    }

    #[test]
    fn kinds_and_display_are_stable() {
        let e = QdbError::Overloaded {
            queue_len: 32,
            max_queue: 32,
        };
        assert_eq!(e.kind(), "overloaded");
        assert!(e.to_string().contains("queue full"));
        let e = QdbError::InvalidK { k: 0, n: 100 };
        assert_eq!(e.kind(), "invalid-k");
        assert!(e.to_string().contains("LIMIT 0"));
        let e = QdbError::Internal {
            what: "delegate id 7 missing from its shard".to_string(),
        };
        assert_eq!(e.kind(), "internal");
        assert!(e.to_string().contains("invariant"));
        // attributed device faults name the device in the rendering
        let e = QdbError::DeviceFault {
            what: "boom".to_string(),
            transient: false,
            attempts: 2,
            device: Some(3),
        };
        assert!(e.to_string().contains("on dev3"));
    }
}
