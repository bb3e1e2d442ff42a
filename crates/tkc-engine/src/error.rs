//! Structured engine failures and the serving state machine.
//!
//! The engine's failure model (DESIGN.md §10) distinguishes three fates
//! for a write:
//!
//! * **Rejected** — the op itself is unacceptable ([`EngineError::
//!   InvalidOp`], e.g. a vertex id past the configured cap). The engine
//!   stays healthy; only this request fails.
//! * **Degraded** — the durability layer failed
//!   ([`EngineError::Wal`]). The op is *not acknowledged* and the engine
//!   transitions to [`EngineState::ReadOnly`]: reads keep serving the
//!   last published epoch, further writes get [`EngineError::Degraded`]
//!   until a recovery succeeds.
//! * **Lost process** — a crash. Handled by WAL replay at the next open,
//!   not by this module.
//!
//! Nothing here panics, and none of these variants are reachable from
//! well-formed client input except `InvalidOp` — which is the point.

use std::fmt;
use std::path::PathBuf;

use tkc_core::persist::PersistError;

use crate::engine::{STATE_FILE, STORE_FILE};
use crate::wal::WalError;

/// Where the engine is in its `Serving → ReadOnly → Recovering → Serving`
/// state machine — extended by replication with the two follower
/// states (`Follower`, `Diverged`), which are read-only by role rather
/// than by failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// Healthy: writes are durable, reads serve the latest epoch.
    Serving,
    /// Degraded: the WAL failed; writes are rejected, reads still serve
    /// the last published epoch.
    ReadOnly,
    /// A supervised recovery attempt is in flight.
    Recovering,
    /// Replicating from a primary: reads serve published epochs, writes
    /// are redirected with `ERR READONLY <primary-addr>`.
    Follower,
    /// The divergence probe caught a κ-stamp mismatch against the
    /// primary: still read-only, re-bootstrapping from the primary's
    /// packed store.
    Diverged,
}

impl EngineState {
    /// The metrics/wire label (`serving`, `read_only`, `recovering`,
    /// `follower`, `diverged`).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineState::Serving => "serving",
            EngineState::ReadOnly => "read_only",
            EngineState::Recovering => "recovering",
            EngineState::Follower => "follower",
            EngineState::Diverged => "diverged",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            EngineState::Serving => 0,
            EngineState::ReadOnly => 1,
            EngineState::Recovering => 2,
            EngineState::Follower => 3,
            EngineState::Diverged => 4,
        }
    }

    pub(crate) fn from_u8(v: u8) -> EngineState {
        match v {
            1 => EngineState::ReadOnly,
            2 => EngineState::Recovering,
            3 => EngineState::Follower,
            4 => EngineState::Diverged,
            _ => EngineState::Serving,
        }
    }
}

impl fmt::Display for EngineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything that can go wrong inside the engine, shaped for the wire:
/// the server maps each variant to a structured `ERR ...` reply instead
/// of unwinding.
#[derive(Debug)]
pub enum EngineError {
    /// The write-ahead log failed at a named site (append, fsync, ...).
    Wal(WalError),
    /// Snapshot load/store failed (compaction, recovery state file).
    Persist(PersistError),
    /// The engine is read-only; the reason names the original failure.
    Degraded {
        /// Human-readable cause carried into `ERR DEGRADED <reason>`.
        reason: String,
    },
    /// A client-supplied op failed validation (and was not logged).
    InvalidOp {
        /// What the op violated.
        reason: String,
    },
    /// The engine is a replication follower: writes must go to the
    /// primary. Maps to `ERR READONLY <primary-addr>` on the wire so a
    /// client can redirect itself.
    Readonly {
        /// Address of the primary this node follows (`unknown` when the
        /// follower has not learned one yet).
        primary: String,
    },
    /// The state directory holds a snapshot the engine does not open: a
    /// text `state.tkc` with no store, or a store in an older format.
    /// `tkc store pack <dir>` imports the text snapshot into a store.
    NeedsImport {
        /// The state directory.
        dir: PathBuf,
        /// What the directory holds instead of a current store.
        found: String,
    },
    /// The WAL starts from a compaction floor — the ops up to
    /// `floor_seq` were moved into the packed store — but the store is
    /// gone. Replaying the log alone would serve a graph missing those
    /// ops, so the engine refuses to open.
    MissingStore {
        /// The state directory.
        dir: PathBuf,
        /// The WAL's compaction floor.
        floor_seq: u64,
    },
}

impl EngineError {
    /// True when the failure is the fault harness's crash latch — the
    /// simulated process is dead, so retrying in-process is pointless.
    pub fn is_injected_crash(&self) -> bool {
        match self {
            EngineError::Wal(w) => w.is_injected_crash(),
            EngineError::Persist(PersistError::Io(e)) => tkc_faults::is_injected_crash(e),
            _ => false,
        }
    }

    /// The short wire token after `ERR` (`DEGRADED`, `INVALID`, `WAL`,
    /// `PERSIST`, `READONLY`) — stable for clients to dispatch on.
    pub fn wire_token(&self) -> &'static str {
        match self {
            EngineError::Wal(_) => "WAL",
            EngineError::Persist(_)
            | EngineError::NeedsImport { .. }
            | EngineError::MissingStore { .. } => "PERSIST",
            EngineError::Degraded { .. } => "DEGRADED",
            EngineError::InvalidOp { .. } => "INVALID",
            EngineError::Readonly { .. } => "READONLY",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Wal(e) => write!(f, "wal failure: {e}"),
            EngineError::Persist(e) => write!(f, "persist failure: {e}"),
            EngineError::Degraded { reason } => write!(f, "engine degraded: {reason}"),
            EngineError::InvalidOp { reason } => write!(f, "invalid op: {reason}"),
            EngineError::Readonly { primary } => {
                write!(f, "read-only follower; writes go to {primary}")
            }
            EngineError::NeedsImport { dir, found } => write!(
                f,
                "{} holds {found}; run `tkc store pack {}` to import its {STATE_FILE}",
                dir.display(),
                dir.display()
            ),
            EngineError::MissingStore { dir, floor_seq } => write!(
                f,
                "{} is missing, but the WAL was compacted into it at seq {floor_seq}; \
                 restore the store that compaction wrote",
                dir.join(STORE_FILE).display()
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Wal(e) => Some(e),
            EngineError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e)
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> Self {
        EngineError::Persist(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Persist(PersistError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trips_through_u8() {
        for s in [
            EngineState::Serving,
            EngineState::ReadOnly,
            EngineState::Recovering,
            EngineState::Follower,
            EngineState::Diverged,
        ] {
            assert_eq!(EngineState::from_u8(s.as_u8()), s);
        }
    }

    #[test]
    fn wire_tokens_are_stable() {
        assert_eq!(
            EngineError::Degraded {
                reason: "wal.fsync".to_string()
            }
            .wire_token(),
            "DEGRADED"
        );
        assert_eq!(
            EngineError::InvalidOp {
                reason: "vertex cap".to_string()
            }
            .wire_token(),
            "INVALID"
        );
        let ro = EngineError::Readonly {
            primary: "10.0.0.1:7000".to_string(),
        };
        assert_eq!(ro.wire_token(), "READONLY");
        assert!(ro.to_string().contains("10.0.0.1:7000"));
    }
}
