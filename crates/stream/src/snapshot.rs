//! Durable sessions: versioned snapshot/restore of streaming state.
//!
//! A [`SessionSnapshot`] captures everything a
//! [`StreamSession`](crate::StreamSession) needs to resume after a
//! process restart *bit for bit*: the windower (buffered events,
//! watermark, grid cursors, the adaptive controller's PID trajectory),
//! the pool / pending / in-service sets, the lifetime-budget ledger
//! with its release-dedup set, carried warm-start boards, fates and
//! per-window reports. Pure-function state is deliberately *not*
//! serialized — budget generators are re-derived from the seed, and
//! the incremental delta-instance caches are rebuilt from the live
//! pool/pending order — so the format stays small and stable.
//!
//! # Versioning rules
//!
//! Snapshots carry [`SNAPSHOT_VERSION`]. The version is bumped on any
//! change that alters the meaning or encoding of an existing field;
//! restoring a snapshot with a different version is rejected with
//! [`SnapshotError::VersionMismatch`] rather than guessed at. Adding a
//! *new* field with a restore-time default does not bump the version.
//! A committed golden fixture pins the v2 wire format. (v2 replaced
//! the bare accountant section with a tagged
//! [`LedgerState`](dpta_dp::LedgerState) — lifetime or sliding-window
//! — and added the deferred-task queue and pacing state; v1 snapshots
//! are rejected with [`SnapshotError::VersionMismatch`].)
//!
//! # Exactly-once across restart
//!
//! Snapshots are taken at window boundaries, where every privacy
//! charge of the preceding window has already been committed to the
//! serialized [`LedgerState`](dpta_dp::LedgerState)
//! and recorded in the serialized release-dedup set. A restored
//! session therefore re-charges nothing: re-derived publications of
//! already-charged releases are filtered by the dedup exactly as they
//! are in an uninterrupted run, so each release is charged once per
//! worker lifetime *across restarts*, and total spend is bit-identical
//! to the run that never stopped.

use crate::driver::StreamConfig;
use crate::halo::HaloSnapshot;
use crate::session::{CoreSnapshot, Outcome};
use crate::shard::ShardStrategy;
use crate::window::WindowerSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// Current snapshot format version, embedded in every snapshot.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The full serializable state of a [`StreamSession`] at a window
/// boundary, produced by [`StreamSession::snapshot`] and consumed by
/// [`StreamSession::restore`].
///
/// [`StreamSession`]: crate::StreamSession
/// [`StreamSession::snapshot`]: crate::StreamSession::snapshot
/// [`StreamSession::restore`]: crate::StreamSession::restore
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    pub(crate) version: u32,
    pub(crate) engine: String,
    pub(crate) config: StreamConfig,
    pub(crate) windower: WindowerSnapshot,
    pub(crate) core: CoreSnapshot,
    pub(crate) residual: VecDeque<Outcome>,
    pub(crate) n_tasks: usize,
    pub(crate) n_workers: usize,
    pub(crate) task_ids: BTreeSet<u32>,
    pub(crate) worker_ids: BTreeSet<u32>,
}

impl SessionSnapshot {
    /// The snapshot format version this snapshot was written under.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Display name of the engine the session was running.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The configuration the session was running under. Restore
    /// requires an equal configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Serializes the snapshot to its canonical JSON form. The
    /// encoding is deterministic: the same session state always
    /// produces the same bytes (map keys are sorted, float bit
    /// patterns round-trip exactly).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from its JSON form. Returns
    /// [`SnapshotError::Malformed`] on syntax or schema violations and
    /// [`SnapshotError::VersionMismatch`] when the format version is
    /// not [`SNAPSHOT_VERSION`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let value = serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.0))?;
        let snap = SessionSnapshot::deserialize_value(&value)
            .map_err(|e| SnapshotError::Malformed(e.0))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(snap)
    }

    /// Validates the snapshot against a restore-time engine and
    /// configuration: version first, then engine, then every
    /// configuration field — the error names the first mismatch.
    pub(crate) fn validate(&self, engine: &str, cfg: &StreamConfig) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if self.engine != engine {
            return Err(SnapshotError::ConfigMismatch { field: "engine" });
        }
        check_config(&self.config, cfg)
    }
}

/// Field-by-field configuration comparison, naming the first differing
/// field. Restoring under a changed configuration would silently
/// diverge from the uninterrupted run (different windows, budgets or
/// retirement points), so every field must match exactly.
pub(crate) fn check_config(snap: &StreamConfig, cfg: &StreamConfig) -> Result<(), SnapshotError> {
    let mismatch = |field| Err(SnapshotError::ConfigMismatch { field });
    if snap.policy != cfg.policy {
        return mismatch("policy");
    }
    if snap.params != cfg.params {
        return mismatch("params");
    }
    if snap.budget_range != cfg.budget_range {
        return mismatch("budget_range");
    }
    if snap.budget_group_size != cfg.budget_group_size {
        return mismatch("budget_group_size");
    }
    if snap.worker_capacity != cfg.worker_capacity {
        return mismatch("worker_capacity");
    }
    if snap.task_ttl != cfg.task_ttl {
        return mismatch("task_ttl");
    }
    if snap.carry_releases != cfg.carry_releases {
        return mismatch("carry_releases");
    }
    if snap.service != cfg.service {
        return mismatch("service");
    }
    if snap.horizon != cfg.horizon {
        return mismatch("horizon");
    }
    if snap.halo_full_rerun != cfg.halo_full_rerun {
        return mismatch("halo_full_rerun");
    }
    if snap.ledger != cfg.ledger {
        return mismatch("ledger");
    }
    if snap.pacing != cfg.pacing {
        return mismatch("pacing");
    }
    if snap.admission != cfg.admission {
        return mismatch("admission");
    }
    Ok(())
}

/// The full serializable state of a
/// [`ShardedSession`](crate::ShardedSession) at a window boundary,
/// produced by [`ShardedSession::snapshot`] and consumed by
/// [`ShardedSession::restore`].
///
/// [`ShardedSession::snapshot`]: crate::ShardedSession::snapshot
/// [`ShardedSession::restore`]: crate::ShardedSession::restore
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedSnapshot {
    pub(crate) version: u32,
    pub(crate) engine: String,
    pub(crate) config: StreamConfig,
    pub(crate) strategy: ShardStrategy,
    pub(crate) n_shards: usize,
    pub(crate) watermark: f64,
    pub(crate) task_ids: BTreeSet<u32>,
    pub(crate) worker_ids: BTreeSet<u32>,
    pub(crate) mode: ShardedModeSnapshot,
}

/// Per-execution-mode state inside a [`ShardedSnapshot`], mirroring the
/// sharded session's three run modes.
// One per snapshot, never collected — variant size skew is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum ShardedModeSnapshot {
    /// Independent per-shard sessions (static drop-pairs policies).
    PerShard {
        /// One full session snapshot per shard, in shard order.
        shards: Vec<SessionSnapshot>,
        /// Largest event time pushed so far, for horizon injection at
        /// close.
        max_event_time: f64,
    },
    /// One global windower over per-shard cores (adaptive drop-pairs).
    Lockstep {
        /// The shared global windower.
        windower: WindowerSnapshot,
        /// One pipeline core per shard, in shard order.
        cores: Vec<CoreSnapshot>,
        /// Tasks projected into each shard so far.
        shard_tasks: Vec<usize>,
        /// Workers projected into each shard so far.
        shard_workers: Vec<usize>,
    },
    /// The boundary-halo coordinator.
    Halo {
        /// The shared global windower.
        windower: WindowerSnapshot,
        /// The coordinator's protocol state.
        core: HaloSnapshot,
    },
}

impl ShardedSnapshot {
    /// The snapshot format version this snapshot was written under.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Display name of the engine the session was running.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The configuration the session was running under. Restore
    /// requires an equal configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The sharding strategy the session was running under.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Serializes the snapshot to its canonical JSON form (same
    /// determinism guarantees as [`SessionSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from its JSON form, with the same error
    /// contract as [`SessionSnapshot::from_json`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let value = serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.0))?;
        let snap = ShardedSnapshot::deserialize_value(&value)
            .map_err(|e| SnapshotError::Malformed(e.0))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(snap)
    }

    /// Validates the snapshot against a restore-time engine,
    /// configuration, partition size and strategy: version first, then
    /// engine, then every configuration field, then strategy and shard
    /// count — the error names the first mismatch.
    pub(crate) fn validate(
        &self,
        engine: &str,
        cfg: &StreamConfig,
        n_shards: usize,
        strategy: ShardStrategy,
    ) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if self.engine != engine {
            return Err(SnapshotError::ConfigMismatch { field: "engine" });
        }
        check_config(&self.config, cfg)?;
        if self.strategy != strategy {
            return Err(SnapshotError::ConfigMismatch { field: "strategy" });
        }
        if self.n_shards != n_shards {
            return Err(SnapshotError::ConfigMismatch { field: "partition" });
        }
        Ok(())
    }
}

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written under a different format version.
    VersionMismatch {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The restore-time engine or configuration differs from what the
    /// snapshot was taken under; carries the first mismatching field.
    ConfigMismatch {
        /// Name of the first differing configuration field (`"engine"`
        /// when the engine itself differs).
        field: &'static str,
    },
    /// The snapshot bytes do not parse or violate a state invariant.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} cannot be restored by this build \
                 (expected {expected})"
            ),
            SnapshotError::ConfigMismatch { field } => write!(
                f,
                "snapshot was taken under a different configuration: field `{field}` differs"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}
