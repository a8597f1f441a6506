//! The warehouse's simulated durable store: checkpoint + write-ahead log.
//!
//! The paper's correctness arguments start from intact warehouse state —
//! TempView partials, pending compensation, queue cursors — i.e. they
//! silently assume the warehouse process never fails. This module is the
//! mechanism that earns that assumption: a deterministic, in-memory model
//! of what a real warehouse would keep on stable storage, split the
//! classical way into
//!
//! * a **checkpoint** — one full snapshot of the recoverable state
//!   (installed view contents, update-queue contents with their install
//!   tickets, formed-but-uncommitted sweep tasks — in flight or waiting —
//!   the install sequencer, the incarnation number), replaced wholesale
//!   and truncating the log; and
//! * a **write-ahead log** — an ordered record of every state transition
//!   since that snapshot that recovery has to redo, appended *before* the
//!   corresponding volatile mutation takes effect. A record replay would
//!   not read does not belong in it.
//!
//! The store is generic over the checkpoint and record types: the engine
//! owns the mechanism, adapters (today `dw-multiview`'s scheduler) define
//! what their snapshot and lifecycle records look like. Recovery is the
//! adapter's job too — restore the checkpoint, replay the log through its
//! own live transitions — because only the adapter knows their
//! semantics. (No qid allocator is rebuilt: a recovered
//! [`crate::EngineCore`] enters the next incarnation, which its qids carry.) What lives here
//! is the storage discipline plus the accounting recovery experiments
//! need (bytes written, bytes replayed, truncations).
//!
//! Being "durable" in a simulation means exactly one thing: a *state
//! crash* (see `dw-simnet`'s fault plan) wipes the owning node's volatile
//! structures but leaves this store untouched, the same way the
//! reliability transport's outbox/receive cursors are modeled as
//! journaled. Everything stays deterministic — no I/O, no wall clock.

/// How the warehouse checkpoints: take a fresh snapshot after this many
/// committed sweep tasks. `1` checkpoints after every install (shortest
/// replay, most snapshot work); larger values trade longer WAL replay for
/// fewer snapshots. A checkpoint is also always taken at enable time and
/// immediately after every recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Committed sweep tasks between checkpoints (min 1).
    pub checkpoint_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every: 4,
        }
    }
}

impl DurabilityConfig {
    /// Checkpoint cadence clamped to at least one task.
    pub fn cadence(&self) -> usize {
        self.checkpoint_every.max(1)
    }
}

/// Size accounting for WAL records: how many bytes this record would
/// occupy on stable storage. Deliberately the same style of accounting as
/// `dw-simnet::Payload::size_bytes` — coarse, deterministic, and
/// monotone in payload size — so "WAL bytes replayed" is comparable to
/// wire-byte metrics.
pub trait WalRecord {
    /// Serialized size of the record (bytes, modeled).
    fn wal_bytes(&self) -> usize;
}

/// Lifetime counters of one durable store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Snapshots taken (including the initial one).
    pub checkpoints_taken: u64,
    /// Records appended to the WAL since creation.
    pub wal_appends: u64,
    /// Total modeled bytes of all appended records.
    pub wal_bytes_written: u64,
    /// WAL truncations (one per checkpoint after the first append).
    pub truncations: u64,
}

/// The durable store: at most one checkpoint plus the WAL suffix written
/// since it. `C` is the adapter's snapshot type, `R` its record type.
#[derive(Clone, Debug)]
pub struct DurableStore<C, R> {
    checkpoint: Option<C>,
    wal: Vec<R>,
    stats: DurableStats,
}

impl<C, R> Default for DurableStore<C, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C, R> DurableStore<C, R> {
    /// An empty store: no checkpoint, no log.
    pub fn new() -> Self {
        DurableStore {
            checkpoint: None,
            wal: Vec::new(),
            stats: DurableStats::default(),
        }
    }

    /// Atomically install a fresh snapshot and truncate the log. On real
    /// storage this is the classical two-step (write snapshot, then
    /// truncate); atomicity is free in the simulation because nothing
    /// can crash between two statements of one delivery.
    pub fn checkpoint(&mut self, snapshot: C) {
        self.checkpoint = Some(snapshot);
        if !self.wal.is_empty() {
            self.stats.truncations += 1;
        }
        self.wal.clear();
        self.stats.checkpoints_taken += 1;
    }

    /// The last snapshot, if one was ever taken.
    pub fn checkpoint_ref(&self) -> Option<&C> {
        self.checkpoint.as_ref()
    }

    /// The WAL suffix written since the last checkpoint, oldest first.
    pub fn wal(&self) -> &[R] {
        &self.wal
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DurableStats {
        self.stats
    }

    /// Total modeled bytes of the records currently in the log — what a
    /// recovery starting now would have to replay.
    pub fn wal_bytes(&self) -> usize
    where
        R: WalRecord,
    {
        self.wal.iter().map(WalRecord::wal_bytes).sum()
    }

    /// Append one record. Write-ahead discipline is the *caller's*
    /// contract: append before mutating the volatile state the record
    /// describes.
    pub fn append(&mut self, record: R)
    where
        R: WalRecord,
    {
        self.stats.wal_appends += 1;
        self.stats.wal_bytes_written += record.wal_bytes() as u64;
        self.wal.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Rec(usize);
    impl WalRecord for Rec {
        fn wal_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn append_accumulates_and_accounts() {
        let mut store: DurableStore<u32, Rec> = DurableStore::new();
        assert!(store.checkpoint_ref().is_none());
        store.append(Rec(10));
        store.append(Rec(5));
        assert_eq!(store.wal(), &[Rec(10), Rec(5)]);
        assert_eq!(store.wal_bytes(), 15);
        let s = store.stats();
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes_written, 15);
        assert_eq!(s.checkpoints_taken, 0);
    }

    #[test]
    fn checkpoint_truncates_the_log() {
        let mut store: DurableStore<u32, Rec> = DurableStore::new();
        store.checkpoint(1);
        assert_eq!(store.stats().truncations, 0, "empty log: nothing cut");
        store.append(Rec(3));
        store.checkpoint(2);
        assert_eq!(store.checkpoint_ref(), Some(&2));
        assert!(store.wal().is_empty());
        let s = store.stats();
        assert_eq!(s.checkpoints_taken, 2);
        assert_eq!(s.truncations, 1);
        // Lifetime byte accounting survives truncation.
        assert_eq!(s.wal_bytes_written, 3);
    }

    #[test]
    fn cadence_clamps_to_one() {
        assert_eq!(
            DurabilityConfig {
                checkpoint_every: 0
            }
            .cadence(),
            1
        );
        assert_eq!(DurabilityConfig::default().cadence(), 4);
    }
}
