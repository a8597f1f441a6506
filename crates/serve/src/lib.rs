//! # dw-serve
//!
//! The warehouse's **read path**: seven PRs of maintenance machinery can
//! install views, and this crate finally lets something *read* them
//! while maintenance runs.
//!
//! The design is an adapter over `dw-engine`'s install publication hook
//! ([`dw_engine::InstallPublisher`]):
//!
//! * every committed install arrives as an epoch-stamped event and is
//!   frozen into an immutable snapshot inside the [`SnapshotStore`] —
//!   epoch `e` is the view after exactly `e` installs, with the install
//!   events' own consumed-update sets as provenance;
//! * the [`ReadFrontend`] answers point/scan queries against a chosen
//!   (usually **pinned**) epoch, so a concurrent sweep can never block
//!   or torn-read a reader — readers hold `Arc` snapshots, installs only
//!   ever *add* new epochs;
//! * each query may carry a [`StalenessBound`] ("must reflect every
//!   source update delivered before `T`"); a violating epoch returns a
//!   typed [`ServeError::TooStale`] naming the freshest admissible
//!   epoch, so callers can retry against it or relax the bound;
//! * a point read has one route, the per-`(view, epoch, column)`
//!   **secondary hash index** — built on first touch, incrementally
//!   derived at every publish, each group stored with its total
//!   multiplicity — so a lookup touches its group, never the bag;
//! * [`ReadFrontend::subscribe`] registers a reader with the store's
//!   subscription registry (a store internal, see [`hub`]), which pushes
//!   install deltas to it in install order — under the sharded scheduler
//!   that order is the [`dw_engine::InstallSequencer`] ticket order, so
//!   subscription streams are byte-identical to the install sequence. A
//!   subscriber registered with a `max_lag` bound that stops draining is
//!   *lagged* (queue dropped, typed [`ServeError::Lagged`] on poll) and
//!   recovers by [`ReadFrontend::resume`]: pin the snapshot at
//!   `resume_epoch`, read it, stream deltas from there — equivalent to
//!   the unbounded stream it missed. Every refusal, of a read or a
//!   subscription call alike, is a [`ServeError`]: the crate's one error
//!   type.
//!
//! Old epochs are retained only while pinned (plus the latest); garbage
//! collection runs at publish and unpin. Crash recovery replays installs
//! through the same publication hook; the store keeps the first event
//! of each `(view, epoch)`, so recovery is invisible to readers — they keep
//! answering from the last committed epoch throughout.
//!
//! Construction discipline: **only this crate builds snapshots**. Every
//! consumer goes through [`ReadFrontend`] (CI greps for stray
//! `SnapshotStore` references outside `crates/serve/src`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frontend;
pub mod hub;
pub mod store;

pub use frontend::{
    PinnedEpoch, PointAnswer, ReadFrontend, ScanAnswer, ServeError, StalenessBound,
};
pub use hub::replays_installs;
pub use store::{ServeStats, SnapshotStore};

/// What [`ReadFrontend::sink`] is fed and a subscription streams: the
/// engine's install event.
pub use dw_engine::InstallEvent;
