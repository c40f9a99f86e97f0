//! The shipping side: a [`DurableStore`] whose WAL is served to followers.

use crate::error::{ReplError, Result};
use crate::transport::FetchResponse;
use cxobs::{Exposition, Layer, Observable};
use cxpersist::{DurableStore, TailShipment};
use cxstore::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A replication primary: wraps a [`DurableStore`] and answers follower
/// fetches from its WAL — record batches for followers within the
/// retained log, a full [`cxpersist::StoreSnapshot`] bootstrap for
/// followers behind the retention floor. The primary keeps serving writes
/// throughout; shipping is asynchronous and stays off the edit path — a
/// fetch holds the WAL mutex only to fsync whatever is pending (shipping
/// implies durability) and reads + slices the log file outside it; a
/// snapshot capture drains mutators exactly like a checkpoint.
pub struct Primary {
    durable: Arc<DurableStore>,
    records_shipped: AtomicU64,
    batches_shipped: AtomicU64,
    snapshots_shipped: AtomicU64,
    /// One `handle_fetch` round trip (registered on the durable store's
    /// registry, so the whole shard exposes as one page).
    ship: Layer,
}

impl Primary {
    /// Serve `durable`'s log.
    pub fn new(durable: Arc<DurableStore>) -> Primary {
        let ship = durable.registry().layer("repl.ship");
        Primary {
            durable,
            records_shipped: AtomicU64::new(0),
            batches_shipped: AtomicU64::new(0),
            snapshots_shipped: AtomicU64::new(0),
            ship,
        }
    }

    /// The wrapped durable store (writes and reads go through it as
    /// usual; replication only observes the WAL).
    pub fn durable(&self) -> &Arc<DurableStore> {
        &self.durable
    }

    /// Answer one follower fetch: records after `after` (capped near
    /// `max_bytes`), a snapshot when the records were retired, or
    /// caught-up. A follower claiming an LSN beyond this log's head is a
    /// **split history** — it applied records from a primary whose writes
    /// this one never had (e.g. it outpaced the promoted follower it now
    /// points at) — and fails with [`crate::ReplError::Diverged`], which
    /// transports preserve so the follower's loop parks instead of
    /// retrying an unhealable stream.
    pub fn handle_fetch(&self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        let _layer = cxtrace::enter(&self.ship);
        let head = self.durable.wal_position().lsn;
        if after > head {
            let detail = format!(
                "follower claims LSN {after}, but this primary's log ends at {head} — \
                 split history; re-bootstrap the follower"
            );
            self.durable.registry().event("repl.error", detail.clone());
            return Err(ReplError::Diverged { detail });
        }
        match self.durable.wal_tail(after, max_bytes)? {
            TailShipment::CaughtUp => Ok(FetchResponse::CaughtUp { head: after }),
            TailShipment::Records { first, last, bytes } => {
                self.records_shipped.fetch_add(last - first + 1, Ordering::Relaxed);
                self.batches_shipped.fetch_add(1, Ordering::Relaxed);
                Ok(FetchResponse::Records { head: self.durable.wal_position().lsn, bytes })
            }
            TailShipment::SnapshotNeeded => {
                let snap = self.durable.capture_snapshot()?;
                self.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
                self.durable.registry().event(
                    "snapshot.ship",
                    format!("bootstrap at lsn {} (after {after})", snap.lsn),
                );
                Ok(FetchResponse::Snapshot { head: snap.lsn, bytes: snap.to_text().into_bytes() })
            }
        }
    }

    /// Snapshot bootstraps served so far.
    pub fn snapshots_shipped(&self) -> u64 {
        self.snapshots_shipped.load(Ordering::Relaxed)
    }

    /// Record batches served so far.
    pub fn batches_shipped(&self) -> u64 {
        self.batches_shipped.load(Ordering::Relaxed)
    }

    /// [`DurableStore::stats`] plus the shipping counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.durable.stats();
        s.repl_records_shipped = self.records_shipped.load(Ordering::Relaxed);
        s
    }
}

impl Observable for Primary {
    /// The shard's whole stack — store, durability, and shipping — as one
    /// exposition page.
    fn expose_into(&self, out: &mut Exposition) {
        self.stats().expose_into(out);
        self.durable.registry().expose_into(out);
    }
}
