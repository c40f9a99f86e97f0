//! Store-level observability: lock-free counters plus an aggregated
//! snapshot building on `goddag::GoddagStats`.

use cxobs::{Exposition, Layer, Registry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone event counters, updated with relaxed atomics on every hot path.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Single-document queries served.
    pub queries: AtomicU64,
    /// Batch (`query_all*`) requests served.
    pub batch_queries: AtomicU64,
    /// Queries answered from a cached overlap index.
    pub index_hits: AtomicU64,
    /// Overlap index (re)builds.
    pub index_builds: AtomicU64,
    /// Expressions found pre-compiled in the query cache.
    pub query_cache_hits: AtomicU64,
    /// Expressions that had to be parsed.
    pub query_cache_misses: AtomicU64,
    /// Edits applied.
    pub edits: AtomicU64,
    /// Edits refused by the prevalidation gate or the document.
    pub edits_rejected: AtomicU64,
}

impl Counters {
    pub(crate) fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// The store's timed layers, registered once on the store's
/// [`Registry`] and entered with [`cxtrace::enter`] on the hot paths.
pub(crate) struct StoreMetrics {
    /// Whole gated edit ([`crate::Store::edit_with_log`]).
    pub edit: Layer,
    /// The prevalidation gate inside an edit.
    pub gate: Layer,
    /// Single-document query.
    pub query: Layer,
    /// Batch (`query_all*`) fan-out.
    pub query_all: Layer,
}

impl StoreMetrics {
    pub(crate) fn new(r: &Registry) -> StoreMetrics {
        StoreMetrics {
            edit: r.layer("store.edit"),
            gate: r.layer("store.gate"),
            query: r.layer("store.query"),
            query_all: r.layer("store.query_all"),
        }
    }
}

/// A point-in-time summary of the store: collection totals (aggregated
/// [`goddag::GoddagStats`]) plus the event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live documents.
    pub docs: usize,
    /// Live elements across all documents.
    pub elements: usize,
    /// Text leaves across all documents.
    pub leaves: usize,
    /// Content bytes across all documents (each stored once per document).
    pub content_bytes: usize,
    /// Estimated heap footprint of all documents.
    pub estimated_bytes: usize,
    /// Sum of per-document edit epochs — a proxy for total mutation volume.
    pub epochs: u64,
    /// Documents whose overlap index cache is valid right now.
    pub warm_indexes: usize,
    /// Distinct compiled expressions currently cached.
    pub compiled_queries: usize,
    /// Single-document queries served.
    pub queries: u64,
    /// Batch query requests served.
    pub batch_queries: u64,
    /// Queries answered from a cached overlap index.
    pub index_hits: u64,
    /// Overlap index (re)builds.
    pub index_builds: u64,
    /// Query-cache hits.
    pub query_cache_hits: u64,
    /// Query-cache misses (parses).
    pub query_cache_misses: u64,
    /// Edits applied.
    pub edits: u64,
    /// Edits rejected.
    pub edits_rejected: u64,
    /// Write-ahead-log records appended (durable stores; 0 for in-memory
    /// stores).
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// `fsync` calls issued by the write-ahead log.
    pub wal_fsyncs: u64,
    /// Checkpoints (snapshot + log rotation) taken.
    pub checkpoints: u64,
    /// Log records replayed during recovery.
    pub replayed_ops: u64,
    /// Documents restored from the newest snapshot during recovery.
    pub recovered_docs: u64,
    /// Log records shipped to replication followers (primaries; 0
    /// elsewhere).
    pub repl_records_shipped: u64,
    /// Shipped log records applied to this store (replicas; 0 elsewhere).
    pub repl_records_applied: u64,
    /// Replication lag in records: the last known primary head LSN minus
    /// the last applied LSN (replicas; 0 elsewhere).
    pub repl_lag: u64,
    /// Primaries behind this store-shaped façade (clusters; 0 for plain
    /// stores).
    pub cluster_shards: usize,
    /// Documents migrated between primaries (clusters; 0 elsewhere).
    pub docs_moved: u64,
    /// `wal_tail` calls served from the cached tail offset (durable
    /// stores; 0 elsewhere).
    pub tail_cache_hits: u64,
    /// `wal_tail` calls that fell back to a full log scan.
    pub tail_cache_misses: u64,
    /// Writes currently executing against a shard (clusters; 0
    /// elsewhere — a gauge, so it can read 0 between writes).
    pub writes_in_flight: i64,
    /// Writers currently waiting on the migration gate (clusters; 0
    /// elsewhere).
    pub writers_waiting: i64,
}

impl StoreStats {
    /// Fold another store's stats into this one — the aggregation a
    /// cluster uses to present N primaries as one store-shaped summary.
    /// Totals and counters sum; `repl_lag` takes the worst (max) lag.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.docs += other.docs;
        self.elements += other.elements;
        self.leaves += other.leaves;
        self.content_bytes += other.content_bytes;
        self.estimated_bytes += other.estimated_bytes;
        self.epochs += other.epochs;
        self.warm_indexes += other.warm_indexes;
        self.compiled_queries += other.compiled_queries;
        self.queries += other.queries;
        self.batch_queries += other.batch_queries;
        self.index_hits += other.index_hits;
        self.index_builds += other.index_builds;
        self.query_cache_hits += other.query_cache_hits;
        self.query_cache_misses += other.query_cache_misses;
        self.edits += other.edits;
        self.edits_rejected += other.edits_rejected;
        self.wal_appends += other.wal_appends;
        self.wal_bytes += other.wal_bytes;
        self.wal_fsyncs += other.wal_fsyncs;
        self.checkpoints += other.checkpoints;
        self.replayed_ops += other.replayed_ops;
        self.recovered_docs += other.recovered_docs;
        self.repl_records_shipped += other.repl_records_shipped;
        self.repl_records_applied += other.repl_records_applied;
        self.repl_lag = self.repl_lag.max(other.repl_lag);
        self.cluster_shards += other.cluster_shards;
        self.docs_moved += other.docs_moved;
        self.tail_cache_hits += other.tail_cache_hits;
        self.tail_cache_misses += other.tail_cache_misses;
        self.writes_in_flight += other.writes_in_flight;
        self.writers_waiting += other.writers_waiting;
    }

    /// Append every stat as one `cx_*` exposition line — the
    /// snapshot-shaped half of a store's [`cxobs::Observable`] output
    /// (its registry's histograms and gauges are the other half).
    pub fn expose_into(&self, out: &mut Exposition) {
        out.write("cx_docs", self.docs);
        out.write("cx_elements", self.elements);
        out.write("cx_leaves", self.leaves);
        out.write("cx_content_bytes", self.content_bytes);
        out.write("cx_estimated_bytes", self.estimated_bytes);
        out.write("cx_epochs_total", self.epochs);
        out.write("cx_warm_indexes", self.warm_indexes);
        out.write("cx_compiled_queries", self.compiled_queries);
        out.write("cx_queries_total", self.queries);
        out.write("cx_batch_queries_total", self.batch_queries);
        out.write("cx_index_hits_total", self.index_hits);
        out.write("cx_index_builds_total", self.index_builds);
        out.write("cx_query_cache_hits_total", self.query_cache_hits);
        out.write("cx_query_cache_misses_total", self.query_cache_misses);
        out.write("cx_edits_total", self.edits);
        out.write("cx_edits_rejected_total", self.edits_rejected);
        out.write("cx_wal_appends_total", self.wal_appends);
        out.write("cx_wal_bytes_total", self.wal_bytes);
        out.write("cx_wal_fsyncs_total", self.wal_fsyncs);
        out.write("cx_checkpoints_total", self.checkpoints);
        out.write("cx_replayed_ops_total", self.replayed_ops);
        out.write("cx_recovered_docs_total", self.recovered_docs);
        out.write("cx_repl_records_shipped_total", self.repl_records_shipped);
        out.write("cx_repl_records_applied_total", self.repl_records_applied);
        out.write("cx_repl_lag", self.repl_lag);
        out.write("cx_cluster_shards", self.cluster_shards);
        out.write("cx_docs_moved_total", self.docs_moved);
        out.write("cx_tail_cache_hits_total", self.tail_cache_hits);
        out.write("cx_tail_cache_misses_total", self.tail_cache_misses);
        out.write("cx_writes_in_flight", self.writes_in_flight);
        out.write("cx_writers_waiting", self.writers_waiting);
    }

    /// Fraction of index lookups served from cache (0 when none yet).
    pub fn index_hit_rate(&self) -> f64 {
        let total = self.index_hits + self.index_builds;
        if total == 0 {
            0.0
        } else {
            self.index_hits as f64 / total as f64
        }
    }
}

impl Counters {
    pub(crate) fn snapshot_into(&self, s: &mut StoreStats) {
        s.queries = self.queries.load(Ordering::Relaxed);
        s.batch_queries = self.batch_queries.load(Ordering::Relaxed);
        s.index_hits = self.index_hits.load(Ordering::Relaxed);
        s.index_builds = self.index_builds.load(Ordering::Relaxed);
        s.query_cache_hits = self.query_cache_hits.load(Ordering::Relaxed);
        s.query_cache_misses = self.query_cache_misses.load(Ordering::Relaxed);
        s.edits = self.edits.load(Ordering::Relaxed);
        s.edits_rejected = self.edits_rejected.load(Ordering::Relaxed);
    }
}
