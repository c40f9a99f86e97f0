//! The served stack — two shard-scoped `ClusterServer`s over one two-shard
//! `Cluster`, one `RouterClient` — and its set-up, recovery and
//! replication catch-up, each checked against the oracle's exports.

use crate::inputs::Inputs;
use cxml::cxcluster::{Cluster, ShardId};
use cxml::cxpersist::{FsyncPolicy, Options};
use cxml::cxrepl::{Follower, ReplicaStore, TcpReplServer, TcpTransport};
use cxml::cxserve::{ClientOptions, ClusterServer, RouterClient, ServerOptions};
use cxml::cxstore::DocId;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

pub const SHARDS: usize = 2;

pub fn options() -> Options {
    Options { fsync: FsyncPolicy::EveryOp }
}

pub fn shard_dirs(dir: &Path) -> Vec<PathBuf> {
    (0..SHARDS).map(|s| dir.join(format!("shard-{s}"))).collect()
}

pub struct Served {
    pub cluster: Arc<Cluster>,
    servers: Vec<ClusterServer>,
    pub router: RouterClient,
    /// Served id of each corpus document, by corpus index.
    pub ids: Vec<DocId>,
    pub setup: Duration,
    dir: PathBuf,
}

impl Served {
    /// Start the servers in `dir`, then ingest every document the way a
    /// client would: SACX-parse its distributed XML and insert it over the
    /// wire. The whole of it is the set-up time.
    pub fn setup(inputs: &Inputs, dir: &Path) -> Result<Served> {
        let start = Instant::now();
        let cluster = Arc::new(Cluster::open(shard_dirs(dir), options())?);
        let servers = (0..SHARDS)
            .map(|s| {
                ClusterServer::bind_shard(
                    Arc::clone(&cluster),
                    ShardId(s),
                    "127.0.0.1:0",
                    ServerOptions::default(),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs: Vec<_> = servers.iter().map(ClusterServer::addr).collect();
        let router = RouterClient::connect(&addrs, ClientOptions::default())?;
        let mut ids = Vec::with_capacity(inputs.docs.len());
        for (doc, &epoch) in inputs.docs.iter().zip(&inputs.script.epochs) {
            let id = router.insert_named(&doc.name, &doc.parse())?;
            let served = router.epoch(id)?;
            if served != epoch {
                return Err(format!("{} ingested at epoch {served}, not {epoch}", doc.name).into());
            }
            ids.push(id);
        }
        let setup = start.elapsed();
        Ok(Served { cluster, servers, router, ids, setup, dir: dir.to_path_buf() })
    }

    /// Documents whose wire export differs from the oracle's.
    pub fn verify_exports(&self, inputs: &Inputs) -> Vec<String> {
        let mut bad = Vec::new();
        for (i, &id) in self.ids.iter().enumerate() {
            match self.router.export(id) {
                Ok(text) if text == inputs.script.exports[i] => {}
                Ok(_) => bad.push(format!("wire export of {} differs", inputs.docs[i].name)),
                Err(e) => bad.push(format!("wire export of {}: {e}", inputs.docs[i].name)),
            }
        }
        bad
    }

    /// Stop serving and drop the cluster, leaving its directories.
    pub fn stop(self) -> (PathBuf, Vec<DocId>) {
        let Served { cluster, servers, router, ids, dir, .. } = self;
        for s in servers {
            s.shutdown();
        }
        drop(router);
        drop(cluster);
        (dir, ids)
    }

    /// Stop serving and remove the directories.
    pub fn teardown(self) {
        let (dir, _) = self.stop();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `Cluster::open` on a stopped stack's directories (opening replays the
/// log and rewrites nothing, so every open recovers the same state), timed,
/// with each document checked against the oracle.
pub fn recover(
    dir: &Path,
    ids: &[DocId],
    inputs: &Inputs,
) -> Result<(Duration, Cluster, Vec<String>)> {
    let start = Instant::now();
    let cluster = Cluster::open(shard_dirs(dir), options())?;
    let took = start.elapsed();
    let mut bad = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        match cluster.with_doc(id, cxml::sacx::export_standoff) {
            Ok(text) if text == inputs.script.exports[i] => {}
            _ => bad.push(format!("recovered {} differs", inputs.docs[i].name)),
        }
    }
    Ok((took, cluster, bad))
}

/// A fresh follower per shard, each over its own `TcpReplServer`, caught
/// up to the head and checked. The time covers both shards, one after the
/// other.
pub fn catch_up(cluster: &Cluster, ids: &[DocId], inputs: &Inputs) -> Result<CatchUp> {
    let mut out = CatchUp::default();
    for s in 0..SHARDS {
        let primary = cluster.primary(ShardId(s))?;
        let (batches, snapshots) = (primary.batches_shipped(), primary.snapshots_shipped());
        let server = TcpReplServer::bind(Arc::clone(&primary), "127.0.0.1:0")?;
        let start = Instant::now();
        let replica = Arc::new(ReplicaStore::new());
        let mut follower =
            Follower::new(Arc::clone(&replica), TcpTransport::connect(server.addr())?);
        let caught = follower.catch_up();
        out.time += start.elapsed();
        drop(follower);
        server.shutdown();
        out.records += caught?;
        out.batches += primary.batches_shipped() - batches;
        out.snapshots += primary.snapshots_shipped() - snapshots;
        for (i, &id) in ids.iter().enumerate() {
            if cluster.shard_of(id) != ShardId(s) {
                continue;
            }
            match replica.store().with_doc(id, cxml::sacx::export_standoff) {
                Ok(text) if text == inputs.script.exports[i] => {}
                _ => {
                    out.mismatches.push(format!("follower copy of {} differs", inputs.docs[i].name))
                }
            }
        }
    }
    Ok(out)
}

#[derive(Default)]
pub struct CatchUp {
    pub time: Duration,
    pub records: u64,
    pub batches: u64,
    pub snapshots: u64,
    pub mismatches: Vec<String>,
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
