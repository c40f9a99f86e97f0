//! End-to-end service-tier tests: every verb over a real socket, typed
//! failure passthrough (stale, shard-down, timeout, injected, panic,
//! deadline), and the shard-scoped server + router client pair.

mod common;

use common::{manuscript, open_cluster, TempDir};
use cxcluster::ShardId;
use cxfault::{Fault, Trigger};
use cxserve::{
    Client, ClientOptions, ClusterServer, RouterClient, ServeError, ServerOptions, WireError,
    SERVE_REQUEST_SITE,
};
use cxstore::EditOp;
use std::sync::Arc;
use std::time::Duration;

fn client(server: &ClusterServer) -> Client {
    Client::connect(server.addr(), ClientOptions::default()).unwrap()
}

#[test]
fn every_verb_over_a_real_socket() {
    // Serialized against the fault test: its armed `serve.request` site
    // would otherwise fire on this test's requests.
    let _fp = cxfault::Scenario::setup();
    let dir = TempDir::new("verbs");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = client(&server);

    c.ping().unwrap();

    // Insert (anonymous + named), resolve, and read back.
    let g = manuscript(50, 21);
    let local_export = sacx::export_standoff(&g);
    let a = c.insert(&g).unwrap();
    let b = c.insert_named("ms-b", &manuscript(40, 23)).unwrap();
    assert_ne!(a, b);
    assert_eq!(c.id_by_name("ms-b").unwrap(), b);
    assert_eq!(c.export(a).unwrap(), local_export, "export is byte-identical over the wire");

    // Queries: per-doc, fan-out, partial.
    let words = c.query(a, "//w").unwrap();
    assert!(!words.is_empty());
    assert_eq!(words, cluster.query(a, "//w").unwrap());
    let hits = c.query_all("//w").unwrap();
    assert_eq!(hits.len(), 2);
    let (phits, perrs) = c.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert_eq!(phits.len(), 2);
    assert!(perrs.is_empty());

    // Suggestions against a span.
    let (s, e) = cluster.with_doc(a, |g| g.char_range(g.find_elements("w")[0])).unwrap();
    assert_eq!(
        c.suggest_tags(a, "ling", s, e).unwrap(),
        cluster.suggest_tags(a, "ling", s, e).unwrap()
    );

    // Edits: unguarded, guarded, stale-guard refusal.
    let e0 = c.epoch(a).unwrap();
    let out = c.edit(a, EditOp::InsertText { offset: 0, text: "x".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 1);
    let out =
        c.edit_guarded(a, e0 + 1, EditOp::InsertText { offset: 0, text: "y".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 2);
    let stale = c.edit_guarded(a, e0, EditOp::InsertText { offset: 0, text: "z".into() });
    match stale {
        Err(ServeError::Remote(WireError::Stale { current })) => assert_eq!(current, e0 + 2),
        other => panic!("expected stale refusal, got {other:?}"),
    }

    // A gate rejection crosses the wire as a typed store error.
    let reject = c.edit(
        a,
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "nonsense-tag".into(),
            attrs: Vec::new(),
            start: 0,
            end: 1,
        },
    );
    assert!(matches!(reject, Err(ServeError::Remote(WireError::Store(_)))), "{reject:?}");

    // Metrics page includes both the storage stack and the server.
    let page = c.metrics().unwrap();
    assert!(page.contains("cx_server_requests_total"), "{page}");
    assert!(page.contains("cx_cluster") || page.contains("cx_"), "{page}");

    // Routing view.
    let (shards, overrides) = c.routes().unwrap();
    assert_eq!(shards, 2);
    assert!(overrides.is_empty());

    // Remove: true once, false after.
    assert!(c.remove(b).unwrap());
    assert!(!c.remove(b).unwrap());

    drop(c);
    server.shutdown();
}

#[test]
fn typed_cluster_failures_cross_the_wire() {
    // Serialized against the fault test: its armed `serve.request` site
    // would otherwise fire on this test's requests.
    let _fp = cxfault::Scenario::setup();
    let dir = TempDir::new("typed");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = client(&server);

    let mut on_down = None;
    for i in 0.. {
        let id = c.insert(&manuscript(25, 100 + i)).unwrap();
        if cluster.shard_of(id) == ShardId(1) {
            on_down = Some(id);
            break;
        }
    }
    let on_down = on_down.unwrap();

    cluster.mark_shard_down(ShardId(1)).unwrap();
    // A write routed to the down shard fails fast and typed.
    let miss = c.edit(on_down, EditOp::InsertText { offset: 0, text: "x".into() });
    assert!(matches!(miss, Err(ServeError::Remote(WireError::ShardDown(1)))), "{miss:?}");
    // Partial fan-out reports the down shard per-entry.
    let (_, errs) = c.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert!(errs.iter().any(|(s, e)| *s == 1 && matches!(e, WireError::ShardDown(1))), "{errs:?}");
    // All-or-nothing fan-out refuses as a whole.
    let all = c.query_all("//w");
    assert!(matches!(all, Err(ServeError::Remote(WireError::ShardDown(1)))), "{all:?}");
    cluster.heal_shard(ShardId(1)).unwrap();
    assert_eq!(c.query_all("//w").unwrap().len(), {
        let mut n = 0;
        for _ in cluster.doc_ids() {
            n += 1;
        }
        n
    });

    drop(c);
    server.shutdown();
}

#[test]
fn injected_faults_deadlines_and_panics_are_contained() {
    let _fp = cxfault::Scenario::setup();
    let dir = TempDir::new("faults");
    let cluster = open_cluster(&dir, 1);
    let opts = ServerOptions { deadline: Duration::from_millis(300), ..ServerOptions::default() };
    let server = ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", opts).unwrap();
    let c = client(&server);
    let id = c.insert(&manuscript(30, 31)).unwrap();

    // An injected request error arrives typed (observed on a zero-retry
    // client — the default client absorbs transient refusals itself).
    let raw =
        Client::connect(server.addr(), ClientOptions { retries: 0, ..ClientOptions::default() })
            .unwrap();
    cxfault::configure(SERVE_REQUEST_SITE, Trigger::Nth(1), Fault::Io);
    let hit = raw.query(id, "//w");
    assert!(matches!(hit, Err(ServeError::Remote(WireError::Injected(_)))), "{hit:?}");
    assert!(!c.query(id, "//w").unwrap().is_empty());

    // The default client retries straight through a one-shot injection:
    // injected fires pre-decode, so the retry is safe even for writes.
    cxfault::configure(SERVE_REQUEST_SITE, Trigger::Nth(1), Fault::Io);
    assert!(!c.query(id, "//w").unwrap().is_empty(), "retry absorbed the injected fault");

    // A handler panic is caught: typed server error, connection lives.
    cxfault::configure(SERVE_REQUEST_SITE, Trigger::Nth(1), Fault::Panic);
    let hit = c.query(id, "//w");
    assert!(matches!(hit, Err(ServeError::Remote(WireError::Server(_)))), "{hit:?}");
    assert!(!c.query(id, "//w").unwrap().is_empty());

    // A stall past the deadline comes back as a typed deadline error
    // (driven on the raw client so the retry machinery stays out of it).
    cxfault::configure(
        SERVE_REQUEST_SITE,
        Trigger::Nth(1),
        Fault::Delay(Duration::from_millis(600)),
    );
    let hit = raw.query(id, "//w");
    assert!(matches!(hit, Err(ServeError::Remote(WireError::Deadline { .. }))), "{hit:?}");

    // A guarded edit refused by the deadline recovers via the epoch
    // probe instead of double-applying.
    let e0 = c.epoch(id).unwrap();
    cxfault::configure(
        SERVE_REQUEST_SITE,
        Trigger::Nth(1),
        Fault::Delay(Duration::from_millis(600)),
    );
    let out = c.edit_guarded(id, e0, EditOp::InsertText { offset: 0, text: "d".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 1);
    assert_eq!(c.epoch(id).unwrap(), e0 + 1, "the edit applied exactly once");

    drop(c);
    drop(raw);
    server.shutdown();
}

#[test]
fn shard_scoped_servers_and_the_router_client() {
    // Serialized against the fault test: its armed `serve.request` site
    // would otherwise fire on this test's requests.
    let _fp = cxfault::Scenario::setup();
    let dir = TempDir::new("router");
    let cluster = open_cluster(&dir, 3);
    let servers: Vec<ClusterServer> = (0..3)
        .map(|s| {
            ClusterServer::bind_shard(
                Arc::clone(&cluster),
                ShardId(s),
                "127.0.0.1:0",
                ServerOptions::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let router = RouterClient::connect(&addrs, ClientOptions::default()).unwrap();
    assert_eq!(router.shard_count(), 3);

    // Inserts round-robin across shard endpoints; each shard-scoped
    // server mints ids in its own residue class.
    let mut docs = Vec::new();
    for i in 0..6 {
        let id = router.insert(&manuscript(25, 300 + i)).unwrap();
        docs.push(id);
    }
    for s in 0..3 {
        assert!(
            docs.iter().any(|d| cluster.shard_of(*d) == ShardId(s)),
            "round-robin reached shard {s}"
        );
    }
    for d in &docs {
        assert_eq!(router.shard_of(*d), cluster.shard_of(*d).0, "client-side routing agrees");
    }

    // Per-document traffic goes straight to the owner.
    for d in &docs {
        assert_eq!(router.query(*d, "//w").unwrap(), cluster.query(*d, "//w").unwrap());
        assert_eq!(
            router.export(*d).unwrap(),
            cluster.with_doc(*d, sacx::export_standoff).unwrap()
        );
        let e = router.epoch(*d).unwrap();
        let out =
            router.edit_guarded(*d, e, EditOp::InsertText { offset: 0, text: "r".into() }).unwrap();
        assert_eq!(out.epoch, e + 1);
    }

    // Fan-out across shard endpoints merges the whole corpus.
    let hits = router.query_all("//w").unwrap();
    assert_eq!(hits.len(), docs.len());
    let mut sorted = hits.clone();
    sorted.sort_by_key(|(id, _)| *id);
    assert_eq!(hits, sorted, "merged hits are id-sorted");
    let (phits, perrs) = router.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert_eq!(phits.len(), docs.len());
    assert!(perrs.is_empty());

    // Asking the wrong shard directly earns a typed wrong_shard with
    // the real owner inside.
    let d0 = docs[0];
    let owner = cluster.shard_of(d0).0;
    let not_owner = (owner + 1) % 3;
    let direct = Client::connect(addrs[not_owner], ClientOptions::default()).unwrap();
    let refusal = direct.query(d0, "//w");
    match refusal {
        Err(ServeError::Remote(WireError::WrongShard { owner: o })) => assert_eq!(o, owner),
        other => panic!("expected wrong_shard, got {other:?}"),
    }

    // After a relocation, the router learns the new owner lazily from
    // the wrong_shard refusal and the retry succeeds.
    let dest = ShardId((cluster.shard_of(d0).0 + 1) % 3);
    cluster.move_doc(d0, dest).unwrap();
    assert_eq!(router.shard_of(d0), owner, "router still believes the old owner");
    assert_eq!(router.query(d0, "//w").unwrap(), cluster.query(d0, "//w").unwrap());
    assert_eq!(router.shard_of(d0), dest.0, "the refusal taught the router the new owner");

    // A fresh router picks the override up from the routes verb.
    let fresh = RouterClient::connect(&addrs, ClientOptions::default()).unwrap();
    assert_eq!(fresh.shard_of(d0), dest.0);

    // The per-shard metrics pages each carry their own server labels.
    let page = router.metrics(0).unwrap();
    assert!(page.contains("cx_server_requests_total"), "{page}");

    drop(router);
    drop(fresh);
    drop(direct);
    for s in servers {
        s.shutdown();
    }
}
