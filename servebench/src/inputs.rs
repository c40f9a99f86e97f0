//! Seeded inputs: the corpus, each workload's fixed op script, and the
//! expected result of every step.
//!
//! The script is generated against an in-memory `cxstore::Store` replica
//! (the oracle): every edit is applied there once, so an insert the gate
//! would reject is replaced by another candidate before the run, and every
//! query's node set and every document's final stand-off export are known
//! before the served stack sees the first request.

use cxml::cxstore::{DocId, EditOp, Store};
use cxml::goddag::{Goddag, HierarchyId, NodeId};
use std::collections::HashMap;

/// The editorial query set of `crates/bench/benches/query.rs`. Q7 there is
/// `count(…)`; the wire answers node sets only, so Q7 fetches the node set
/// the count is taken over, and its size is the count.
pub const QUERIES: [(&str, &str); 8] = [
    ("Q1", "//ling:w"),
    ("Q2", "//line[@n='5']"),
    ("Q3", "//s/overlapping::phys:line"),
    ("Q4", "//dmg/overlapping::ling:w"),
    ("Q5", "//dmg/contained::ling:w"),
    ("Q6", "//dmg/containing::*"),
    ("Q7", "//s[overlapping::phys:line]"),
    ("Q8", "//ling:w[contains(string(.), 'th')]"),
];

/// Steps of the script per unit of `--seconds`. On a 2-CPU x86-64
/// container a unit takes about 1 s of `annotate` and 0.7 s of the
/// 4k-word workloads, whose runs also pay nine restores of the whole
/// corpus (set-ups, recovery, catch-up). The count is fixed by the
/// arguments, never by the clock, so a faster program finishes the same
/// script sooner and replays the same log.
const ANNOTATE_PAIRS_PER_S: usize = 40;
const QUERIES_PER_S: usize = 130;
const EDIT_QUERY_ROUNDS_PER_S: usize = 30;
/// A fan-out after this many routed queries, in `query` and `edit_query`.
const FANOUT_EVERY: usize = 32;
/// Fan-outs all evaluate Q4, so their latencies are one distribution.
pub const FANOUT_QUERY: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Annotate,
    Query,
    EditQuery,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "annotate" => Some(Workload::Annotate),
            "query" => Some(Workload::Query),
            "edit_query" => Some(Workload::EditQuery),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Annotate => "annotate",
            Workload::Query => "query",
            Workload::EditQuery => "edit_query",
        }
    }

    /// `(documents, words per document)` of the measured mix.
    pub fn corpus(self) -> (usize, usize) {
        match self {
            Workload::Annotate => (16, 500),
            Workload::Query | Workload::EditQuery => (8, 4_000),
        }
    }

    /// Recoveries, follower catch-ups and set-ups (at least three) per run;
    /// each metric is the median. Each one restores every document, which
    /// takes seconds on the 4k-word corpus and a fraction of a second on
    /// the 500-word one; a median of three still rides out a slow spell of
    /// the host that a single sample would report.
    pub fn repeats(self) -> usize {
        match self {
            Workload::Annotate => 21,
            Workload::Query | Workload::EditQuery => 3,
        }
    }
}

/// splitmix64 (`cxfault`'s), wrapped for bounded draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (cxml::cxfault::splitmix64(&mut self.0) % n as u64) as usize
    }
}

/// One corpus document in its distributed form (one XML text per
/// hierarchy), as a client would hold it before ingest.
pub struct Doc {
    pub name: String,
    pub xml: Vec<(String, String)>,
}

impl Doc {
    /// Client-side ingest: SACX-parse the distributed XML and attach the
    /// standard DTDs.
    pub fn parse(&self) -> Goddag {
        let mut g = cxml::sacx::parse_distributed(&self.xml).expect("generated XML parses");
        cxml::corpus::dtds::attach_standard(&mut g);
        g
    }
}

/// A manuscript of `words` words with all three hierarchies, DTDs attached.
pub fn manuscript(words: usize, seed: u64) -> Goddag {
    let params = cxml::corpus::Params { words, seed, ..cxml::corpus::Params::default() };
    let mut g = cxml::corpus::generate(&params).goddag;
    cxml::corpus::dtds::attach_standard(&mut g);
    g
}

/// The workload's documents.
pub fn corpus(workload: Workload, seed: u64) -> Vec<Doc> {
    let (docs, words) = workload.corpus();
    let mut rng = seed ^ 0x5EED_0FC0_4B05;
    (0..docs)
        .map(|i| {
            let doc_seed = cxml::cxfault::splitmix64(&mut rng);
            let params = cxml::corpus::Params { words, seed: doc_seed, ..Default::default() };
            let xml = cxml::corpus::generate(&params).distributed();
            Doc { name: format!("{}-{i}", workload.name()), xml }
        })
        .collect()
}

/// An edit as the script states it. `RemoveInserted` names the element the
/// previous `Insert` on the same document created, whatever id it got.
#[derive(Clone, Debug)]
pub enum Edit {
    Insert { hierarchy: &'static str, tag: &'static str, start: usize, end: usize, root: bool },
    RemoveInserted,
    SetAttr { node: NodeId, name: &'static str, value: String },
    RemoveAttr { node: NodeId, name: &'static str },
    InsertText { offset: usize, text: &'static str },
    DeleteText { start: usize, end: usize },
}

impl Edit {
    pub fn to_op(&self, inserted: Option<NodeId>) -> EditOp {
        match self.clone() {
            Edit::Insert { hierarchy, tag, start, end, .. } => EditOp::InsertElement {
                hierarchy: hierarchy.into(),
                tag: tag.into(),
                attrs: Vec::new(),
                start,
                end,
            },
            Edit::RemoveInserted => {
                EditOp::RemoveElement(inserted.expect("script removes only what it inserted"))
            }
            Edit::SetAttr { node, name, value } => {
                EditOp::SetAttr { node, name: name.into(), value }
            }
            Edit::RemoveAttr { node, name } => EditOp::RemoveAttr { node, name: name.into() },
            Edit::InsertText { offset, text } => EditOp::InsertText { offset, text: text.into() },
            Edit::DeleteText { start, end } => EditOp::DeleteText { start, end },
        }
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Edit { doc: usize, edit: Edit },
    Query { doc: usize, q: usize },
    Fanout { q: usize },
}

/// A step and what a correct stack answers.
pub struct Step {
    pub op: Op,
    /// Node set of a query, per document (by corpus index) for a fan-out;
    /// empty for edits, whose check is the epoch chain.
    pub expect: Vec<Vec<NodeId>>,
}

pub struct Script {
    pub steps: Vec<Step>,
    /// Each document's stand-off export after the whole script.
    pub exports: Vec<String>,
    /// Each document's edit epoch before the script.
    pub epochs: Vec<u64>,
}

/// The corpus, its script, and the oracle it was checked on.
pub struct Inputs {
    pub workload: Workload,
    pub docs: Vec<Doc>,
    pub script: Script,
}

pub fn build(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let docs = corpus(workload, seed);
    let oracle = Store::new();
    let ids: Vec<DocId> = docs.iter().map(|d| oracle.insert_named(&d.name, d.parse())).collect();
    let epochs = ids.iter().map(|&id| oracle.epoch(id).expect("live doc")).collect();
    let mut gen = Generator {
        oracle,
        ids,
        rng: Rng::new(seed ^ 0x0005_C819_7000),
        steps: Vec::new(),
        inserted: vec![None; docs.len()],
        memo: HashMap::new(),
        root_pool: vec![Vec::new(); docs.len()],
    };
    let n = workload.corpus().0;
    let seconds = seconds as usize;
    let mut asked = 0usize;
    // Q1..Q8 in turn, and a fan-out after every `FANOUT_EVERY` of them.
    let mut query = |gen: &mut Generator, doc: usize| {
        gen.query(doc, asked % QUERIES.len());
        asked += 1;
        if asked % FANOUT_EVERY == 0 {
            gen.fanout();
        }
    };
    match workload {
        Workload::Annotate => {
            for k in 0..seconds * ANNOTATE_PAIRS_PER_S {
                let doc = gen.rng.below(n);
                match k % 4 {
                    0 => gen.insert_pair(doc, false),
                    1 => gen.insert_pair(doc, true),
                    2 => gen.attr_pair(doc, k),
                    _ => gen.text_pair(doc),
                }
            }
        }
        Workload::Query => {
            for _ in 0..seconds * QUERIES_PER_S {
                let doc = gen.rng.below(n);
                query(&mut gen, doc);
            }
        }
        Workload::EditQuery => {
            for round in 0..seconds * EDIT_QUERY_ROUNDS_PER_S {
                let doc = round % n;
                gen.text_pair(doc);
                for _ in 0..4 {
                    query(&mut gen, doc);
                }
            }
        }
    }
    let exports = gen
        .ids
        .iter()
        .map(|&id| gen.oracle.with_doc(id, cxml::sacx::export_standoff).expect("live doc"))
        .collect();
    Inputs { workload, docs, script: Script { steps: gen.steps, exports, epochs } }
}

struct Generator {
    oracle: Store,
    ids: Vec<DocId>,
    rng: Rng,
    steps: Vec<Step>,
    inserted: Vec<Option<NodeId>>,
    /// `(doc, epoch, query)` → node set.
    memo: HashMap<(usize, u64, usize), Vec<NodeId>>,
    /// Per document: words checked for a root-level insert.
    root_pool: Vec<Vec<(usize, usize)>>,
}

impl Generator {
    fn doc<R>(&self, doc: usize, f: impl FnOnce(&Goddag) -> R) -> R {
        self.oracle.with_doc(self.ids[doc], f).expect("live doc")
    }

    /// Apply on the oracle through the gate; `false` if the store refuses it.
    fn apply(&mut self, doc: usize, edit: Edit) -> bool {
        match self.oracle.edit(self.ids[doc], edit.to_op(self.inserted[doc])) {
            Ok(out) => {
                if matches!(edit, Edit::Insert { .. }) {
                    self.inserted[doc] = out.node;
                }
                self.push(doc, edit);
                true
            }
            Err(_) => false,
        }
    }

    fn push(&mut self, doc: usize, edit: Edit) {
        self.steps.push(Step { op: Op::Edit { doc, edit }, expect: Vec::new() });
    }

    /// An element insert followed by its removal: `ling:phrase` over two
    /// adjacent words of one sentence, or (`root`) `edit:add` over one word
    /// that no damage or restoration touches, whose host is the root.
    ///
    /// A root-level check costs tens of milliseconds, so each document
    /// draws its root-level inserts from a pool of `ROOT_POOL` words, each
    /// checked by the gate when first drawn. Documents are back in their
    /// starting state between pairs, so a checked word stays valid and its
    /// later inserts are applied to the oracle without the gate.
    fn insert_pair(&mut self, doc: usize, root: bool) {
        const ROOT_POOL: usize = 2;
        if root && self.root_pool[doc].len() == ROOT_POOL {
            let (start, end) = self.root_pool[doc][self.rng.below(ROOT_POOL)];
            let edit = Edit::Insert { hierarchy: "edit", tag: "add", start, end, root };
            let out = self.oracle.apply_replicated(self.ids[doc], edit.to_op(None));
            self.inserted[doc] = out.expect("a checked insert applies again").node;
            self.push(doc, edit);
            assert!(self.apply(doc, Edit::RemoveInserted), "removing an inserted element");
            return;
        }
        for _ in 0..64 {
            let pick = self.rng.below(usize::MAX);
            let range =
                self.doc(doc, |g| if root { root_word(g, pick) } else { two_words(g, pick) });
            let Some((start, end)) = range else { continue };
            let (hierarchy, tag) = if root { ("edit", "add") } else { ("ling", "phrase") };
            if self.apply(doc, Edit::Insert { hierarchy, tag, start, end, root }) {
                if root {
                    self.root_pool[doc].push((start, end));
                }
                assert!(self.apply(doc, Edit::RemoveInserted), "removing an inserted element");
                return;
            }
        }
        panic!("no valid insert candidate in doc {doc}");
    }

    fn attr_pair(&mut self, doc: usize, k: usize) {
        let pick = self.rng.below(usize::MAX);
        let node = self.doc(doc, |g| {
            let h = g.hierarchy_by_name("phys").expect("phys hierarchy");
            let lines = named(g, h, "line");
            lines[pick % lines.len()]
        });
        let value = format!("h{}", k % 97);
        assert!(self.apply(doc, Edit::SetAttr { node, name: "rend", value }));
        assert!(self.apply(doc, Edit::RemoveAttr { node, name: "rend" }));
    }

    fn text_pair(&mut self, doc: usize) {
        const TEXT: &str = "ond ";
        let pick = self.rng.below(usize::MAX);
        let offset = self.doc(doc, |g| {
            let h = g.hierarchy_by_name("ling").expect("ling hierarchy");
            let words = named(g, h, "w");
            g.char_range(words[pick % words.len()]).0
        });
        assert!(self.apply(doc, Edit::InsertText { offset, text: TEXT }));
        let end = offset + TEXT.len();
        assert!(self.apply(doc, Edit::DeleteText { start: offset, end }));
    }

    fn nodes(&mut self, doc: usize, q: usize) -> Vec<NodeId> {
        let id = self.ids[doc];
        let epoch = self.oracle.epoch(id).expect("live doc");
        let oracle = &self.oracle;
        self.memo
            .entry((doc, epoch, q))
            .or_insert_with(|| oracle.query(id, QUERIES[q].1).expect("query evaluates"))
            .clone()
    }

    fn query(&mut self, doc: usize, q: usize) {
        let expect = vec![self.nodes(doc, q)];
        self.steps.push(Step { op: Op::Query { doc, q }, expect });
    }

    fn fanout(&mut self) {
        let q = FANOUT_QUERY;
        let expect = (0..self.ids.len()).map(|d| self.nodes(d, q)).collect();
        self.steps.push(Step { op: Op::Fanout { q }, expect });
    }
}

/// Elements of hierarchy `h` named `local`, in document order.
pub fn named(g: &Goddag, h: HierarchyId, local: &str) -> Vec<NodeId> {
    g.elements_in(h).filter(|&e| g.name(e).is_some_and(|q| q.local == local)).collect()
}

/// Byte range of two adjacent `w` children of one `s`.
pub fn two_words(g: &Goddag, pick: usize) -> Option<(usize, usize)> {
    let h = g.hierarchy_by_name("ling")?;
    let sentences = named(g, h, "s");
    let s = sentences[pick % sentences.len()];
    let words: Vec<NodeId> = g
        .children_in(s, h)
        .iter()
        .copied()
        .filter(|&c| g.name(c).is_some_and(|q| q.local == "w"))
        .collect();
    if words.len() < 2 {
        return None;
    }
    let i = (pick / sentences.len()) % (words.len() - 1);
    Some((g.char_range(words[i]).0, g.char_range(words[i + 1]).1))
}

/// Byte range of one word that no editorial element overlaps, so an
/// `edit`-hierarchy element over it is hosted by the root.
pub fn root_word(g: &Goddag, pick: usize) -> Option<(usize, usize)> {
    let ling = g.hierarchy_by_name("ling")?;
    let edit = g.hierarchy_by_name("edit")?;
    let marked: Vec<(usize, usize)> = g.elements_in(edit).map(|e| g.char_range(e)).collect();
    let free: Vec<(usize, usize)> = named(g, ling, "w")
        .into_iter()
        .map(|w| g.char_range(w))
        .filter(|&(s, e)| marked.iter().all(|&(ms, me)| e <= ms || me <= s))
        .collect();
    (!free.is_empty()).then(|| free[pick % free.len()])
}
