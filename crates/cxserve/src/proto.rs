//! The versioned wire protocol: store operations as text payloads inside
//! length-prefixed [`cxwire`] frames.
//!
//! One request per frame, one response per frame, answered in order per
//! connection (which is what makes client-side pipelining work: write
//! *k* requests, read *k* responses). The payload is a line of
//! space-separated tokens — strings as [`sacx::encode_token`]s and edit
//! ops as [`sacx::encode_op`] lines, exactly like the WAL's — optionally
//! followed by a newline and a raw text body (document blobs, stand-off
//! exports, metrics pages), so bulky artifacts ride unescaped:
//!
//! ```text
//! request  := "cxq1 " verb tokens… ["\n" body]
//! response := ("ok " tokens… ["\n" body]) | ("err " kind tokens…)
//! ```
//!
//! The leading `cxq1` is the protocol version: a server refuses anything
//! else with a typed `bad_request`, so a v2 client talking to a v1 server
//! fails loudly at the first exchange instead of misparsing.
//!
//! Error frames are **typed** — `shard_down`, `timeout`, `stale`,
//! `wrong_shard`, … — so a client can react structurally (refresh its
//! routing table, treat a CAS replay as already-applied) instead of
//! grepping a message.
//!
//! **Trace propagation.** Any request line may end with an optional
//! `tc <trace_id>-<span_id>` token pair ([`Request::encode_traced`]):
//! the client's current [`cxtrace::TraceContext`] riding the frame so
//! the server's handler span joins the caller's trace. The extension is
//! version-negotiated for free by `cxq1`'s grammar — every verb parser
//! ignores trailing tokens, so an old server drops the pair silently
//! and an old client simply never sends one; the wire bytes without
//! tracing enabled are identical to the pre-trace protocol.

use crate::error::WireError;
use cxpersist::DocBlob;
use cxstore::{DocId, EditOp};
use goddag::NodeId;
use sacx::{decode_op, decode_token, encode_op, encode_token};
use std::fmt::Write as _;

/// Version sentinel opening every request line.
pub const VERSION: &str = "cxq1";

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe (the pool uses it to vet a revived connection).
    Ping,
    /// Add a document (the blob rides as the body), optionally named.
    Insert {
        /// Cluster-wide name to bind, if any.
        name: Option<String>,
        /// The serialized document.
        blob: DocBlob,
    },
    /// One gated edit. `guard` is an optional compare-and-set epoch: the
    /// server applies the op only when the document's current epoch
    /// equals it, refusing with [`WireError::Stale`] otherwise — which is
    /// what makes a blind retry after a dead connection safe (a replayed
    /// edit that already applied comes back `Stale { current: guard+1 }`
    /// instead of applying twice).
    Edit {
        /// Target document.
        doc: DocId,
        /// Expected pre-op epoch, if the client wants CAS semantics.
        guard: Option<u64>,
        /// The operation.
        op: EditOp,
    },
    /// Evaluate a node-set expression against one document.
    Query {
        /// Target document.
        doc: DocId,
        /// expath expression.
        expr: String,
    },
    /// Fan-out query over every document (all-or-nothing; the server
    /// runs it under its request deadline and fails typed on a sick or
    /// slow shard).
    QueryAll {
        /// expath expression.
        expr: String,
    },
    /// Fan-out query that tolerates sick shards: hits from whoever
    /// answered inside `timeout_ms`, typed per-shard errors for the rest.
    QueryPartial {
        /// Per-shard budget in milliseconds (clamped by the server's own
        /// deadline).
        timeout_ms: u64,
        /// expath expression.
        expr: String,
    },
    /// Editor tag suggestions for a span.
    Suggest {
        /// Target document.
        doc: DocId,
        /// Hierarchy name.
        hierarchy: String,
        /// Content range start.
        start: usize,
        /// Content range end (exclusive).
        end: usize,
    },
    /// The document's stand-off export.
    Export {
        /// Target document.
        doc: DocId,
    },
    /// Resolve a cluster-wide name.
    IdByName {
        /// The name.
        name: String,
    },
    /// A document's current edit epoch.
    Epoch {
        /// Target document.
        doc: DocId,
    },
    /// Drop a document (and its name bindings).
    Remove {
        /// Target document.
        doc: DocId,
    },
    /// The server's full `cxobs` exposition page.
    Metrics,
    /// The routing view: shard count plus the override table, so a
    /// stateless router client can compute `shard_of` locally.
    Routes,
    /// Flight-recorder access: recent/slow trace summaries, or one
    /// trace rendered as a tree.
    Trace(TraceQuery),
}

/// What a `trace` request asks the flight recorder for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceQuery {
    /// The newest ordinary completed traces (summaries, newest first).
    Recent {
        /// Maximum summaries to return.
        limit: usize,
    },
    /// The retained slow/error traces (summaries, newest first).
    Slow {
        /// Maximum summaries to return.
        limit: usize,
    },
    /// One trace by id, rendered as an indented tree with per-span
    /// self-time.
    Get {
        /// The trace to fetch.
        trace_id: u64,
    },
}

/// One trace summary as it crosses the wire (the `&'static str` root
/// name of [`cxtrace::TraceSummary`] becomes owned text here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummaryWire {
    /// The id to fetch the full tree with.
    pub trace_id: u64,
    /// The root span's name.
    pub root: String,
    /// Earliest span start, ns since the serving process's trace epoch.
    pub start_ns: u64,
    /// Whole-trace wall time, ns.
    pub duration_ns: u64,
    /// Recorded span count.
    pub spans: usize,
    /// Classified slow by the serving process.
    pub slow: bool,
    /// Holds an error-annotated span.
    pub error: bool,
}

impl From<cxtrace::TraceSummary> for TraceSummaryWire {
    fn from(s: cxtrace::TraceSummary) -> TraceSummaryWire {
        TraceSummaryWire {
            trace_id: s.trace_id,
            root: s.root.to_string(),
            start_ns: s.start_ns,
            duration_ns: s.duration_ns,
            spans: s.spans,
            slow: s.slow,
            error: s.error,
        }
    }
}

/// One decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Ping` answered.
    Pong,
    /// A document handle (`Insert`, `IdByName`).
    Id(DocId),
    /// An applied edit: the created node (if any) and the post-op epoch.
    Edited {
        /// Node created by `InsertElement`.
        node: Option<NodeId>,
        /// The document's epoch after the edit.
        epoch: u64,
    },
    /// Per-document query hits.
    Nodes(Vec<NodeId>),
    /// Fan-out hits, id-sorted.
    Hits(Vec<(DocId, Vec<NodeId>)>),
    /// Partial fan-out: hits plus typed per-shard failures.
    Partial {
        /// Hits from the shards that answered.
        hits: Vec<(DocId, Vec<NodeId>)>,
        /// `(shard, why)` for every shard that did not.
        errors: Vec<(usize, WireError)>,
    },
    /// Tag suggestions.
    Tags(Vec<String>),
    /// A text artifact (stand-off export, metrics page).
    Text(String),
    /// An epoch.
    Epoch(u64),
    /// Whether `Remove` found a live document.
    Removed(bool),
    /// The routing view.
    Routes {
        /// Number of shards (the residue-class modulus).
        shards: usize,
        /// `(raw id, owning shard)` for every moved document.
        overrides: Vec<(u64, usize)>,
    },
    /// Flight-recorder summaries (`trace recent` / `trace slow`).
    Traces(Vec<TraceSummaryWire>),
    /// A typed failure.
    Err(WireError),
}

// ---------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------

fn bad(detail: impl Into<String>) -> WireError {
    WireError::BadRequest(detail.into())
}

/// One numeric token, or a typed parse failure naming what was expected.
fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, WireError> {
    tok.and_then(|s| s.parse().ok()).ok_or_else(|| bad(format!("expected {what}")))
}

fn tok<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, WireError> {
    it.next().ok_or_else(|| bad(format!("expected {what}")))
}

/// One [`encode_token`] string, decoded.
fn str_tok<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<String, WireError> {
    decode_token(tok(it, what)?).map_err(WireError::BadRequest)
}

/// Split a payload into its token line and optional raw body.
fn split_body(payload: &str) -> (&str, Option<&str>) {
    match payload.split_once('\n') {
        Some((line, body)) => (line, Some(body)),
        None => (payload, None),
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("{VERSION} ");
        match self {
            Request::Ping => out.push_str("ping"),
            Request::Insert { name, blob } => {
                match name {
                    Some(n) => {
                        let _ = write!(out, "insertn {}", encode_token(n));
                    }
                    None => out.push_str("insert"),
                }
                out.push('\n');
                out.push_str(&blob.to_text());
            }
            Request::Edit { doc, guard, op } => {
                let _ = write!(out, "edit {} ", doc.raw());
                match guard {
                    Some(g) => {
                        let _ = write!(out, "{g} ");
                    }
                    None => out.push_str("- "),
                }
                encode_op(&mut out, op);
            }
            Request::Query { doc, expr } => {
                let _ = write!(out, "query {} {}", doc.raw(), encode_token(expr));
            }
            Request::QueryAll { expr } => {
                let _ = write!(out, "qall {}", encode_token(expr));
            }
            Request::QueryPartial { timeout_ms, expr } => {
                let _ = write!(out, "qpart {timeout_ms} {}", encode_token(expr));
            }
            Request::Suggest { doc, hierarchy, start, end } => {
                let _ =
                    write!(out, "suggest {} {} {start} {end}", doc.raw(), encode_token(hierarchy));
            }
            Request::Export { doc } => {
                let _ = write!(out, "export {}", doc.raw());
            }
            Request::IdByName { name } => {
                let _ = write!(out, "name {}", encode_token(name));
            }
            Request::Epoch { doc } => {
                let _ = write!(out, "epoch {}", doc.raw());
            }
            Request::Remove { doc } => {
                let _ = write!(out, "remove {}", doc.raw());
            }
            Request::Metrics => out.push_str("metrics"),
            Request::Routes => out.push_str("routes"),
            Request::Trace(q) => match q {
                TraceQuery::Recent { limit } => {
                    let _ = write!(out, "trace recent {limit}");
                }
                TraceQuery::Slow { limit } => {
                    let _ = write!(out, "trace slow {limit}");
                }
                TraceQuery::Get { trace_id } => {
                    let _ = write!(out, "trace get {trace_id:016x}");
                }
            },
        }
        out.into_bytes()
    }

    /// [`Request::encode`] with the caller's trace context riding the
    /// frame as a trailing `tc <trace>-<span>` token pair (spliced
    /// before the body separator, so body-carrying verbs work too).
    /// `None` encodes identically to [`Request::encode`].
    pub fn encode_traced(&self, ctx: Option<cxtrace::TraceContext>) -> Vec<u8> {
        let bytes = self.encode();
        let Some(ctx) = ctx else { return bytes };
        let tok = format!(" tc {}", ctx.token());
        match bytes.iter().position(|&b| b == b'\n') {
            Some(i) => {
                // invariant: encode() emits only ASCII verbs, hex and
                // percent-escaped text, so the bytes are always utf-8.
                let mut s = String::from_utf8(bytes).expect("encode produces utf-8");
                s.insert_str(i, &tok);
                s.into_bytes()
            }
            None => {
                let mut bytes = bytes;
                bytes.extend_from_slice(tok.as_bytes());
                bytes
            }
        }
    }

    /// The verb token this request travels as — the label of the
    /// per-verb server metrics.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Insert { .. } => "insert",
            Request::Edit { .. } => "edit",
            Request::Query { .. } => "query",
            Request::QueryAll { .. } => "qall",
            Request::QueryPartial { .. } => "qpart",
            Request::Suggest { .. } => "suggest",
            Request::Export { .. } => "export",
            Request::IdByName { .. } => "name",
            Request::Epoch { .. } => "epoch",
            Request::Remove { .. } => "remove",
            Request::Metrics => "metrics",
            Request::Routes => "routes",
            Request::Trace(_) => "trace",
        }
    }

    /// Best-effort extraction of the `tc` token pair from a request
    /// payload — deliberately independent of [`Request::decode`], so a
    /// request that fails validation (or hits the injected-fault path
    /// before decoding) can still adopt its caller's trace. Scans the
    /// token line from the end; a verb argument that merely *looks*
    /// like `tc` never matches because the following token must parse
    /// as a well-formed context.
    pub fn trace_context(payload: &[u8]) -> Option<cxtrace::TraceContext> {
        let text = std::str::from_utf8(payload).ok()?;
        let (line, _) = split_body(text);
        let toks: Vec<&str> = line.split(' ').collect();
        toks.windows(2).rev().find_map(|w| {
            (w[0] == "tc").then(|| cxtrace::TraceContext::parse_token(w[1])).flatten()
        })
    }

    /// Parse a frame payload. Every failure is a typed
    /// [`WireError::BadRequest`] the server answers with — malformed
    /// input never panics a handler.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let text = std::str::from_utf8(payload).map_err(|_| bad("request is not utf-8"))?;
        let (line, body) = split_body(text);
        let mut it = line.split(' ');
        match it.next() {
            Some(v) if v == VERSION => {}
            Some(v) => return Err(bad(format!("unsupported protocol version `{v}`"))),
            None => return Err(bad("empty request")),
        }
        let doc_of = |t: &str| -> Result<DocId, WireError> {
            t.parse::<u64>().map(DocId::from_raw).map_err(|_| bad("expected document id"))
        };
        let req = match tok(&mut it, "verb")? {
            "ping" => Request::Ping,
            "insert" | "insertn" if body.is_none() => return Err(bad("insert carries no blob")),
            "insert" => Request::Insert {
                name: None,
                // invariant: the arm above rejects insert without a body.
                blob: DocBlob::parse_text(body.expect("checked above"))
                    .map_err(|e| bad(format!("blob: {e}")))?,
            },
            "insertn" => Request::Insert {
                name: Some(str_tok(&mut it, "name")?),
                // invariant: the arm above rejects insertn without a body.
                blob: DocBlob::parse_text(body.expect("checked above"))
                    .map_err(|e| bad(format!("blob: {e}")))?,
            },
            "edit" => {
                let doc = doc_of(tok(&mut it, "doc")?)?;
                let guard = match tok(&mut it, "guard")? {
                    "-" => None,
                    g => Some(g.parse::<u64>().map_err(|_| bad("expected guard epoch"))?),
                };
                Request::Edit { doc, guard, op: decode_op(&mut it).map_err(WireError::BadRequest)? }
            }
            "query" => Request::Query {
                doc: doc_of(tok(&mut it, "doc")?)?,
                expr: str_tok(&mut it, "expr")?,
            },
            "qall" => Request::QueryAll { expr: str_tok(&mut it, "expr")? },
            "qpart" => Request::QueryPartial {
                timeout_ms: num(it.next(), "timeout")?,
                expr: str_tok(&mut it, "expr")?,
            },
            "suggest" => Request::Suggest {
                doc: doc_of(tok(&mut it, "doc")?)?,
                hierarchy: str_tok(&mut it, "hierarchy")?,
                start: num(it.next(), "start")?,
                end: num(it.next(), "end")?,
            },
            "export" => Request::Export { doc: doc_of(tok(&mut it, "doc")?)? },
            "name" => Request::IdByName { name: str_tok(&mut it, "name")? },
            "epoch" => Request::Epoch { doc: doc_of(tok(&mut it, "doc")?)? },
            "remove" => Request::Remove { doc: doc_of(tok(&mut it, "doc")?)? },
            "metrics" => Request::Metrics,
            "routes" => Request::Routes,
            "trace" => Request::Trace(match tok(&mut it, "trace query")? {
                "recent" => TraceQuery::Recent { limit: num(it.next(), "limit")? },
                "slow" => TraceQuery::Slow { limit: num(it.next(), "limit")? },
                "get" => TraceQuery::Get {
                    trace_id: u64::from_str_radix(tok(&mut it, "trace id")?, 16)
                        .map_err(|_| bad("expected hex trace id"))?,
                },
                other => return Err(bad(format!("unknown trace query `{other}`"))),
            }),
            other => return Err(bad(format!("unknown verb `{other}`"))),
        };
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------

impl WireError {
    fn encode_tokens(&self, out: &mut String) {
        match self {
            WireError::Store(d) => {
                let _ = write!(out, "store {}", encode_token(d));
            }
            WireError::Stale { current } => {
                let _ = write!(out, "stale {current}");
            }
            WireError::ShardDown(s) => {
                let _ = write!(out, "shard_down {s}");
            }
            WireError::Timeout { shard, ms } => {
                let _ = write!(out, "timeout {shard} {ms}");
            }
            WireError::Unavailable { shard, detail } => {
                let _ = write!(out, "unavailable {shard} {}", encode_token(detail));
            }
            WireError::WrongShard { owner } => {
                let _ = write!(out, "wrong_shard {owner}");
            }
            WireError::Deadline { ms } => {
                let _ = write!(out, "deadline {ms}");
            }
            WireError::Injected(d) => {
                let _ = write!(out, "injected {}", encode_token(d));
            }
            WireError::BadRequest(d) => {
                let _ = write!(out, "bad_request {}", encode_token(d));
            }
            WireError::Busy => out.push_str("busy"),
            WireError::Server(d) => {
                let _ = write!(out, "server {}", encode_token(d));
            }
        }
    }

    fn decode_tokens<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<WireError, WireError> {
        Ok(match tok(it, "error kind")? {
            "store" => WireError::Store(str_tok(it, "detail")?),
            "stale" => WireError::Stale { current: num(it.next(), "epoch")? },
            "shard_down" => WireError::ShardDown(num(it.next(), "shard")?),
            "timeout" => {
                WireError::Timeout { shard: num(it.next(), "shard")?, ms: num(it.next(), "ms")? }
            }
            "unavailable" => WireError::Unavailable {
                shard: num(it.next(), "shard")?,
                detail: str_tok(it, "detail")?,
            },
            "wrong_shard" => WireError::WrongShard { owner: num(it.next(), "shard")? },
            "deadline" => WireError::Deadline { ms: num(it.next(), "ms")? },
            "injected" => WireError::Injected(str_tok(it, "detail")?),
            "bad_request" => WireError::BadRequest(str_tok(it, "detail")?),
            "busy" => WireError::Busy,
            "server" => WireError::Server(str_tok(it, "detail")?),
            other => return Err(bad(format!("unknown error kind `{other}`"))),
        })
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

fn encode_hit_line(out: &mut String, doc: DocId, nodes: &[NodeId]) {
    let _ = write!(out, "{} {}", doc.raw(), nodes.len());
    for n in nodes {
        let _ = write!(out, " {}", n.0);
    }
    out.push('\n');
}

fn decode_hit_line(line: &str) -> Result<(DocId, Vec<NodeId>), WireError> {
    let mut it = line.split(' ');
    let doc = DocId::from_raw(num(it.next(), "doc")?);
    let k: usize = num(it.next(), "node count")?;
    let mut nodes = Vec::with_capacity(k.min(1 << 16));
    for _ in 0..k {
        nodes.push(NodeId(num(it.next(), "node")?));
    }
    Ok((doc, nodes))
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            Response::Pong => out.push_str("ok pong"),
            Response::Id(id) => {
                let _ = write!(out, "ok id {}", id.raw());
            }
            Response::Edited { node, epoch } => match node {
                Some(n) => {
                    let _ = write!(out, "ok edited {} {epoch}", n.0);
                }
                None => {
                    let _ = write!(out, "ok edited - {epoch}");
                }
            },
            Response::Nodes(nodes) => {
                let _ = write!(out, "ok nodes {}", nodes.len());
                for n in nodes {
                    let _ = write!(out, " {}", n.0);
                }
            }
            Response::Hits(hits) => {
                let _ = writeln!(out, "ok hits {}", hits.len());
                for (doc, nodes) in hits {
                    encode_hit_line(&mut out, *doc, nodes);
                }
            }
            Response::Partial { hits, errors } => {
                let _ = writeln!(out, "ok partial {} {}", hits.len(), errors.len());
                for (doc, nodes) in hits {
                    encode_hit_line(&mut out, *doc, nodes);
                }
                for (shard, err) in errors {
                    let _ = write!(out, "{shard} ");
                    err.encode_tokens(&mut out);
                    out.push('\n');
                }
            }
            Response::Tags(tags) => {
                let _ = write!(out, "ok tags {}", tags.len());
                for t in tags {
                    let _ = write!(out, " {}", encode_token(t));
                }
            }
            Response::Text(text) => {
                out.push_str("ok text\n");
                out.push_str(text);
            }
            Response::Epoch(e) => {
                let _ = write!(out, "ok epoch {e}");
            }
            Response::Removed(r) => {
                let _ = write!(out, "ok removed {}", u8::from(*r));
            }
            Response::Routes { shards, overrides } => {
                let _ = writeln!(out, "ok routes {shards} {}", overrides.len());
                for (raw, shard) in overrides {
                    let _ = writeln!(out, "{raw} {shard}");
                }
            }
            Response::Traces(list) => {
                let _ = writeln!(out, "ok traces {}", list.len());
                for t in list {
                    let _ = writeln!(
                        out,
                        "{:016x} {} {} {} {} {} {}",
                        t.trace_id,
                        encode_token(&t.root),
                        t.start_ns,
                        t.duration_ns,
                        t.spans,
                        u8::from(t.slow),
                        u8::from(t.error),
                    );
                }
            }
            Response::Err(e) => {
                out.push_str("err ");
                e.encode_tokens(&mut out);
            }
        }
        out.into_bytes()
    }

    /// Parse a frame payload. A malformed response is a protocol error
    /// (the connection is torn down — framing can no longer be trusted).
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let text = std::str::from_utf8(payload).map_err(|_| bad("response is not utf-8"))?;
        let (line, body) = split_body(text);
        let mut it = line.split(' ');
        match tok(&mut it, "status")? {
            "err" => return Ok(Response::Err(WireError::decode_tokens(&mut it)?)),
            "ok" => {}
            other => return Err(bad(format!("unknown status `{other}`"))),
        }
        let mut body_lines = body.unwrap_or("").lines();
        let resp = match tok(&mut it, "response kind")? {
            "pong" => Response::Pong,
            "id" => Response::Id(DocId::from_raw(num(it.next(), "id")?)),
            "edited" => {
                let node = match tok(&mut it, "node")? {
                    "-" => None,
                    n => Some(NodeId(n.parse().map_err(|_| bad("expected node id"))?)),
                };
                Response::Edited { node, epoch: num(it.next(), "epoch")? }
            }
            "nodes" => {
                let k: usize = num(it.next(), "count")?;
                let mut nodes = Vec::with_capacity(k.min(1 << 16));
                for _ in 0..k {
                    nodes.push(NodeId(num(it.next(), "node")?));
                }
                Response::Nodes(nodes)
            }
            "hits" => {
                let k: usize = num(it.next(), "count")?;
                let mut hits = Vec::with_capacity(k.min(1 << 16));
                for _ in 0..k {
                    hits.push(decode_hit_line(tok(&mut body_lines, "hit line")?)?);
                }
                Response::Hits(hits)
            }
            "partial" => {
                let hk: usize = num(it.next(), "hit count")?;
                let ek: usize = num(it.next(), "error count")?;
                let mut hits = Vec::with_capacity(hk.min(1 << 16));
                for _ in 0..hk {
                    hits.push(decode_hit_line(tok(&mut body_lines, "hit line")?)?);
                }
                let mut errors = Vec::with_capacity(ek.min(1 << 10));
                for _ in 0..ek {
                    let line = tok(&mut body_lines, "error line")?;
                    let mut et = line.split(' ');
                    let shard: usize = num(et.next(), "shard")?;
                    errors.push((shard, WireError::decode_tokens(&mut et)?));
                }
                Response::Partial { hits, errors }
            }
            "tags" => {
                let k: usize = num(it.next(), "count")?;
                let mut tags = Vec::with_capacity(k.min(1 << 16));
                for _ in 0..k {
                    tags.push(str_tok(&mut it, "tag")?);
                }
                Response::Tags(tags)
            }
            "text" => Response::Text(body.unwrap_or("").to_string()),
            "epoch" => Response::Epoch(num(it.next(), "epoch")?),
            "removed" => Response::Removed(num::<u8>(it.next(), "flag")? != 0),
            "routes" => {
                let shards: usize = num(it.next(), "shard count")?;
                let k: usize = num(it.next(), "override count")?;
                let mut overrides = Vec::with_capacity(k.min(1 << 16));
                for _ in 0..k {
                    let line = tok(&mut body_lines, "route line")?;
                    let mut rt = line.split(' ');
                    overrides.push((num(rt.next(), "raw id")?, num(rt.next(), "shard")?));
                }
                Response::Routes { shards, overrides }
            }
            "traces" => {
                let k: usize = num(it.next(), "count")?;
                let mut list = Vec::with_capacity(k.min(1 << 12));
                for _ in 0..k {
                    let line = tok(&mut body_lines, "trace line")?;
                    let mut tt = line.split(' ');
                    list.push(TraceSummaryWire {
                        trace_id: u64::from_str_radix(tok(&mut tt, "trace id")?, 16)
                            .map_err(|_| bad("expected hex trace id"))?,
                        root: str_tok(&mut tt, "root")?,
                        start_ns: num(tt.next(), "start")?,
                        duration_ns: num(tt.next(), "duration")?,
                        spans: num(tt.next(), "spans")?,
                        slow: num::<u8>(tt.next(), "slow flag")? != 0,
                        error: num::<u8>(tt.next(), "error flag")? != 0,
                    });
                }
                Response::Traces(list)
            }
            other => return Err(bad(format!("unknown response kind `{other}`"))),
        };
        Ok(resp)
    }
}
