//! Complete on-disk form of one document: stand-off content + everything
//! stand-off alone does not carry but warm restart needs.
//!
//! Stand-off (`sacx::export_standoff`) is the paper's natural serialization
//! — base text plus `(hierarchy, tag, range)` records — but a recovered
//! store must also be able to *replay* logged edits against the re-imported
//! document, and logged edits speak in pre-crash [`goddag::NodeId`]s and
//! edit epochs. A [`DocBlob`] therefore additionally records:
//!
//! * each hierarchy's **DTD** (so the prevalidation gate re-arms),
//! * the **id layout**: original arena length, the original id of every
//!   element (in stand-off annotation order — an id-independent structural
//!   order, see [`sacx::StandoffDoc::from_goddag_with_ids`]) and of every
//!   leaf (in frontier order, with its byte offset so extra leaf boundaries
//!   from past splits are re-created),
//! * the **edit epoch** the document was at.
//!
//! [`DocBlob::restore`] is one build plus one relabel: it queues the
//! stand-off's ranges and every recorded leaf offset on one
//! [`goddag::GoddagBuilder`] (so the recorded frontier comes out of the
//! same pass that places the markup), relabels the arena to the recorded
//! layout ([`goddag::Goddag`]'s `relabel_nodes`) and restores the epoch —
//! after which the document is id-for-id and epoch-for-epoch equivalent to
//! the captured one, and log replay is deterministic. Its cost is linear in
//! the document (plus the sorts), however many boundaries past edits left.

use crate::codec::{crc32, parse_tok, str_tok};
use crate::error::PersistError;
use goddag::{Goddag, NodeId};
use sacx::StandoffDoc;
use std::fmt::Write as _;

/// A complete serialized document (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DocBlob {
    /// Stand-off text (`sacx` v1 format).
    pub standoff: String,
    /// `(hierarchy index, DTD external-subset text)` for each hierarchy
    /// that carries a schema.
    pub dtds: Vec<(u16, String)>,
    /// Arena length at capture (ids are never reused, so future edit
    /// allocations start here).
    pub arena_len: u32,
    /// Root node id (always 0 in documents this workspace builds; recorded
    /// for validation).
    pub root: u32,
    /// Edit epoch at capture.
    pub epoch: u64,
    /// Original element ids, parallel to the stand-off annotations.
    pub elems: Vec<u32>,
    /// Original `(leaf id, byte offset)` pairs in frontier order.
    pub leaves: Vec<(u32, usize)>,
}

impl DocBlob {
    /// Capture a document.
    pub fn capture(g: &Goddag) -> DocBlob {
        let (doc, elem_ids) = StandoffDoc::from_goddag_with_ids(g);
        let mut dtds = Vec::new();
        for h in g.hierarchy_ids() {
            // invariant: `h` comes from this goddag's own hierarchy_ids.
            if let Some(dtd) = &g.hierarchy(h).expect("live id").dtd {
                dtds.push((h.0, dtd.to_text()));
            }
        }
        DocBlob {
            standoff: doc.to_text(),
            dtds,
            arena_len: g.arena_len() as u32,
            root: g.root().0,
            epoch: g.edit_epoch(),
            elems: elem_ids.iter().map(|e| e.0).collect(),
            leaves: g
                .leaves()
                .iter()
                .map(|&l| {
                    let (start, _) = g.char_range(l);
                    (l.0, start)
                })
                .collect(),
        }
    }

    /// Rebuild the document: build the stand-off together with the
    /// recorded leaf boundaries, relabel the arena to the recorded id
    /// layout, re-attach DTDs, restore the epoch.
    pub fn restore(&self) -> Result<Goddag, PersistError> {
        let corrupt = |detail: String| PersistError::Codec { line: 0, detail };
        let mut b = StandoffDoc::parse_text(&self.standoff)
            .and_then(|doc| doc.to_builder())
            .map_err(|e| corrupt(format!("stand-off import failed: {e}")))?;
        // Frontier refinement: boundaries that earlier splits created but no
        // surviving annotation implies, built in the same pass.
        for &(_, off) in &self.leaves {
            b.boundary(off);
        }
        // Annotation `i` becomes `new_elems[i]`: the capture recorded
        // `elems` parallel to the annotations, so positions line up.
        let (mut g, new_elems) =
            b.finish_with_ids().map_err(|e| corrupt(format!("stand-off rebuild failed: {e}")))?;
        if g.leaves().len() != self.leaves.len() {
            return Err(corrupt(format!(
                "frontier mismatch: imported {} leaves, recorded {}",
                g.leaves().len(),
                self.leaves.len()
            )));
        }
        // Equal counts can still hide a duplicated offset standing in for
        // one the markup implies; the frontier must be the recorded one.
        for (i, (&l, &(_, off))) in g.leaves().iter().zip(&self.leaves).enumerate() {
            let (start, _) = g.char_range(l);
            if start != off {
                return Err(corrupt(format!(
                    "frontier mismatch: leaf {i} starts at {start}, recorded {off}"
                )));
            }
        }
        if new_elems.len() != self.elems.len() {
            return Err(corrupt(format!(
                "element mismatch: imported {}, recorded {}",
                new_elems.len(),
                self.elems.len()
            )));
        }
        if g.root().0 != self.root {
            return Err(corrupt(format!("root id mismatch: {} vs {}", g.root(), self.root)));
        }
        let mut assignments = vec![NodeId(u32::MAX); g.arena_len()];
        assignments[g.root().idx()] = g.root();
        for (&l, &(id, _)) in g.leaves().iter().zip(&self.leaves) {
            assignments[l.idx()] = NodeId(id);
        }
        for (&e, &id) in new_elems.iter().zip(&self.elems) {
            assignments[e.idx()] = NodeId(id);
        }
        g.relabel_nodes(&assignments, self.arena_len as usize)
            .map_err(|e| corrupt(format!("relabel failed: {e}")))?;
        for (h, text) in &self.dtds {
            let dtd = xmlcore::dtd::parse_dtd(text)
                .map_err(|e| corrupt(format!("DTD for hierarchy {h} does not parse: {e}")))?;
            g.set_dtd(goddag::HierarchyId(*h), dtd)
                .map_err(|e| corrupt(format!("DTD for hierarchy {h}: {e}")))?;
        }
        g.force_edit_epoch(self.epoch);
        Ok(g)
    }

    /// Serialize to the versioned text format (used verbatim as snapshot
    /// doc files; percent-escaped as a single WAL token for `DocInsert`
    /// records). Ends with a `crc` footer over everything before it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("#cxblob v1\n");
        let _ = writeln!(out, "arena {} {} {}", self.arena_len, self.root, self.epoch);
        let _ = write!(out, "elems {}", self.elems.len());
        for e in &self.elems {
            let _ = write!(out, " {e}");
        }
        out.push('\n');
        let _ = write!(out, "leaves {}", self.leaves.len());
        for (l, off) in &self.leaves {
            let _ = write!(out, " {l}:{off}");
        }
        out.push('\n');
        for (h, text) in &self.dtds {
            let _ = writeln!(out, "dtd {h} {}", sacx::encode_token(text));
        }
        let _ = writeln!(out, "standoff {}", self.standoff.len());
        out.push_str(&self.standoff);
        if !self.standoff.ends_with('\n') {
            out.push('\n');
        }
        let crc = crc32(out.as_bytes());
        let _ = writeln!(out, "crc {crc:08x}");
        out
    }

    /// Parse the text format, verifying the `crc` footer.
    pub fn parse_text(input: &str) -> Result<DocBlob, PersistError> {
        let bad = |line: usize, detail: String| PersistError::Codec { line, detail };
        let body = input
            .strip_suffix('\n')
            .unwrap_or(input)
            .rsplit_once('\n')
            .map(|(body, last)| (format!("{body}\n"), last.to_string()));
        let Some((body, footer)) = body else {
            return Err(bad(1, "blob too short".into()));
        };
        let crc_expect = footer
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad(0, "missing crc footer".into()))?;
        if crc32(body.as_bytes()) != crc_expect {
            return Err(bad(0, "blob CRC mismatch".into()));
        }

        let mut rest = body.as_str();
        let mut ln = 0usize;
        let next_line = |rest: &mut &str| -> Option<String> {
            if rest.is_empty() {
                return None;
            }
            match rest.find('\n') {
                Some(i) => {
                    let l = rest[..i].to_string();
                    *rest = &rest[i + 1..];
                    Some(l)
                }
                None => {
                    let l = rest.to_string();
                    *rest = "";
                    Some(l)
                }
            }
        };

        let header = next_line(&mut rest).ok_or_else(|| bad(1, "empty blob".into()))?;
        if header.trim() != "#cxblob v1" {
            return Err(bad(1, "bad blob magic".into()));
        }
        let mut arena: Option<(u32, u32, u64)> = None;
        let mut elems: Option<Vec<u32>> = None;
        let mut leaves: Option<Vec<(u32, usize)>> = None;
        let mut dtds: Vec<(u16, String)> = Vec::new();
        let mut standoff: Option<String> = None;
        while let Some(line) = next_line(&mut rest) {
            ln += 1;
            let mut parts = line.split(' ');
            match parts.next() {
                Some("arena") => {
                    let len: u32 = parse_tok(parts.next(), ln, "arena length")?;
                    let root: u32 = parse_tok(parts.next(), ln, "root id")?;
                    let epoch: u64 = parse_tok(parts.next(), ln, "epoch")?;
                    arena = Some((len, root, epoch));
                }
                Some("elems") => {
                    let n: usize = parse_tok(parts.next(), ln, "element count")?;
                    let ids: Vec<u32> = parts
                        .map(|t| t.parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad(ln, "bad element id".into()))?;
                    if ids.len() != n {
                        return Err(bad(ln, "element count mismatch".into()));
                    }
                    elems = Some(ids);
                }
                Some("leaves") => {
                    let n: usize = parse_tok(parts.next(), ln, "leaf count")?;
                    let mut ids = Vec::with_capacity(n);
                    for t in parts {
                        let (id, off) = t
                            .split_once(':')
                            .ok_or_else(|| bad(ln, format!("bad leaf entry {t:?}")))?;
                        ids.push((
                            id.parse().map_err(|_| bad(ln, "bad leaf id".into()))?,
                            off.parse().map_err(|_| bad(ln, "bad leaf offset".into()))?,
                        ));
                    }
                    if ids.len() != n {
                        return Err(bad(ln, "leaf count mismatch".into()));
                    }
                    leaves = Some(ids);
                }
                Some("dtd") => {
                    let h: u16 = parse_tok(parts.next(), ln, "hierarchy index")?;
                    let text = str_tok(parts.next(), ln, "DTD text")?;
                    dtds.push((h, text));
                }
                Some("standoff") => {
                    let len: usize = parse_tok(parts.next(), ln, "stand-off length")?;
                    if rest.len() < len || !rest.is_char_boundary(len) {
                        return Err(bad(ln, "stand-off length out of bounds".into()));
                    }
                    standoff = Some(rest[..len].to_string());
                    rest = &rest[len..];
                    if let Some(r) = rest.strip_prefix('\n') {
                        rest = r;
                    }
                }
                Some(other) => return Err(bad(ln, format!("unknown blob directive {other:?}"))),
                None => {}
            }
        }
        let (arena_len, root, epoch) = arena.ok_or_else(|| bad(ln, "missing arena line".into()))?;
        Ok(DocBlob {
            standoff: standoff.ok_or_else(|| bad(ln, "missing stand-off".into()))?,
            dtds,
            arena_len,
            root,
            epoch,
            elems: elems.ok_or_else(|| bad(ln, "missing elems line".into()))?,
            leaves: leaves.ok_or_else(|| bad(ln, "missing leaves line".into()))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::HierarchyId;

    fn sample() -> Goddag {
        let mut g = sacx::parse_distributed(&[
            ("phys", "<r><line n=\"1\">swa hwa swe</line><line n=\"2\">nu sculon</line></r>"),
            ("ling", "<r><w>swa</w> <w>hwa</w> <s><w>swenu</w> <w>sculon</w></s></r>"),
        ])
        .unwrap();
        let h = g.hierarchy_by_name("ling").unwrap();
        g.set_dtd(h, xmlcore::dtd::parse_dtd("<!ELEMENT r ANY> <!ELEMENT w (#PCDATA)>").unwrap())
            .unwrap();
        g
    }

    #[test]
    fn text_roundtrip() {
        let blob = DocBlob::capture(&sample());
        let text = blob.to_text();
        let again = DocBlob::parse_text(&text).unwrap();
        assert_eq!(again, blob);
        // Fixpoint.
        assert_eq!(again.to_text(), text);
    }

    #[test]
    fn corruption_detected() {
        let text = DocBlob::capture(&sample()).to_text();
        let mut bytes = text.clone().into_bytes();
        bytes[20] ^= 0x20;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(DocBlob::parse_text(&flipped).is_err());
        assert!(DocBlob::parse_text("").is_err());
        assert!(DocBlob::parse_text("#cxblob v1\n").is_err());
    }

    #[test]
    fn restore_reproduces_ids_epochs_and_future_allocations() {
        let mut g = sample();
        // Edit history so the arena has tombstones and extra boundaries.
        let ling = g.hierarchy_by_name("ling").unwrap();
        let e = g.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 0, 3).unwrap();
        g.remove_element(e).unwrap();
        g.split_leaf_at(1).unwrap();
        g.set_attr(g.root(), "status", "draft").unwrap();

        let blob = DocBlob::capture(&g);
        let r = blob.restore().unwrap();
        goddag::check_invariants(&r).unwrap();
        assert_eq!(r.edit_epoch(), g.edit_epoch());
        assert_eq!(r.arena_len(), g.arena_len());
        assert_eq!(r.leaves(), g.leaves());
        assert_eq!(r.content(), g.content());
        for h in g.hierarchy_ids() {
            assert_eq!(r.to_xml(h).unwrap(), g.to_xml(h).unwrap());
            assert_eq!(
                r.hierarchy(h).unwrap().dtd.is_some(),
                g.hierarchy(h).unwrap().dtd.is_some()
            );
        }
        assert_eq!(
            sacx::export_standoff(&r),
            sacx::export_standoff(&g),
            "stand-off is byte-identical"
        );
        // Same future id allocation: the next edit mints the same id.
        let mut g2 = g.clone();
        let mut r2 = r.clone();
        let a = g2.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 4, 7).unwrap();
        let b = r2.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 4, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(g2.edit_epoch(), r2.edit_epoch());
    }

    #[test]
    fn restore_is_deterministic_for_equal_span_nesting() {
        // The depth-ordered stand-off fix in action: parent id > child id.
        let mut g = sacx::parse_distributed(&[("a", "<r>abcdefg</r>")]).unwrap();
        let h = g.hierarchy_by_name("a").unwrap();
        let inner =
            g.insert_element(h, xmlcore::QName::parse("inner").unwrap(), vec![], 0, 4).unwrap();
        let outer =
            g.insert_element(h, xmlcore::QName::parse("outer").unwrap(), vec![], 0, 7).unwrap();
        g.delete_text(4, 7).unwrap();
        let r = DocBlob::capture(&g).restore().unwrap();
        assert_eq!(r.parent_in(inner, h), Some(outer));
        assert_eq!(r.to_xml(HierarchyId(0)).unwrap(), g.to_xml(HierarchyId(0)).unwrap());
    }
}
