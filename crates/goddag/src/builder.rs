//! Range-based GODDAG construction.
//!
//! The builder takes the document content plus a set of *ranges* — `(hierarchy,
//! tag, attributes, byte start, byte end)` — and produces the GODDAG: leaves at
//! every markup boundary, one element tree per hierarchy, all united at the
//! shared root and the shared leaf frontier (paper §3). Ranges from different
//! hierarchies may overlap arbitrarily; ranges within one hierarchy must nest
//! properly, which the builder enforces.
//!
//! This is the backend of the SACX parser: every surface representation
//! (distributed documents, fragmentation, milestones, stand-off) reduces to a
//! range set.

use crate::error::{GoddagError, Result};
use crate::graph::{Goddag, NodeData, NodeKind};
use crate::ids::{HierarchyId, NodeId};
use crate::span::Span;
use xmlcore::{Attribute, QName};

/// One markup range to place over the content.
#[derive(Debug, Clone)]
pub struct RangeSpec {
    /// Owning hierarchy.
    pub hierarchy: HierarchyId,
    /// Element name.
    pub name: QName,
    /// Element attributes.
    pub attrs: Vec<Attribute>,
    /// Byte offset of the first covered byte.
    pub start: usize,
    /// Byte offset one past the last covered byte (`start == end` makes an
    /// empty element / milestone).
    pub end: usize,
}

/// Builder for [`Goddag`] documents.
#[derive(Debug, Clone)]
pub struct GoddagBuilder {
    root_name: QName,
    root_attrs: Vec<Attribute>,
    content: String,
    hierarchies: Vec<(String, Option<xmlcore::dtd::Dtd>)>,
    ranges: Vec<RangeSpec>,
    boundaries: Vec<usize>,
}

impl GoddagBuilder {
    /// Start building a document whose shared root element is `root_name`.
    pub fn new(root_name: QName) -> GoddagBuilder {
        GoddagBuilder {
            root_name,
            root_attrs: Vec::new(),
            content: String::new(),
            hierarchies: Vec::new(),
            ranges: Vec::new(),
            boundaries: Vec::new(),
        }
    }

    /// Set attributes on the shared root.
    pub fn root_attrs(&mut self, attrs: Vec<Attribute>) -> &mut Self {
        self.root_attrs = attrs;
        self
    }

    /// Set the document content (the text all hierarchies annotate).
    pub fn content(&mut self, content: impl Into<String>) -> &mut Self {
        self.content = content.into();
        self
    }

    /// Register a hierarchy.
    pub fn hierarchy(&mut self, name: impl Into<String>) -> HierarchyId {
        self.hierarchies.push((name.into(), None));
        HierarchyId(self.hierarchies.len() as u16 - 1)
    }

    /// Register a hierarchy together with its DTD.
    pub fn hierarchy_with_dtd(
        &mut self,
        name: impl Into<String>,
        dtd: xmlcore::dtd::Dtd,
    ) -> HierarchyId {
        self.hierarchies.push((name.into(), Some(dtd)));
        HierarchyId(self.hierarchies.len() as u16 - 1)
    }

    /// Add a markup range. Ranges added earlier are *outer* when two ranges
    /// in the same hierarchy share the same span.
    pub fn range(
        &mut self,
        hierarchy: HierarchyId,
        name: &str,
        attrs: Vec<Attribute>,
        start: usize,
        end: usize,
    ) -> Result<&mut Self> {
        let name = QName::parse(name)
            .map_err(|_| GoddagError::Edit(format!("invalid element name {name:?}")))?;
        self.ranges.push(RangeSpec { hierarchy, name, attrs, start, end });
        Ok(self)
    }

    /// Add a pre-built [`RangeSpec`].
    pub fn range_spec(&mut self, spec: RangeSpec) -> &mut Self {
        self.ranges.push(spec);
        self
    }

    /// Add a leaf boundary at byte offset `off` that no range implies (a
    /// frontier refinement, as left behind by [`Goddag::split_leaf_at`]).
    /// Checked like range endpoints when the document is built.
    pub fn boundary(&mut self, off: usize) -> &mut Self {
        self.boundaries.push(off);
        self
    }

    /// Number of ranges queued so far.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Build the GODDAG.
    pub fn finish(self) -> Result<Goddag> {
        self.finish_with_ids().map(|(g, _)| g)
    }

    /// Build the GODDAG and report the element each range became: `ids[i]`
    /// is the node built from the `i`-th range queued.
    pub fn finish_with_ids(self) -> Result<(Goddag, Vec<NodeId>)> {
        let GoddagBuilder { root_name, root_attrs, content, hierarchies, ranges, mut boundaries } =
            self;
        let mut g = Goddag::new(root_name);
        if let NodeKind::Root { attrs, .. } = &mut g.data_mut(NodeId(0)).kind {
            *attrs = root_attrs;
        }
        let nhier = hierarchies.len();
        for (name, dtd) in hierarchies {
            let h = g.add_hierarchy(name);
            if let Some(dtd) = dtd {
                g.set_dtd(h, dtd)?;
            }
        }

        // Validate ranges.
        let len = content.len();
        for r in &ranges {
            if r.hierarchy.idx() >= nhier {
                return Err(GoddagError::NoSuchHierarchy(r.hierarchy));
            }
            if r.start > r.end
                || r.end > len
                || !content.is_char_boundary(r.start)
                || !content.is_char_boundary(r.end)
            {
                return Err(GoddagError::RangeOutOfBounds { start: r.start, end: r.end, len });
            }
        }
        // `str::is_char_boundary` is false past the end, true at it.
        if let Some(&off) = boundaries.iter().find(|&&off| !content.is_char_boundary(off)) {
            return Err(GoddagError::RangeOutOfBounds { start: off, end: off, len });
        }

        // Boundaries: content ends, every range endpoint, every extra one.
        boundaries.reserve(ranges.len() * 2 + 2);
        boundaries.push(0);
        boundaries.push(len);
        for r in &ranges {
            boundaries.push(r.start);
            boundaries.push(r.end);
        }
        boundaries.sort_unstable();
        boundaries.dedup();

        // Leaves between consecutive boundaries.
        let root = g.root();
        for (i, window) in boundaries.windows(2).enumerate() {
            let (a, b) = (window[0], window[1]);
            let id = NodeId(g.nodes.len() as u32);
            g.nodes.push(NodeData {
                kind: NodeKind::Leaf { text: content[a..b].to_string() },
                parent: None,
                children: Vec::new(),
                leaf_parents: vec![root; nhier],
                span: Span::new(i as u32, i as u32 + 1),
                char_start: a,
                alive: true,
            });
            g.leaves.push(id);
        }

        // Create element nodes up front (parents/children wired in the sweep).
        let mut elem_ids: Vec<NodeId> = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let id = NodeId(g.nodes.len() as u32);
            g.nodes.push(NodeData {
                kind: NodeKind::Element {
                    name: r.name.clone(),
                    attrs: r.attrs.clone(),
                    hierarchy: r.hierarchy,
                },
                parent: None,
                children: Vec::new(),
                leaf_parents: Vec::new(),
                span: Span::empty_at(0),
                char_start: 0,
                alive: true,
            });
            elem_ids.push(id);
        }

        // Sweep each hierarchy.
        for h in 0..nhier {
            let hid = HierarchyId(h as u16);
            sweep_hierarchy(&mut g, hid, &ranges, &elem_ids, &boundaries)?;
        }

        g.renumber();
        Ok((g, elem_ids))
    }
}

/// Event classes at one boundary offset, in processing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvClass {
    End = 0,
    Empty = 1,
    Start = 2,
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    offset: usize,
    class: EvClass,
    /// Range index into `ranges` / `elem_ids`.
    range: usize,
}

fn sweep_hierarchy(
    g: &mut Goddag,
    hid: HierarchyId,
    ranges: &[RangeSpec],
    elem_ids: &[NodeId],
    boundaries: &[usize],
) -> Result<()> {
    // Collect events for this hierarchy.
    let mut events: Vec<Ev> = Vec::new();
    for (i, r) in ranges.iter().enumerate() {
        if r.hierarchy != hid {
            continue;
        }
        if r.start == r.end {
            events.push(Ev { offset: r.start, class: EvClass::Empty, range: i });
        } else {
            events.push(Ev { offset: r.start, class: EvClass::Start, range: i });
            events.push(Ev { offset: r.end, class: EvClass::End, range: i });
        }
    }
    events.sort_by(|a, b| {
        (a.offset, a.class).cmp(&(b.offset, b.class)).then_with(|| match a.class {
            // Inner ranges end first: larger start, then later insertion.
            EvClass::End => {
                ranges[b.range].start.cmp(&ranges[a.range].start).then(b.range.cmp(&a.range))
            }
            // Milestones keep insertion order.
            EvClass::Empty => a.range.cmp(&b.range),
            // Outer ranges start first: larger end, then earlier insertion.
            EvClass::Start => {
                ranges[b.range].end.cmp(&ranges[a.range].end).then(a.range.cmp(&b.range))
            }
        })
    });

    let root = g.root();
    // Stack entries: (node, range index or usize::MAX for root).
    let mut stack: Vec<(NodeId, usize)> = vec![(root, usize::MAX)];
    let mut ev_i = 0usize;

    // Helper to append a child to the top of the stack.
    macro_rules! attach {
        ($g:expr, $stack:expr, $child:expr) => {{
            let (top, _) = *$stack.last().expect("stack never empty");
            if top == root {
                $g.root_children[hid.idx()].push($child);
            } else {
                $g.nodes[top.idx()].children.push($child);
            }
            top
        }};
    }

    for (bi, &b) in boundaries.iter().enumerate() {
        while ev_i < events.len() && events[ev_i].offset == b {
            let ev = events[ev_i];
            ev_i += 1;
            let eid = elem_ids[ev.range];
            match ev.class {
                EvClass::End => {
                    let (top, top_range) = *stack.last().expect("stack never empty");
                    if top != eid {
                        // Crossing within the hierarchy: the element on top
                        // started inside `ev.range` but ends after it.
                        let (ta, tb) = if top_range == usize::MAX {
                            ("<root>".to_string(), (0, g.content_len))
                        } else {
                            (
                                ranges[top_range].name.to_string(),
                                (ranges[top_range].start, ranges[top_range].end),
                            )
                        };
                        return Err(GoddagError::CrossingInHierarchy {
                            hierarchy: hid,
                            tag_a: ranges[ev.range].name.to_string(),
                            span_a: (ranges[ev.range].start, ranges[ev.range].end),
                            tag_b: ta,
                            span_b: tb,
                        });
                    }
                    stack.pop();
                }
                EvClass::Empty => {
                    let top = attach!(g, stack, eid);
                    g.nodes[eid.idx()].parent = Some(top);
                }
                EvClass::Start => {
                    let top = attach!(g, stack, eid);
                    g.nodes[eid.idx()].parent = Some(top);
                    stack.push((eid, ev.range));
                }
            }
        }
        // The leaf starting at this boundary (if any) joins the open element.
        if bi + 1 < boundaries.len() {
            let leaf = g.leaves[bi];
            let top = attach!(g, stack, leaf);
            g.nodes[leaf.idx()].leaf_parents[hid.idx()] = top;
        }
    }

    if stack.len() != 1 {
        // Should be impossible: every non-empty range emits both events and
        // end offsets are all in `boundaries`.
        let (_, r) = stack[stack.len() - 1];
        return Err(GoddagError::Edit(format!(
            "internal: unterminated range <{}>",
            ranges[r].name
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    /// Two hierarchies over "abcdef": phys line covers abcd, ling word covers
    /// cdef — the classic overlap.
    fn overlap_doc() -> Goddag {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 4).unwrap();
        b.range(ling, "w", vec![], 2, 6).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn leaves_partition_content() {
        let g = overlap_doc();
        // boundaries 0,2,4,6 -> leaves ab, cd, ef
        assert_eq!(g.leaf_count(), 3);
        let texts: Vec<_> =
            g.leaves().iter().map(|&l| g.leaf_text(l).unwrap().to_string()).collect();
        assert_eq!(texts, ["ab", "cd", "ef"]);
        assert_eq!(g.content(), "abcdef");
        assert_eq!(g.content_len(), 6);
    }

    #[test]
    fn spans_computed() {
        let g = overlap_doc();
        let line = g.elements_in(HierarchyId(0)).next().unwrap();
        let w = g.elements_in(HierarchyId(1)).next().unwrap();
        assert_eq!(g.span(line), Span::new(0, 2));
        assert_eq!(g.span(w), Span::new(1, 3));
        assert!(g.span(line).overlaps(g.span(w)));
        assert_eq!(g.text_of(line), "abcd");
        assert_eq!(g.text_of(w), "cdef");
    }

    #[test]
    fn leaf_is_shared_between_hierarchies() {
        let g = overlap_doc();
        let line = g.elements_in(HierarchyId(0)).next().unwrap();
        let w = g.elements_in(HierarchyId(1)).next().unwrap();
        // Middle leaf "cd" belongs to both elements.
        let cd = g.leaves()[1];
        assert!(g.leaves_of(line).contains(&cd));
        assert!(g.leaves_of(w).contains(&cd));
        // And its per-hierarchy parents are exactly those elements.
        assert_eq!(g.data(cd).leaf_parents, vec![line, w]);
    }

    #[test]
    fn root_children_per_hierarchy() {
        let g = overlap_doc();
        let line = g.elements_in(HierarchyId(0)).next().unwrap();
        let w = g.elements_in(HierarchyId(1)).next().unwrap();
        // phys: [line, leaf "ef"]; ling: [leaf "ab", w]
        assert_eq!(g.root_children[0], vec![line, g.leaves()[2]]);
        assert_eq!(g.root_children[1], vec![g.leaves()[0], w]);
    }

    #[test]
    fn crossing_within_hierarchy_rejected() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let h = b.hierarchy("one");
        b.range(h, "a", vec![], 0, 4).unwrap();
        b.range(h, "b", vec![], 2, 6).unwrap();
        let err = b.finish().unwrap_err();
        assert!(matches!(err, GoddagError::CrossingInHierarchy { .. }), "{err}");
    }

    #[test]
    fn nesting_within_hierarchy_ok() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let h = b.hierarchy("one");
        b.range(h, "outer", vec![], 0, 6).unwrap();
        b.range(h, "inner", vec![], 2, 4).unwrap();
        let g = b.finish().unwrap();
        let outer = g.elements().find(|&e| g.name(e).unwrap().local == "outer").unwrap();
        let inner = g.elements().find(|&e| g.name(e).unwrap().local == "inner").unwrap();
        assert_eq!(g.data(inner).parent, Some(outer));
        // outer's children: leaf ab, inner, leaf ef
        assert_eq!(g.data(outer).children.len(), 3);
        assert_eq!(g.data(outer).children[1], inner);
    }

    #[test]
    fn equal_spans_insertion_order_outer_first() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abc");
        let h = b.hierarchy("one");
        b.range(h, "outer", vec![], 0, 3).unwrap();
        b.range(h, "inner", vec![], 0, 3).unwrap();
        let g = b.finish().unwrap();
        let outer = g.elements().find(|&e| g.name(e).unwrap().local == "outer").unwrap();
        let inner = g.elements().find(|&e| g.name(e).unwrap().local == "inner").unwrap();
        assert_eq!(g.data(inner).parent, Some(outer));
        assert_eq!(g.data(outer).parent, Some(g.root()));
    }

    #[test]
    fn empty_element_anchored() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcd");
        let h = b.hierarchy("phys");
        b.range(h, "line", vec![], 0, 4).unwrap();
        b.range(h, "pb", vec![], 2, 2).unwrap();
        let g = b.finish().unwrap();
        let pb = g.elements().find(|&e| g.name(e).unwrap().local == "pb").unwrap();
        assert!(g.span(pb).is_empty());
        assert_eq!(g.span(pb).start, 1); // between leaf 0 (ab) and leaf 1 (cd)
        assert_eq!(g.char_range(pb), (2, 2));
        // pb sits inside line's child list between the two leaves.
        let line = g.elements().find(|&e| g.name(e).unwrap().local == "line").unwrap();
        let children = &g.data(line).children;
        assert_eq!(children.len(), 3);
        assert_eq!(children[1], pb);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("ab");
        let h = b.hierarchy("x");
        b.range(h, "a", vec![], 0, 5).unwrap();
        assert!(matches!(b.finish(), Err(GoddagError::RangeOutOfBounds { .. })));
    }

    #[test]
    fn non_char_boundary_rejected() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("æb"); // 'æ' is two bytes
        let h = b.hierarchy("x");
        b.range(h, "a", vec![], 1, 2).unwrap();
        assert!(matches!(b.finish(), Err(GoddagError::RangeOutOfBounds { .. })));
    }

    #[test]
    fn extra_boundaries_match_split_leaf_at() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 4).unwrap();
        b.range(ling, "w", vec![], 2, 6).unwrap();
        b.boundary(1).boundary(5).boundary(2).boundary(6);
        let g = b.finish().unwrap();
        let mut split = overlap_doc();
        split.split_leaf_at(1).unwrap();
        split.split_leaf_at(5).unwrap();
        let texts = |g: &Goddag| -> Vec<String> {
            g.leaves().iter().map(|&l| g.leaf_text(l).unwrap().to_string()).collect()
        };
        assert_eq!(texts(&g), ["a", "b", "cd", "e", "f"]);
        assert_eq!(texts(&g), texts(&split));
        for h in g.hierarchy_ids() {
            assert_eq!(g.to_xml(h).unwrap(), split.to_xml(h).unwrap());
        }
        crate::validate::check_invariants(&g).unwrap();
    }

    #[test]
    fn bad_boundaries_rejected() {
        for off in [4, 1] {
            let mut b = GoddagBuilder::new(q("r"));
            b.content("æb"); // 'æ' is two bytes
            b.boundary(off);
            let err = b.finish().unwrap_err();
            assert_eq!(err, GoddagError::RangeOutOfBounds { start: off, end: off, len: 3 });
        }
    }

    #[test]
    fn empty_content_document() {
        let mut b = GoddagBuilder::new(q("r"));
        let h = b.hierarchy("x");
        b.range(h, "pb", vec![], 0, 0).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.leaf_count(), 0);
        assert_eq!(g.element_count(), 1);
    }

    #[test]
    fn no_hierarchies_plain_text() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("hello");
        let g = b.finish().unwrap();
        assert_eq!(g.leaf_count(), 1);
        assert_eq!(g.content(), "hello");
    }

    #[test]
    fn attrs_preserved() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("ab");
        let h = b.hierarchy("x");
        b.range(h, "w", vec![Attribute::new("id", "w1")], 0, 2).unwrap();
        let g = b.finish().unwrap();
        let w = g.elements().next().unwrap();
        assert_eq!(g.attr(w, "id"), Some("w1"));
    }

    #[test]
    fn many_hierarchies_independent() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("0123456789");
        let hs: Vec<_> = (0..5).map(|i| b.hierarchy(format!("h{i}"))).collect();
        for (i, &h) in hs.iter().enumerate() {
            // Each hierarchy covers a shifted window — pairwise overlapping.
            b.range(h, "e", vec![], i, i + 5).unwrap();
        }
        let g = b.finish().unwrap();
        assert_eq!(g.element_count(), 5);
        let elems: Vec<_> = g.elements().collect();
        for (i, &a) in elems.iter().enumerate() {
            for &b2 in &elems[i + 1..] {
                assert!(g.span(a).intersects(g.span(b2)));
            }
        }
    }

    #[test]
    fn adjacent_ranges_share_boundary() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcd");
        let h = b.hierarchy("x");
        b.range(h, "a", vec![], 0, 2).unwrap();
        b.range(h, "b", vec![], 2, 4).unwrap();
        let g = b.finish().unwrap();
        let a = g.elements().find(|&e| g.name(e).unwrap().local == "a").unwrap();
        let bb = g.elements().find(|&e| g.name(e).unwrap().local == "b").unwrap();
        assert!(g.span(a).precedes(g.span(bb)));
        assert_eq!(g.root_children[0], vec![a, bb]);
    }

    #[test]
    fn whole_document_range() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("text");
        let h = b.hierarchy("x");
        b.range(h, "all", vec![], 0, 4).unwrap();
        let g = b.finish().unwrap();
        let all = g.elements().next().unwrap();
        assert_eq!(g.span(all), Span::new(0, 1));
        assert_eq!(g.text_of(all), "text");
        assert!(matches!(g.kind(g.leaves()[0]), NodeKind::Leaf { .. }));
    }
}
