//! GODDAG mutation: the editing layer under xTagger (paper §4, "authoring").
//!
//! All operations preserve the GODDAG invariants (checked by
//! `validate::check_invariants` in tests):
//!
//! * [`Goddag::insert_element`] wraps a content range in new markup —
//!   overlap with *other* hierarchies is always legal, crossing markup in the
//!   *same* hierarchy is rejected ([`GoddagError::WouldCross`]);
//! * [`Goddag::remove_element`] splices an element out of its hierarchy;
//! * [`Goddag::split_leaf_at`] refines the shared leaf frontier;
//! * [`Goddag::insert_text`] / [`Goddag::delete_text`] edit the content under
//!   all hierarchies at once;
//! * [`Goddag::apply`] runs one [`EditOp`] — the single edit vocabulary the
//!   store, its write-ahead log, the wire protocol and xTagger share.

use crate::error::{GoddagError, Result};
use crate::graph::{Goddag, NodeData, NodeKind};
use crate::ids::{HierarchyId, NodeId};
use crate::span::Span;
use xmlcore::{Attribute, QName};

/// One edit as plain data. Hierarchies are addressed by name so operations
/// are meaningful without holding a handle to the document's internals;
/// nodes use stable [`NodeId`]s (GODDAG ids are never reused).
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Wrap content bytes `start..end` of hierarchy `hierarchy` in a new
    /// `tag` element.
    InsertElement {
        /// Hierarchy name (`"phys"`, `"ling"`, …).
        hierarchy: String,
        /// Element local name.
        tag: String,
        /// `(name, value)` attributes.
        attrs: Vec<(String, String)>,
        /// Content byte range start.
        start: usize,
        /// Content byte range end (exclusive).
        end: usize,
    },
    /// Splice an element out of its hierarchy (content is kept).
    RemoveElement(NodeId),
    /// Insert text at a byte offset; all hierarchies see it at once.
    InsertText {
        /// Byte offset.
        offset: usize,
        /// The text.
        text: String,
    },
    /// Delete the content byte range `start..end` under all hierarchies.
    DeleteText {
        /// Range start.
        start: usize,
        /// Range end (exclusive).
        end: usize,
    },
    /// Set (or replace) an attribute on an element or the root.
    SetAttr {
        /// Target node.
        node: NodeId,
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// Remove an attribute if present.
    RemoveAttr {
        /// Target node.
        node: NodeId,
        /// Attribute name.
        name: String,
    },
}

/// Parse an attribute name supplied by an edit.
fn attr_name(name: &str) -> Result<QName> {
    QName::parse(name).map_err(|_| GoddagError::Edit(format!("invalid attribute name {name:?}")))
}

impl Goddag {
    /// Run one [`EditOp`]; returns the element an `InsertElement` created.
    /// An `InsertElement` is first checked by [`Goddag::resolve_insert`].
    /// A failed op may leave leaf splits behind, so callers that promise
    /// all-or-nothing keep a copy to roll back to.
    pub fn apply(&mut self, op: EditOp) -> Result<Option<NodeId>> {
        match op {
            EditOp::InsertElement { hierarchy, tag, attrs, start, end } => {
                let (h, name, names) = self.resolve_insert(&hierarchy, &tag, &attrs)?;
                let attrs = names
                    .into_iter()
                    .zip(attrs)
                    .map(|(name, (_, value))| Attribute { name, value })
                    .collect();
                self.insert_element(h, name, attrs, start, end).map(Some)
            }
            EditOp::RemoveElement(n) => self.remove_element(n).map(|()| None),
            EditOp::InsertText { offset, text } => self.insert_text(offset, &text).map(|()| None),
            EditOp::DeleteText { start, end } => self.delete_text(start, end).map(|()| None),
            EditOp::SetAttr { node, name, value } => {
                self.set_attr(node, &name, &value).map(|()| None)
            }
            EditOp::RemoveAttr { node, name } => self.remove_attr(node, &name).map(|_| None),
        }
    }

    /// The names of an `InsertElement`, checked against this document: the
    /// hierarchy must exist ([`GoddagError::UnknownHierarchy`]) and the tag
    /// and every attribute name must be QNames ([`GoddagError::Edit`]).
    /// This is the one well-formedness rule for inserts: [`Goddag::apply`]
    /// runs it, and a store runs it before logging an op so a malformed
    /// one never reaches its write-ahead log. Returns the hierarchy, the
    /// tag and the attribute names, in order.
    pub fn resolve_insert(
        &self,
        hierarchy: &str,
        tag: &str,
        attrs: &[(String, String)],
    ) -> Result<(HierarchyId, QName, Vec<QName>)> {
        let h = self
            .hierarchy_by_name(hierarchy)
            .ok_or_else(|| GoddagError::UnknownHierarchy(hierarchy.to_string()))?;
        let name =
            QName::parse(tag).map_err(|_| GoddagError::Edit(format!("invalid tag {tag:?}")))?;
        let names = attrs.iter().map(|(n, _)| attr_name(n)).collect::<Result<_>>()?;
        Ok((h, name, names))
    }

    /// The boundary index (in leaves) corresponding to byte offset `off`:
    /// the number of leaves entirely before `off`. `off` must lie on a leaf
    /// boundary (use [`Goddag::split_leaf_at`] first to make it one).
    pub fn boundary_index(&self, off: usize) -> Option<u32> {
        if off == self.content_len {
            return Some(self.leaves.len() as u32);
        }
        let i = self.leaves.partition_point(|&l| self.data(l).char_start < off);
        match self.leaves.get(i) {
            Some(&l) if self.data(l).char_start == off => Some(i as u32),
            _ => None,
        }
    }

    fn check_offset(&self, off: usize) -> Result<()> {
        if !self.is_char_boundary(off) {
            return Err(GoddagError::RangeOutOfBounds {
                start: off,
                end: off,
                len: self.content_len,
            });
        }
        Ok(())
    }

    /// Mutable access to the child list of `p` within hierarchy `h`.
    fn child_list_mut(&mut self, p: NodeId, h: HierarchyId) -> &mut Vec<NodeId> {
        if p == self.root {
            &mut self.root_children[h.idx()]
        } else {
            &mut self.nodes[p.idx()].children
        }
    }

    /// Ensure a leaf boundary exists at byte offset `off`, splitting the
    /// containing leaf if needed. No-op when `off` already is a boundary.
    pub fn split_leaf_at(&mut self, off: usize) -> Result<()> {
        self.check_offset(off)?;
        if self.boundary_index(off).is_some() {
            return Ok(());
        }
        // Find the leaf containing off.
        let i = self
            .leaves
            .partition_point(|&l| self.data(l).char_start <= off)
            .checked_sub(1)
            .expect("off > 0 here, some leaf starts at or before it");
        let leaf = self.leaves[i];
        let local = off - self.data(leaf).char_start;
        let (before, after) = {
            let NodeKind::Leaf { text } = &self.data(leaf).kind else {
                return Err(GoddagError::NotALeaf(leaf));
            };
            (text[..local].to_string(), text[local..].to_string())
        };
        debug_assert!(!before.is_empty() && !after.is_empty());

        // The original leaf keeps the prefix; a new leaf takes the suffix.
        let new_leaf = NodeId(self.nodes.len() as u32);
        let leaf_parents = self.data(leaf).leaf_parents.clone();
        self.nodes.push(NodeData {
            kind: NodeKind::Leaf { text: after },
            parent: None,
            children: Vec::new(),
            leaf_parents: leaf_parents.clone(),
            span: Span::empty_at(0),
            char_start: 0,
            alive: true,
        });
        if let NodeKind::Leaf { text } = &mut self.data_mut(leaf).kind {
            *text = before;
        }
        self.leaves.insert(i + 1, new_leaf);
        // Insert the new leaf right after the old one in every hierarchy.
        for h in self.hierarchy_ids() {
            let p = leaf_parents[h.idx()];
            let list = self.child_list_mut(p, h);
            let pos = list
                .iter()
                .position(|&c| c == leaf)
                .expect("leaf parent lists must contain the leaf");
            list.insert(pos + 1, new_leaf);
        }
        self.renumber();
        Ok(())
    }

    /// Insert a new element of hierarchy `h` covering content bytes
    /// `start..end`. `start == end` inserts an empty element (milestone).
    ///
    /// Fails with [`GoddagError::WouldCross`] when the range partially
    /// overlaps an existing element *of the same hierarchy*; overlap with
    /// other hierarchies is the normal case and always succeeds.
    pub fn insert_element(
        &mut self,
        h: HierarchyId,
        name: QName,
        attrs: Vec<Attribute>,
        start: usize,
        end: usize,
    ) -> Result<NodeId> {
        if h.idx() >= self.hierarchies.len() {
            return Err(GoddagError::NoSuchHierarchy(h));
        }
        if start > end {
            return Err(GoddagError::RangeOutOfBounds { start, end, len: self.content_len });
        }
        self.check_offset(start)?;
        self.check_offset(end)?;
        self.split_leaf_at(start)?;
        self.split_leaf_at(end)?;
        let s = self.boundary_index(start).expect("split created boundary");
        let e = self.boundary_index(end).expect("split created boundary");
        let span = Span::new(s, e);

        // Find the host: deepest element of h containing the span.
        let host = self.host_in(h, span);

        // Partition the host's children into [kept-before, moved, kept-after]
        // and detect crossings.
        let children = self.children_in(host, h).to_vec();
        let mut moved: Vec<NodeId> = Vec::new();
        let mut insert_pos: Option<usize> = None;
        for (i, &c) in children.iter().enumerate() {
            let cspan = self.span(c);
            if cspan.is_empty() {
                // Milestones move only when strictly inside the new range.
                if s < cspan.start && cspan.start < e {
                    if insert_pos.is_none() {
                        insert_pos = Some(i);
                    }
                    moved.push(c);
                }
                continue;
            }
            if span.contains(cspan) {
                if insert_pos.is_none() {
                    insert_pos = Some(i);
                }
                moved.push(c);
            } else if cspan.intersects(span) {
                return Err(GoddagError::WouldCross {
                    hierarchy: h,
                    existing: c,
                    detail: format!(
                        "new range {span} partially overlaps sibling {} with span {cspan}",
                        self.name(c).map(|q| q.to_string()).unwrap_or_else(|| "leaf".into())
                    ),
                });
            }
        }
        // Empty insertion (no children moved): position before the first
        // child at-or-after the anchor.
        let insert_pos = insert_pos.unwrap_or_else(|| {
            children
                .iter()
                .position(|&c| {
                    self.span(c).start >= s && (!self.span(c).is_empty() || self.span(c).start > s)
                })
                .unwrap_or(children.len())
        });

        // Create the new element.
        let new_id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            kind: NodeKind::Element { name, attrs, hierarchy: h },
            parent: Some(host),
            children: moved.clone(),
            leaf_parents: Vec::new(),
            span,
            char_start: 0,
            alive: true,
        });

        // Re-parent moved nodes.
        for &c in &moved {
            match &mut self.nodes[c.idx()].kind {
                NodeKind::Leaf { .. } => {
                    self.nodes[c.idx()].leaf_parents[h.idx()] = new_id;
                }
                NodeKind::Element { .. } => {
                    self.nodes[c.idx()].parent = Some(new_id);
                }
                NodeKind::Root { .. } => unreachable!("root is never a child"),
            }
        }

        // Splice the host's child list.
        let list = self.child_list_mut(host, h);
        list.retain(|c| !moved.contains(c));
        let pos = insert_pos.min(list.len());
        list.insert(pos, new_id);

        self.renumber();
        Ok(new_id)
    }

    /// Remove an element, splicing its children into its parent. The content
    /// and all other hierarchies are untouched. Ids of other nodes remain
    /// valid; the removed id is tombstoned.
    pub fn remove_element(&mut self, e: NodeId) -> Result<()> {
        self.check_alive(e)?;
        let NodeKind::Element { hierarchy: h, .. } = self.data(e).kind else {
            return Err(if self.is_root(e) {
                GoddagError::CannotTouchRoot
            } else {
                GoddagError::NotAnElement(e)
            });
        };
        let parent = self.data(e).parent.expect("live elements always have a parent");
        let children = self.data(e).children.clone();
        // Re-parent grandchildren.
        for &c in &children {
            match &mut self.nodes[c.idx()].kind {
                NodeKind::Leaf { .. } => {
                    self.nodes[c.idx()].leaf_parents[h.idx()] = parent;
                }
                NodeKind::Element { .. } => {
                    self.nodes[c.idx()].parent = Some(parent);
                }
                NodeKind::Root { .. } => unreachable!("root is never a child"),
            }
        }
        // Splice.
        let list = self.child_list_mut(parent, h);
        let pos = list.iter().position(|&c| c == e).expect("parent lists its child");
        list.remove(pos);
        for (i, &c) in children.iter().enumerate() {
            list.insert(pos + i, c);
        }
        // Tombstone.
        let d = self.data_mut(e);
        d.alive = false;
        d.children.clear();
        d.parent = None;
        self.renumber();
        Ok(())
    }

    /// Rename an element (or the root).
    pub fn rename(&mut self, n: NodeId, new_name: QName) -> Result<()> {
        self.check_alive(n)?;
        match &mut self.data_mut(n).kind {
            NodeKind::Root { name, .. } | NodeKind::Element { name, .. } => {
                *name = new_name;
            }
            NodeKind::Leaf { .. } => return Err(GoddagError::NotAnElement(n)),
        }
        self.bump_epoch();
        Ok(())
    }

    /// Set (or replace) an attribute on an element or the root.
    pub fn set_attr(&mut self, n: NodeId, name: &str, value: &str) -> Result<()> {
        self.check_alive(n)?;
        let qname = attr_name(name)?;
        match &mut self.data_mut(n).kind {
            NodeKind::Root { attrs, .. } | NodeKind::Element { attrs, .. } => {
                if let Some(a) = attrs.iter_mut().find(|a| a.name == qname) {
                    a.value = value.to_string();
                } else {
                    attrs.push(Attribute { name: qname, value: value.to_string() });
                }
            }
            NodeKind::Leaf { .. } => return Err(GoddagError::NotAnElement(n)),
        }
        self.bump_epoch();
        Ok(())
    }

    /// Remove an attribute; returns whether it existed.
    pub fn remove_attr(&mut self, n: NodeId, name: &str) -> Result<bool> {
        self.check_alive(n)?;
        let changed = match &mut self.data_mut(n).kind {
            NodeKind::Root { attrs, .. } | NodeKind::Element { attrs, .. } => {
                let before = attrs.len();
                attrs.retain(|a| a.name.as_str() != name);
                attrs.len() != before
            }
            NodeKind::Leaf { .. } => return Err(GoddagError::NotAnElement(n)),
        };
        if changed {
            self.bump_epoch();
        }
        Ok(changed)
    }

    /// Insert text at byte offset `off`. The text lands in the leaf
    /// containing `off` (all hierarchies see it at once, since leaves are
    /// shared).
    pub fn insert_text(&mut self, off: usize, text: &str) -> Result<()> {
        self.check_offset(off)?;
        if text.is_empty() {
            return Ok(());
        }
        if self.leaves.is_empty() {
            // First content in an empty document.
            let new_leaf = NodeId(self.nodes.len() as u32);
            let nhier = self.hierarchies.len();
            let root = self.root;
            self.nodes.push(NodeData {
                kind: NodeKind::Leaf { text: text.to_string() },
                parent: None,
                children: Vec::new(),
                leaf_parents: vec![root; nhier],
                span: Span::new(0, 1),
                char_start: 0,
                alive: true,
            });
            self.leaves.push(new_leaf);
            for h in 0..nhier {
                self.root_children[h].push(new_leaf);
            }
            self.renumber();
            return Ok(());
        }
        // Attach to the leaf containing off; at the very end, to the last.
        let i = if off == self.content_len {
            self.leaves.len() - 1
        } else {
            self.leaves.partition_point(|&l| self.data(l).char_start <= off).saturating_sub(1)
        };
        let leaf = self.leaves[i];
        let local = off - self.data(leaf).char_start;
        if let NodeKind::Leaf { text: t } = &mut self.data_mut(leaf).kind {
            t.insert_str(local, text);
        }
        self.renumber();
        Ok(())
    }

    /// Delete the content bytes `start..end`. Leaves emptied by the deletion
    /// are removed from the frontier (and from every hierarchy); elements
    /// left without leaves become empty elements.
    pub fn delete_text(&mut self, start: usize, end: usize) -> Result<()> {
        if start > end {
            return Err(GoddagError::RangeOutOfBounds { start, end, len: self.content_len });
        }
        self.check_offset(start)?;
        self.check_offset(end)?;
        if start == end {
            return Ok(());
        }
        // Trim each intersecting leaf.
        let mut emptied: Vec<NodeId> = Vec::new();
        for i in 0..self.leaves.len() {
            let leaf = self.leaves[i];
            let cstart = self.data(leaf).char_start;
            let clen = match &self.data(leaf).kind {
                NodeKind::Leaf { text } => text.len(),
                _ => 0,
            };
            let cend = cstart + clen;
            if cend <= start || cstart >= end {
                continue;
            }
            let cut_from = start.max(cstart) - cstart;
            let cut_to = end.min(cend) - cstart;
            if let NodeKind::Leaf { text } = &mut self.data_mut(leaf).kind {
                text.replace_range(cut_from..cut_to, "");
                if text.is_empty() {
                    emptied.push(leaf);
                }
            }
        }
        // Drop emptied leaves everywhere.
        for leaf in emptied {
            let leaf_parents = self.data(leaf).leaf_parents.clone();
            for h in self.hierarchy_ids() {
                let p = leaf_parents[h.idx()];
                let list = self.child_list_mut(p, h);
                list.retain(|&c| c != leaf);
            }
            self.leaves.retain(|&l| l != leaf);
            self.data_mut(leaf).alive = false;
        }
        self.renumber();
        Ok(())
    }

    /// Merge adjacent leaves that have identical parent sets — the inverse of
    /// leaf splitting, used by editors to keep the frontier minimal after
    /// markup removal. Returns the number of merges performed.
    pub fn coalesce_leaves(&mut self) -> usize {
        let mut merges = 0;
        let mut i = 0;
        while i + 1 < self.leaves.len() {
            let a = self.leaves[i];
            let b = self.leaves[i + 1];
            if self.data(a).leaf_parents == self.data(b).leaf_parents {
                // Also require b to be adjacent in every parent's child list
                // (no milestone between them).
                let adjacent = self.hierarchy_ids().all(|h| {
                    let p = self.data(a).leaf_parents[h.idx()];
                    let list = self.children_in(p, h);
                    match list.iter().position(|&c| c == a) {
                        Some(pos) => list.get(pos + 1) == Some(&b),
                        None => false,
                    }
                });
                if adjacent {
                    let btext = match &self.data(b).kind {
                        NodeKind::Leaf { text } => text.clone(),
                        _ => unreachable!("frontier holds only leaves"),
                    };
                    if let NodeKind::Leaf { text } = &mut self.data_mut(a).kind {
                        text.push_str(&btext);
                    }
                    let leaf_parents = self.data(b).leaf_parents.clone();
                    for h in self.hierarchy_ids() {
                        let p = leaf_parents[h.idx()];
                        let list = self.child_list_mut(p, h);
                        list.retain(|&c| c != b);
                    }
                    self.leaves.remove(i + 1);
                    self.data_mut(b).alive = false;
                    merges += 1;
                    continue; // retry same i (may merge further)
                }
            }
            i += 1;
        }
        if merges > 0 {
            self.renumber();
        }
        merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use crate::validate::check_invariants;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    fn base() -> (Goddag, HierarchyId, HierarchyId) {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("one two three four");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(phys, "line", vec![], 8, 18).unwrap();
        let g = b.finish().unwrap();
        (g, phys, ling)
    }

    #[test]
    fn split_leaf_refines_frontier() {
        let (mut g, _, _) = base();
        let before = g.leaf_count();
        g.split_leaf_at(2).unwrap();
        assert_eq!(g.leaf_count(), before + 1);
        assert_eq!(g.content(), "one two three four");
        check_invariants(&g).unwrap();
        // Splitting at an existing boundary is a no-op.
        g.split_leaf_at(2).unwrap();
        assert_eq!(g.leaf_count(), before + 1);
    }

    #[test]
    fn split_leaf_rejects_bad_offsets() {
        let (mut g, _, _) = base();
        assert!(g.split_leaf_at(1000).is_err());
    }

    #[test]
    fn insert_element_overlapping_other_hierarchy() {
        let (mut g, _, ling) = base();
        // "two three" crosses the phys line boundary — overlap across
        // hierarchies is legal.
        let s = g.insert_element(ling, q("s"), vec![], 4, 13).unwrap();
        assert_eq!(g.text_of(s), "two three");
        check_invariants(&g).unwrap();
        let lines = g.find_elements("line");
        assert!(g.span(s).overlaps(g.span(lines[0])));
        assert!(g.span(s).overlaps(g.span(lines[1])));
    }

    #[test]
    fn insert_element_crossing_same_hierarchy_rejected() {
        let (mut g, phys, _) = base();
        // "two three" crosses line 1 within the same hierarchy — rejected.
        let err = g.insert_element(phys, q("bad"), vec![], 4, 13).unwrap_err();
        assert!(matches!(err, GoddagError::WouldCross { .. }), "{err}");
        check_invariants(&g).unwrap();
        assert_eq!(g.find_elements("bad").len(), 0);
    }

    #[test]
    fn insert_element_nested_same_hierarchy() {
        let (mut g, phys, _) = base();
        let w = g.insert_element(phys, q("seg"), vec![], 0, 3).unwrap();
        assert_eq!(g.text_of(w), "one");
        let line = g.find_elements("line")[0];
        assert_eq!(g.parent_in(w, phys), Some(line));
        check_invariants(&g).unwrap();
    }

    #[test]
    fn insert_element_wrapping_whole_lines() {
        let (mut g, phys, _) = base();
        let folio = g.insert_element(phys, q("folio"), vec![], 0, 18).unwrap();
        let lines = g.find_elements("line");
        assert_eq!(g.parent_in(lines[0], phys), Some(folio));
        assert_eq!(g.parent_in(lines[1], phys), Some(folio));
        assert_eq!(g.parent_in(folio, phys), Some(g.root()));
        check_invariants(&g).unwrap();
    }

    #[test]
    fn insert_empty_element_milestone() {
        let (mut g, phys, _) = base();
        let pb = g.insert_element(phys, q("pb"), vec![], 8, 8).unwrap();
        assert!(g.span(pb).is_empty());
        assert_eq!(g.char_range(pb), (8, 8));
        check_invariants(&g).unwrap();
    }

    #[test]
    fn remove_element_splices_children() {
        let (mut g, phys, _) = base();
        let lines = g.find_elements("line");
        let line0_children = g.children(lines[0]);
        g.remove_element(lines[0]).unwrap();
        assert!(!g.is_alive(lines[0]));
        // Its leaves are now root children in phys.
        for c in line0_children {
            assert_eq!(g.parent_in(c, phys), Some(g.root()));
        }
        assert_eq!(g.content(), "one two three four");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn remove_root_rejected() {
        let (mut g, _, _) = base();
        assert!(matches!(g.remove_element(g.root()), Err(GoddagError::CannotTouchRoot)));
    }

    #[test]
    fn remove_leaf_rejected() {
        let (mut g, _, _) = base();
        let leaf = g.leaves()[0];
        assert!(matches!(g.remove_element(leaf), Err(GoddagError::NotAnElement(_))));
    }

    #[test]
    fn double_remove_rejected() {
        let (mut g, _, _) = base();
        let line = g.find_elements("line")[0];
        g.remove_element(line).unwrap();
        assert!(matches!(g.remove_element(line), Err(GoddagError::DeadNode(_))));
    }

    #[test]
    fn attrs_roundtrip() {
        let (mut g, _, _) = base();
        let line = g.find_elements("line")[0];
        g.set_attr(line, "n", "1").unwrap();
        assert_eq!(g.attr(line, "n"), Some("1"));
        g.set_attr(line, "n", "2").unwrap();
        assert_eq!(g.attr(line, "n"), Some("2"));
        assert!(g.remove_attr(line, "n").unwrap());
        assert!(!g.remove_attr(line, "n").unwrap());
        assert!(g.set_attr(g.leaves()[0], "x", "1").is_err());
    }

    #[test]
    fn rename_element() {
        let (mut g, _, _) = base();
        let line = g.find_elements("line")[0];
        g.rename(line, q("verse")).unwrap();
        assert_eq!(g.name(line).unwrap().local, "verse");
        assert_eq!(g.find_elements("line").len(), 1);
    }

    #[test]
    fn insert_text_grows_content() {
        let (mut g, _, _) = base();
        g.insert_text(3, "!!").unwrap();
        assert_eq!(g.content(), "one!! two three four");
        // Spans survive: line 1 still covers the (grown) first segment.
        let line = g.find_elements("line")[0];
        assert_eq!(g.text_of(line), "one!! two");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn insert_text_into_empty_document() {
        let mut g = Goddag::new(q("r"));
        g.add_hierarchy("a");
        g.insert_text(0, "hello").unwrap();
        assert_eq!(g.content(), "hello");
        assert_eq!(g.leaf_count(), 1);
        check_invariants(&g).unwrap();
    }

    #[test]
    fn delete_text_within_leaf() {
        let (mut g, _, _) = base();
        g.delete_text(0, 2).unwrap();
        assert_eq!(g.content(), "e two three four");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn delete_text_across_leaves_removes_empty() {
        let (mut g, _, ling) = base();
        g.insert_element(ling, q("w"), vec![], 4, 7).unwrap(); // "two"
        let before_leaves = g.leaf_count();
        // Delete "two " entirely (4..8) — the "two" leaf empties out.
        g.delete_text(4, 8).unwrap();
        assert_eq!(g.content(), "one three four");
        assert!(g.leaf_count() < before_leaves);
        check_invariants(&g).unwrap();
        // The w element lost all leaves and became empty.
        let w = g.find_elements("w")[0];
        assert!(g.span(w).is_empty());
    }

    #[test]
    fn coalesce_leaves_merges_frontier() {
        let (mut g, _, _) = base();
        let before = g.leaf_count();
        g.split_leaf_at(2).unwrap();
        assert_eq!(g.leaf_count(), before + 1);
        let merges = g.coalesce_leaves();
        assert_eq!(merges, 1);
        assert_eq!(g.leaf_count(), before);
        assert_eq!(g.content(), "one two three four");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn coalesce_respects_markup_boundaries() {
        let (mut g, _, _) = base();
        // Boundaries at 7/8 separate line1, a space and line2 — the space
        // leaf has different parents than its neighbours, so nothing merges.
        assert_eq!(g.coalesce_leaves(), 0);
    }

    #[test]
    fn insert_element_after_remove_reuses_structure() {
        let (mut g, phys, ling) = base();
        let s = g.insert_element(ling, q("s"), vec![], 0, 7).unwrap();
        g.remove_element(s).unwrap();
        let again = g.insert_element(ling, q("s"), vec![], 0, 7).unwrap();
        assert_eq!(g.text_of(again), "one two");
        let _ = phys;
        check_invariants(&g).unwrap();
    }

    #[test]
    fn unknown_hierarchy_rejected() {
        let (mut g, _, _) = base();
        assert!(matches!(
            g.insert_element(HierarchyId(42), q("x"), vec![], 0, 3),
            Err(GoddagError::NoSuchHierarchy(_))
        ));
    }

    #[test]
    fn insert_with_attrs() {
        let (mut g, _, ling) = base();
        let w = g.insert_element(ling, q("w"), vec![Attribute::new("id", "w1")], 0, 3).unwrap();
        assert_eq!(g.attr(w, "id"), Some("w1"));
    }
}
