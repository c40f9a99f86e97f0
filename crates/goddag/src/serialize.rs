//! Serialization of GODDAG documents.
//!
//! * [`Goddag::to_xml`] — project one hierarchy back to a well-formed XML
//!   document (the inverse of parsing a distributed document; paper §4,
//!   "filtering feature for partially viewing and/or exporting a subset of
//!   document encodings").
//! * [`Goddag::to_distributed`] — all hierarchies, one document each.
//! * [`Goddag::to_dot`] — GraphViz rendering of the whole DAG, the shape the
//!   paper's Figure 2 shows (shared root on top, shared leaves at the
//!   bottom, one tree per hierarchy in between).

use crate::error::Result;
use crate::graph::{Goddag, NodeKind};
use crate::ids::{HierarchyId, NodeId};
use std::fmt::Write as _;
use xmlcore::Writer;

/// Options for DOT output.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name.
    pub name: String,
    /// Include leaf text in labels (truncated to `text_limit`).
    pub show_text: bool,
    /// Maximum chars of leaf text shown.
    pub text_limit: usize,
}

impl Default for DotOptions {
    fn default() -> DotOptions {
        DotOptions { name: "goddag".into(), show_text: true, text_limit: 12 }
    }
}

impl Goddag {
    /// Serialize one hierarchy as a standalone XML document.
    ///
    /// The output contains the shared root (with its name and attributes),
    /// this hierarchy's elements, and the full text content — exactly the
    /// "distributed document" for this hierarchy.
    pub fn to_xml(&self, h: HierarchyId) -> Result<String> {
        self.hierarchy(h)?;
        let mut w = Writer::new();
        w.start_with(self.name(self.root()).expect("root is named"), self.attrs(self.root()));
        self.write_children(&mut w, self.root(), h)?;
        w.end().map_err(|e| crate::error::GoddagError::Edit(e.to_string()))?;
        w.finish().map_err(|e| crate::error::GoddagError::Edit(e.to_string()))
    }

    /// Write the subtree under `n` in hierarchy `h`. An explicit stack of
    /// child iterators stands in for recursion, so nesting depth is bounded
    /// by memory, not by the thread's stack.
    fn write_children(&self, w: &mut Writer, n: NodeId, h: HierarchyId) -> Result<()> {
        let mut open = vec![self.children_in(n, h).iter()];
        while let Some(siblings) = open.last_mut() {
            let Some(&c) = siblings.next() else {
                open.pop();
                if !open.is_empty() {
                    w.end().map_err(|e| crate::error::GoddagError::Edit(e.to_string()))?;
                }
                continue;
            };
            match self.kind(c) {
                NodeKind::Leaf { text } => {
                    w.text(text);
                }
                NodeKind::Element { name, attrs, .. } => {
                    let children = self.children_in(c, h);
                    if children.is_empty() {
                        w.empty(name, attrs);
                    } else {
                        w.start_with(name, attrs);
                        open.push(children.iter());
                    }
                }
                NodeKind::Root { .. } => unreachable!("root is never a child"),
            }
        }
        Ok(())
    }

    /// Serialize every hierarchy: the distributed-documents representation
    /// (paper §3, "virtual union of XML documents").
    pub fn to_distributed(&self) -> Result<Vec<(String, String)>> {
        self.hierarchy_ids()
            .map(|h| {
                let name = self.hierarchy(h)?.name.clone();
                Ok((name, self.to_xml(h)?))
            })
            .collect()
    }

    /// GraphViz DOT rendering of the full GODDAG (Figure 2 of the paper).
    pub fn to_dot(&self, opts: &DotOptions) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", opts.name);
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        // Root.
        let _ = writeln!(
            out,
            "  n{} [label=\"<{}> (root)\", shape=ellipse];",
            self.root().0,
            self.name(self.root()).expect("root is named")
        );
        // Elements, clustered by hierarchy for readability.
        for h in self.hierarchy_ids() {
            let hname = &self.hierarchy(h).expect("live id").name;
            let _ = writeln!(out, "  subgraph cluster_{} {{", h.idx());
            let _ = writeln!(out, "    label=\"{hname}\";");
            for e in self.elements_in(h) {
                let label =
                    format!("<{}> {}", self.name(e).expect("elements are named"), self.span(e));
                let _ = writeln!(out, "    n{} [label=\"{}\"];", e.0, escape_dot(&label));
            }
            let _ = writeln!(out, "  }}");
        }
        // Leaves on one rank.
        let _ = writeln!(out, "  {{ rank=same;");
        for &l in self.leaves() {
            let label = if opts.show_text {
                let t = self.leaf_text(l).unwrap_or("");
                let mut t: String = t.chars().take(opts.text_limit).collect();
                if self.leaf_text(l).is_some_and(|full| full.chars().count() > opts.text_limit) {
                    t.push('…');
                }
                format!("\\\"{}\\\"", escape_dot(&t))
            } else {
                format!("leaf {}", self.span(l).start)
            };
            let _ = writeln!(out, "    n{} [label=\"{}\", shape=plaintext];", l.0, label);
        }
        let _ = writeln!(out, "  }}");
        // Edges.
        for h in self.hierarchy_ids() {
            let mut stack = vec![self.root()];
            while let Some(n) = stack.pop() {
                for &c in self.children_in(n, h) {
                    let _ = writeln!(out, "  n{} -> n{};", n.0, c.0);
                    if self.is_element(c) {
                        stack.push(c);
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use xmlcore::QName;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    fn doc() -> Goddag {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("one two three");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(phys, "pb", vec![], 7, 7).unwrap();
        b.range(ling, "w", vec![], 0, 3).unwrap();
        b.range(ling, "s", vec![], 4, 13).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn per_hierarchy_xml() {
        let g = doc();
        let phys = g.hierarchy_by_name("phys").unwrap();
        let ling = g.hierarchy_by_name("ling").unwrap();
        assert_eq!(g.to_xml(phys).unwrap(), "<r><line>one two</line><pb/> three</r>");
        assert_eq!(g.to_xml(ling).unwrap(), "<r><w>one</w> <s>two three</s></r>");
    }

    #[test]
    fn serialized_documents_reparse() {
        let g = doc();
        for (name, xml) in g.to_distributed().unwrap() {
            let dom = xmlcore::dom::Document::parse(&xml)
                .unwrap_or_else(|e| panic!("hierarchy {name} produced invalid XML: {e}\n{xml}"));
            assert_eq!(dom.text_content(dom.root()), g.content(), "hierarchy {name}");
        }
    }

    #[test]
    fn escaping_in_content_and_attrs() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("a < b & c");
        let h = b.hierarchy("x");
        b.range(h, "w", vec![xmlcore::Attribute::new("v", "\"q\"")], 0, 5).unwrap();
        let g = b.finish().unwrap();
        let xml = g.to_xml(h).unwrap();
        assert_eq!(xml, "<r><w v=\"&quot;q&quot;\">a &lt; b</w> &amp; c</r>");
        let dom = xmlcore::dom::Document::parse(&xml).unwrap();
        assert_eq!(dom.text_content(dom.root()), "a < b & c");
    }

    #[test]
    fn dot_output_shape() {
        let g = doc();
        let dot = g.to_dot(&DotOptions::default());
        assert!(dot.starts_with("digraph goddag {"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
        assert!(dot.contains("(root)"));
        assert!(dot.contains("rank=same"));
        // Every live node appears.
        assert!(dot.matches(" -> ").count() >= g.leaf_count());
    }

    #[test]
    fn root_attrs_serialized() {
        let mut b = GoddagBuilder::new(q("r"));
        b.root_attrs(vec![xmlcore::Attribute::new("xml:id", "ms1")]);
        b.content("x");
        let h = b.hierarchy("a");
        let g = b.finish().unwrap();
        assert_eq!(g.to_xml(h).unwrap(), "<r xml:id=\"ms1\">x</r>");
    }

    #[test]
    fn deep_nesting_serializes_without_recursion() {
        // 100k levels overflow a default test-thread stack under a
        // recursive walk.
        const DEPTH: usize = 100_000;
        let mut b = GoddagBuilder::new(q("r"));
        b.content("a".repeat(DEPTH));
        let h = b.hierarchy("deep");
        for i in 0..DEPTH {
            b.range(h, "d", vec![], i, DEPTH).unwrap();
        }
        let g = b.finish().unwrap();
        let want = format!("<r>{}{}</r>", "<d>a".repeat(DEPTH), "</d>".repeat(DEPTH));
        assert_eq!(g.to_xml(h).unwrap(), want);
    }

    #[test]
    fn empty_hierarchy_serializes_content_only() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("plain");
        let h = b.hierarchy("empty");
        let g = b.finish().unwrap();
        assert_eq!(g.to_xml(h).unwrap(), "<r>plain</r>");
    }
}
