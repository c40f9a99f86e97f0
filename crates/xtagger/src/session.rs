//! An xTagger editing session (paper §4, *Authoring tools*): "xTagger allows
//! users to select a document fragment and choose the appropriate markup for
//! it (from any of the XML hierarchies associated with the document). It
//! implements prevalidation checking, which detects encodings that cannot be
//! extended to valid XML with further markup insertions."
//!
//! The session wraps a [`Goddag`] with:
//! * per-hierarchy prevalidation engines (from the hierarchy DTDs);
//! * one edit entry point, [`Session::apply`], over the shared
//!   [`EditOp`] vocabulary;
//! * a **prevalidation gate**: markup insertions that would create a
//!   content-model dead end are refused before they touch the document;
//! * snapshot-based **undo/redo**;
//! * tag **suggestions** for a selection;
//! * Extended XPath querying of the working document.

use crate::error::{Result, XTaggerError};
use goddag::{EditOp, Goddag, HierarchyId, NodeId};
use prevalid::{check_hierarchy, check_insertion, suggest_tags, HierarchyReport, PrevalidEngine};

/// One undo/redo slot.
struct Snapshot {
    /// What produced this state (for history display).
    label: String,
    goddag: Goddag,
}

/// An interactive editing session over a multihierarchical document.
pub struct Session {
    goddag: Goddag,
    engines: Vec<Option<PrevalidEngine>>,
    undo_stack: Vec<Snapshot>,
    redo_stack: Vec<Snapshot>,
    prevalidation: bool,
    history: Vec<String>,
}

impl Session {
    /// Start a session. Prevalidation engines are compiled from each
    /// hierarchy's DTD (hierarchies without DTDs are unchecked).
    pub fn new(goddag: Goddag) -> Session {
        let engines = goddag
            .hierarchy_ids()
            .map(|h| {
                goddag
                    .hierarchy(h)
                    .expect("iterating live ids")
                    .dtd
                    .clone()
                    .map(PrevalidEngine::new)
            })
            .collect();
        Session {
            goddag,
            engines,
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
            prevalidation: true,
            history: Vec::new(),
        }
    }

    /// The working document.
    pub fn goddag(&self) -> &Goddag {
        &self.goddag
    }

    /// Consume the session, returning the document.
    pub fn into_goddag(self) -> Goddag {
        self.goddag
    }

    /// Toggle the prevalidation gate (on by default).
    pub fn set_prevalidation(&mut self, on: bool) {
        self.prevalidation = on;
    }

    /// Is the prevalidation gate active?
    pub fn prevalidation(&self) -> bool {
        self.prevalidation
    }

    /// Edit history: each applied op's codec line, plus `undo …` and
    /// `redo …` entries.
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Undo the last edit. Returns its label.
    pub fn undo(&mut self) -> Result<String> {
        let snap = self.undo_stack.pop().ok_or(XTaggerError::NothingToUndo)?;
        let label = snap.label.clone();
        let current = std::mem::replace(&mut self.goddag, snap.goddag);
        self.redo_stack.push(Snapshot { label: label.clone(), goddag: current });
        self.history.push(format!("undo {label}"));
        Ok(label)
    }

    /// Redo the last undone edit. Returns its label.
    pub fn redo(&mut self) -> Result<String> {
        let snap = self.redo_stack.pop().ok_or(XTaggerError::NothingToRedo)?;
        let label = snap.label.clone();
        let current = std::mem::replace(&mut self.goddag, snap.goddag);
        self.undo_stack.push(Snapshot { label: label.clone(), goddag: current });
        self.history.push(format!("redo {label}"));
        Ok(label)
    }

    // ------------------------------------------------------------------
    // Editing
    // ------------------------------------------------------------------

    /// Apply one edit; returns the element an `InsertElement` created.
    /// With prevalidation on, an `InsertElement` into a hierarchy with a
    /// DTD first goes through [`check_insertion`] — the gate the store runs
    /// too — and is refused if it creates a dead end. A refused or failed
    /// edit leaves the document and the history untouched; an applied one
    /// becomes undoable, labelled with its [`sacx::encode_op`] line.
    pub fn apply(&mut self, op: EditOp) -> Result<Option<NodeId>> {
        if let EditOp::InsertElement { hierarchy, tag, start, end, .. } = &op {
            let gate = self.goddag.hierarchy_by_name(hierarchy).and_then(|h| {
                let engine = self.engines.get(h.idx())?.as_ref()?;
                self.prevalidation.then_some((h, engine))
            });
            if let Some((h, engine)) = gate {
                let verdict = check_insertion(engine, &self.goddag, h, tag, *start, *end);
                if !verdict.ok {
                    return Err(XTaggerError::PrevalidationRejected {
                        tag: tag.clone(),
                        reason: verdict.reason.unwrap_or_else(|| "dead end".into()),
                    });
                }
            }
        }
        let mut label = String::new();
        sacx::encode_op(&mut label, &op);
        let before = self.goddag.clone();
        match self.goddag.apply(op) {
            Ok(node) => {
                self.undo_stack.push(Snapshot { label: label.clone(), goddag: before });
                self.redo_stack.clear();
                self.history.push(label);
                Ok(node)
            }
            Err(e) => {
                // A failed op may have split leaves: restore the document.
                self.goddag = before;
                Err(XTaggerError::Goddag(e))
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries & services
    // ------------------------------------------------------------------

    /// Tags the DTD allows over `start..end` in hierarchy `h` (empty when
    /// the hierarchy has no DTD).
    pub fn suggest(&self, h: HierarchyId, start: usize, end: usize) -> Vec<String> {
        match self.engines.get(h.idx()).and_then(Option::as_ref) {
            Some(engine) => suggest_tags(engine, &self.goddag, h, start, end),
            None => Vec::new(),
        }
    }

    /// Potential-validity report for one hierarchy (`None` without a DTD).
    pub fn validation_status(&self, h: HierarchyId) -> Option<HierarchyReport> {
        self.engines
            .get(h.idx())
            .and_then(Option::as_ref)
            .map(|engine| check_hierarchy(engine, &self.goddag, h))
    }

    /// Run an Extended XPath query against the working document.
    pub fn query(&self, expr: &str) -> Result<Vec<NodeId>> {
        expath::Evaluator::new(&self.goddag)
            .select(expr)
            .map_err(|e| XTaggerError::Query(e.to_string()))
    }

    /// Export a subset of hierarchies as distributed documents.
    pub fn export_filtered(&self, keep: &[HierarchyId]) -> Result<Vec<(String, String)>> {
        crate::filter::export_filtered(&self.goddag, keep).map_err(XTaggerError::Sacx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::GoddagError;
    use xmlcore::dtd::parse_dtd;

    const DTD: &str = "
        <!ELEMENT r (#PCDATA | line | w)*>
        <!ELEMENT line (#PCDATA | w)*>
        <!ELEMENT w (#PCDATA)>
        <!ATTLIST w type CDATA #IMPLIED>
    ";

    fn session() -> (Session, HierarchyId) {
        let mut g = sacx::parse_distributed(&[("phys", "<r>swa hwa swe</r>")]).unwrap();
        let h = g.hierarchy_by_name("phys").unwrap();
        g.set_dtd(h, parse_dtd(DTD).unwrap()).unwrap();
        (Session::new(g), h)
    }

    fn ins(hierarchy: &str, tag: &str, start: usize, end: usize) -> EditOp {
        let (hierarchy, tag) = (hierarchy.into(), tag.into());
        EditOp::InsertElement { hierarchy, tag, attrs: vec![], start, end }
    }

    /// Insert into `phys` and return the new element.
    fn tag(s: &mut Session, tag: &str, start: usize, end: usize) -> Result<NodeId> {
        s.apply(ins("phys", tag, start, end)).map(|n| n.expect("insert yields a node"))
    }

    #[test]
    fn insert_and_undo_redo() {
        let (mut s, _) = session();
        let w = tag(&mut s, "w", 0, 3).unwrap();
        assert_eq!(s.goddag().text_of(w), "swa");
        assert_eq!(s.goddag().element_count(), 1);
        let label = s.undo().unwrap();
        assert_eq!(label, "insel phys w 0 3 0");
        assert_eq!(s.goddag().element_count(), 0);
        s.redo().unwrap();
        assert_eq!(s.goddag().element_count(), 1);
        assert!(s.undo_stack.len() == 1 && s.redo_stack.is_empty());
    }

    #[test]
    fn undo_empty_stack_errors() {
        let (mut s, _) = session();
        assert!(matches!(s.undo(), Err(XTaggerError::NothingToUndo)));
        assert!(matches!(s.redo(), Err(XTaggerError::NothingToRedo)));
    }

    #[test]
    fn new_command_clears_redo() {
        let (mut s, _) = session();
        tag(&mut s, "w", 0, 3).unwrap();
        s.undo().unwrap();
        tag(&mut s, "line", 0, 7).unwrap();
        assert!(matches!(s.redo(), Err(XTaggerError::NothingToRedo)));
    }

    #[test]
    fn prevalidation_gate_refuses_dead_ends() {
        let (mut s, _) = session();
        // <w> holds only PCDATA; wrapping a <line> inside a <w>... first
        // make a line, then try to wrap a larger range in w so the line
        // must nest inside w — w cannot hold line.
        tag(&mut s, "line", 0, 7).unwrap();
        let err = tag(&mut s, "w", 0, 11).unwrap_err();
        assert!(matches!(err, XTaggerError::PrevalidationRejected { .. }), "{err}");
        // Document untouched, command not in undo stack.
        assert_eq!(s.goddag().element_count(), 1);
        assert_eq!(s.undo_stack.len(), 1);
    }

    #[test]
    fn prevalidation_gate_can_be_disabled() {
        let (mut s, h) = session();
        tag(&mut s, "line", 0, 7).unwrap();
        s.set_prevalidation(false);
        // Now the same insert succeeds structurally (w around line) even
        // though it can never validate.
        assert!(tag(&mut s, "w", 0, 11).is_ok());
        let report = s.validation_status(h).unwrap();
        assert!(!report.is_potentially_valid());
    }

    #[test]
    fn crossing_rejected_with_gate_off_too() {
        let (mut s, _) = session();
        s.set_prevalidation(false);
        tag(&mut s, "line", 0, 7).unwrap();
        let err = tag(&mut s, "w", 4, 9).unwrap_err();
        assert!(matches!(err, XTaggerError::Goddag(GoddagError::WouldCross { .. })), "{err}");
        // Failed command leaves no history entry.
        assert_eq!(s.undo_stack.len(), 1);
    }

    #[test]
    fn suggestions_follow_dtd() {
        let (s, h) = session();
        let tags = s.suggest(h, 0, 3);
        assert_eq!(tags, ["line", "w"]);
    }

    #[test]
    fn text_edits_and_undo() {
        let (mut s, _) = session();
        tag(&mut s, "w", 0, 3).unwrap();
        s.apply(EditOp::InsertText { offset: 3, text: "n".into() }).unwrap();
        assert_eq!(s.goddag().content(), "swan hwa swe");
        s.apply(EditOp::DeleteText { start: 0, end: 2 }).unwrap();
        assert_eq!(s.goddag().content(), "an hwa swe");
        s.undo().unwrap();
        s.undo().unwrap();
        assert_eq!(s.goddag().content(), "swa hwa swe");
    }

    #[test]
    fn set_attribute_command() {
        let (mut s, _) = session();
        let w = tag(&mut s, "w", 0, 3).unwrap();
        let set = EditOp::SetAttr { node: w, name: "type".into(), value: "noun".into() };
        s.apply(set).unwrap();
        assert_eq!(s.goddag().attr(w, "type"), Some("noun"));
        s.undo().unwrap();
        assert_eq!(s.goddag().attr(w, "type"), None);
    }

    #[test]
    fn query_inside_session() {
        let (mut s, _) = session();
        tag(&mut s, "w", 0, 3).unwrap();
        tag(&mut s, "w", 4, 7).unwrap();
        let hits = s.query("//w").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(s.query("//w[").is_err());
    }

    #[test]
    fn history_records_commands() {
        let (mut s, _) = session();
        tag(&mut s, "w", 0, 3).unwrap();
        s.undo().unwrap();
        s.redo().unwrap();
        assert_eq!(
            s.history(),
            ["insel phys w 0 3 0", "undo insel phys w 0 3 0", "redo insel phys w 0 3 0"]
        );
    }

    #[test]
    fn remove_markup_and_undo() {
        let (mut s, _) = session();
        let w = tag(&mut s, "w", 0, 3).unwrap();
        s.apply(EditOp::RemoveElement(w)).unwrap();
        assert_eq!(s.goddag().element_count(), 0);
        s.undo().unwrap();
        assert_eq!(s.goddag().element_count(), 1);
    }

    #[test]
    fn multi_hierarchy_session_overlap() {
        let mut g = sacx::parse_distributed(&[
            ("phys", "<r>swa hwa swe</r>"),
            ("ling", "<r>swa hwa swe</r>"),
        ])
        .unwrap();
        let phys = g.hierarchy_by_name("phys").unwrap();
        g.set_dtd(phys, parse_dtd(DTD).unwrap()).unwrap();
        let mut s = Session::new(g);
        tag(&mut s, "line", 0, 7).unwrap();
        // ling has no DTD: anything structurally legal goes, including an
        // element overlapping the phys line.
        s.apply(ins("ling", "s", 4, 11)).unwrap();
        let lines = s.query("//s/overlapping::phys:line").unwrap();
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn export_filtered_from_session() {
        let (mut s, h) = session();
        tag(&mut s, "w", 0, 3).unwrap();
        let docs = s.export_filtered(&[h]).unwrap();
        assert_eq!(docs.len(), 1);
        assert!(docs[0].1.contains("<w>"));
    }
}
