//! Replayable edit scripts over a [`Session`].
//!
//! The EPT demo (paper Figure 4) drives the editor through recorded
//! interactions; a script gives the library the same capability. Each line
//! is one edit in the shared op codec ([`sacx::encode_op`], the form the
//! write-ahead log and the `cxq1` wire protocol use too), `undo`, `redo`,
//! a blank line or a `#` comment:
//!
//! ```text
//! # tag a word, annotate it, edit the text
//! insel ling w 0 3 1 n 1
//! setattr 12 type verb
//! instext 7 swa%20
//! deltext 0 4
//! rmel 12
//! undo
//! redo
//! ```

use crate::error::{Result, XTaggerError};
use crate::session::Session;
use goddag::{EditOp, NodeId};

/// Run a script against a session: one entry per edit, `undo` or `redo`
/// line — the element an `insel` created, `None` otherwise. Stops at the
/// first error, reporting its line number.
pub fn run_script(session: &mut Session, script: &str) -> Result<Vec<Option<NodeId>>> {
    let mut out = Vec::new();
    for (no, line) in script.lines().enumerate() {
        let step = match line.trim() {
            "" => continue,
            comment if comment.starts_with('#') => continue,
            "undo" => session.undo().map(|_| None),
            "redo" => session.redo().map(|_| None),
            op => parse_op(op).and_then(|op| session.apply(op)),
        };
        out.push(step.map_err(|e| XTaggerError::Query(format!("line {}: {e}", no + 1)))?);
    }
    Ok(out)
}

/// One codec line, with nothing after the op.
fn parse_op(line: &str) -> Result<EditOp> {
    let mut toks = line.split_whitespace();
    let op = sacx::decode_op(&mut toks).map_err(XTaggerError::Query)?;
    match toks.next() {
        None => Ok(op),
        Some(extra) => Err(XTaggerError::Query(format!("unexpected token {extra:?} after op"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let g = sacx::parse_distributed(&[
            ("phys", "<r>swa hwa swe</r>"),
            ("ling", "<r>swa hwa swe</r>"),
        ])
        .unwrap();
        Session::new(g)
    }

    #[test]
    fn parse_insert_with_attrs() {
        assert_eq!(
            parse_op("insel ling w 0 3 2 n 1 type noun").unwrap(),
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: vec![("n".into(), "1".into()), ("type".into(), "noun".into())],
                start: 0,
                end: 3,
            }
        );
    }

    #[test]
    fn parse_all_forms() {
        assert_eq!(parse_op("rmel 5").unwrap(), EditOp::RemoveElement(NodeId(5)));
        assert!(matches!(
            parse_op("setattr 5 type verb").unwrap(),
            EditOp::SetAttr { node: NodeId(5), .. }
        ));
        assert_eq!(
            parse_op("instext 7 swa%20").unwrap(),
            EditOp::InsertText { offset: 7, text: "swa ".into() }
        );
        assert_eq!(parse_op("deltext 0 4").unwrap(), EditOp::DeleteText { start: 0, end: 4 });
        assert!(matches!(parse_op("rmattr 5 type").unwrap(), EditOp::RemoveAttr { .. }));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let mut s = session();
        assert_eq!(run_script(&mut s, "\n   \n  # note\n").unwrap(), []);
        assert!(s.history().is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_op("frobnicate 1").is_err());
        assert!(parse_op("insel ling w zero 3 0").is_err());
        assert!(parse_op("setattr 5 incomplete").is_err());
        assert!(parse_op("instext 7 %zz").is_err());
        assert!(parse_op("deltext 0 4 5").is_err(), "trailing tokens are refused");
    }

    #[test]
    fn script_runs_and_edits() {
        let mut s = session();
        let script = "
            # tag the first two words
            insel ling w 0 3 1 n 1
            insel ling w 4 7 1 n 2
            insel phys line 0 7 0
            insel ling s 0 11 0
            undo
        ";
        let applied = run_script(&mut s, script).unwrap();
        assert_eq!(applied.len(), 5);
        assert!(applied[0].is_some());
        assert!(applied[4].is_none());
        assert_eq!(s.goddag().find_elements("w").len(), 2);
        assert_eq!(s.goddag().find_elements("s").len(), 0); // undone
        assert_eq!(s.goddag().find_elements("line").len(), 1);

        assert_eq!(run_script(&mut s, "redo").unwrap(), [None]);
        assert_eq!(s.goddag().find_elements("s").len(), 1); // redone
        assert_eq!(s.history().last().unwrap(), "redo insel ling s 0 11 0");
    }

    #[test]
    fn malformed_attribute_name_is_an_error() {
        let mut s = session();
        for name in ["%", "1bad"] {
            let err = run_script(&mut s, &format!("insel ling w 0 3 1 {name} x")).unwrap_err();
            assert!(err.to_string().contains("invalid attribute name"), "{err}");
        }
        assert!(s.history().is_empty());
        assert!(s.goddag().find_elements("w").is_empty());
    }

    #[test]
    fn script_error_reports_line() {
        let mut s = session();
        let err = run_script(&mut s, "insel ling w 0 3 0\ninsel nowhere x 0 3 0").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = run_script(&mut s, "# fine\nfrobnicate").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn replay_through_script_matches_direct_api() {
        let mut via_script = session();
        run_script(&mut via_script, "insel ling w 0 3 1 n 1\ninsel phys line 0 7 0").unwrap();

        let mut direct = session();
        let w = EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "w".into(),
            attrs: vec![("n".into(), "1".into())],
            start: 0,
            end: 3,
        };
        direct.apply(w).unwrap();
        let line = EditOp::InsertElement {
            hierarchy: "phys".into(),
            tag: "line".into(),
            attrs: vec![],
            start: 0,
            end: 7,
        };
        direct.apply(line).unwrap();

        assert_eq!(
            via_script.goddag().to_distributed().unwrap(),
            direct.goddag().to_distributed().unwrap()
        );
        assert_eq!(via_script.history(), direct.history());
    }

    #[test]
    fn remove_and_attr_by_node_id() {
        let mut s = session();
        let id = run_script(&mut s, "insel ling w 0 3 0").unwrap()[0].unwrap();
        run_script(&mut s, &format!("setattr {} type verb", id.0)).unwrap();
        assert_eq!(s.goddag().attr(id, "type"), Some("verb"));
        run_script(&mut s, &format!("rmel {}", id.0)).unwrap();
        assert!(!s.goddag().is_alive(id));
    }

    #[test]
    fn text_commands() {
        let mut s = session();
        run_script(&mut s, "instext 3 !\ndeltext 0 2").unwrap();
        assert_eq!(s.goddag().content(), "a! hwa swe");
    }
}
