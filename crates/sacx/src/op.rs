//! The edit-op codec: one line of space-separated tokens per
//! [`EditOp`], with strings in [`encode_token`] form.
//!
//! ```text
//! insel <hierarchy> <tag> <start> <end> <n> (<attr name> <attr value>){n}
//! rmel <node>
//! instext <offset> <text>
//! deltext <start> <end>
//! setattr <node> <name> <value>
//! rmattr <node> <name>
//! ```
//!
//! Every form is self-delimiting — `insel` counts its attribute pairs — so
//! a decoder stops at the op's last token and the caller decides what may
//! follow: the write-ahead log refuses trailing fields, the `cxq1` wire
//! protocol ignores a trailing trace-context pair.

use crate::standoff::{decode_token, encode_token};
use goddag::{EditOp, NodeId};
use std::fmt::Write as _;

/// Append the op's token line to `out`.
pub fn encode_op(out: &mut String, op: &EditOp) {
    match op {
        EditOp::InsertElement { hierarchy, tag, attrs, start, end } => {
            let (h, t, n) = (encode_token(hierarchy), encode_token(tag), attrs.len());
            let _ = write!(out, "insel {h} {t} {start} {end} {n}");
            for (k, v) in attrs {
                let _ = write!(out, " {} {}", encode_token(k), encode_token(v));
            }
        }
        EditOp::RemoveElement(node) => {
            let _ = write!(out, "rmel {}", node.0);
        }
        EditOp::InsertText { offset, text } => {
            let _ = write!(out, "instext {offset} {}", encode_token(text));
        }
        EditOp::DeleteText { start, end } => {
            let _ = write!(out, "deltext {start} {end}");
        }
        EditOp::SetAttr { node, name, value } => {
            let _ =
                write!(out, "setattr {} {} {}", node.0, encode_token(name), encode_token(value));
        }
        EditOp::RemoveAttr { node, name } => {
            let _ = write!(out, "rmattr {} {}", node.0, encode_token(name));
        }
    }
}

/// Decode one op from the front of `toks`, leaving any later tokens
/// unread. Errors are bare detail strings for the caller to wrap.
pub fn decode_op<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<EditOp, String> {
    let op = match toks.next().ok_or("expected edit op kind")? {
        "insel" => {
            let hierarchy = text(toks, "hierarchy")?;
            let tag = text(toks, "tag")?;
            let start = num(toks, "start")?;
            let end = num(toks, "end")?;
            let n: usize = num(toks, "attr count")?;
            // The count is untrusted input: cap the up-front allocation.
            let mut attrs = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                attrs.push((text(toks, "attr name")?, text(toks, "attr value")?));
            }
            EditOp::InsertElement { hierarchy, tag, attrs, start, end }
        }
        "rmel" => EditOp::RemoveElement(NodeId(num(toks, "node")?)),
        "instext" => EditOp::InsertText { offset: num(toks, "offset")?, text: text(toks, "text")? },
        "deltext" => EditOp::DeleteText { start: num(toks, "start")?, end: num(toks, "end")? },
        "setattr" => EditOp::SetAttr {
            node: NodeId(num(toks, "node")?),
            name: text(toks, "attr name")?,
            value: text(toks, "attr value")?,
        },
        "rmattr" => {
            EditOp::RemoveAttr { node: NodeId(num(toks, "node")?), name: text(toks, "attr name")? }
        }
        other => return Err(format!("unknown edit op `{other}`")),
    };
    Ok(op)
}

fn text<'a>(toks: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<String, String> {
    decode_token(toks.next().ok_or_else(|| format!("expected {what}"))?)
}

fn num<'a, T: std::str::FromStr>(
    toks: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    toks.next().and_then(|t| t.parse().ok()).ok_or_else(|| format!("expected {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(op: &EditOp) -> String {
        let mut s = String::new();
        encode_op(&mut s, op);
        s
    }

    #[test]
    fn token_helpers_roundtrip_hard_strings() {
        for s in ["", "%", "a b", "x=y", "line\nbreak", "tab\there", "æøå", "100%"] {
            let e = encode_token(s);
            assert!(!e.is_empty() && !e.contains([' ', '\n', '=']), "{e:?}");
            assert_eq!(decode_token(&e).unwrap(), s);
        }
    }

    #[test]
    fn every_form_roundtrips_and_leaves_trailing_tokens() {
        let ops = [
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: vec![("n".into(), "1".into()), (String::new(), "two words".into())],
                start: 0,
                end: 7,
            },
            EditOp::RemoveElement(NodeId(9)),
            EditOp::InsertText { offset: 4, text: "swa hwa\n".into() },
            EditOp::DeleteText { start: 1, end: 2 },
            EditOp::SetAttr { node: NodeId(4), name: "lemma".into(), value: String::new() },
            EditOp::RemoveAttr { node: NodeId(4), name: "lemma".into() },
        ];
        for op in ops {
            let text = format!("{} tc 1-2", line(&op));
            let mut toks = text.split(' ');
            assert_eq!(decode_op(&mut toks).unwrap(), op);
            assert_eq!(toks.collect::<Vec<_>>(), ["tc", "1-2"]);
        }
        assert_eq!(
            line(&EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: vec![("n".into(), "1".into())],
                start: 0,
                end: 7,
            }),
            "insel ling w 0 7 1 n 1"
        );
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "",
            "frobnicate 1",
            "insel ling w zero 3 0",
            "insel ling w 0 3 2 n 1",
            "insel ling w 0 3 999999999",
            "setattr 5 incomplete",
            "instext 7 %zz",
            "rmel -1",
        ] {
            assert!(decode_op(&mut bad.split(' ')).is_err(), "{bad:?}");
        }
    }
}
