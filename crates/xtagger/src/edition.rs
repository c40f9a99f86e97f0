//! Edition bundles: single-file persistence for a whole multihierarchical
//! edition — document, hierarchies and their DTDs.
//!
//! The paper names persistent storage as work in progress (§1: "Work on
//! building persistent storage solutions is currently underway"); this
//! module provides the file format the rest of the framework needs today: a
//! self-contained text bundle holding the stand-off form of the GODDAG plus
//! every hierarchy's DTD, loadable back into a ready-to-edit [`Session`].
//!
//! ```text
//! #cxml-edition v1
//! dtd phys 123
//! <!ELEMENT r (#PCDATA | line)*>
//! ...
//! standoff 456
//! #cxml-standoff v1
//! ...
//! ```

use crate::error::{Result, XTaggerError};
use crate::session::Session;
use goddag::Goddag;
use sacx::{SacxError, StandoffDoc};
use std::fmt::Write as _;

const MAGIC: &str = "#cxml-edition v1";

/// Serialize a document (with its attached DTDs) into a bundle.
pub fn save_edition(g: &Goddag) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    for h in g.hierarchy_ids() {
        let hier = g.hierarchy(h).expect("iterating live ids");
        if let Some(dtd) = &hier.dtd {
            let text = dtd.to_text();
            let _ = writeln!(out, "dtd {} {}", hier.name, text.len());
            out.push_str(&text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
        }
    }
    let standoff = StandoffDoc::from_goddag(g).to_text();
    let _ = writeln!(out, "standoff {}", standoff.len());
    out.push_str(&standoff);
    out
}

/// Load a bundle back into a document with DTDs attached.
pub fn load_edition(input: &str) -> Result<Goddag> {
    let mut rest = input;
    let line = take_line(&mut rest).ok_or_else(|| bad("empty input"))?;
    if line.trim() != MAGIC {
        return Err(bad("bad magic line"));
    }
    let mut dtds: Vec<(String, xmlcore::dtd::Dtd)> = Vec::new();
    let mut goddag: Option<Goddag> = None;
    while let Some(line) = take_line(&mut rest) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(' ');
        match parts.next() {
            Some("dtd") => {
                let name = parts.next().ok_or_else(|| bad("dtd needs a hierarchy name"))?;
                let len: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("dtd needs a byte length"))?;
                let block = take_block(&mut rest, len)?;
                let dtd = xmlcore::dtd::parse_dtd(&block)
                    .map_err(|e| bad(format!("DTD for {name:?}: {e}")))?;
                dtds.push((name.to_string(), dtd));
            }
            Some("standoff") => {
                let len: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("standoff needs a byte length"))?;
                let block = take_block(&mut rest, len)?;
                let doc = StandoffDoc::parse_text(&block).map_err(XTaggerError::Sacx)?;
                goddag = Some(doc.to_goddag().map_err(XTaggerError::Sacx)?);
            }
            Some(other) => return Err(bad(format!("unknown directive {other:?}"))),
            None => {}
        }
    }
    let mut g = goddag.ok_or_else(|| bad("bundle has no standoff section"))?;
    for (name, dtd) in dtds {
        let h = g
            .hierarchy_by_name(&name)
            .ok_or_else(|| bad(format!("DTD for unknown hierarchy {name:?}")))?;
        g.set_dtd(h, dtd).map_err(XTaggerError::Goddag)?;
    }
    Ok(g)
}

/// Load a bundle straight into an editing session.
pub fn open_edition(input: &str) -> Result<Session> {
    Ok(Session::new(load_edition(input)?))
}

fn bad(detail: impl Into<String>) -> XTaggerError {
    XTaggerError::Sacx(SacxError::Standoff { line: 0, detail: detail.into() })
}

fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    match rest.find('\n') {
        Some(i) => {
            let l = &rest[..i];
            *rest = &rest[i + 1..];
            Some(l)
        }
        None => {
            let l = *rest;
            *rest = "";
            Some(l)
        }
    }
}

fn take_block(rest: &mut &str, len: usize) -> Result<String> {
    if rest.len() < len {
        return Err(bad(format!("block length {len} exceeds remaining {}", rest.len())));
    }
    if !rest.is_char_boundary(len) {
        return Err(bad("block length splits a UTF-8 char"));
    }
    let block = rest[..len].to_string();
    *rest = &rest[len..];
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edition() -> Goddag {
        let mut g = corpus::figure1::goddag();
        corpus::dtds::attach_standard(&mut g);
        for name in ["res", "dmg"] {
            let h = g.hierarchy_by_name(name).unwrap();
            g.set_dtd(h, corpus::dtds::edit()).unwrap();
        }
        g
    }

    #[test]
    fn save_load_roundtrip() {
        let g = edition();
        let bundle = save_edition(&g);
        let g2 = load_edition(&bundle).unwrap();
        assert_eq!(g2.content(), g.content());
        assert_eq!(g2.element_count(), g.element_count());
        assert_eq!(g2.hierarchy_count(), g.hierarchy_count());
        // DTDs came back.
        for h in g2.hierarchy_ids() {
            assert!(g2.hierarchy(h).unwrap().dtd.is_some(), "{h}");
        }
        // And the bundle is stable.
        assert_eq!(save_edition(&g2), bundle);
    }

    #[test]
    fn open_edition_gives_working_session() {
        let bundle = save_edition(&edition());
        let mut session = open_edition(&bundle).unwrap();
        let ling = session.goddag().hierarchy_by_name("ling").unwrap();
        // The prevalidation gate is live (DTDs restored): a two-word span
        // inside the sentence can be wrapped in a <phrase>.
        let sugg = session.suggest(ling, 0, 12);
        assert_eq!(sugg, ["phrase"]);
        // And editing works: an editorial <add> over the first word.
        let add = goddag::EditOp::InsertElement {
            hierarchy: "dmg".into(),
            tag: "add".into(),
            attrs: vec![],
            start: 0,
            end: 4,
        };
        session.apply(add).unwrap();
    }

    #[test]
    fn document_without_dtds_roundtrips() {
        let g = corpus::figure1::goddag();
        let bundle = save_edition(&g);
        let g2 = load_edition(&bundle).unwrap();
        assert_eq!(g2.element_count(), g.element_count());
        assert!(g2.hierarchy_ids().all(|h| g2.hierarchy(h).unwrap().dtd.is_none()));
    }

    #[test]
    fn bad_bundles_rejected() {
        assert!(load_edition("").is_err());
        assert!(load_edition("not a bundle").is_err());
        assert!(load_edition("#cxml-edition v1\n").is_err()); // no standoff
        assert!(load_edition("#cxml-edition v1\nwat 3\nxxx").is_err());
        assert!(load_edition("#cxml-edition v1\ndtd ghost 10\n<!ELEMENT ").is_err());
    }

    #[test]
    fn truncated_block_rejected() {
        let err = load_edition("#cxml-edition v1\nstandoff 9999\nshort").unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn dtd_for_unknown_hierarchy_rejected() {
        let g = corpus::figure1::goddag();
        let standoff = StandoffDoc::from_goddag(&g).to_text();
        let dtd_text = corpus::dtds::phys().to_text();
        let bundle = format!(
            "#cxml-edition v1\ndtd ghost {}\n{}standoff {}\n{}",
            dtd_text.len(),
            dtd_text,
            standoff.len(),
            standoff
        );
        assert!(load_edition(&bundle).is_err());
    }
}
