//! A scripted xTagger authoring session (paper §4, *Authoring tools* —
//! the GUI demo, driven through the library API): start from a bare
//! transcription, tag it interactively with prevalidation guarding every
//! insertion, use tag suggestions, make mistakes, undo them.
//!
//! Run with: `cargo run --example xtagger_session`

use corpus::dtds;
use goddag::EditOp;
use xtagger::{Session, XTaggerError};

/// `<tag attrs…>` over content bytes `start..end` of `hierarchy`.
fn markup(hierarchy: &str, tag: &str, attrs: &[(&str, &str)], start: usize, end: usize) -> EditOp {
    let attrs = attrs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    EditOp::InsertElement { hierarchy: hierarchy.into(), tag: tag.into(), attrs, start, end }
}

fn main() {
    // A fresh transcription: content only, three empty hierarchies with
    // their DTDs.
    let transcription = "ðus ælfred us ealdspell reahte";
    let docs = [
        ("phys", format!("<r>{transcription}</r>")),
        ("ling", format!("<r>{transcription}</r>")),
        ("edit", format!("<r>{transcription}</r>")),
    ];
    let mut g = sacx::parse_distributed(&docs).unwrap();
    dtds::attach_standard(&mut g);
    let phys = g.hierarchy_by_name("phys").unwrap();
    let ling = g.hierarchy_by_name("ling").unwrap();
    let edit = g.hierarchy_by_name("edit").unwrap();

    let mut session = Session::new(g);
    println!("== Transcription ==\n  {transcription:?}\n");

    // ------------------------------------------------------------------
    // What can I tag the first word with? (xTagger's suggestion list.)
    // ------------------------------------------------------------------
    println!("== Suggestions for bytes 0..4 (\"ðus\") ==");
    println!("  ling: {:?}", session.suggest(ling, 0, 4));
    println!("  phys: {:?}", session.suggest(phys, 0, 4));
    println!("  edit: {:?}", session.suggest(edit, 0, 4));

    // ------------------------------------------------------------------
    // Tag words and a sentence in ling; a line in phys; damage in edit.
    // Offsets: ðus=0..4 ælfred=5..12 us=13..15 ealdspell=16..25 reahte=26..32
    // (ð and æ are two bytes each).
    // ------------------------------------------------------------------
    let words = [(0usize, 4usize), (5, 12), (13, 15), (16, 25), (26, 32)];
    for (i, &(s, e)) in words.iter().enumerate() {
        let n = (i + 1).to_string();
        let id = session
            .apply(markup("ling", "w", &[("n", &n)], s, e))
            .expect("word markup is always legal here")
            .expect("an insert yields its element");
        println!("tagged <w n={n}> {:?}", session.goddag().text_of(id));
    }
    session.apply(markup("ling", "s", &[], 0, 32)).expect("sentence wraps all words");
    session.apply(markup("phys", "line", &[("n", "1")], 0, 15)).expect("line 1");
    session.apply(markup("phys", "line", &[("n", "2")], 16, 32)).expect("line 2");
    // Damage that overlaps both a word and the line boundary — fine, it
    // lives in its own hierarchy.
    session.apply(markup("edit", "dmg", &[("agent", "damp")], 9, 19)).expect("damage range");
    println!("\nafter tagging: {} elements", session.goddag().element_count());

    // ------------------------------------------------------------------
    // Prevalidation refuses dead ends before they happen.
    // ------------------------------------------------------------------
    println!("\n== Prevalidation gate ==");
    // <s> inside <w> can never validate (w holds #PCDATA only).
    match session.apply(markup("ling", "s", &[], 2, 3)) {
        Err(XTaggerError::PrevalidationRejected { tag, reason }) => {
            println!("  refused <{tag}>: {reason}");
        }
        other => println!("  unexpected: {other:?}"),
    }
    // Crossing markup inside one hierarchy is structurally impossible.
    match session.apply(markup("phys", "line", &[], 10, 20)) {
        Err(e) => println!("  refused crossing line: {e}"),
        Ok(_) => println!("  unexpected acceptance"),
    }

    // ------------------------------------------------------------------
    // Mistake + undo/redo.
    // ------------------------------------------------------------------
    println!("\n== Undo/redo ==");
    let extra = session.apply(markup("edit", "res", &[], 26, 32)).unwrap().unwrap();
    println!("  inserted <res> over {:?}", session.goddag().text_of(extra));
    let label = session.undo().unwrap();
    println!("  undo: {label}");
    session.redo().unwrap();
    println!(
        "  redo; history: {:?}",
        &session.history()[session.history().len().saturating_sub(3)..]
    );

    // ------------------------------------------------------------------
    // Validation status per hierarchy, then query the result.
    // ------------------------------------------------------------------
    println!("\n== Potential validity ==");
    for (name, h) in [("phys", phys), ("ling", ling), ("edit", edit)] {
        let ok = session.validation_status(h).map(|r| r.is_potentially_valid()).unwrap_or(true);
        println!("  {name}: {}", if ok { "potentially valid" } else { "DEAD END" });
    }

    println!("\n== Query the working document ==");
    let damaged = session.query("//dmg/overlapping::ling:w").unwrap();
    let g = session.goddag();
    for w in damaged {
        println!("  damage clips word {:?}", g.text_of(w));
    }

    // ------------------------------------------------------------------
    // Final state, exported per hierarchy.
    // ------------------------------------------------------------------
    println!("\n== Final distributed documents ==");
    for (name, xml) in session.export_filtered(&[phys, ling, edit]).unwrap() {
        println!("  [{name:4}] {xml}");
    }
}
