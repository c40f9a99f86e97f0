//! `DocBlob::restore` against documents with an edit history, and against
//! blobs whose recorded leaf frontier is hostile.

use cxpersist::{DocBlob, PersistError};
use goddag::{check_invariants, Goddag};
use std::collections::HashSet;
use xmlcore::QName;

fn edited(words: usize, seed: u64) -> Goddag {
    let mut g =
        corpus::generate_with_history(&corpus::Params { words, seed, ..corpus::Params::default() })
            .goddag;
    corpus::dtds::attach_standard(&mut g);
    g
}

/// Leaf start offsets of a document, in frontier order.
fn frontier(g: &Goddag) -> Vec<usize> {
    g.leaves().iter().map(|&l| g.char_range(l).0).collect()
}

#[test]
fn restore_with_history_reproduces_frontier_standoff_and_next_id() {
    let g = edited(1_000, 11);
    let standoff = sacx::export_standoff(&g);
    let reimported = sacx::import_standoff(&standoff).unwrap();
    assert!(
        g.leaves().len() > reimported.leaves().len(),
        "the history must leave boundaries the markup does not imply"
    );
    assert!(g.arena_len() > g.element_count() + g.leaves().len() + 1, "and tombstones");

    let blob = DocBlob::parse_text(&DocBlob::capture(&g).to_text()).unwrap();
    let r = blob.restore().unwrap();
    check_invariants(&r).unwrap();
    assert_eq!(r.leaves(), g.leaves());
    assert_eq!(frontier(&r), frontier(&g));
    assert_eq!(r.content(), g.content());
    assert_eq!(r.arena_len(), g.arena_len());
    assert_eq!(r.edit_epoch(), g.edit_epoch());
    assert_eq!(sacx::export_standoff(&r), standoff, "stand-off is byte-identical");

    // The next edit mints the same id at the same epoch.
    let ling = g.hierarchy_by_name("ling").unwrap();
    let (s, e) = corpus::generate(&corpus::Params { words: 1_000, seed: 11, ..Default::default() })
        .word_ranges[500];
    let (mut g2, mut r2) = (g.clone(), r.clone());
    let seg = || QName::parse("seg").unwrap();
    let a = g2.insert_element(ling, seg(), vec![], s, e).unwrap();
    let b = r2.insert_element(ling, seg(), vec![], s, e).unwrap();
    assert_eq!(a, b);
    assert_eq!(g2.edit_epoch(), r2.edit_epoch());
    assert_eq!(sacx::export_standoff(&r2), sacx::export_standoff(&g2));
}

/// `blob` with its recorded leaf frontier edited by `f`.
fn with(blob: &DocBlob, f: impl FnOnce(&mut Vec<(u32, usize)>)) -> DocBlob {
    let mut b = blob.clone();
    f(&mut b.leaves);
    b
}

/// A restore of `blob` fails with a codec error, also after a round trip
/// through the text form.
fn assert_refused(blob: &DocBlob, what: &str) {
    match blob.restore() {
        Err(PersistError::Codec { .. }) => {}
        other => panic!("{what}: expected a codec error, got {other:?}"),
    }
    match DocBlob::parse_text(&blob.to_text()).and_then(|b| b.restore()) {
        Err(PersistError::Codec { .. }) => {}
        other => panic!("{what} (text form): expected a codec error, got {other:?}"),
    }
}

#[test]
fn hostile_leaf_offsets_are_codec_errors() {
    let mut g = edited(40, 3);
    g.insert_text(0, "þæt ").unwrap();
    let content = g.content();
    let good = DocBlob::capture(&g);
    good.restore().expect("the unmodified blob restores");
    let last = good.leaves.len() - 1;

    assert_refused(&with(&good, |l| l[last].1 = content.len() + 1), "offset past the end");
    assert_refused(&with(&good, |l| l[last].1 = usize::MAX), "offset at usize::MAX");
    let (at, _) = content.char_indices().find(|(_, c)| c.len_utf8() > 1).unwrap();
    assert_refused(&with(&good, |l| l[last].1 = at + 1), "offset inside a multi-byte char");
    assert_refused(&with(&good, |l| l.push(l[last])), "duplicated entry");

    // A duplicate standing in for an offset the markup implies rebuilds the
    // same frontier size, so only the offsets themselves can tell.
    let implied: HashSet<usize> =
        frontier(&sacx::import_standoff(&good.standoff).unwrap()).into_iter().collect();
    let k = (1..good.leaves.len()).find(|&k| implied.contains(&good.leaves[k].1)).unwrap();
    assert_refused(&with(&good, |l| l[k].1 = l[k - 1].1), "duplicate replacing an implied offset");
}
