//! Offset validation parity: `Goddag::is_char_boundary` and every edit that
//! checks an offset (`split_leaf_at`, `insert_text`, `delete_text`,
//! `insert_element`) accept and reject exactly as a reference built on the
//! whole content string does, with identical error values.
//!
//! The documents are corpus manuscripts (Old English, so multi-byte `æ`,
//! `ð`, `þ` throughout) with extra mid-word leaf splits, probed at every
//! offset in `0..=len + 1`.

use goddag::{check_invariants, Goddag, GoddagError};
use proptest::prelude::*;
use xmlcore::QName;

/// The reference: validate `start..end` against the content string itself.
fn reference(content: &str, start: usize, end: usize) -> Result<(), GoddagError> {
    let len = content.len();
    if start > end {
        return Err(GoddagError::RangeOutOfBounds { start, end, len });
    }
    for off in [start, end] {
        if off > len || !content.is_char_boundary(off) {
            return Err(GoddagError::RangeOutOfBounds { start: off, end: off, len });
        }
    }
    Ok(())
}

/// A corpus manuscript with a guaranteed multi-byte prefix and leaf
/// boundaries at the (char-aligned) offsets `splits` pick.
fn document(words: usize, seed: u64, splits: &[usize]) -> Goddag {
    let mut g =
        corpus::generate(&corpus::Params { words, seed, ..corpus::Params::default() }).goddag;
    g.insert_text(0, "þæt ").unwrap();
    let content = g.content();
    for &pick in splits {
        let mut off = pick % (content.len() + 1);
        while !content.is_char_boundary(off) {
            off -= 1;
        }
        g.split_leaf_at(off).unwrap();
    }
    g
}

/// Run `op` on a copy of `g` and compare its outcome with the reference
/// verdict for `start..end`; a successful op must leave a valid document.
fn check_op(
    g: &Goddag,
    content: &str,
    what: &str,
    start: usize,
    end: usize,
    op: impl FnOnce(&mut Goddag) -> Result<(), GoddagError>,
) {
    let mut c = g.clone();
    let got = op(&mut c);
    assert_eq!(got, reference(content, start, end), "{what} at {start}..{end}");
    if got.is_ok() {
        check_invariants(&c).unwrap_or_else(|e| panic!("{what} at {start}..{end}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn offset_checks_match_the_content_string_reference(
        words in 4usize..24,
        seed in 0u64..10_000,
        splits in proptest::collection::vec(0usize..100_000, 0..8),
    ) {
        let mut g = document(words, seed, &splits);
        let probe = g.add_hierarchy("probe");
        let content = g.content();
        let len = content.len();
        prop_assert!(!content.is_ascii());
        let x = || QName::parse("x").unwrap();
        for off in 0..=len + 1 {
            prop_assert_eq!(
                g.is_char_boundary(off),
                off <= len && content.is_char_boundary(off),
                "is_char_boundary({})", off
            );
            check_op(&g, &content, "split_leaf_at", off, off, |c| c.split_leaf_at(off));
            check_op(&g, &content, "insert_text", off, off, |c| c.insert_text(off, "ð"));
            check_op(&g, &content, "delete_text", 0, off, |c| {
                c.delete_text(0, off)?;
                assert_eq!(c.content(), content[off..]);
                Ok(())
            });
            check_op(&g, &content, "insert_element", 0, off, |c| {
                c.insert_element(probe, x(), vec![], 0, off).map(drop)
            });
            check_op(&g, &content, "insert_element", off, off, |c| {
                c.insert_element(probe, x(), vec![], off, off).map(drop)
            });
        }
    }
}
