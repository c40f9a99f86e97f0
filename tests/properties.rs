//! Property-based tests over the core invariants:
//!
//! * any set of per-hierarchy well-nested ranges builds a GODDAG satisfying
//!   `check_invariants`;
//! * every representation round-trips the model losslessly;
//! * random edit sequences preserve the invariants and are undone exactly;
//! * the overlap index always agrees with the naive scan.

use goddag::{check_invariants, Goddag, GoddagBuilder, Span};
use proptest::prelude::*;

/// Generate a set of well-nested ranges over `len` units: recursively carve
/// the interval, which guarantees per-hierarchy well-formedness.
fn nested_ranges(len: usize, depth: u32) -> impl Strategy<Value = Vec<(usize, usize)>> {
    // Bounded recursive carving expressed iteratively: sample split points
    // and keep ranges that nest (stack discipline on sorted events).
    proptest::collection::vec((0..=len, 0..=len), 0..12).prop_map(move |raw| {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (a, b) in raw {
            let (s, e) = if a <= b { (a, b) } else { (b, a) };
            // Keep only ranges compatible with all previous (no crossing).
            let crosses = out.iter().any(|&(os, oe)| {
                let inter = s < oe && os < e;
                let nested = (os <= s && e <= oe) || (s <= os && oe <= e);
                inter && !nested
            });
            if !crosses {
                out.push((s, e));
            }
        }
        let _ = depth;
        out
    })
}

fn ascii_content(len: usize) -> String {
    // Deterministic ASCII content — offsets are always char boundaries.
    (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect()
}

fn build(content_len: usize, hierarchies: &[Vec<(usize, usize)>]) -> Goddag {
    let mut b = GoddagBuilder::new(xmlcore::QName::parse("r").unwrap());
    b.content(ascii_content(content_len));
    for (hi, ranges) in hierarchies.iter().enumerate() {
        let h = b.hierarchy(format!("h{hi}"));
        for (i, &(s, e)) in ranges.iter().enumerate() {
            b.range(h, &format!("e{i}"), vec![], s, e).unwrap();
        }
    }
    b.finish().expect("nested ranges always build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_always_satisfies_invariants(
        r1 in nested_ranges(40, 0),
        r2 in nested_ranges(40, 0),
        r3 in nested_ranges(40, 0),
    ) {
        let g = build(40, &[r1, r2, r3]);
        prop_assert!(check_invariants(&g).is_ok());
        prop_assert_eq!(g.content_len(), 40);
    }

    #[test]
    fn distributed_roundtrip_lossless(
        r1 in nested_ranges(30, 0),
        r2 in nested_ranges(30, 0),
    ) {
        let g = build(30, &[r1, r2]);
        let docs = g.to_distributed().unwrap();
        let g2 = sacx::parse_distributed(&docs).unwrap();
        prop_assert_eq!(g2.element_count(), g.element_count());
        prop_assert_eq!(g2.content(), g.content());
        // Per-hierarchy projections identical.
        for h in g.hierarchy_ids() {
            prop_assert_eq!(g.to_xml(h).unwrap(), g2.to_xml(h).unwrap());
        }
    }

    #[test]
    fn standoff_roundtrip_lossless(
        r1 in nested_ranges(30, 0),
        r2 in nested_ranges(30, 0),
    ) {
        let g = build(30, &[r1, r2]);
        let text = sacx::export_standoff(&g);
        let g2 = sacx::import_standoff(&text).unwrap();
        prop_assert_eq!(g2.element_count(), g.element_count());
        prop_assert_eq!(sacx::export_standoff(&g2), text);
    }

    #[test]
    fn fragmentation_roundtrip_preserves_spans(
        r1 in nested_ranges(30, 0),
        r2 in nested_ranges(30, 0),
    ) {
        let g = build(30, &[r1, r2]);
        let opts = sacx::FragmentationOptions::default();
        let xml = sacx::export_fragmentation(&g, &opts).unwrap();
        let g2 = sacx::import_fragmentation(&xml, &opts).unwrap();
        let spans = |g: &Goddag| {
            let mut v: Vec<(String, usize, usize)> = g
                .elements()
                .map(|e| {
                    let (s, en) = g.char_range(e);
                    (g.name(e).unwrap().local.clone(), s, en)
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(spans(&g2), spans(&g));
        prop_assert!(check_invariants(&g2).is_ok());
    }

    #[test]
    fn milestone_roundtrip_preserves_spans(
        r1 in nested_ranges(30, 0),
        r2 in nested_ranges(30, 0),
    ) {
        let g = build(30, &[r1, r2]);
        let opts = sacx::MilestoneOptions::new("h0");
        let xml = sacx::export_milestone(&g, &opts).unwrap();
        let g2 = sacx::import_milestone(&xml, "h0").unwrap();
        prop_assert_eq!(g2.element_count(), g.element_count());
        prop_assert_eq!(g2.content(), g.content());
        prop_assert!(check_invariants(&g2).is_ok());
    }

    #[test]
    fn overlap_index_agrees_with_scan(
        r1 in nested_ranges(30, 0),
        r2 in nested_ranges(30, 0),
        probes in proptest::collection::vec((0u32..32, 0u32..32), 10),
    ) {
        let g = build(30, &[r1, r2]);
        let idx = expath::OverlapIndex::build(&g);
        for (a, b) in probes {
            let (s, e) = if a <= b { (a, b) } else { (b, a) };
            let e = e.min(g.leaf_count() as u32);
            let s = s.min(e);
            let span = Span::new(s, e);
            let mut from_idx = idx.intersecting(span);
            let mut from_scan = expath::scan_intersecting(&g, span);
            g.sort_doc_order(&mut from_idx);
            g.sort_doc_order(&mut from_scan);
            prop_assert_eq!(from_idx, from_scan);
        }
    }

    #[test]
    fn random_edits_preserve_invariants(
        ops in proptest::collection::vec((0usize..3, 0usize..30, 0usize..30), 1..15),
    ) {
        let mut g = build(30, &[vec![(0, 30)], vec![(5, 25)]]);
        let h0 = goddag::HierarchyId(0);
        for (kind, a, b) in ops {
            let (s, e) = if a <= b { (a, b) } else { (b, a) };
            match kind {
                0 => {
                    // Insertion may fail (crossing) — that's fine; it must
                    // not corrupt the document.
                    let _ = g.insert_element(
                        h0,
                        xmlcore::QName::parse("x").unwrap(),
                        vec![],
                        s,
                        e,
                    );
                }
                1 => {
                    let target = g.elements().nth(a % 3);
                    if let Some(e1) = target {
                        let _ = g.remove_element(e1);
                    }
                }
                _ => {
                    let _ = g.split_leaf_at(s.min(g.content_len()));
                }
            }
            prop_assert!(check_invariants(&g).is_ok());
            prop_assert_eq!(g.content_len(), 30);
        }
    }

    #[test]
    fn undo_restores_exact_state(
        s in 0usize..15,
        len in 1usize..10,
    ) {
        let g = build(30, &[vec![(0, 30)], vec![(5, 25)]]);
        let before_docs = g.to_distributed().unwrap();
        let before_counts = (g.element_count(), g.leaf_count(), g.content());
        let mut session = xtagger::Session::new(g);
        let e = (s + len).min(30);
        let op = goddag::EditOp::InsertElement {
            hierarchy: "h0".into(),
            tag: "w".into(),
            attrs: vec![],
            start: s,
            end: e,
        };
        if session.apply(op).is_ok() {
            session.undo().unwrap();
        }
        let g = session.into_goddag();
        prop_assert_eq!(g.to_distributed().unwrap(), before_docs);
        prop_assert_eq!((g.element_count(), g.leaf_count(), g.content()), before_counts);
    }
}
