//! Cross-crate consistency of the prevalidation stack (experiment B3's
//! correctness side):
//!
//! * if `check_insertion` approves an insertion, actually performing it must
//!   succeed structurally and leave the hierarchy potentially valid;
//! * if the strict validator accepts a document, the potential-validity
//!   checker must too (valid ⇒ potentially valid);
//! * every tag in `suggest_tags` is individually insertable, and no
//!   non-suggested declared tag is.

use corpus::{dtds, generate, Params};
use goddag::Goddag;
use prevalid::{check_hierarchy, check_insertion, suggest_tags, PrevalidEngine};
use proptest::prelude::*;

fn manuscript() -> (Goddag, goddag::HierarchyId) {
    let ms = generate(&Params { words: 60, seed: 99, ..Params::default() });
    let mut g = ms.goddag;
    dtds::attach_standard(&mut g);
    let ling = g.hierarchy_by_name("ling").unwrap();
    (g, ling)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn approved_insertions_succeed_and_stay_potentially_valid(
        a in 0usize..300,
        len in 0usize..40,
        tag_idx in 0usize..4,
    ) {
        let (g, ling) = manuscript();
        let engine = PrevalidEngine::new(dtds::ling());
        let content_len = g.content_len();
        let content = g.content();
        let mut s = a.min(content_len);
        let mut e = (a + len).min(content_len);
        while s > 0 && !content.is_char_boundary(s) { s -= 1; }
        while e < content_len && !content.is_char_boundary(e) { e += 1; }
        let tag = ["w", "phrase", "s", "r"][tag_idx];

        let verdict = check_insertion(&engine, &g, ling, tag, s, e);
        if verdict.ok {
            let mut g2 = g.clone();
            let inserted = g2.insert_element(
                ling,
                xmlcore::QName::parse(tag).unwrap(),
                vec![],
                s,
                e,
            );
            prop_assert!(inserted.is_ok(), "approved <{tag}> {s}..{e} failed: {:?}", inserted.err());
            goddag::check_invariants(&g2).unwrap();
            let report = check_hierarchy(&engine, &g2, ling);
            prop_assert!(
                report.is_potentially_valid(),
                "approved <{tag}> {s}..{e} left dead ends: {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn suggestions_are_exactly_the_insertable_tags(
        a in 0usize..200,
        len in 1usize..30,
    ) {
        let (g, ling) = manuscript();
        let engine = PrevalidEngine::new(dtds::ling());
        let content_len = g.content_len();
        let content = g.content();
        let mut s = a.min(content_len);
        let mut e = (a + len).min(content_len);
        while s > 0 && !content.is_char_boundary(s) { s -= 1; }
        while e < content_len && !content.is_char_boundary(e) { e += 1; }

        let suggested = suggest_tags(&engine, &g, ling, s, e);
        for tag in engine.dtd().elements.keys() {
            let approved = check_insertion(&engine, &g, ling, tag, s, e).ok;
            prop_assert_eq!(
                suggested.contains(tag),
                approved,
                "tag {} at {}..{}: suggested={:?}",
                tag, s, e, suggested
            );
        }
    }
}

#[test]
fn valid_implies_potentially_valid() {
    // The generated manuscript validates strictly against its DTDs; the
    // potential-validity checker must therefore accept every hierarchy too.
    let ms = generate(&Params { words: 150, seed: 3, ..Params::default() });
    let mut g = ms.goddag;
    dtds::attach_standard(&mut g);
    for (h, strict) in goddag::validate_all(&g) {
        assert!(strict.is_valid(), "{h}: {:?}", strict.errors);
        let name = g.hierarchy(h).unwrap().name.clone();
        let dtd = g.hierarchy(h).unwrap().dtd.clone().unwrap();
        let engine = PrevalidEngine::new(dtd);
        let report = check_hierarchy(&engine, &g, h);
        assert!(
            report.is_potentially_valid(),
            "hierarchy {name} valid but not potentially valid: {:?}",
            report.failures
        );
    }
}

#[test]
fn gate_matches_engine_through_session() {
    // The Session's gate, the Store's gate and the bare engine must agree.
    let (mut g, ling) = manuscript();
    let engine = PrevalidEngine::new(dtds::ling());
    g.set_dtd(ling, dtds::ling()).unwrap();
    let mut session = xtagger::Session::new(g.clone());
    // A selection spanning two words (phrase fits, page does not).
    let ms = generate(&Params { words: 60, seed: 99, ..Params::default() });
    let (s, _) = ms.word_ranges[0];
    let (_, e) = ms.word_ranges[1];
    for tag in ["phrase", "s", "w", "r"] {
        let op = goddag::EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: tag.into(),
            attrs: vec![],
            start: s,
            end: e,
        };
        let engine_says = check_insertion(&engine, session.goddag(), ling, tag, s, e).ok;
        let gate_says = session.apply(op.clone()).is_ok();
        if gate_says {
            session.undo().unwrap();
        }
        let store = cxstore::Store::new();
        let id = store.insert(g.clone());
        let store_says = store.edit(id, op).is_ok();
        assert_eq!(engine_says, gate_says, "tag {tag}: engine vs session");
        assert_eq!(engine_says, store_says, "tag {tag}: engine vs store");
    }
}
