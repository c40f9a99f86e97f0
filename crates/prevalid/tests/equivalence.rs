//! Verdict equivalence of the bitset engine against a naive reference.
//!
//! The `naive` module below is the original set-based dynamic program
//! (string-keyed `BTreeMap`s, `BTreeSet<StateId>` state sets, per-span
//! chain fixpoint) kept verbatim as an executable specification. The
//! property tests drive both engines over random small DTDs × random item
//! sequences and require identical potential and strict verdicts, plus an
//! identical insertable set.

use prevalid::{Item, PrevalidEngine};
use proptest::prelude::*;
use xmlcore::dtd::{ContentModel, ContentSpec, Dtd, ElementDecl};

/// The pre-rewrite set-based engine, kept as the reference implementation.
mod naive {
    use prevalid::Item;
    use std::collections::{BTreeMap, BTreeSet};
    use xmlcore::dtd::{Automaton, ContentSpec, Dtd, StateId};

    pub struct NaiveEngine {
        dtd: Dtd,
        automata: BTreeMap<String, Automaton>,
        insertable: BTreeSet<String>,
        closures: BTreeMap<String, Vec<BTreeSet<StateId>>>,
    }

    impl NaiveEngine {
        pub fn new(dtd: Dtd) -> NaiveEngine {
            let mut automata = BTreeMap::new();
            for (name, decl) in &dtd.elements {
                if let ContentSpec::Children(model) = &decl.content {
                    automata.insert(name.clone(), Automaton::compile(model));
                }
            }
            let mut engine = NaiveEngine {
                dtd,
                automata,
                insertable: BTreeSet::new(),
                closures: BTreeMap::new(),
            };
            engine.compute_insertable();
            engine.compute_closures();
            engine
        }

        pub fn insertable(&self) -> &BTreeSet<String> {
            &self.insertable
        }

        fn compute_insertable(&mut self) {
            loop {
                let mut changed = false;
                for (name, decl) in &self.dtd.elements {
                    if self.insertable.contains(name) {
                        continue;
                    }
                    let ok = match &decl.content {
                        ContentSpec::Empty | ContentSpec::Any | ContentSpec::Mixed(_) => true,
                        ContentSpec::Children(_) => {
                            let a = &self.automata[name];
                            self.accepts_free(a, &self.insertable)
                        }
                    };
                    if ok {
                        self.insertable.insert(name.clone());
                        changed = true;
                    }
                }
                if !changed {
                    return;
                }
            }
        }

        fn accepts_free(&self, a: &Automaton, free: &BTreeSet<String>) -> bool {
            let mut seen: BTreeSet<StateId> = BTreeSet::from([0]);
            let mut frontier = vec![0];
            while let Some(q) = frontier.pop() {
                if a.is_accepting(q) {
                    return true;
                }
                for &t in a.transitions_from(q) {
                    let sym = a.entry_symbol(t).expect("non-start states have symbols");
                    if free.contains(sym) && seen.insert(t) {
                        frontier.push(t);
                    }
                }
            }
            false
        }

        fn compute_closures(&mut self) {
            let mut closures = BTreeMap::new();
            for (name, a) in &self.automata {
                let n = a.num_states();
                let mut closure: Vec<BTreeSet<StateId>> = Vec::with_capacity(n);
                for q in 0..n {
                    let mut set = BTreeSet::from([q]);
                    let mut frontier = vec![q];
                    while let Some(s) = frontier.pop() {
                        for &t in a.transitions_from(s) {
                            let sym = a.entry_symbol(t).expect("non-start states have symbols");
                            if self.insertable.contains(sym) && set.insert(t) {
                                frontier.push(t);
                            }
                        }
                    }
                    closure.push(set);
                }
                closures.insert(name.clone(), closure);
            }
            self.closures = closures;
        }

        fn close(&self, element: &str, states: &BTreeSet<StateId>) -> BTreeSet<StateId> {
            let closure = &self.closures[element];
            let mut out = BTreeSet::new();
            for &q in states {
                out.extend(closure[q].iter().copied());
            }
            out
        }

        /// Potential (or strict) validity of `items` for `element`.
        pub fn check(&self, element: &str, items: &[Item], potential: bool) -> bool {
            let Some(decl) = self.dtd.element(element) else {
                return false;
            };
            for item in items {
                if let Item::Elem(n) = item {
                    if self.dtd.element(n).is_none() {
                        return false;
                    }
                }
            }
            match &decl.content {
                ContentSpec::Empty => items.is_empty(),
                ContentSpec::Any => true,
                ContentSpec::Mixed(_) | ContentSpec::Children(_) => {
                    let wrap =
                        if potential { self.build_wrap_table(items) } else { WrapTable::empty() };
                    self.spans_model(element, items, 0, items.len(), &wrap, potential)
                }
            }
        }

        fn spans_model(
            &self,
            element: &str,
            items: &[Item],
            i: usize,
            j: usize,
            wrap: &WrapTable,
            potential: bool,
        ) -> bool {
            let decl = match self.dtd.element(element) {
                Some(d) => d,
                None => return false,
            };
            match &decl.content {
                ContentSpec::Empty => i == j,
                ContentSpec::Any => true,
                ContentSpec::Mixed(allowed) => {
                    let mut reach = vec![false; j - i + 1];
                    reach[0] = true;
                    for p in i..j {
                        if !reach[p - i] {
                            continue;
                        }
                        match &items[p] {
                            Item::Text => reach[p - i + 1] = true,
                            Item::Elem(n) if allowed.iter().any(|a| a == n) => {
                                reach[p - i + 1] = true;
                            }
                            Item::Elem(_) => {}
                        }
                        if potential {
                            for m in p + 1..=j {
                                if allowed.iter().any(|x| wrap.get(p, m, x)) {
                                    reach[m - i] = true;
                                }
                            }
                        }
                    }
                    reach[j - i]
                }
                ContentSpec::Children(_) => {
                    let a = &self.automata[element];
                    let mut states: Vec<BTreeSet<StateId>> = vec![BTreeSet::new(); j - i + 1];
                    states[0] = if potential {
                        self.close(element, &BTreeSet::from([0]))
                    } else {
                        BTreeSet::from([0])
                    };
                    for p in i..j {
                        if states[p - i].is_empty() {
                            continue;
                        }
                        if let Item::Elem(n) = &items[p] {
                            let stepped = a.step(&states[p - i], n);
                            if !stepped.is_empty() {
                                let next =
                                    if potential { self.close(element, &stepped) } else { stepped };
                                states[p - i + 1].extend(next);
                            }
                        }
                        if potential {
                            for m in p + 1..=j {
                                for x in wrap.wrappers(p, m) {
                                    let stepped = a.step(&states[p - i], x);
                                    if !stepped.is_empty() {
                                        let next = self.close(element, &stepped);
                                        states[m - i].extend(next);
                                    }
                                }
                            }
                        }
                    }
                    states[j - i].iter().any(|&q| a.is_accepting(q))
                }
            }
        }

        fn build_wrap_table(&self, items: &[Item]) -> WrapTable {
            let n = items.len();
            let names: Vec<&String> = self.dtd.elements.keys().collect();
            let mut table = WrapTable::empty();
            for len in 0..=n {
                for p in 0..=n.saturating_sub(len) {
                    let m = p + len;
                    if len == 0 {
                        continue;
                    }
                    loop {
                        let mut changed = false;
                        for &x in &names {
                            if table.get(p, m, x) {
                                continue;
                            }
                            if self.spans_model(x, items, p, m, &table, true) {
                                table.set(p, m, x);
                                changed = true;
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                }
            }
            table
        }
    }

    #[derive(Debug, Default)]
    struct WrapTable {
        map: BTreeMap<(usize, usize), BTreeSet<String>>,
    }

    impl WrapTable {
        fn empty() -> WrapTable {
            WrapTable::default()
        }
        fn get(&self, p: usize, m: usize, x: &str) -> bool {
            self.map.get(&(p, m)).is_some_and(|s| s.contains(x))
        }
        fn set(&mut self, p: usize, m: usize, x: &str) {
            self.map.entry((p, m)).or_default().insert(x.to_string());
        }
        fn wrappers(&self, p: usize, m: usize) -> impl Iterator<Item = &str> {
            self.map.get(&(p, m)).into_iter().flatten().map(String::as_str)
        }
    }
}

// ----------------------------------------------------------------------
// Random DTD / sequence generation (seed-driven so the proptest shim's
// integer strategies are all we need)
// ----------------------------------------------------------------------

/// Element names used by generated DTDs: e0..e4 declared, "ghost" sometimes
/// mentioned but never declared.
const NAMES: [&str; 5] = ["e0", "e1", "e2", "e3", "e4"];

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        cxfault::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn name(&mut self, k: usize) -> String {
        // Mostly declared names, occasionally an undeclared one.
        if self.below(12) == 0 {
            "ghost".to_string()
        } else {
            NAMES[self.below(k)].to_string()
        }
    }

    fn model(&mut self, k: usize, depth: usize) -> ContentModel {
        let leaf = depth == 0 || self.below(3) == 0;
        let base = if leaf {
            ContentModel::name(self.name(k))
        } else {
            let arity = 1 + self.below(3);
            let items: Vec<ContentModel> = (0..arity).map(|_| self.model(k, depth - 1)).collect();
            if self.below(2) == 0 {
                ContentModel::seq(items)
            } else {
                ContentModel::choice(items)
            }
        };
        match self.below(4) {
            0 => base.opt(),
            1 => base.star(),
            2 => base.plus(),
            _ => base,
        }
    }

    fn dtd(&mut self) -> Dtd {
        let k = 2 + self.below(NAMES.len() - 1); // 2..=5 declared elements
        let mut dtd = Dtd::new();
        for name in &NAMES[..k] {
            let content = match self.below(5) {
                0 => ContentSpec::Empty,
                1 => ContentSpec::Any,
                2 => {
                    let allowed: Vec<String> = (0..self.below(3)).map(|_| self.name(k)).collect();
                    ContentSpec::Mixed(allowed)
                }
                _ => ContentSpec::Children(self.model(k, 2)),
            };
            dtd.declare(ElementDecl { name: name.to_string(), content, attrs: vec![] });
        }
        dtd
    }

    fn items(&mut self, k: usize, len: usize) -> Vec<Item> {
        (0..len)
            .map(|_| if self.below(4) == 0 { Item::Text } else { Item::elem(self.name(k)) })
            .collect()
    }
}

fn declared_count(dtd: &Dtd) -> usize {
    dtd.elements.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn verdicts_match_naive_reference(seed in 0u64..u64::MAX, len in 0usize..8) {
        let mut gen = Gen(seed);
        let dtd = gen.dtd();
        let k = declared_count(&dtd);
        let items = gen.items(k, len);

        let fast = PrevalidEngine::new(dtd.clone());
        let slow = naive::NaiveEngine::new(dtd);

        prop_assert_eq!(
            fast.insertable(),
            slow.insertable(),
            "insertable sets diverge (seed {})",
            seed
        );
        for element in NAMES.iter().take(k).chain(["ghost"].iter()) {
            let fast_pot = fast.check_sequence(element, &items).ok;
            let slow_pot = slow.check(element, &items, true);
            prop_assert_eq!(
                fast_pot, slow_pot,
                "potential verdict diverges: seed {}, element {}, items {:?}",
                seed, element, &items
            );
            let fast_strict = fast.check_sequence_strict(element, &items).ok;
            let slow_strict = slow.check(element, &items, false);
            prop_assert_eq!(
                fast_strict, slow_strict,
                "strict verdict diverges: seed {}, element {}, items {:?}",
                seed, element, &items
            );
        }
    }

    #[test]
    fn potential_is_implied_by_strict(seed in 0u64..u64::MAX, len in 0usize..8) {
        // Sanity property on the new engine alone: exact validity must
        // imply potential validity.
        let mut gen = Gen(seed ^ 0xabcd_ef12_3456_789a);
        let dtd = gen.dtd();
        let k = declared_count(&dtd);
        let items = gen.items(k, len);
        let engine = PrevalidEngine::new(dtd);
        for element in NAMES.iter().take(k) {
            if engine.check_sequence_strict(element, &items).ok {
                prop_assert!(
                    engine.check_sequence(element, &items).ok,
                    "strict ok but potential rejected: seed {}, element {}, items {:?}",
                    seed, element, &items
                );
            }
        }
    }
}
