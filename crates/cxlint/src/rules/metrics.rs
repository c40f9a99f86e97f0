//! `mx-*`: metric-name conformance between code and README.
//!
//! Every `cx_*` metric registered on a [`cxobs`] registry (or exposed
//! raw through `Exposition::write`) must follow the naming scheme, be
//! suffix-typed (`_total` counters, `_ns` histograms, bare gauges), be
//! documented in the README metric table exactly once, and never be
//! registered under two different types. The README table, in turn,
//! must not mention metrics that no longer exist. A `.layer("a.b")`
//! registration is the histogram `cxobs::layer_metric("a.b")`
//! (`cx_a_b_ns`), derived by the same function the registry uses.
//!
//! Rule ids: `mx-name`, `mx-suffix`, `mx-type-collision`,
//! `mx-undocumented`, `mx-doc-dup`, `mx-stale-doc`.

use crate::findings::Finding;
use crate::lexer::Tok;
use crate::source::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// How a metric name entered the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
    /// Raw `Exposition::write`/`write_with` — value semantics are the
    /// caller's, so no suffix typing is enforced.
    Exposed,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Exposed => "exposed",
        }
    }
}

/// One production registration site.
struct Site {
    name: String,
    kind: Kind,
    file: String,
    line: u32,
}

fn registration_kind(method: &str) -> Option<Kind> {
    Some(match method {
        "counter" | "counter_with" => Kind::Counter,
        "gauge" | "gauge_with" => Kind::Gauge,
        "histogram" | "histogram_with" | "layer" => Kind::Histogram,
        "write" | "write_with" => Kind::Exposed,
        _ => return None,
    })
}

/// Collect every production `cx_*` registration/exposition site.
fn sites(ws: &Workspace) -> Vec<Site> {
    let mut out = Vec::new();
    for f in &ws.files {
        let t = &f.lexed.tokens;
        for i in 0..t.len() {
            let Tok::Ident(method) = &t[i].tok else { continue };
            let Some(kind) = registration_kind(method) else { continue };
            if !crate::rules::is_punct(t, i.wrapping_sub(1), '.')
                || !crate::rules::is_punct(t, i + 1, '(')
            {
                continue;
            }
            if !f.is_production(i) {
                continue;
            }
            let consts = std::collections::HashMap::new();
            let Some(mut name) = crate::rules::resolve_str_arg(t, i + 2, &consts) else {
                continue;
            };
            if method == "layer" {
                name = cxobs::layer_metric(&name);
            }
            if !name.starts_with("cx_") {
                continue;
            }
            out.push(Site { name, kind, file: f.path.clone(), line: t[i].line });
        }
    }
    out
}

fn name_well_formed(name: &str) -> bool {
    name.len() > "cx_".len()
        && !name.ends_with('_')
        && !name.contains("__")
        && name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Run the rule family.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let sites = sites(ws);

    // Per-site checks: scheme and suffix typing.
    for s in &sites {
        if !name_well_formed(&s.name) {
            out.push(Finding::new(
                "mx-name",
                &s.file,
                s.line,
                format!(
                    "metric `{}` breaks the `cx_<area>_<what>[_ns|_total]` scheme \
                     (lowercase ascii words joined by single underscores)",
                    s.name
                ),
            ));
        }
        let suffix_problem = match s.kind {
            Kind::Counter if !s.name.ends_with("_total") => Some("counters must end `_total`"),
            Kind::Histogram if !s.name.ends_with("_ns") => Some("histograms must end `_ns`"),
            Kind::Gauge if s.name.ends_with("_total") || s.name.ends_with("_ns") => {
                Some("gauges must not carry a `_total`/`_ns` suffix")
            }
            _ => None,
        };
        if let Some(problem) = suffix_problem {
            out.push(Finding::new(
                "mx-suffix",
                &s.file,
                s.line,
                format!("metric `{}` is a {} — {problem}", s.name, s.kind.label()),
            ));
        }
    }

    // Cross-site: the same name must not be registered under two typed
    // kinds (Exposed is untyped and exempt).
    let mut typed: BTreeMap<&str, BTreeSet<Kind>> = BTreeMap::new();
    for s in &sites {
        if s.kind != Kind::Exposed {
            typed.entry(&s.name).or_default().insert(s.kind);
        }
    }
    for (name, kinds) in &typed {
        if kinds.len() > 1 {
            let s = sites.iter().find(|s| s.name == *name && s.kind != Kind::Exposed).unwrap();
            let kinds: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
            out.push(Finding::new(
                "mx-type-collision",
                &s.file,
                s.line,
                format!(
                    "metric `{name}` registered as {} — one name, one type",
                    kinds.join(" and ")
                ),
            ));
        }
    }

    // README conformance: every live name documented exactly once, no
    // documented name without a live site.
    let documented = crate::rules::readme_table_names(&ws.readme);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for s in &sites {
        if !seen.insert(&s.name) {
            continue;
        }
        match documented.get(&s.name) {
            None => out.push(Finding::new(
                "mx-undocumented",
                &s.file,
                s.line,
                format!("metric `{}` is not in the README metric table", s.name),
            )),
            Some(1) => {}
            Some(n) => out.push(Finding::new(
                "mx-doc-dup",
                "README.md",
                readme_line(&ws.readme, &s.name),
                format!(
                    "metric `{}` appears {n} times in README tables — document it once",
                    s.name
                ),
            )),
        }
    }
    let live: BTreeSet<&str> = sites.iter().map(|s| s.name.as_str()).collect();
    for name in documented.keys() {
        if !live.contains(name.as_str()) {
            out.push(Finding::new(
                "mx-stale-doc",
                "README.md",
                readme_line(&ws.readme, name),
                format!("README documents metric `{name}` but no production code registers it"),
            ));
        }
    }
    out
}

/// First README line (1-based) mentioning `name`, for anchoring
/// table-drift findings.
fn readme_line(readme: &str, name: &str) -> u32 {
    for (i, line) in readme.lines().enumerate() {
        if line.contains(name) {
            return i as u32 + 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(code: &str, readme: &str) -> Workspace {
        let mut w = Workspace::from_files(&[("crates/x/src/lib.rs", code)]);
        w.readme = readme.to_string();
        w
    }

    #[test]
    fn clean_workspace_passes() {
        let w = ws(
            "fn f(r: &Registry) { r.counter(\"cx_ops_total\"); r.histogram(\"cx_op_ns\"); \
             r.gauge(\"cx_depth\"); }",
            "| counters | `cx_ops_total` |\n| latency | `cx_op_ns` |\n| gauges | `cx_depth` |\n",
        );
        assert!(check(&w).is_empty());
    }

    #[test]
    fn suffix_and_scheme_violations() {
        let w = ws(
            "fn f(r: &Registry) { r.counter(\"cx_ops\"); r.histogram(\"cx_op_ms\"); \
             r.gauge(\"cx_depth_total\"); r.counter(\"cx_Bad__name_total\"); }",
            "| t | `cx_ops`, `cx_op_ms`, `cx_depth_total`, `cx_Bad__name_total` |\n",
        );
        let fs = check(&w);
        let count = |r: &str| fs.iter().filter(|f| f.rule == r).count();
        assert_eq!(count("mx-suffix"), 3);
        assert_eq!(count("mx-name"), 1);
    }

    #[test]
    fn type_collision_detected_exposed_exempt() {
        let w = ws(
            "fn f(r: &Registry, e: &mut Exposition) { r.counter(\"cx_x_total\"); \
             r.gauge(\"cx_x_total\"); e.write(\"cx_x_total\", 3); }",
            "| t | `cx_x_total` |\n",
        );
        let fs = check(&w);
        // One type collision (counter+gauge) plus the gauge suffix breach.
        assert!(fs.iter().any(|f| f.rule == "mx-type-collision"));
        assert!(!fs.iter().any(|f| f.rule == "mx-undocumented"));
    }

    #[test]
    fn readme_drift_both_directions() {
        let w = ws(
            "fn f(r: &Registry) { r.counter(\"cx_live_total\"); }",
            "| t | `cx_gone_total` |\n| t | `cx_gone_total` again |\n",
        );
        let fs = check(&w);
        assert!(fs
            .iter()
            .any(|f| f.rule == "mx-undocumented" && f.message.contains("cx_live_total")));
        assert!(fs.iter().any(|f| f.rule == "mx-stale-doc" && f.message.contains("cx_gone_total")));
    }

    #[test]
    fn doc_dup_detected() {
        let w = ws(
            "fn f(r: &Registry) { r.counter(\"cx_live_total\"); }",
            "| t | `cx_live_total` |\n| t | `cx_live_total` |\n",
        );
        let fs = check(&w);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "mx-doc-dup");
        assert_eq!(fs[0].file, "README.md");
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn layers_register_their_derived_histogram() {
        let w = ws(
            "fn f(r: &Registry) { r.layer(\"store.edit\"); r.layer(\"wal.append\"); }",
            "| latency | `cx_store_edit_ns` |\n",
        );
        let fs = check(&w);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "mx-undocumented");
        assert!(fs[0].message.contains("`cx_wal_append_ns`"), "{}", fs[0].message);
    }

    #[test]
    fn test_code_registrations_exempt() {
        let w = ws(
            "#[cfg(test)]\nmod tests { fn f(r: &Registry) { r.counter(\"cx_test_only\"); } }",
            "",
        );
        assert!(check(&w).is_empty());
    }
}
