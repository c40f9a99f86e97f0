//! Hostile input on the document decoders: stand-off text and `DocBlob`
//! text reach the program from disk (snapshots, WAL `DocInsert` replay),
//! the wire (`Insert`) and replication (snapshot install). Whatever the
//! bytes, decoding returns `Ok` or `Err`; it never panics.
//!
//! Two named regressions (an empty attribute name on the root and on an
//! annotation) plus a seeded, bounded mutation sweep over both formats.
//! Blob mutations carry a valid CRC footer (recomputed for a mutated
//! body, or written by `DocBlob::to_text` for a mutated stand-off
//! payload), so they reach `restore`.

use cxfault::splitmix64;
use cxpersist::{crc32, DocBlob};
use goddag::Goddag;
use sacx::{export_standoff, import_standoff, StandoffDoc};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutation rounds per test: 600 stand-off inputs and 1200 blobs.
const CASES: usize = 600;

/// Run `f`; a panic fails the test with the input that caused it.
fn no_panic<T>(what: &str, input: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
        let shown: String = input.chars().take(600).collect();
        panic!("{what} panicked on:\n{shown}")
    })
}

/// Every way the stand-off decoder is entered.
fn decode_standoff(text: &str) {
    no_panic("import_standoff", text, || drop(import_standoff(text)));
    no_panic("StandoffDoc::to_goddag", text, || {
        drop(StandoffDoc::parse_text(text).and_then(|d| d.to_goddag()))
    });
}

/// A blob through the codec and `restore`.
fn decode_blob(text: &str) {
    no_panic("DocBlob::restore", text, || {
        drop(DocBlob::parse_text(text).and_then(|b| b.restore()))
    });
}

fn seeds() -> Vec<Goddag> {
    let mut figure = corpus::figure1::goddag();
    corpus::dtds::attach_standard(&mut figure);
    let mut history = corpus::generate_with_history(&corpus::Params::sized(40)).goddag;
    corpus::dtds::attach_standard(&mut history);
    vec![figure, history]
}

/// Bytes a mutation splices in: format delimiters, digits, huge numbers
/// and a multi-byte char.
const PIECES: &[&str] = &[
    " ",
    "=",
    "\n",
    ":",
    "-",
    "%",
    "%zz",
    "0",
    "9",
    "18446744073709551615",
    "4294967296",
    "æ",
    "",
];

/// Apply 1–3 random edits (delete, splice, duplicate a line, truncate) to
/// `text`, keeping it valid UTF-8.
fn mutate(text: &str, rng: &mut u64) -> String {
    let mut s = text.to_string();
    for _ in 0..1 + splitmix64(rng) % 3 {
        let at = |rng: &mut u64, s: &str| {
            let mut i = (splitmix64(rng) % (s.len() as u64 + 1)) as usize;
            while !s.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        match splitmix64(rng) % 4 {
            0 => {
                let a = at(rng, &s);
                let mut b = (a + 1 + (splitmix64(rng) % 8) as usize).min(s.len());
                while !s.is_char_boundary(b) {
                    b += 1;
                }
                s.replace_range(a..b, "");
            }
            1 => {
                let a = at(rng, &s);
                s.insert_str(a, PIECES[(splitmix64(rng) % PIECES.len() as u64) as usize]);
            }
            2 => {
                let mut lines: Vec<&str> = s.lines().collect();
                let i = (splitmix64(rng) % lines.len().max(1) as u64) as usize;
                if let Some(&l) = lines.get(i) {
                    lines.insert(i, l);
                }
                s = lines.join("\n");
            }
            _ => {
                let a = at(rng, &s);
                s.truncate(a);
            }
        }
    }
    s
}

#[test]
fn empty_attribute_names_are_errors_not_panics() {
    let root = "#cxml-standoff v1\nroot r =w1\nhierarchy h\ncontent 3\nabc\nannot 0 w 0 3\n";
    let annot = "#cxml-standoff v1\nroot r\nhierarchy h\ncontent 3\nabc\nannot 0 w 0 3 =w1\n";
    for text in [root, annot] {
        assert!(no_panic("import_standoff", text, || import_standoff(text)).is_err());
        let valid = text.replace("=w1", "id=w1");
        let g = import_standoff(&valid).expect("the same document with a named attribute");
        let mut blob = DocBlob::capture(&g);
        blob.standoff = blob.standoff.replace("id=w1", "=w1");
        let text = blob.to_text();
        let parsed = DocBlob::parse_text(&text).expect("CRC-valid blob parses");
        assert!(no_panic("DocBlob::restore", &text, || parsed.restore()).is_err());
    }
}

#[test]
fn mutated_standoff_text_never_panics() {
    let texts: Vec<String> = seeds().iter().map(export_standoff).collect();
    let mut rng = 0x5eed_0001;
    for k in 0..CASES {
        decode_standoff(&mutate(&texts[k % texts.len()], &mut rng));
    }
}

#[test]
fn mutated_blobs_with_valid_crc_never_panic() {
    let blobs: Vec<DocBlob> = seeds().iter().map(DocBlob::capture).collect();
    let mut rng = 0x5eed_0002;
    for k in 0..CASES {
        // The whole CRC-covered body, given the footer it now needs.
        let text = blobs[k % blobs.len()].to_text();
        let body = text.rsplit_once("crc ").map_or(text.as_str(), |(b, _)| b);
        let body = mutate(body, &mut rng);
        decode_blob(&format!("{body}crc {:08x}\n", crc32(body.as_bytes())));
        // The stand-off payload alone, re-encoded by `to_text`.
        let mut blob = blobs[k % blobs.len()].clone();
        blob.standoff = mutate(&blob.standoff, &mut rng);
        decode_blob(&blob.to_text());
    }
}
