//! # xtagger — authoring document-centric concurrent XML
//!
//! The editing layer of the framework (paper §4, *Authoring tools*; Iacob &
//! Dekhtyar, JCDL 2005): an interactive [`Session`] over a GODDAG with
//! selection-based markup insertion, a prevalidation gate powered by the
//! `prevalid` engine, tag suggestions, undo/redo, Extended XPath queries,
//! and hierarchy filtering for partial views/exports. Edits are
//! [`goddag::EditOp`]s — the vocabulary the store, its write-ahead log and
//! the wire protocol share — and scripts ([`run_script`]) are lines of the
//! same op codec.
//!
//! ```
//! use goddag::EditOp;
//! use xtagger::Session;
//! use xmlcore::dtd::parse_dtd;
//!
//! let mut g = sacx::parse_distributed(&[("ling", "<r>swa hwa</r>")]).unwrap();
//! let h = g.hierarchy_by_name("ling").unwrap();
//! g.set_dtd(h, parse_dtd("<!ELEMENT r (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>").unwrap()).unwrap();
//!
//! let mut session = Session::new(g);
//! assert_eq!(session.suggest(h, 0, 3), ["w"]);            // what fits here?
//! let w = EditOp::InsertElement {
//!     hierarchy: "ling".into(), tag: "w".into(), attrs: vec![], start: 0, end: 3,
//! };
//! session.apply(w).unwrap();                               // tag it
//! assert_eq!(session.query("//w").unwrap().len(), 1);     // query it
//! session.undo().unwrap();                                // change your mind
//! ```

mod commands;
mod edition;
mod error;
mod filter;
mod session;

pub use commands::run_script;
pub use edition::{load_edition, open_edition, save_edition};
pub use error::{Result, XTaggerError};
pub use filter::{export_filtered, filter_hierarchies};
pub use session::Session;
