//! What a store edit produced. The operations themselves are
//! [`goddag::EditOp`], applied under the document write lock and gated
//! through prevalidation where a schema is known.

use goddag::NodeId;

/// What an applied edit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditOutcome {
    /// The node created by `InsertElement`, if any.
    pub node: Option<NodeId>,
    /// The document's edit epoch after the operation — callers can use it
    /// to reason about cache validity or to detect concurrent edits.
    pub epoch: u64,
}
