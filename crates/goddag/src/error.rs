//! GODDAG error types.

use crate::ids::{HierarchyId, NodeId};
use std::fmt;

/// Errors raised by GODDAG construction, navigation and editing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoddagError {
    /// A range lies outside the document content, or its offsets are not on
    /// UTF-8 character boundaries.
    RangeOutOfBounds { start: usize, end: usize, len: usize },
    /// Two ranges in the *same* hierarchy cross each other. (Crossing ranges
    /// in different hierarchies are the framework's whole purpose and are
    /// always legal.)
    CrossingInHierarchy {
        hierarchy: HierarchyId,
        tag_a: String,
        span_a: (usize, usize),
        tag_b: String,
        span_b: (usize, usize),
    },
    /// The hierarchy id is unknown.
    NoSuchHierarchy(HierarchyId),
    /// An edit named a hierarchy the document does not have.
    UnknownHierarchy(String),
    /// The node id is unknown, dead, or of the wrong kind for the operation.
    NotAnElement(NodeId),
    /// Operation expected a leaf node.
    NotALeaf(NodeId),
    /// The node was removed from the graph.
    DeadNode(NodeId),
    /// Inserting the element would break well-formedness inside its own
    /// hierarchy (the target range partially overlaps an existing element of
    /// that hierarchy).
    WouldCross { hierarchy: HierarchyId, existing: NodeId, detail: String },
    /// Attempt to remove or modify the shared root.
    CannotTouchRoot,
    /// Anything else (with a description).
    Edit(String),
}

impl fmt::Display for GoddagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoddagError::RangeOutOfBounds { start, end, len } => write!(
                f,
                "range {start}..{end} is out of bounds or off a char boundary (content length {len})"
            ),
            GoddagError::CrossingInHierarchy { hierarchy, tag_a, span_a, tag_b, span_b } => {
                write!(
                    f,
                    "ranges cross within hierarchy {hierarchy}: <{tag_a}> {}..{} vs <{tag_b}> {}..{}",
                    span_a.0, span_a.1, span_b.0, span_b.1
                )
            }
            GoddagError::NoSuchHierarchy(h) => write!(f, "unknown hierarchy {h}"),
            GoddagError::UnknownHierarchy(name) => write!(f, "unknown hierarchy {name:?}"),
            GoddagError::NotAnElement(n) => write!(f, "{n} is not an element"),
            GoddagError::NotALeaf(n) => write!(f, "{n} is not a leaf"),
            GoddagError::DeadNode(n) => write!(f, "{n} has been removed"),
            GoddagError::WouldCross { hierarchy, existing, detail } => write!(
                f,
                "insertion would cross element {existing} in hierarchy {hierarchy}: {detail}"
            ),
            GoddagError::CannotTouchRoot => write!(f, "the shared root cannot be removed or re-parented"),
            GoddagError::Edit(s) => write!(f, "edit error: {s}"),
        }
    }
}

impl std::error::Error for GoddagError {}

/// Result alias for GODDAG operations.
pub type Result<T> = std::result::Result<T, GoddagError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = GoddagError::CrossingInHierarchy {
            hierarchy: HierarchyId(1),
            tag_a: "line".into(),
            span_a: (0, 10),
            tag_b: "w".into(),
            span_b: (5, 15),
        };
        let s = e.to_string();
        assert!(s.contains("line") && s.contains("w") && s.contains("h1"), "{s}");
    }
}
