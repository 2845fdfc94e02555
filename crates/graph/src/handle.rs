//! Node identifiers and oriented handles.
//!
//! A [`Handle`] packs a node id and an orientation into one `u64`, the same
//! `2 * id + orientation` encoding the GBWT uses for its node space, so
//! handles convert to GBWT symbols for free.

use std::fmt;

/// Identifier of a graph node. Node ids start at 1; 0 is reserved so the
/// GBWT can use symbol 0 as its endmarker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The smallest valid node id.
    pub const MIN: NodeId = NodeId(1);

    /// Creates a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is 0 (reserved for the GBWT endmarker).
    pub fn new(id: u64) -> Self {
        assert!(id != 0, "node id 0 is reserved");
        NodeId(id)
    }

    /// The raw integer value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> u64 {
        id.0
    }
}

/// Direction in which a node is traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Orientation {
    /// The node's sequence as stored.
    #[default]
    Forward,
    /// The reverse complement of the node's sequence.
    Reverse,
}

impl Orientation {
    /// The opposite orientation.
    pub fn flip(self) -> Self {
        match self {
            Orientation::Forward => Orientation::Reverse,
            Orientation::Reverse => Orientation::Forward,
        }
    }

    /// `true` for [`Orientation::Reverse`].
    pub fn is_reverse(self) -> bool {
        matches!(self, Orientation::Reverse)
    }
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Orientation::Forward => write!(f, "+"),
            Orientation::Reverse => write!(f, "-"),
        }
    }
}

/// An oriented node: the unit of graph traversal.
///
/// Packed as `2 * node_id + is_reverse`, which is also the GBWT symbol for
/// the traversal, so [`Handle::to_gbwt`] / [`Handle::from_gbwt`] are free.
///
/// # Examples
///
/// ```
/// use mg_graph::{Handle, NodeId, Orientation};
///
/// let h = Handle::new(NodeId::new(7), Orientation::Reverse);
/// assert_eq!(h.node(), NodeId::new(7));
/// assert!(h.orientation().is_reverse());
/// assert_eq!(h.flip().orientation(), Orientation::Forward);
/// assert_eq!(Handle::from_gbwt(h.to_gbwt()), Some(h));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Handle(u64);

/// A container section of handles is their packed `u64`s, as
/// [`Handle::packed`] gives them to the writer. Any value decodes; whether
/// the node exists is the container readers' check.
impl mg_support::mgi::Decode for Handle {
    const SIZE: usize = 8;
    fn decode(bytes: &[u8]) -> Handle {
        Handle(u64::from_le_bytes(bytes.try_into().expect("8-byte handle")))
    }
}

impl Handle {
    /// Creates a handle from a node id and orientation.
    pub fn new(node: NodeId, orientation: Orientation) -> Self {
        Handle(node.0 * 2 + orientation.is_reverse() as u64)
    }

    /// Shorthand for a forward handle.
    pub fn forward(node: NodeId) -> Self {
        Handle::new(node, Orientation::Forward)
    }

    /// Shorthand for a reverse handle.
    pub fn reverse(node: NodeId) -> Self {
        Handle::new(node, Orientation::Reverse)
    }

    /// The node this handle traverses.
    pub fn node(self) -> NodeId {
        NodeId(self.0 / 2)
    }

    /// The traversal orientation.
    pub fn orientation(self) -> Orientation {
        if self.0 & 1 == 1 {
            Orientation::Reverse
        } else {
            Orientation::Forward
        }
    }

    /// The same node in the opposite orientation.
    pub fn flip(self) -> Self {
        Handle(self.0 ^ 1)
    }

    /// The GBWT symbol encoding this traversal.
    pub fn to_gbwt(self) -> u64 {
        self.0
    }

    /// Decodes a GBWT symbol; returns `None` for the endmarker (0/1),
    /// which encodes no node.
    pub fn from_gbwt(symbol: u64) -> Option<Self> {
        if symbol < 2 {
            None
        } else {
            Some(Handle(symbol))
        }
    }

    /// The raw packed value (`2 * id + orient`).
    pub fn packed(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.node(), self.orientation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn handle_packs_and_unpacks() {
        let h = Handle::new(NodeId::new(123), Orientation::Forward);
        assert_eq!(h.node().value(), 123);
        assert_eq!(h.orientation(), Orientation::Forward);
        assert_eq!(h.packed(), 246);
        let r = h.flip();
        assert_eq!(r.node().value(), 123);
        assert!(r.orientation().is_reverse());
        assert_eq!(r.packed(), 247);
    }

    #[test]
    fn flip_is_involution() {
        let h = Handle::reverse(NodeId::new(9));
        assert_eq!(h.flip().flip(), h);
    }

    #[test]
    fn gbwt_symbol_roundtrip() {
        let h = Handle::forward(NodeId::new(1));
        assert_eq!(h.to_gbwt(), 2);
        assert_eq!(Handle::from_gbwt(2), Some(h));
        assert_eq!(Handle::from_gbwt(0), None);
        assert_eq!(Handle::from_gbwt(1), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn node_id_zero_panics() {
        NodeId::new(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Handle::forward(NodeId::new(5)).to_string(), "5+");
        assert_eq!(Handle::reverse(NodeId::new(5)).to_string(), "5-");
    }

    #[test]
    fn ordering_follows_packed_value() {
        let a = Handle::forward(NodeId::new(3));
        let b = Handle::reverse(NodeId::new(3));
        let c = Handle::forward(NodeId::new(4));
        assert!(a < b && b < c);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(id in 1u64..u64::MAX / 2, rev: bool) {
            let o = if rev { Orientation::Reverse } else { Orientation::Forward };
            let h = Handle::new(NodeId::new(id), o);
            prop_assert_eq!(h.node().value(), id);
            prop_assert_eq!(h.orientation(), o);
            prop_assert_eq!(Handle::from_gbwt(h.to_gbwt()), Some(h));
            prop_assert_eq!(h.flip().flip(), h);
            prop_assert_ne!(h.flip(), h);
        }
    }
}
