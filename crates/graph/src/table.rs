//! Dense per-node tables.
//!
//! One parse numbers a translation unit's nodes from one counter, children
//! before their parents, so the nodes of a function — every statement and
//! expression of its body — occupy one contiguous id range that ends just
//! below the function's own id and that no other function's nodes enter. A
//! fact the analysis keeps for some of those nodes therefore lives in a
//! [`NodeTable`]: one `u32` slot per id of the range, addressed by the id's
//! offset from the range's start, over a compact vector of the facts
//! themselves. Most ids are holes (for a statement fact, every expression
//! id is one), which costs a slot and nothing else.

use ompdart_frontend::ast::NodeId;

/// The slot of an id that has no fact.
const HOLE: u32 = u32::MAX;

/// Facts of some nodes of one contiguous id range, addressed by id.
#[derive(Clone, Debug)]
pub struct NodeTable<T> {
    /// The id of slot 0.
    base: u32,
    /// Per id of the range: the position of its fact in `values`, or
    /// [`HOLE`].
    slots: Vec<u32>,
    /// The facts, in insertion order.
    values: Vec<T>,
}

impl<T> Default for NodeTable<T> {
    fn default() -> NodeTable<T> {
        NodeTable {
            base: 0,
            slots: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T> NodeTable<T> {
    /// An empty table whose slots cover every id of `ids` (the table still
    /// grows to take an id outside them).
    pub fn spanning(ids: impl IntoIterator<Item = NodeId>) -> NodeTable<T> {
        let (lo, hi) = ids
            .into_iter()
            .fold((u32::MAX, 0), |(lo, hi), id| (lo.min(id.0), hi.max(id.0)));
        match lo <= hi {
            true => NodeTable {
                base: lo,
                slots: vec![HOLE; (hi - lo) as usize + 1],
                values: Vec::new(),
            },
            false => NodeTable::default(),
        }
    }

    /// A table holding `values`, each under the id `id_of` gives it, in the
    /// order given.
    pub fn from_values(values: Vec<T>, id_of: impl Fn(&T) -> NodeId) -> NodeTable<T> {
        let mut table = NodeTable::spanning(values.iter().map(&id_of));
        for (at, value) in values.iter().enumerate() {
            *table.slot_mut(id_of(value)) = at as u32;
        }
        table.values = values;
        table
    }

    /// The position of `id`'s fact in `values`, if it has one. Any id may
    /// be asked, one outside the range included.
    fn position(&self, id: NodeId) -> Option<usize> {
        let offset = id.0.checked_sub(self.base)?;
        match *self.slots.get(offset as usize)? {
            HOLE => None,
            at => Some(at as usize),
        }
    }

    /// The fact of `id`, if it has one.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.position(id).map(|at| &self.values[at])
    }

    /// The fact of `id`, inserted with `make` when it has none.
    pub fn get_or_insert_with(&mut self, id: NodeId, make: impl FnOnce() -> T) -> &mut T {
        let at = match *self.slot_mut(id) {
            HOLE => {
                let at = self.values.len();
                *self.slot_mut(id) = at as u32;
                self.values.push(make());
                at
            }
            at => at as usize,
        };
        &mut self.values[at]
    }

    /// Every fact, in insertion order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The slot of `id`, the range grown to take it.
    fn slot_mut(&mut self, id: NodeId) -> &mut u32 {
        if self.slots.is_empty() {
            self.base = id.0;
        } else if id.0 < self.base {
            let grow = (self.base - id.0) as usize;
            self.slots.splice(0..0, std::iter::repeat_n(HOLE, grow));
            self.base = id.0;
        }
        let offset = (id.0 - self.base) as usize;
        if offset >= self.slots.len() {
            self.slots.resize(offset + 1, HOLE);
        }
        &mut self.slots[offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holes_and_ids_outside_the_range_have_no_fact() {
        let table = NodeTable::from_values(vec![(7, 'a'), (3, 'b'), (5, 'c')], |v| NodeId(v.0));
        assert_eq!(table.get(NodeId(7)), Some(&(7, 'a')));
        assert_eq!(table.get(NodeId(3)), Some(&(3, 'b')));
        assert_eq!(table.position(NodeId(5)), Some(2));
        for hole in [0, 2, 4, 6, 8, u32::MAX] {
            assert_eq!(table.get(NodeId(hole)), None, "{hole}");
        }
        assert_eq!(table.len(), 3);
        assert!(NodeTable::<u8>::default().get(NodeId(0)).is_none());
    }

    #[test]
    fn inserting_grows_the_range_both_ways() {
        let mut table: NodeTable<Vec<u32>> = NodeTable::spanning([NodeId(10), NodeId(12)]);
        table.get_or_insert_with(NodeId(11), Vec::new).push(1);
        table.get_or_insert_with(NodeId(4), Vec::new).push(2);
        table.get_or_insert_with(NodeId(20), Vec::new).push(3);
        table.get_or_insert_with(NodeId(11), Vec::new).push(4);
        assert_eq!(table.get(NodeId(11)), Some(&vec![1, 4]));
        assert_eq!(table.get(NodeId(4)), Some(&vec![2]));
        assert_eq!(table.get(NodeId(20)), Some(&vec![3]));
        assert_eq!(table.get(NodeId(10)), None);
        assert_eq!(table.values().len(), 3);
    }
}
