//! Per-flow state keyed by [`FlowId`], as sorted parallel vectors.

use crate::ids::FlowId;

/// A map from [`FlowId`] to `T` held as two parallel vectors: the ids,
/// sorted and dense, and the values, joined by index. A lookup is a binary
/// search over contiguous ids — one cache line covers 8 flows — instead of
/// a pointer chase per `BTreeMap` node, and iteration walks the value
/// vector linearly. Every traversal is in ascending-id order, exactly like
/// the `BTreeMap` it stands in for, so whatever is derived from a walk
/// (pump order, timer order, snapshot bytes) does not depend on which of
/// the two holds the flows. Meant for the tens of flows one host has live,
/// where the `memmove` of an insert or removal is a few cache lines.
///
/// A removal gives back the room a burst of flows left: once the vectors
/// have room for more than four times what they hold (and for more than
/// eight), they shrink to twice that (and to no fewer than four). The gap
/// between the two factors keeps the shrink amortized O(1) per removal.
#[derive(Debug)]
pub struct FlowTable<T> {
    ids: Vec<FlowId>,
    vals: Vec<T>,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowTable<T> {
    /// The fewest entries a removal shrinks the table to.
    const KEEP: usize = 4;

    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable {
            ids: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of flows held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no flow is held.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sets `flow`'s value, returning the one it replaces.
    pub fn insert(&mut self, flow: FlowId, val: T) -> Option<T> {
        match self.ids.binary_search(&flow) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], val)),
            Err(i) => {
                self.ids.insert(i, flow);
                self.vals.insert(i, val);
                None
            }
        }
    }

    /// Position of `flow` in id order, for [`FlowTable::value_at`]; valid
    /// until the next insertion or removal.
    pub fn index_of(&self, flow: FlowId) -> Option<usize> {
        self.ids.binary_search(&flow).ok()
    }

    /// The value at a position [`FlowTable::index_of`] returned.
    pub fn value_at(&self, i: usize) -> &T {
        &self.vals[i]
    }

    /// Mutable access to the value at a position
    /// [`FlowTable::index_of`] returned.
    pub fn value_at_mut(&mut self, i: usize) -> &mut T {
        &mut self.vals[i]
    }

    /// `flow`'s value, if held.
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        self.index_of(flow).map(|i| &self.vals[i])
    }

    /// Mutable access to `flow`'s value, if held.
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        self.index_of(flow).map(|i| &mut self.vals[i])
    }

    /// Removes `flow`, returning its value if it was held.
    pub fn remove(&mut self, flow: FlowId) -> Option<T> {
        let i = self.index_of(flow)?;
        self.ids.remove(i);
        let val = self.vals.remove(i);
        let keep = (2 * self.ids.len()).max(Self::KEEP);
        if self.ids.capacity() > 2 * keep {
            self.ids.shrink_to(keep);
        }
        if self.vals.capacity() > 2 * keep {
            self.vals.shrink_to(keep);
        }
        Some(val)
    }

    /// `flow`'s value, inserting `make()` first if it is not held.
    pub fn get_or_insert_with(&mut self, flow: FlowId, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.ids.binary_search(&flow) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, flow);
                self.vals.insert(i, make());
                i
            }
        };
        &mut self.vals[i]
    }

    /// The flow ids, ascending.
    pub fn keys(&self) -> std::iter::Copied<std::slice::Iter<'_, FlowId>> {
        self.ids.iter().copied()
    }

    /// The values, in ascending order of their flow ids.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.vals.iter()
    }

    /// Mutable access to the values, in ascending order of their flow ids.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.vals.iter_mut()
    }

    /// `(flow, value)` pairs, ascending by flow id.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowId, &T)> {
        self.ids.iter().zip(&self.vals)
    }

    /// `(flow, mutable value)` pairs, ascending by flow id.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&FlowId, &mut T)> {
        self.ids.iter().zip(&mut self.vals)
    }

    /// Forgets every flow.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The table against the `BTreeMap` it stands in for, over a key
        /// range narrow enough that re-inserts, hits and end positions
        /// dominate: same answers, same ends, same ascending walk.
        #[test]
        fn indistinguishable_from_a_btreemap(
            ops in proptest::collection::vec((0u8..6, 0u64..12), 1..400),
        ) {
            let mut table: FlowTable<usize> = FlowTable::new();
            let mut model: BTreeMap<FlowId, usize> = BTreeMap::new();
            for (tag, &(op, key)) in ops.iter().enumerate() {
                let flow = FlowId(key);
                match op {
                    // Present or not: a duplicate insert replaces.
                    0 | 1 => prop_assert_eq!(table.insert(flow, tag), model.insert(flow, tag)),
                    // Present or not alike.
                    2 => prop_assert_eq!(table.remove(flow), model.remove(&flow)),
                    3 => {
                        let made = *table.get_or_insert_with(flow, || tag);
                        prop_assert_eq!(made, *model.entry(flow).or_insert(tag));
                    }
                    4 => {
                        if let Some(v) = table.get_mut(flow) {
                            *v += 1_000;
                        }
                        if let Some(v) = model.get_mut(&flow) {
                            *v += 1_000;
                        }
                    }
                    _ => {
                        let at = table.index_of(flow);
                        prop_assert_eq!(at.map(|i| *table.value_at(i)), model.get(&flow).copied());
                    }
                }
                prop_assert_eq!(table.get(flow), model.get(&flow));
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert_eq!(table.keys().next(), model.keys().next().copied());
                prop_assert_eq!(table.keys().next_back(), model.keys().next_back().copied());
                prop_assert!(table.iter().eq(model.iter()));
                prop_assert!(table.values().eq(model.values()));
                prop_assert!(table.iter_mut().eq(model.iter_mut()));
            }
            table.clear();
            prop_assert!(table.is_empty() && table.iter().next().is_none());
        }

        /// Bursts of inserts and removals over a wide key range: after
        /// every removal the table has room for at most four times what it
        /// holds (or `2 × KEEP`), and every lookup still answers as the
        /// `BTreeMap` does.
        #[test]
        fn removals_give_room_back_and_change_no_answer(
            ops in proptest::collection::vec((any::<bool>(), 0u64..200, 1usize..40), 1..60),
        ) {
            let mut table: FlowTable<u64> = FlowTable::new();
            let mut model: BTreeMap<FlowId, u64> = BTreeMap::new();
            let bound = |t: &FlowTable<u64>| (4 * t.len()).max(2 * FlowTable::<u64>::KEEP);
            for &(grow, start, n) in &ops {
                for key in (start..).take(n) {
                    let flow = FlowId(key);
                    if grow {
                        prop_assert_eq!(table.insert(flow, key * 3), model.insert(flow, key * 3));
                    } else {
                        prop_assert_eq!(table.remove(flow), model.remove(&flow));
                        prop_assert!(table.ids.capacity() <= bound(&table), "{} ids", table.ids.capacity());
                        prop_assert!(table.vals.capacity() <= bound(&table), "{} vals", table.vals.capacity());
                        for probe in 0..240 {
                            prop_assert_eq!(table.get(FlowId(probe)), model.get(&FlowId(probe)));
                        }
                    }
                }
                prop_assert!(table.iter().eq(model.iter()));
            }
        }
    }
}
