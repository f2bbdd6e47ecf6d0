//! [`JobTable`]: a map keyed by [`JobId`]s, which are dense trace indices.
//!
//! The per-job maps touched on every event (the machine's allocation
//! ledger, each scheduler's running set) need no hashing: a slot vector
//! indexed by id points into a compact `(JobId, V)` list. Lookup is two
//! array loads, removal a `swap_remove` plus one slot fix-up, and
//! iteration walks only the live entries, never the ids long finished.
//! Iteration order is table order, so callers must not depend on it.

use crate::machine::JobId;

/// Slot value of an id with no entry.
const ABSENT: u32 = u32::MAX;

/// A map from dense [`JobId`]s to `V`.
#[derive(Debug, Clone)]
pub struct JobTable<V> {
    /// `slots[id]` is the id's index into `entries`, or [`ABSENT`].
    slots: Vec<u32>,
    /// The live entries, in no particular order.
    entries: Vec<(JobId, V)>,
}

impl<V> Default for JobTable<V> {
    fn default() -> Self {
        JobTable {
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<V> JobTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn index(&self, id: JobId) -> Option<usize> {
        match self.slots.get(id.0 as usize) {
            Some(&ix) if ix != ABSENT => Some(ix as usize),
            _ => None,
        }
    }

    /// The entry for `id`, if any.
    pub fn get(&self, id: JobId) -> Option<&V> {
        self.index(id).map(|ix| &self.entries[ix].1)
    }

    /// Set the entry for `id`, returning the value it replaced.
    pub fn insert(&mut self, id: JobId, value: V) -> Option<V> {
        if let Some(ix) = self.index(id) {
            return Some(std::mem::replace(&mut self.entries[ix].1, value));
        }
        let slot = id.0 as usize;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, ABSENT);
        }
        self.slots[slot] = self.entries.len() as u32;
        self.entries.push((id, value));
        None
    }

    /// Remove and return the entry for `id`, if any.
    pub fn remove(&mut self, id: JobId) -> Option<V> {
        let ix = self.index(id)?;
        self.slots[id.0 as usize] = ABSENT;
        let (_, value) = self.entries.swap_remove(ix);
        if let Some(&(moved, _)) = self.entries.get(ix) {
            self.slots[moved.0 as usize] = ix as u32;
        }
        Some(value)
    }

    /// The values, in table order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = JobTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(JobId(3), 'a'), None);
        assert_eq!(t.insert(JobId(0), 'b'), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(JobId(3)), Some(&'a'));
        assert_eq!(t.get(JobId(1)), None);
        assert_eq!(t.remove(JobId(3)), Some('a'));
        assert_eq!(t.get(JobId(3)), None);
        assert_eq!(t.get(JobId(0)), Some(&'b'));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_replaces_and_returns_the_old_value() {
        let mut t = JobTable::new();
        t.insert(JobId(5), 1);
        assert_eq!(t.insert(JobId(5), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(JobId(5)), Some(&2));
    }

    #[test]
    fn missing_and_out_of_range_ids_are_absent() {
        let mut t: JobTable<u8> = JobTable::new();
        assert_eq!(t.get(JobId(0)), None);
        assert_eq!(t.remove(JobId(0)), None);
        t.insert(JobId(2), 7);
        assert_eq!(t.get(JobId(1)), None);
        assert_eq!(t.get(JobId(1_000)), None);
        assert_eq!(t.remove(JobId(1)), None);
        assert_eq!(t.remove(JobId(u32::MAX)), None);
        assert_eq!(t.remove(JobId(2)), Some(7));
        assert_eq!(t.remove(JobId(2)), None, "double remove");
        assert!(t.is_empty());
    }

    #[test]
    fn removal_keeps_the_moved_entry_reachable() {
        // Removing the first entry swaps the last one into its place.
        let mut t = JobTable::new();
        for id in 0..4 {
            t.insert(JobId(id), id * 10);
        }
        assert_eq!(t.remove(JobId(0)), Some(0));
        for id in 1..4 {
            assert_eq!(t.get(JobId(id)), Some(&(id * 10)));
        }
        let mut values: Vec<_> = t.values().copied().collect();
        values.sort();
        assert_eq!(values, [10, 20, 30]);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Remove(u32),
        Get(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Half the ops insert, often over a live id (a re-insert). Ids
        // up to 80 against inserts that stop at 63: many lookups and
        // removals land past the slot vector's end.
        (0u32..4, 0u32..80, any::<u64>()).prop_map(|(kind, id, v)| match kind {
            0 | 1 => Op::Insert(id % 64, v),
            2 => Op::Remove(id),
            _ => Op::Get(id),
        })
    }

    proptest! {
        #[test]
        fn matches_a_hashmap_model(ops in proptest::collection::vec(op(), 0..200)) {
            let mut table = JobTable::new();
            let mut model: HashMap<JobId, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        prop_assert_eq!(table.insert(JobId(id), v), model.insert(JobId(id), v));
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(table.remove(JobId(id)), model.remove(&JobId(id)));
                    }
                    Op::Get(id) => {
                        prop_assert_eq!(table.get(JobId(id)), model.get(&JobId(id)));
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                let mut got: Vec<u64> = table.values().copied().collect();
                let mut want: Vec<u64> = model.values().copied().collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }
}
