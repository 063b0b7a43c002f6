//! In-memory relation (set of same-arity tuples) with duplicate elimination and lazily
//! built secondary hash indexes.
//!
//! Tuples are stored row-major in a single flat `Vec<Const>`; a hash-bucket table keyed
//! by tuple hash provides O(1) duplicate detection (verified against the flat store, so
//! hash collisions are handled correctly). Secondary indexes use the same trick: they
//! map the *hash* of a column-subset key to the row ids whose key columns produce that
//! hash, so neither insertion nor probing ever materializes a boxed key tuple. A bucket
//! holds its first row id inline and spills to a heap `Vec` only when a second row
//! shares the hash, so a relation performs no per-row heap allocation on insertion,
//! cloning, index builds or compaction unless keys repeat. Callers
//! that need exact row sets verify candidates against the flat store ([`Relation::probe`]
//! does this; the join pipeline folds the verification into its binding loop, which
//! compares every row against the pattern anyway). Indexes are built on first use and
//! maintained incrementally on insertion, so semi-naive iterations reuse them.
//!
//! [`Relation::ensure_index`] returns a stable [`IndexId`] handle; resolving a column
//! subset to its handle once (at plan-resolution time) lets the evaluator probe with
//! [`Relation::probe_candidates`] without ever searching the index list again.

use crate::ast::Const;
use crate::fx::{fx_hash_one, FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::Hasher as _;

/// A row identifier within one [`Relation`].
pub type RowId = u32;

/// A stable handle for a secondary index of one [`Relation`].
///
/// Handles are positions in the relation's index list; they stay valid across
/// insertions and [`Relation::clear`] (which keeps index definitions). They are only
/// meaningful for the relation that returned them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexId(u32);

/// A set of tuples of fixed arity.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    flat: Vec<Const>,
    /// tuple-hash → row ids with that hash (usually exactly one).
    dedup: Buckets,
    /// Secondary indexes, keyed by the (sorted) column subset they cover.
    indexes: Vec<ColumnIndex>,
    /// Per-row support counts, when counting is enabled (see
    /// [`Relation::enable_counts`]). `None` = plain set semantics.
    counts: Option<Vec<u32>>,
}

#[derive(Clone, Debug)]
struct ColumnIndex {
    columns: Vec<usize>,
    /// key-hash → candidate row ids (collisions possible; callers verify).
    map: Buckets,
}

/// A hash-bucket table: hash → the row ids whose tuple (or index key) has that hash.
type Buckets = FxHashMap<u64, RowIds>;

/// The row ids of one hash bucket, in insertion order. The first row is held inline;
/// the bucket spills to a `Vec` only when a second row shares the hash (a repeated
/// index key, or a genuine hash collision in the dedup table). The enum is as large
/// as a `Vec<RowId>`, so holding a row inline costs no extra table space.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RowIds {
    One(RowId),
    Many(Vec<RowId>),
}

impl RowIds {
    /// Append a row id (the spill from inline to heap happens here).
    #[inline]
    fn push(&mut self, id: RowId) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, id]),
            RowIds::Many(ids) => ids.push(id),
        }
    }

    /// The row ids, in push order.
    #[inline]
    fn as_slice(&self) -> &[RowId] {
        match self {
            RowIds::One(id) => std::slice::from_ref(id),
            RowIds::Many(ids) => ids,
        }
    }
}

/// Record row `id` under `hash` — the one bucket write behind the dedup table and
/// every index (insertion, compaction and index builds alike).
#[inline]
fn push_row(buckets: &mut Buckets, hash: u64, id: RowId) {
    match buckets.entry(hash) {
        Entry::Occupied(mut bucket) => bucket.get_mut().push(id),
        Entry::Vacant(slot) => {
            slot.insert(RowIds::One(id));
        }
    }
}

/// THE index-key hashing scheme: element-wise over the key constants, in index column
/// order, no length prefix. Every producer and consumer of index key hashes (index
/// maintenance, probes, the join pipeline's inline probe hashing) must go through
/// this builder — a divergent copy would silently desynchronize probing from
/// maintenance and drop answers without a panic.
#[derive(Default)]
pub struct KeyHasher(FxHasher);

impl KeyHasher {
    /// Start hashing a key.
    pub fn new() -> KeyHasher {
        KeyHasher::default()
    }

    /// Feed the next key value (values must arrive in index column order).
    ///
    /// Integer constants — the overwhelmingly common case for the generated graph
    /// workloads — take a raw-u64 fast path: one hasher round for the payload instead
    /// of the derived `Hash` impl's discriminant + payload rounds. The scheme stays
    /// internally consistent because every producer and consumer goes through this
    /// builder; a raw-int hash colliding with a symbolic key's hash is harmless, since
    /// all probe candidates are collision-verified against the flat store.
    #[inline]
    pub fn push(&mut self, value: &Const) {
        match value {
            Const::Int(i) => self.0.write_u64(*i as u64),
            other => std::hash::Hash::hash(other, &mut self.0),
        }
    }

    /// The hash of the values fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Hash a sequence of key values with the canonical scheme (see [`KeyHasher`]).
#[inline]
pub fn hash_values<'a>(values: impl IntoIterator<Item = &'a Const>) -> u64 {
    let mut hasher = KeyHasher::new();
    for value in values {
        hasher.push(value);
    }
    hasher.finish()
}

/// Hash the values of `row` at `columns` (in the given column order).
#[inline]
fn hash_columns(row: &[Const], columns: &[usize]) -> u64 {
    hash_values(columns.iter().map(|&c| &row[c]))
}

/// Hash an already-projected key (values in index column order).
#[inline]
pub fn hash_key(key: &[Const]) -> u64 {
    hash_values(key)
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            flat: Vec::new(),
            dedup: FxHashMap::default(),
            indexes: Vec::new(),
            counts: None,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        if self.arity == 0 {
            // A zero-arity relation holds at most the empty tuple; represent presence
            // by a single marker row.
            return usize::from(!self.dedup.is_empty());
        }
        self.flat.len() / self.arity
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuple with the given row id.
    pub fn row(&self, id: RowId) -> &[Const] {
        let start = id as usize * self.arity;
        &self.flat[start..start + self.arity]
    }

    /// Iterate over all tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Const]> + '_ {
        RelationIter {
            relation: self,
            next: 0,
            len: self.len() as RowId,
        }
    }

    /// A watermark capturing the current size of the relation. Tuples inserted after
    /// the watermark was taken can be iterated with [`Relation::iter_from`] — the
    /// delta-extraction primitive used by the incremental engine: take a watermark,
    /// insert, then read back exactly the new tuples. Valid as long as the relation is
    /// not [`Relation::clear`]ed.
    pub fn watermark(&self) -> RowId {
        self.len() as RowId
    }

    /// Iterate over the tuples inserted after `mark` was taken (in insertion order).
    /// Row ids are stable under insertion, so this is exactly the delta since the
    /// watermark.
    pub fn iter_from(&self, mark: RowId) -> impl Iterator<Item = &[Const]> + '_ {
        let len = self.len() as RowId;
        RelationIter {
            relation: self,
            next: mark.min(len),
            len,
        }
    }

    /// The tuples inserted after `mark`, materialized as a new relation of the same
    /// arity (convenience for seeding incremental evaluation).
    pub fn delta_since(&self, mark: RowId) -> Relation {
        let mut delta = Relation::new(self.arity);
        for tuple in self.iter_from(mark) {
            delta.insert(tuple);
        }
        delta
    }

    /// The row id of `tuple` (whose tuple hash is `hash`), if present: its dedup
    /// bucket, verified against the flat store.
    fn find(&self, hash: u64, tuple: &[Const]) -> Option<RowId> {
        let rows = self.dedup.get(&hash)?;
        rows.as_slice()
            .iter()
            .copied()
            .find(|&r| self.row(r) == tuple)
    }

    /// Does the relation contain `tuple`?
    pub fn contains(&self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.find(fx_hash_one(&tuple), tuple).is_some()
    }

    /// Insert a tuple; returns `true` if it was new.
    pub fn insert(&mut self, tuple: &[Const]) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.len(),
            self.arity
        );
        let hash = fx_hash_one(&tuple);
        if self.find(hash, tuple).is_some() {
            return false;
        }
        let id = self.len() as RowId;
        self.flat.extend_from_slice(tuple);
        push_row(&mut self.dedup, hash, id);
        for index in &mut self.indexes {
            push_row(&mut index.map, hash_columns(tuple, &index.columns), id);
        }
        if let Some(counts) = &mut self.counts {
            counts.push(1);
        }
        true
    }

    /// Enable per-row support counts. Existing rows are backfilled with a count of 1;
    /// from here on [`Relation::insert`] records new rows with count 1 and
    /// [`Relation::insert_counted`] bumps the count of already-present tuples instead
    /// of discarding the duplicate. Counting is the bookkeeping behind the
    /// retraction engine's re-derivation phase: the count of a staged fact is the
    /// number of (enumerated) derivations supporting it.
    pub fn enable_counts(&mut self) {
        if self.counts.is_none() {
            self.counts = Some(vec![1; self.len()]);
        }
    }

    /// Are per-row support counts enabled?
    pub fn counting(&self) -> bool {
        self.counts.is_some()
    }

    /// Insert a tuple under counting semantics: a new tuple is stored with count 1
    /// (and `true` is returned); a duplicate bumps the existing row's count instead
    /// of being dropped. Requires [`Relation::enable_counts`].
    pub fn insert_counted(&mut self, tuple: &[Const]) -> bool {
        debug_assert!(self.counting(), "insert_counted requires enabled counts");
        if let Some(id) = self.find(fx_hash_one(&tuple), tuple) {
            if let Some(counts) = &mut self.counts {
                counts[id as usize] = counts[id as usize].saturating_add(1);
            }
            return false;
        }
        self.insert(tuple)
    }

    /// The support count of `tuple`: 0 if absent, the recorded count when counting is
    /// enabled, and 1 for any present tuple of a non-counting relation.
    pub fn count_of(&self, tuple: &[Const]) -> u32 {
        match self.find(fx_hash_one(&tuple), tuple) {
            None => 0,
            Some(id) => match &self.counts {
                Some(counts) => counts[id as usize],
                None => 1,
            },
        }
    }

    /// Remove one tuple; returns `true` if it was present. Removal compacts the flat
    /// store (O(rows)), preserving the insertion order of the survivors and the
    /// stability of [`IndexId`] handles; batch callers should prefer
    /// [`Relation::remove_all`], which pays the compaction once for any number of
    /// tuples. Row ids and watermarks taken before a removal are invalidated.
    pub fn remove(&mut self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        if self.arity == 0 {
            let present = !self.dedup.is_empty();
            self.clear();
            return present;
        }
        if !self.contains(tuple) {
            return false;
        }
        let mut keep = vec![true; self.len()];
        for id in 0..self.len() as RowId {
            if self.row(id) == tuple {
                keep[id as usize] = false;
            }
        }
        self.compact(&keep);
        true
    }

    /// Remove every tuple of `other` (same arity) that is present in `self`; returns
    /// the number of tuples removed. One O(rows) compaction regardless of how many
    /// tuples are removed — the batch-retraction primitive. Survivor insertion order
    /// and [`IndexId`] handles are preserved; prior row ids and watermarks are
    /// invalidated.
    pub fn remove_all(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        if self.arity == 0 {
            if other.is_empty() || self.is_empty() {
                return 0;
            }
            self.clear();
            return 1;
        }
        let mut keep = vec![true; self.len()];
        let mut removed = 0usize;
        for id in 0..self.len() as RowId {
            if other.contains(self.row(id)) {
                keep[id as usize] = false;
                removed += 1;
            }
        }
        if removed > 0 {
            self.compact(&keep);
        }
        removed
    }

    /// Rebuild the flat store, dedup table, counts, and every index map, keeping only
    /// the rows marked in `keep` (in their original order). Index *definitions* are
    /// untouched, so [`IndexId`] handles stay valid across removals, exactly as they
    /// do across [`Relation::clear`].
    fn compact(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        let arity = self.arity;
        let old_flat = std::mem::take(&mut self.flat);
        let old_counts = self.counts.take();
        self.dedup.clear();
        for index in &mut self.indexes {
            index.map.clear();
        }
        if old_counts.is_some() {
            self.counts = Some(Vec::new());
        }
        for (old_id, &kept) in keep.iter().enumerate() {
            if !kept {
                continue;
            }
            let row = &old_flat[old_id * arity..(old_id + 1) * arity];
            let id = self.len() as RowId;
            self.flat.extend_from_slice(row);
            push_row(&mut self.dedup, fx_hash_one(&row), id);
            for index in &mut self.indexes {
                push_row(&mut index.map, hash_columns(row, &index.columns), id);
            }
            if let (Some(counts), Some(old)) = (&mut self.counts, &old_counts) {
                counts.push(old[old_id]);
            }
        }
    }

    /// Insert every tuple of `other` (which must have the same arity); returns the
    /// number of tuples that were new.
    pub fn merge_from(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        let mut added = 0;
        for tuple in other.iter() {
            if self.insert(tuple) {
                added += 1;
            }
        }
        added
    }

    /// Remove all tuples (keeps index definitions, drops their contents).
    pub fn clear(&mut self) {
        self.flat.clear();
        self.dedup.clear();
        for index in &mut self.indexes {
            index.map.clear();
        }
        if let Some(counts) = &mut self.counts {
            counts.clear();
        }
    }

    /// Ensure a secondary index exists on the given column subset and return its
    /// stable handle. Columns must be valid positions; the set is deduplicated and
    /// sorted internally. Building the index is O(rows); subsequent inserts maintain
    /// it. Returns `None` for empty or full-tuple column sets (full scans and the
    /// dedup table already cover those).
    pub fn ensure_index(&mut self, columns: &[usize]) -> Option<IndexId> {
        let mut cols: Vec<usize> = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        if cols.is_empty() || cols.len() >= self.arity {
            return None;
        }
        assert!(
            cols.iter().all(|&c| c < self.arity),
            "index column out of range for arity {}",
            self.arity
        );
        if let Some(existing) = self.index_on(&cols) {
            return Some(existing);
        }
        let mut map = Buckets::default();
        for id in 0..self.len() as RowId {
            push_row(&mut map, hash_columns(self.row(id), &cols), id);
        }
        self.indexes.push(ColumnIndex { columns: cols, map });
        Some(IndexId(self.indexes.len() as u32 - 1))
    }

    /// The handle of the existing index on exactly `columns` (sorted, deduplicated),
    /// if one has been built.
    pub fn index_on(&self, columns: &[usize]) -> Option<IndexId> {
        self.indexes
            .iter()
            .position(|i| i.columns == columns)
            .map(|p| IndexId(p as u32))
    }

    /// The *candidate* row ids whose key columns hash to `key_hash` — the raw hash
    /// bucket of the index, without collision verification. The join pipeline verifies
    /// candidates in its binding loop; other callers should compare the rows' key
    /// columns against the probe key (or use [`Relation::probe`]).
    #[inline]
    pub fn probe_candidates(&self, index: IndexId, key_hash: u64) -> &[RowId] {
        self.indexes[index.0 as usize]
            .map
            .get(&key_hash)
            .map_or(&[], RowIds::as_slice)
    }

    /// The columns covered by `index` (sorted ascending).
    pub fn index_columns(&self, index: IndexId) -> &[usize] {
        &self.indexes[index.0 as usize].columns
    }

    /// The row ids whose values at `columns` (sorted, deduplicated) equal `key`,
    /// collision-verified against the flat store. Requires [`Relation::ensure_index`]
    /// to have been called for `columns`; returns `None` if no such index exists.
    pub fn probe(&self, columns: &[usize], key: &[Const]) -> Option<Vec<RowId>> {
        let index = self.index_on(columns)?;
        let mut rows = Vec::new();
        for &id in self.probe_candidates(index, hash_key(key)) {
            let row = self.row(id);
            if columns.iter().zip(key).all(|(&c, k)| row[c] == *k) {
                rows.push(id);
            }
        }
        Some(rows)
    }

    /// Select all rows matching a pattern of optional constants (one entry per column;
    /// `None` means "any value"). Uses an index if one covering exactly the bound
    /// columns exists, otherwise scans. Results are returned as row ids.
    pub fn select(&self, pattern: &[Option<Const>], out: &mut Vec<RowId>) {
        debug_assert_eq!(pattern.len(), self.arity);
        out.clear();
        let bound: Vec<usize> = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_some().then_some(i))
            .collect();
        if bound.is_empty() {
            out.extend(0..self.len() as RowId);
            return;
        }
        if bound.len() == self.arity {
            // Fully bound: membership test.
            let tuple: Vec<Const> = pattern.iter().map(|p| p.unwrap()).collect();
            out.extend(self.find(fx_hash_one(&tuple.as_slice()), &tuple));
            return;
        }
        if let Some(index) = self.index_on(&bound) {
            let key_hash = hash_values(bound.iter().map(|&c| pattern[c].as_ref().unwrap()));
            for &id in self.probe_candidates(index, key_hash) {
                let row = self.row(id);
                if bound.iter().all(|&c| pattern[c] == Some(row[c])) {
                    out.push(id);
                }
            }
            return;
        }
        // Fallback: scan.
        for id in 0..self.len() as RowId {
            let row = self.row(id);
            if bound.iter().all(|&c| pattern[c] == Some(row[c])) {
                out.push(id);
            }
        }
    }

    /// Estimated heap footprint in bytes: the allocated capacity of the flat store and
    /// the support counts, plus one `(hash, bucket)` entry and one control byte per
    /// slot of the dedup table and of every index table. Spilled multi-row buckets and
    /// allocator slack are not counted; `tests/relation_alloc.rs` checks the figure
    /// against the bytes the allocator really hands out.
    pub(crate) fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        let table = |buckets: &Buckets| buckets.capacity() * (size_of::<(u64, RowIds)>() + 1);
        self.flat.capacity() * size_of::<Const>()
            + self
                .counts
                .as_ref()
                .map_or(0, |c| c.capacity() * size_of::<u32>())
            + table(&self.dedup)
            + self.indexes.iter().map(|i| table(&i.map)).sum::<usize>()
    }

    /// All tuples, cloned into owned vectors (test/diagnostic convenience).
    pub fn to_vec(&self) -> Vec<Vec<Const>> {
        self.iter().map(|r| r.to_vec()).collect()
    }

    /// Sorted tuple list (test convenience, for deterministic comparison).
    pub fn to_sorted_vec(&self) -> Vec<Vec<Const>> {
        let mut v = self.to_vec();
        v.sort();
        v
    }
}

struct RelationIter<'a> {
    relation: &'a Relation,
    next: RowId,
    len: RowId,
}

impl<'a> Iterator for RelationIter<'a> {
    type Item = &'a [Const];

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.len {
            return None;
        }
        let row = self.relation.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.len - self.next) as usize;
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    #[test]
    fn insert_and_dedup() {
        let mut r = Relation::new(2);
        assert!(r.insert(&[c(1), c(2)]));
        assert!(r.insert(&[c(2), c(3)]));
        assert!(!r.insert(&[c(1), c(2)]), "duplicate must be rejected");
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[c(1), c(2)]));
        assert!(!r.contains(&[c(3), c(1)]));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut r = Relation::new(1);
        for i in 0..10 {
            r.insert(&[c(i)]);
        }
        let values: Vec<i64> = r.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn select_with_and_without_index() {
        let mut r = Relation::new(2);
        for i in 0..100i64 {
            r.insert(&[c(i % 10), c(i)]);
        }
        // Unindexed scan.
        let mut out = Vec::new();
        r.select(&[Some(c(3)), None], &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&id| r.row(id)[0] == c(3)));

        // Indexed probe gives the same answer.
        r.ensure_index(&[0]);
        let mut out2 = Vec::new();
        r.select(&[Some(c(3)), None], &mut out2);
        let mut a = out.clone();
        let mut b = out2.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // Probe API directly.
        let rows = r.probe(&[0], &[c(7)]).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(r.probe(&[1], &[c(7)]).is_none(), "no index on column 1");
    }

    #[test]
    fn index_is_maintained_across_inserts() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(10)]);
        r.ensure_index(&[0]);
        r.insert(&[c(1), c(11)]);
        r.insert(&[c(2), c(20)]);
        assert_eq!(r.probe(&[0], &[c(1)]).unwrap().len(), 2);
        assert_eq!(r.probe(&[0], &[c(2)]).unwrap().len(), 1);
        assert_eq!(r.probe(&[0], &[c(9)]).unwrap().len(), 0);
    }

    #[test]
    fn index_ids_are_stable_handles() {
        let mut r = Relation::new(3);
        let id0 = r.ensure_index(&[0]).unwrap();
        let id1 = r.ensure_index(&[1, 2]).unwrap();
        assert_ne!(id0, id1);
        // Re-ensuring returns the same handle; column order is normalized.
        assert_eq!(r.ensure_index(&[2, 1]), Some(id1));
        assert_eq!(r.index_on(&[0]), Some(id0));
        assert_eq!(r.index_on(&[1, 2]), Some(id1));
        assert_eq!(r.index_on(&[1]), None);
        assert_eq!(r.index_columns(id1), &[1, 2]);
        // Handles survive inserts and clears.
        r.insert(&[c(1), c(2), c(3)]);
        r.clear();
        r.insert(&[c(4), c(5), c(6)]);
        assert_eq!(r.probe_candidates(id0, hash_key(&[c(4)])).len(), 1);
        // Trivial column sets are refused.
        assert_eq!(r.ensure_index(&[]), None);
        assert_eq!(r.ensure_index(&[0, 1, 2]), None);
    }

    #[test]
    fn probe_candidates_verification_matches_probe() {
        let mut r = Relation::new(2);
        for i in 0..50i64 {
            r.insert(&[c(i % 5), c(i)]);
        }
        let id = r.ensure_index(&[0]).unwrap();
        let verified = r.probe(&[0], &[c(2)]).unwrap();
        let candidates: Vec<RowId> = r
            .probe_candidates(id, hash_key(&[c(2)]))
            .iter()
            .copied()
            .filter(|&row| r.row(row)[0] == c(2))
            .collect();
        assert_eq!(verified, candidates);
        assert_eq!(verified.len(), 10);
    }

    #[test]
    fn fully_bound_select_is_membership() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        let mut out = Vec::new();
        r.select(&[Some(c(1)), Some(c(2))], &mut out);
        assert_eq!(out.len(), 1);
        r.select(&[Some(c(2)), Some(c(1))], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_pattern_selects_everything() {
        let mut r = Relation::new(3);
        r.insert(&[c(1), c(2), c(3)]);
        r.insert(&[c(4), c(5), c(6)]);
        let mut out = Vec::new();
        r.select(&[None, None, None], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn merge_from_counts_new_tuples() {
        let mut a = Relation::new(1);
        a.insert(&[c(1)]);
        a.insert(&[c(2)]);
        let mut b = Relation::new(1);
        b.insert(&[c(2)]);
        b.insert(&[c(3)]);
        assert_eq!(a.merge_from(&b), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn clear_preserves_index_definitions() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        r.ensure_index(&[0]);
        r.clear();
        assert!(r.is_empty());
        r.insert(&[c(5), c(6)]);
        assert_eq!(r.probe(&[0], &[c(5)]).unwrap().len(), 1);
    }

    #[test]
    fn watermark_tracks_deltas() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        let mark = r.watermark();
        assert!(r.iter_from(mark).next().is_none());
        r.insert(&[c(2), c(3)]);
        r.insert(&[c(1), c(2)]); // duplicate: not part of the delta
        r.insert(&[c(3), c(4)]);
        let delta: Vec<Vec<Const>> = r.iter_from(mark).map(|t| t.to_vec()).collect();
        assert_eq!(delta, vec![vec![c(2), c(3)], vec![c(3), c(4)]]);
        let rel = r.delta_since(mark);
        assert_eq!(rel.arity(), 2);
        assert_eq!(
            rel.to_sorted_vec(),
            vec![vec![c(2), c(3)], vec![c(3), c(4)]]
        );
        // A stale mark beyond the length yields an empty delta rather than panicking.
        assert!(r.iter_from(100).next().is_none());
    }

    #[test]
    fn remove_compacts_and_keeps_indexes_probeable() {
        let mut r = Relation::new(2);
        for i in 0..20i64 {
            r.insert(&[c(i % 4), c(i)]);
        }
        let id = r.ensure_index(&[0]).unwrap();
        assert!(r.remove(&[c(1), c(5)]));
        assert!(!r.remove(&[c(1), c(5)]), "already removed");
        assert_eq!(r.len(), 19);
        assert!(!r.contains(&[c(1), c(5)]));
        // Survivors keep their insertion order.
        let firsts: Vec<i64> = r.iter().map(|row| row[1].as_int().unwrap()).collect();
        assert_eq!(firsts.iter().filter(|&&v| v == 5).count(), 0);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        // The old IndexId handle still probes correctly after compaction.
        assert_eq!(r.probe_candidates(id, hash_key(&[c(1)])).len(), 4);
        assert_eq!(r.probe(&[0], &[c(1)]).unwrap().len(), 4);
        // Re-inserting works and is indexed.
        assert!(r.insert(&[c(1), c(5)]));
        assert_eq!(r.probe(&[0], &[c(1)]).unwrap().len(), 5);
    }

    #[test]
    fn remove_all_batches_one_compaction() {
        let mut r = Relation::new(2);
        for i in 0..10i64 {
            r.insert(&[c(i), c(i + 1)]);
        }
        let mut gone = Relation::new(2);
        gone.insert(&[c(2), c(3)]);
        gone.insert(&[c(7), c(8)]);
        gone.insert(&[c(99), c(100)]); // absent: not counted
        assert_eq!(r.remove_all(&gone), 2);
        assert_eq!(r.len(), 8);
        assert!(!r.contains(&[c(2), c(3)]));
        assert!(!r.contains(&[c(7), c(8)]));
        assert_eq!(r.remove_all(&gone), 0);
    }

    #[test]
    fn counted_inserts_track_support() {
        let mut r = Relation::new(1);
        r.insert(&[c(1)]);
        r.enable_counts();
        assert!(r.counting());
        assert_eq!(r.count_of(&[c(1)]), 1, "existing rows backfill to 1");
        assert!(r.insert_counted(&[c(2)]));
        assert!(!r.insert_counted(&[c(2)]));
        assert!(!r.insert_counted(&[c(2)]));
        assert_eq!(r.count_of(&[c(2)]), 3);
        assert_eq!(r.count_of(&[c(9)]), 0);
        // Plain inserts of new tuples record count 1 under counting.
        assert!(r.insert(&[c(3)]));
        assert_eq!(r.count_of(&[c(3)]), 1);
        // Counts survive compaction.
        assert!(r.remove(&[c(1)]));
        assert_eq!(r.count_of(&[c(2)]), 3);
        assert_eq!(r.count_of(&[c(1)]), 0);
        // Non-counting relations report presence as 1.
        let mut plain = Relation::new(1);
        plain.insert(&[c(5)]);
        assert_eq!(plain.count_of(&[c(5)]), 1);
        assert_eq!(plain.count_of(&[c(6)]), 0);
    }

    #[test]
    fn zero_arity_removal() {
        let mut r = Relation::new(0);
        r.insert(&[]);
        assert!(r.remove(&[]));
        assert!(r.is_empty());
        assert!(!r.remove(&[]));
        r.insert(&[]);
        let mut gone = Relation::new(0);
        gone.insert(&[]);
        assert_eq!(r.remove_all(&gone), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_arity_relation() {
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
    }

    #[test]
    fn to_sorted_vec_is_deterministic() {
        let mut r = Relation::new(2);
        r.insert(&[c(3), c(1)]);
        r.insert(&[c(1), c(2)]);
        assert_eq!(r.to_sorted_vec(), vec![vec![c(1), c(2)], vec![c(3), c(1)]]);
    }

    #[test]
    #[should_panic(expected = "does not match relation arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(&[c(1)]);
    }

    #[test]
    fn bucket_spills_on_second_push_and_keeps_push_order() {
        assert_eq!(
            std::mem::size_of::<RowIds>(),
            std::mem::size_of::<Vec<RowId>>(),
            "the inline bucket costs no more table space than the Vec it replaces"
        );
        let mut bucket = RowIds::One(7);
        assert_eq!(bucket.as_slice(), &[7]);
        bucket.push(3);
        assert_eq!(bucket, RowIds::Many(vec![7, 3]));
        bucket.push(9);
        assert_eq!(bucket.as_slice(), &[7, 3, 9]);

        let mut table = Buckets::default();
        push_row(&mut table, 42, 5);
        assert_eq!(table[&42], RowIds::One(5));
        push_row(&mut table, 42, 1);
        push_row(&mut table, 43, 2);
        assert_eq!(table[&42].as_slice(), &[5, 1]);
        assert_eq!(table[&43], RowIds::One(2));
    }

    /// Distinct arity-2 integer tuples that all share one tuple hash: `[firsts[0], 0]`
    /// and `[f, v]` for each further `f`. The tuple hash ends with one FxHash round on
    /// the last value, `h = (rotl(s, 5) ^ last) * K` with `K` odd, so `rotl(s, 5)` of a
    /// prefix is recoverable from `h` and the last value can be chosen to hit any `h`.
    fn colliding_tuples(firsts: &[i64]) -> Vec<[Const; 2]> {
        let k = {
            let mut h = FxHasher::default();
            h.write_u64(1);
            h.finish()
        };
        // Inverse of `k` mod 2^64 (Newton's iteration doubles the correct bits).
        let mut k_inv = k;
        for _ in 0..6 {
            k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(k_inv)));
        }
        assert_eq!(k.wrapping_mul(k_inv), 1);
        let prefix = |first: i64| fx_hash_one(&[c(first), c(0)].as_slice()).wrapping_mul(k_inv);
        let target = prefix(firsts[0]);
        let tuples: Vec<[Const; 2]> = firsts
            .iter()
            .map(|&f| [c(f), c((target ^ prefix(f)) as i64)])
            .collect();
        let hash = fx_hash_one(&tuples[0].as_slice());
        for t in &tuples {
            assert_eq!(fx_hash_one(&t.as_slice()), hash, "{t:?} must collide");
        }
        tuples
    }

    #[test]
    fn dedup_collisions_spill_and_stay_exact() {
        let tuples = colliding_tuples(&[1, 2, 3]);
        let hash = fx_hash_one(&tuples[0].as_slice());
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        r.enable_counts();
        for t in &tuples {
            assert!(r.insert(t), "a colliding tuple is still new");
        }
        assert_eq!(r.dedup.len(), 1, "all three rows share one dedup bucket");
        assert_eq!(r.dedup[&hash].as_slice(), &[0, 1, 2]);
        for t in &tuples {
            assert!(r.contains(t));
            assert!(
                !r.insert(t),
                "duplicates are caught inside a spilled bucket"
            );
        }
        assert!(!r.insert_counted(&tuples[1]));
        assert_eq!(r.count_of(&tuples[1]), 2);
        assert_eq!(r.count_of(&tuples[2]), 1);
        assert!(
            !r.contains(&[c(1), c(1)]),
            "same hash bucket, different row"
        );
        let mut out = Vec::new();
        r.select(&[Some(tuples[2][0]), Some(tuples[2][1])], &mut out);
        assert_eq!(out, vec![2]);

        // Compaction rebuilds the spilled bucket in insertion order.
        assert!(r.remove(&tuples[0]));
        assert_eq!(r.dedup[&hash].as_slice(), &[0, 1]);
        assert_eq!(r.count_of(&tuples[1]), 2, "counts follow their rows");
        assert!(!r.contains(&tuples[0]));
        assert!(r.insert(&tuples[0]));
        assert_eq!(r.dedup[&hash].as_slice(), &[0, 1, 2]);

        // A clone answers identically.
        let copy = r.clone();
        for t in &tuples {
            assert!(copy.contains(t));
        }
        assert_eq!(copy.probe(&[0], &[c(2)]).unwrap(), vec![0]);
    }

    #[test]
    fn compaction_keeps_index_buckets_in_insertion_order() {
        let mut r = Relation::new(2);
        let id = r.ensure_index(&[0]).unwrap();
        for i in 0..12i64 {
            r.insert(&[c(i % 3), c(i)]);
        }
        // Key 1 holds rows 1, 4, 7, 10; removing row 4 renumbers the survivors.
        assert_eq!(r.probe_candidates(id, hash_key(&[c(1)])), &[1, 4, 7, 10]);
        assert!(r.remove(&[c(1), c(4)]));
        let candidates = r.probe_candidates(id, hash_key(&[c(1)]));
        assert_eq!(candidates, &[1, 6, 9]);
        let seconds: Vec<i64> = candidates
            .iter()
            .map(|&row| r.row(row)[1].as_int().unwrap())
            .collect();
        assert_eq!(seconds, vec![1, 7, 10]);
        // A key left with one row is probed through the inline bucket.
        for i in [2i64, 5, 8] {
            assert!(r.remove(&[c(2), c(i)]));
        }
        assert_eq!(r.probe(&[0], &[c(2)]).unwrap().len(), 1);
        assert_eq!(r.probe_candidates(id, hash_key(&[c(2)])).len(), 1);
    }

    #[test]
    fn int_fast_path_agrees_with_builder_everywhere() {
        // The raw-u64 path is only sound if index maintenance and probing both go
        // through it: an indexed relation of integer keys must keep answering probes.
        let mut r = Relation::new(2);
        for i in 0..20i64 {
            r.insert(&[c(i % 4), c(i)]);
        }
        r.ensure_index(&[0]);
        for k in 0..4i64 {
            assert_eq!(r.probe(&[0], &[c(k)]).unwrap().len(), 5);
        }
        // hash_key and an incremental KeyHasher agree on integer keys.
        let mut h = KeyHasher::new();
        h.push(&c(7));
        h.push(&c(9));
        assert_eq!(h.finish(), hash_key(&[c(7), c(9)]));
        // Mixed symbolic/integer keys still probe correctly through the generic path.
        let mut m = Relation::new(2);
        m.insert(&[Const::sym("a"), c(1)]);
        m.insert(&[Const::sym("b"), c(2)]);
        m.ensure_index(&[0]);
        assert_eq!(m.probe(&[0], &[Const::sym("a")]).unwrap().len(), 1);
    }
}
