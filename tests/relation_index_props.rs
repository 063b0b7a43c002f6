//! Property tests for the hash-keyed secondary indexes of the storage layer: the
//! indexed access paths of the compiled join pipeline must be *observationally
//! identical* to the scan fallback, no matter how relations, patterns, and index sets
//! are chosen, and no matter how `insert` / `ensure_index` / `clear` interleave.
//! A model-based test also checks every mutation (counted inserts, batch removal,
//! clones) against a `BTreeMap` of tuples and support counts.

use std::collections::BTreeMap;

use factorlog::datalog::ast::Const;
use factorlog::datalog::storage::{hash_key, Relation, RowId};
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

fn build(arity: usize, rows: &[Vec<i64>]) -> Relation {
    let mut r = Relation::new(arity);
    for row in rows {
        let tuple: Vec<Const> = row.iter().map(|&v| c(v)).collect();
        r.insert(&tuple);
    }
    r
}

/// Reference implementation: scan the relation for rows matching the pattern.
fn scan_select(r: &Relation, pattern: &[Option<Const>]) -> Vec<RowId> {
    let mut out = Vec::new();
    for id in 0..r.len() as RowId {
        let row = r.row(id);
        if pattern
            .iter()
            .enumerate()
            .all(|(i, p)| p.is_none() || *p == Some(row[i]))
        {
            out.push(id);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Relation::select` answers identically with and without a covering index, for
    /// every bound-column mask and probe-value combination. The tuple domain is small
    /// on purpose, so duplicate keys (multi-row buckets) occur constantly.
    #[test]
    fn indexed_select_matches_scan(
        raw_rows in prop::collection::vec((0i64..6, 0i64..6, 0i64..6), 0..40),
        mask in 0usize..8,
        p0 in 0i64..6,
        p1 in 0i64..6,
        p2 in 0i64..6,
    ) {
        let rows: Vec<Vec<i64>> = raw_rows.iter().map(|&(a, b, x)| vec![a, b, x]).collect();
        let unindexed = build(3, &rows);
        let mut indexed = build(3, &rows);
        let bound: Vec<usize> = (0..3).filter(|i| mask & (1 << i) != 0).collect();
        indexed.ensure_index(&bound);
        let probe = [p0, p1, p2];
        let pattern: Vec<Option<Const>> = (0..3)
            .map(|i| (mask & (1 << i) != 0).then(|| c(probe[i])))
            .collect();

        let reference = scan_select(&unindexed, &pattern);
        let mut via_plain = Vec::new();
        unindexed.select(&pattern, &mut via_plain);
        let mut via_index = Vec::new();
        indexed.select(&pattern, &mut via_index);

        via_plain.sort_unstable();
        via_index.sort_unstable();
        prop_assert_eq!(&via_plain, &reference);
        prop_assert_eq!(&via_index, &reference);

        // The raw probe API agrees too (when the mask names a nontrivial index).
        if !bound.is_empty() && bound.len() < 3 {
            let key: Vec<Const> = bound.iter().map(|&i| pattern[i].unwrap()).collect();
            let mut probed = indexed.probe(&bound, &key).expect("index exists");
            probed.sort_unstable();
            prop_assert_eq!(&probed, &reference);
        }
    }

    /// Hash-bucket candidates, verified against the flat store, equal the scan result
    /// — the invariant the join pipeline's binding-loop verification relies on.
    #[test]
    fn probe_candidates_contain_exactly_the_matches_after_verification(
        raw_rows in prop::collection::vec((0i64..6, 0i64..6), 0..50),
        key in 0i64..6,
    ) {
        let rows: Vec<Vec<i64>> = raw_rows.iter().map(|&(a, b)| vec![a, b]).collect();
        let mut r = build(2, &rows);
        let id = r.ensure_index(&[0]).expect("nontrivial index on arity 2");
        let key_consts = [c(key)];
        let mut verified: Vec<RowId> = r
            .probe_candidates(id, hash_key(&key_consts))
            .iter()
            .copied()
            .filter(|&row| r.row(row)[0] == c(key))
            .collect();
        verified.sort_unstable();
        let pattern = vec![Some(c(key)), None];
        let reference = scan_select(&r, &pattern);
        prop_assert_eq!(verified, reference);
    }

    /// Index contents survive arbitrary interleavings of insert, ensure_index and
    /// clear: after the dust settles, every built index answers exactly like a scan,
    /// and duplicate detection is still intact.
    #[test]
    fn indexes_survive_interleaved_mutation(
        ops in prop::collection::vec((0usize..10, 0i64..6, 0i64..6), 1..60),
        probe in 0i64..6,
    ) {
        let mut r = Relation::new(2);
        let mut built: Vec<Vec<usize>> = Vec::new();
        for &(op, a, b) in &ops {
            match op {
                // Clears are rare (index definitions must survive them).
                0 => r.clear(),
                // Occasionally build an index mid-stream, on either column.
                1 | 2 => {
                    let cols = vec![op - 1];
                    r.ensure_index(&cols);
                    if !built.contains(&cols) {
                        built.push(cols);
                    }
                }
                _ => {
                    r.insert(&[c(a), c(b)]);
                }
            }
        }
        for cols in &built {
            let key = [c(probe)];
            let mut probed = r.probe(cols, &key).expect("built index exists");
            probed.sort_unstable();
            let pattern: Vec<Option<Const>> = (0..2)
                .map(|i| cols.contains(&i).then(|| c(probe)))
                .collect();
            let reference = scan_select(&r, &pattern);
            prop_assert_eq!(probed, reference, "index on {:?} diverged from scan", cols);
        }
        // Duplicate detection stays intact after clears and re-inserts.
        let before = r.len();
        for id in 0..r.len() as RowId {
            let row = r.row(id).to_vec();
            prop_assert!(!r.insert(&row), "existing row re-inserted as new");
        }
        prop_assert_eq!(r.len(), before);
    }
    /// Every mutation of the relation API, interleaved, against a `BTreeMap` model of
    /// the tuple set and its support counts. Arity 3 over a 4-value domain, so index
    /// keys repeat constantly and most index buckets hold several rows. After every
    /// step the relation's `len`, `contains` and `count_of` agree with the model for
    /// every tuple of the domain, and `select` through every built index agrees with
    /// the model for every key.
    #[test]
    fn mutations_match_a_model(
        ops in prop::collection::vec((0usize..16, 0i64..64), 1..50),
    ) {
        let mut r = Relation::new(3);
        r.enable_counts();
        let mut model: BTreeMap<[i64; 3], u32> = BTreeMap::new();
        let mut built: Vec<Vec<usize>> = Vec::new();
        for &(op, v) in &ops {
            let t = [v / 16, v / 4 % 4, v % 4];
            let tuple = t.map(c);
            match op {
                0 => {
                    r.clear();
                    model.clear();
                }
                1 => r = r.clone(),
                2 | 3 => {
                    let cols: Vec<usize> = (0..3).filter(|i| (v % 7 + 1) & (1 << i) != 0).collect();
                    if r.ensure_index(&cols).is_some() && !built.contains(&cols) {
                        built.push(cols);
                    }
                }
                4 | 5 => {
                    let mut doomed = Relation::new(3);
                    let mut expected = 0;
                    for d in [t, [t[2], t[1], t[0]], [t[0], t[0], t[0]]] {
                        if doomed.insert(&d.map(c)) && model.remove(&d).is_some() {
                            expected += 1;
                        }
                    }
                    prop_assert_eq!(r.remove_all(&doomed), expected);
                }
                6..=10 => {
                    let new = !model.contains_key(&t);
                    model.entry(t).or_insert(1);
                    prop_assert_eq!(r.insert(&tuple), new);
                }
                _ => {
                    let new = !model.contains_key(&t);
                    *model.entry(t).or_insert(0) += 1;
                    prop_assert_eq!(r.insert_counted(&tuple), new);
                }
            }

            prop_assert_eq!(r.len(), model.len());
            for x in 0..64 {
                let t = [x / 16, x / 4 % 4, x % 4];
                let count = model.get(&t).copied().unwrap_or(0);
                prop_assert_eq!(r.contains(&t.map(c)), count > 0);
                prop_assert_eq!(r.count_of(&t.map(c)), count);
            }
            for cols in &built {
                for x in 0..64 {
                    let key = [x / 16, x / 4 % 4, x % 4];
                    let pattern: Vec<Option<Const>> = (0..3)
                        .map(|i| cols.contains(&i).then(|| c(key[i])))
                        .collect();
                    let mut ids = Vec::new();
                    r.select(&pattern, &mut ids);
                    prop_assert_eq!(&ids, &scan_select(&r, &pattern), "index on {:?}", cols);
                    let mut selected: Vec<[i64; 3]> = ids
                        .iter()
                        .map(|&id| {
                            let row = r.row(id);
                            [0, 1, 2].map(|i| row[i].as_int().unwrap())
                        })
                        .collect();
                    selected.sort_unstable();
                    let expected: Vec<[i64; 3]> = model
                        .keys()
                        .filter(|m| cols.iter().all(|&i| m[i] == key[i]))
                        .copied()
                        .collect();
                    prop_assert_eq!(selected, expected);
                }
            }
        }
    }
}
