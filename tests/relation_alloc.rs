//! Allocation accounting for the storage layer, measured with a counting global
//! allocator.
//!
//! * Inserting distinct rows into a relation allocates only when the flat store or a
//!   hash table grows (O(log N) allocations), never once per row: a hash bucket holds
//!   its first row id inline.
//! * Cloning a relation costs a fixed number of allocations, whatever its size.
//! * The memory guardrail's estimate (`Database::estimated_bytes`) stays within 2x of
//!   the bytes a relation really holds on the heap — the bound the README and
//!   `LimitReason::MemoryBudget` document.
//!
//! The counters are per thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use factorlog::datalog::ast::Const;
use factorlog::datalog::storage::{Database, Relation};
use factorlog::datalog::Symbol;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn note(allocations: usize, bytes: isize) {
    // `try_with`: the allocator also runs while thread-locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping only touches thread-local counters
// (const-initialized, so reading them never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made (calls to `alloc`,
/// `alloc_zeroed` and `realloc`) and the net heap bytes it left live.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let allocations = ALLOCATIONS.with(Cell::get);
    let bytes = LIVE_BYTES.with(Cell::get);
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - allocations,
        LIVE_BYTES.with(Cell::get) - bytes,
    )
}

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// A relation of `n` distinct rows `(i, i % 7)` with an index on the unique column 0,
/// built as the evaluator builds one: index first, then rows.
fn indexed_relation(n: i64) -> Relation {
    let mut r = Relation::new(2);
    r.ensure_index(&[0]).expect("nontrivial index");
    for i in 0..n {
        assert!(r.insert(&[c(i), c(i % 7)]));
    }
    r
}

/// Upper bound on the growth reallocations of a container grown to `n` elements by
/// doubling.
fn doublings(n: i64) -> usize {
    (64 - (n as u64).leading_zeros()) as usize + 1
}

#[test]
fn inserting_distinct_rows_allocates_only_on_table_growth() {
    for n in [1_000i64, 16_000] {
        let (r, allocations, _) = measure(|| indexed_relation(n));
        assert_eq!(r.len(), n as usize);
        // Three growing containers (flat store, dedup table, one index table), plus
        // the relation's fixed allocations (index list and column list).
        let bound = 3 * doublings(n) + 4;
        assert!(
            allocations <= bound,
            "{n} inserts made {allocations} allocations; table growth allows {bound}"
        );
    }
}

#[test]
fn clone_allocations_do_not_depend_on_size() {
    let small = indexed_relation(1_000);
    let large = indexed_relation(16_000);
    let (_, small_allocations, _) = measure(|| small.clone());
    let (copy, large_allocations, _) = measure(|| large.clone());
    assert_eq!(copy.len(), 16_000);
    assert_eq!(
        small_allocations, large_allocations,
        "cloning 16x more rows made {large_allocations} allocations instead of {small_allocations}"
    );
    assert!(
        large_allocations <= 8,
        "{large_allocations} allocations for one clone"
    );
}

#[test]
fn estimated_bytes_is_within_2x_of_the_heap() {
    // Interned outside the measurement: the symbol table is not the relation's.
    let e = Symbol::intern("e");
    // One index on the unique column 0 (every bucket inline), or on column 1 with 7
    // distinct values (7 spilled buckets holding every row id).
    for index in [0usize, 1] {
        for n in [1_000i64, 5_000, 16_000, 40_000] {
            let (db, _, live) = measure(|| {
                let mut db = Database::new();
                let rel = db.ensure_relation(e, 2);
                rel.ensure_index(&[index]).expect("nontrivial index");
                for i in 0..n {
                    rel.insert(&[c(i), c(i % 7)]);
                }
                db
            });
            let estimate = db.estimated_bytes() as f64;
            let actual = live as f64;
            assert!(
                actual <= 2.0 * estimate && estimate <= 2.0 * actual,
                "{n} rows, index on column {index}: estimate {estimate} B vs {actual} B allocated"
            );
        }
    }
}
