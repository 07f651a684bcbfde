//! Relational executor over the page store — the "Sybase role" in the
//! Table 3 reproduction: an index nested-loop join where every tuple
//! access pays the full buffer-manager toll (page-table lookup, pin,
//! latch, slot decode), plus transaction-style write-ahead bookkeeping.

use crate::rdbms::buffer::BufferPool;
use crate::rdbms::hashindex::HashIndex;
use crate::rdbms::heap::{encode_row, Field, HeapFile, Rid};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// A table: heap file plus optional indexes.
pub struct Table {
    pub heap: HeapFile,
    pub indexes: Vec<HashIndex>,
}

impl Table {
    pub fn create(pool: Arc<BufferPool>) -> Table {
        Table {
            heap: HeapFile::create(pool),
            indexes: Vec::new(),
        }
    }

    /// Loads rows and builds an index on `column`.
    pub fn load(
        pool: Arc<BufferPool>,
        rows: impl Iterator<Item = Vec<Field>>,
        index_column: usize,
        nbuckets: usize,
    ) -> Table {
        let mut t = Table::create(pool.clone());
        for r in rows {
            t.heap.insert(&r);
        }
        t.indexes
            .push(HashIndex::build(pool, &t.heap, index_column, nbuckets));
        t
    }
}

/// A minimal log-sequence counter standing in for transactional
/// bookkeeping (Table 3: Sybase has "made special provisions for
/// concurrency [and] recoverability" that the in-memory engines have not).
pub static LSN: AtomicU64 = AtomicU64::new(0);

/// A strict-2PL style lock table: every row access acquires and releases
/// a shared lock through a shared map, as a multi-user server must.
#[derive(Default)]
pub struct LockManager {
    held: Mutex<HashSet<(u32, u16)>>,
}

impl LockManager {
    fn lock(&self, rid: Rid) {
        self.held.lock().unwrap().insert((rid.page, rid.slot));
    }

    fn unlock(&self, rid: Rid) {
        self.held.lock().unwrap().remove(&(rid.page, rid.slot));
    }
}

/// Index nested-loop equijoin: for each `outer` row, probe `inner`'s index
/// on `inner_col` with the value of `outer_col`, verify the key, and call
/// `sink` with the joined row. Returns the number of joined rows.
///
/// Every tuple access pays the full server-side toll: a lock-table
/// acquire/release (concurrency), a log-sequence tick (recoverability),
/// the buffer-manager pin + latch + slot decode, and wire-format
/// materialization of result rows — the provisions the paper's Table 3
/// notes the memory-resident engines have not made.
pub fn index_nested_loop_join(
    outer: &Table,
    outer_col: usize,
    inner: &Table,
    inner_index: usize,
    mut sink: impl FnMut(&[Field], &[Field]),
) -> usize {
    let ix = &inner.indexes[inner_index];
    let inner_col = ix.column;
    let locks = LockManager::default();
    let mut wire: Vec<u8> = Vec::new();
    let mut n = 0usize;
    outer.heap.scan(|orid, orow| {
        LSN.fetch_add(1, Ordering::Relaxed);
        locks.lock(orid);
        let key = &orow[outer_col];
        for rid in ix.probe(key) {
            locks.lock(rid);
            LSN.fetch_add(1, Ordering::Relaxed);
            let irow = inner.heap.fetch(rid);
            if &irow[inner_col] == key {
                // materialize the joined row in wire format
                wire.clear();
                wire.extend_from_slice(&encode_row(&orow));
                wire.extend_from_slice(&encode_row(&irow));
                sink(&orow, &irow);
                n += 1;
            }
            locks.unlock(rid);
        }
        locks.unlock(orid);
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdbms::buffer::Disk;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(Disk::default()), frames))
    }

    #[test]
    fn join_counts_matching_pairs() {
        let pool = pool(128);
        // R(a, b): b = a+1 ; S(b, c): c = b*10
        let r = Table::load(
            pool.clone(),
            (0..100i64).map(|a| vec![Field::Int(a), Field::Int(a + 1)]),
            0,
            32,
        );
        let s = Table::load(
            pool.clone(),
            (0..100i64).map(|b| vec![Field::Int(b), Field::Int(b * 10)]),
            0,
            32,
        );
        // join R.b = S.b
        let mut rows = Vec::new();
        let n = index_nested_loop_join(&r, 1, &s, 0, |orow, irow| {
            rows.push((orow.to_vec(), irow.to_vec()));
        });
        // R.b ranges over 1..=100; S keys over 0..=99 → 99 matches
        assert_eq!(n, 99);
        assert!(rows.iter().all(|(o, i)| o[1] == i[0]));
    }

    #[test]
    fn join_through_tiny_pool_still_correct() {
        let pool = pool(4);
        let r = Table::load(
            pool.clone(),
            (0..300i64).map(|a| vec![Field::Int(a)]),
            0,
            16,
        );
        let s = Table::load(
            pool.clone(),
            (0..300i64)
                .filter(|a| a % 3 == 0)
                .map(|a| vec![Field::Int(a)]),
            0,
            16,
        );
        let n = index_nested_loop_join(&r, 0, &s, 0, |_, _| {});
        assert_eq!(n, 100);
    }
}

/// An interpreted row predicate — the per-row WHERE-clause evaluation a
/// SQL engine performs by walking an expression tree, rather than running
/// compiled code.
#[derive(Clone, Debug)]
pub enum RowExpr {
    /// `outer[col] == inner[col]`
    JoinEq { outer_col: usize, inner_col: usize },
    /// conjunction
    And(Box<RowExpr>, Box<RowExpr>),
    /// always true
    True,
}

impl RowExpr {
    pub fn eval(&self, outer: &[Field], inner: &[Field]) -> bool {
        match self {
            RowExpr::JoinEq {
                outer_col,
                inner_col,
            } => outer[*outer_col] == inner[*inner_col],
            RowExpr::And(a, b) => a.eval(outer, inner) && b.eval(outer, inner),
            RowExpr::True => true,
        }
    }
}

/// Client/server indexed join — the full "Sybase role" for Table 3: the
/// server runs [`index_nested_loop_join`]-style access (buffer manager,
/// locks, log), evaluates the join predicate *interpretively* per candidate
/// row, and ships every result row in wire format through a channel to a
/// client thread, which decodes it. Returns the client-side row count.
pub fn client_server_join(
    outer: &Table,
    outer_col: usize,
    inner: &Table,
    inner_index: usize,
) -> usize {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let client = std::thread::spawn(move || {
        let mut n = 0usize;
        for packet in rx {
            // client-side decode of the wire row
            let row = crate::rdbms::heap::decode_row(&packet);
            debug_assert!(!row.is_empty());
            n += 1;
        }
        n
    });

    let ix = &inner.indexes[inner_index];
    let predicate = RowExpr::And(
        Box::new(RowExpr::JoinEq {
            outer_col,
            inner_col: ix.column,
        }),
        Box::new(RowExpr::True),
    );
    let locks = LockManager::default();
    outer.heap.scan(|orid, orow| {
        LSN.fetch_add(1, Ordering::Relaxed);
        locks.lock(orid);
        let key = &orow[outer_col];
        for rid in ix.probe(key) {
            locks.lock(rid);
            LSN.fetch_add(1, Ordering::Relaxed);
            let irow = inner.heap.fetch(rid);
            if predicate.eval(&orow, &irow) {
                // wire-format result row shipped to the client
                let mut joined = orow.clone();
                joined.extend(irow.iter().cloned());
                tx.send(encode_row(&joined)).expect("client alive");
            }
            locks.unlock(rid);
        }
        locks.unlock(orid);
    });
    drop(tx);
    client.join().expect("client thread")
}

#[cfg(test)]
mod client_server_tests {
    use super::*;
    use crate::rdbms::buffer::Disk;

    #[test]
    fn client_server_join_agrees_with_local_join() {
        let pool = Arc::new(BufferPool::new(Arc::new(Disk::default()), 64));
        let r = Table::load(
            pool.clone(),
            (0..200i64).map(|a| vec![Field::Int(a), Field::Int(a % 10)]),
            1,
            16,
        );
        let s = Table::load(
            pool.clone(),
            (0..10i64).map(|b| vec![Field::Int(b), Field::Int(b * 100)]),
            0,
            16,
        );
        let local = index_nested_loop_join(&r, 1, &s, 0, |_, _| {});
        let remote = client_server_join(&r, 1, &s, 0);
        assert_eq!(local, remote);
        assert_eq!(local, 200);
    }
}
