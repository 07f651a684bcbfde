//! Static hash index over a heap file column.
//!
//! Buckets are page chains of `(key hash, rid)` entries, themselves stored
//! through the buffer pool — an index probe costs a bucket-page pin +
//! latch + scan, then a heap-page pin per matching rid, mirroring how a
//! disk-based RDBMS pays for an indexed join (paper Table 3).

use crate::rdbms::buffer::{BufferPool, PageId};
use crate::rdbms::heap::{Field, HeapFile, Rid};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Entry layout: key hash u64 | page u32 | slot u16  (14 bytes)
const ENTRY: usize = 14;

/// A static hash index on one column.
pub struct HashIndex {
    pool: Arc<BufferPool>,
    /// bucket directory: first page of each bucket chain
    buckets: Vec<Vec<PageId>>,
    pub column: usize,
    pub entries: usize,
}

fn hash_field(f: &Field) -> u64 {
    let mut h = DefaultHasher::new();
    f.hash(&mut h);
    h.finish()
}

impl HashIndex {
    /// Builds an index on `column` of `heap` with `nbuckets` buckets.
    pub fn build(
        pool: Arc<BufferPool>,
        heap: &HeapFile,
        column: usize,
        nbuckets: usize,
    ) -> HashIndex {
        let mut ix = HashIndex {
            pool,
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            column,
            entries: 0,
        };
        let mut pending: Vec<(u64, Rid)> = Vec::new();
        heap.scan(|rid, row| {
            pending.push((hash_field(&row[column]), rid));
        });
        for (h, rid) in pending {
            ix.insert_hash(h, rid);
        }
        ix
    }

    /// Adds one entry (used by incremental loads).
    pub fn insert(&mut self, key: &Field, rid: Rid) {
        self.insert_hash(hash_field(key), rid);
    }

    fn insert_hash(&mut self, h: u64, rid: Rid) {
        let b = (h % self.buckets.len() as u64) as usize;
        let mut entry = [0u8; ENTRY];
        entry[0..8].copy_from_slice(&h.to_le_bytes());
        entry[8..12].copy_from_slice(&rid.page.to_le_bytes());
        entry[12..14].copy_from_slice(&rid.slot.to_le_bytes());

        if let Some(&tail) = self.buckets[b].last() {
            let pinned = self.pool.pin(tail);
            let ok = pinned.write(|pg| pg.insert(&entry).is_some());
            if ok {
                self.entries += 1;
                return;
            }
        }
        let fresh = self.pool.disk.allocate();
        self.buckets[b].push(fresh);
        let pinned = self.pool.pin(fresh);
        pinned
            .write(|pg| pg.insert(&entry))
            .expect("fresh bucket page accepts entry");
        self.entries += 1;
    }

    /// Probes the index: rids whose key hashes match (callers re-check the
    /// actual key after fetching, as any hash index must).
    pub fn probe(&self, key: &Field) -> Vec<Rid> {
        let h = hash_field(key);
        let b = (h % self.buckets.len() as u64) as usize;
        let mut out = Vec::new();
        for &pid in &self.buckets[b] {
            let pinned = self.pool.pin(pid);
            pinned.read(|pg| {
                for s in pg.live_slots() {
                    let e = pg.get(s);
                    let eh = u64::from_le_bytes(e[0..8].try_into().expect("entry"));
                    if eh == h {
                        out.push(Rid {
                            page: u32::from_le_bytes(e[8..12].try_into().expect("entry")),
                            slot: u16::from_le_bytes(e[12..14].try_into().expect("entry")),
                        });
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdbms::buffer::Disk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(Disk::default()), 64))
    }

    #[test]
    fn build_and_probe() {
        let pool = pool();
        let mut hf = HeapFile::create(pool.clone());
        for i in 0..500i64 {
            hf.insert(&[Field::Int(i), Field::Int(i % 7)]);
        }
        let ix = HashIndex::build(pool, &hf, 0, 64);
        assert_eq!(ix.entries, 500);
        let rids = ix.probe(&Field::Int(123));
        // verify by fetching
        let hits: Vec<_> = rids
            .iter()
            .map(|&r| hf.fetch(r))
            .filter(|row| row[0] == Field::Int(123))
            .collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn probe_on_non_key_column() {
        let pool = pool();
        let mut hf = HeapFile::create(pool.clone());
        for i in 0..70i64 {
            hf.insert(&[Field::Int(i), Field::Int(i % 7)]);
        }
        let ix = HashIndex::build(pool, &hf, 1, 8);
        let rids = ix.probe(&Field::Int(3));
        let hits: Vec<_> = rids
            .iter()
            .map(|&r| hf.fetch(r))
            .filter(|row| row[1] == Field::Int(3))
            .collect();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn string_keys() {
        let pool = pool();
        let mut hf = HeapFile::create(pool.clone());
        hf.insert(&[Field::Str("alice".into()), Field::Int(1)]);
        hf.insert(&[Field::Str("bob".into()), Field::Int(2)]);
        let ix = HashIndex::build(pool, &hf, 0, 4);
        let rids = ix.probe(&Field::Str("bob".into()));
        assert!(rids.iter().any(|&r| hf.fetch(r)[1] == Field::Int(2)));
    }
}
