//! Heap files and tuple encoding.
//!
//! A heap file is a sequence of slotted pages accessed through the buffer
//! pool. Tuples are rows of [`Field`]s (integers or short strings) with a
//! compact byte encoding.

use crate::rdbms::buffer::{BufferPool, PageId};
use std::sync::Arc;

/// A field value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Field {
    Int(i64),
    Str(String),
}

impl Field {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Field::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Field::Str(s) => {
                out.push(1);
                let b = s.as_bytes();
                out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Field {
        let tag = buf[*pos];
        *pos += 1;
        match tag {
            0 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[*pos..*pos + 8]);
                *pos += 8;
                Field::Int(i64::from_le_bytes(b))
            }
            1 => {
                let len = u16::from_le_bytes([buf[*pos], buf[*pos + 1]]) as usize;
                *pos += 2;
                let s = String::from_utf8_lossy(&buf[*pos..*pos + len]).into_owned();
                *pos += len;
                Field::Str(s)
            }
            _ => unreachable!("bad field tag"),
        }
    }
}

/// Encodes a row.
pub fn encode_row(fields: &[Field]) -> Vec<u8> {
    let mut out = Vec::with_capacity(fields.len() * 10);
    out.extend_from_slice(&(fields.len() as u16).to_le_bytes());
    for f in fields {
        f.encode(&mut out);
    }
    out
}

/// Decodes a row.
pub fn decode_row(buf: &[u8]) -> Vec<Field> {
    let n = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let mut pos = 2usize;
    (0..n).map(|_| Field::decode(buf, &mut pos)).collect()
}

/// A record id: page + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rid {
    pub page: PageId,
    pub slot: u16,
}

/// A heap file: ordered list of page ids, insertion at the tail page.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pub pages: Vec<PageId>,
    pub tuple_count: usize,
}

impl HeapFile {
    pub fn create(pool: Arc<BufferPool>) -> HeapFile {
        let first = pool.disk.allocate();
        HeapFile {
            pool,
            pages: vec![first],
            tuple_count: 0,
        }
    }

    /// Inserts a row, allocating a new page when the tail is full.
    pub fn insert(&mut self, fields: &[Field]) -> Rid {
        let bytes = encode_row(fields);
        let tail = *self.pages.last().expect("heap file has pages");
        let slot = {
            let pinned = self.pool.pin(tail);
            pinned.write(|pg| pg.insert(&bytes))
        };
        match slot {
            Some(s) => {
                self.tuple_count += 1;
                Rid {
                    page: tail,
                    slot: s,
                }
            }
            None => {
                let fresh = self.pool.disk.allocate();
                self.pages.push(fresh);
                let pinned = self.pool.pin(fresh);
                let s = pinned
                    .write(|pg| pg.insert(&bytes))
                    .expect("fresh page accepts tuple");
                self.tuple_count += 1;
                Rid {
                    page: fresh,
                    slot: s,
                }
            }
        }
    }

    /// Fetches a row by rid (a pin + latch + slot decode per access).
    pub fn fetch(&self, rid: Rid) -> Vec<Field> {
        let pinned = self.pool.pin(rid.page);
        pinned.read(|pg| decode_row(pg.get(rid.slot)))
    }

    /// Full scan, calling `f` for each live row.
    pub fn scan(&self, mut f: impl FnMut(Rid, Vec<Field>)) {
        for &pid in &self.pages {
            let pinned = self.pool.pin(pid);
            let rows: Vec<(u16, Vec<Field>)> = pinned.read(|pg| {
                pg.live_slots()
                    .map(|s| (s, decode_row(pg.get(s))))
                    .collect()
            });
            for (slot, row) in rows {
                f(Rid { page: pid, slot }, row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdbms::buffer::Disk;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(Disk::default()), frames))
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![Field::Int(42), Field::Str("hello".into()), Field::Int(-1)];
        assert_eq!(decode_row(&encode_row(&row)), row);
    }

    #[test]
    fn insert_fetch_scan() {
        let mut hf = HeapFile::create(pool(8));
        let mut rids = Vec::new();
        for i in 0..1000i64 {
            rids.push(hf.insert(&[Field::Int(i), Field::Int(i * 2)]));
        }
        assert_eq!(hf.fetch(rids[500]), vec![Field::Int(500), Field::Int(1000)]);
        let mut n = 0;
        hf.scan(|_, row| {
            assert_eq!(row.len(), 2);
            n += 1;
        });
        assert_eq!(n, 1000);
        assert!(hf.pages.len() > 1, "spilled to multiple pages");
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        // pool far smaller than the file: every access faults
        let mut hf = HeapFile::create(pool(2));
        for i in 0..2000i64 {
            hf.insert(&[Field::Int(i)]);
        }
        let mut sum = 0i64;
        hf.scan(|_, row| {
            if let Field::Int(i) = row[0] {
                sum += i;
            }
        });
        assert_eq!(sum, (0..2000).sum::<i64>());
    }
}
