//! Buffer pool with latching and clock eviction.
//!
//! Every page access goes through the pool: look up the page table, pin the
//! frame, take a read/write latch, and unpin afterwards. The backing
//! "disk" is an in-memory page vector (we measure the *management* cost,
//! not I/O — the paper's Table 3 measures Sybase with "all data … in the
//! Sybase system buffer" too, so the comparison is precisely about this
//! per-access machinery plus concurrency provisions).

use crate::rdbms::page::{Page, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// Page identifier on "disk".
pub type PageId = u32;

/// One buffer frame.
struct Frame {
    page_id: AtomicU32,
    pin_count: AtomicU32,
    referenced: AtomicBool,
    dirty: AtomicBool,
    page: RwLock<Page>,
}

/// The simulated disk: stable page storage.
#[derive(Default)]
pub struct Disk {
    pages: Mutex<Vec<Page>>,
}

impl Disk {
    pub fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock().unwrap();
        pages.push(Page::new());
        (pages.len() - 1) as PageId
    }

    fn read(&self, id: PageId) -> Page {
        self.pages.lock().unwrap()[id as usize].clone()
    }

    fn write(&self, id: PageId, p: &Page) {
        self.pages.lock().unwrap()[id as usize] = p.clone();
    }

    pub fn page_count(&self) -> usize {
        self.pages.lock().unwrap().len()
    }
}

const NO_PAGE: u32 = u32::MAX;

/// A fixed-capacity buffer pool over a [`Disk`].
pub struct BufferPool {
    pub disk: Arc<Disk>,
    frames: Vec<Frame>,
    table: Mutex<HashMap<PageId, usize>>,
    clock_hand: AtomicU32,
    /// statistics
    pub hits: AtomicU32,
    pub misses: AtomicU32,
}

/// A pinned page guard: unpins on drop.
pub struct PinnedPage<'a> {
    pool: &'a BufferPool,
    frame: usize,
}

impl PinnedPage<'_> {
    /// Takes the read latch and runs `f`.
    pub fn read<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        let guard = self.pool.frames[self.frame].page.read().unwrap();
        f(&guard)
    }

    /// Takes the write latch, runs `f`, marks the frame dirty.
    pub fn write<R>(&self, f: impl FnOnce(&mut Page) -> R) -> R {
        let mut guard = self.pool.frames[self.frame].page.write().unwrap();
        self.pool.frames[self.frame]
            .dirty
            .store(true, Ordering::Release);
        f(&mut guard)
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.frame]
            .pin_count
            .fetch_sub(1, Ordering::AcqRel);
    }
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<Disk>, capacity: usize) -> BufferPool {
        let frames = (0..capacity)
            .map(|_| Frame {
                page_id: AtomicU32::new(NO_PAGE),
                pin_count: AtomicU32::new(0),
                referenced: AtomicBool::new(false),
                dirty: AtomicBool::new(false),
                page: RwLock::new(Page::new()),
            })
            .collect();
        BufferPool {
            disk,
            frames,
            table: Mutex::new(HashMap::new()),
            clock_hand: AtomicU32::new(0),
            hits: AtomicU32::new(0),
            misses: AtomicU32::new(0),
        }
    }

    /// Pins `page_id`, faulting it in (with clock eviction) if absent.
    pub fn pin(&self, page_id: PageId) -> PinnedPage<'_> {
        let mut table = self.table.lock().unwrap();
        if let Some(&f) = table.get(&page_id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.frames[f].pin_count.fetch_add(1, Ordering::AcqRel);
            self.frames[f].referenced.store(true, Ordering::Release);
            return PinnedPage {
                pool: self,
                frame: f,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // clock eviction: find an unpinned frame
        let n = self.frames.len();
        let mut spins = 0usize;
        let victim = loop {
            let hand = self.clock_hand.fetch_add(1, Ordering::Relaxed) as usize % n;
            let fr = &self.frames[hand];
            if fr.pin_count.load(Ordering::Acquire) == 0 {
                if fr.referenced.swap(false, Ordering::AcqRel) {
                    // second chance
                } else {
                    break hand;
                }
            }
            spins += 1;
            assert!(
                spins < n * 4 + 16,
                "buffer pool exhausted: all {n} frames pinned"
            );
        };
        // write back and remap
        let old_id = self.frames[victim].page_id.load(Ordering::Acquire);
        if old_id != NO_PAGE {
            if self.frames[victim].dirty.swap(false, Ordering::AcqRel) {
                let page = self.frames[victim].page.read().unwrap();
                self.disk.write(old_id, &page);
            }
            table.remove(&old_id);
        }
        {
            let mut page = self.frames[victim].page.write().unwrap();
            *page = self.disk.read(page_id);
        }
        self.frames[victim]
            .page_id
            .store(page_id, Ordering::Release);
        self.frames[victim].pin_count.store(1, Ordering::Release);
        self.frames[victim]
            .referenced
            .store(true, Ordering::Release);
        table.insert(page_id, victim);
        PinnedPage {
            pool: self,
            frame: victim,
        }
    }

    /// Flushes all dirty frames to disk.
    pub fn flush_all(&self) {
        let table = self.table.lock().unwrap();
        for (&pid, &f) in table.iter() {
            if self.frames[f].dirty.swap(false, Ordering::AcqRel) {
                let page = self.frames[f].page.read().unwrap();
                self.disk.write(pid, &page);
            }
        }
    }

    /// Approximate memory devoted to the pool.
    pub fn capacity_bytes(&self) -> usize {
        self.frames.len() * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_faults_and_hits() {
        let disk = Arc::new(Disk::default());
        let p0 = disk.allocate();
        let pool = BufferPool::new(disk, 4);
        {
            let pinned = pool.pin(p0);
            pinned.write(|pg| {
                pg.insert(b"data").unwrap();
            });
        }
        {
            let pinned = pool.pin(p0);
            pinned.read(|pg| assert_eq!(pg.get(0), b"data"));
        }
        assert_eq!(pool.misses.load(Ordering::Relaxed), 1);
        assert_eq!(pool.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let disk = Arc::new(Disk::default());
        let ids: Vec<PageId> = (0..8).map(|_| disk.allocate()).collect();
        let pool = BufferPool::new(disk.clone(), 2);
        for (i, &id) in ids.iter().enumerate() {
            let pinned = pool.pin(id);
            pinned.write(|pg| {
                pg.insert(&[i as u8; 8]).unwrap();
            });
        }
        // every page was evicted at least once by the tiny pool; re-read all
        for (i, &id) in ids.iter().enumerate() {
            let pinned = pool.pin(id);
            pinned.read(|pg| assert_eq!(pg.get(0), &[i as u8; 8]));
        }
    }

    #[test]
    fn concurrent_pins_across_threads() {
        let disk = Arc::new(Disk::default());
        let id = disk.allocate();
        let pool = BufferPool::new(disk, 4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..100 {
                        let pinned = pool.pin(id);
                        pinned.write(|pg| {
                            pg.insert(&[t as u8]).unwrap();
                        });
                    }
                });
            }
        });
        let pinned = pool.pin(id);
        pinned.read(|pg| assert_eq!(pg.tuple_count(), 400));
    }
}
