//! Thread-interleaving tests for the pool-shared table store.
//!
//! The store's safety argument is structural — frames are immutable and
//! `Arc`-held, so a reader observes a whole frame or no frame — but these
//! tests drive the claim with real racing threads, barrier-coordinated so
//! the contended window is exercised on every run: warm hits racing an
//! epoch bump never see a half-invalidated frame, and N workers racing
//! the same cold query dedup to exactly one shared table.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use xsb_core::cell::Cell;
use xsb_core::engine_pool::{PoolConfig, ServerPool};
use xsb_core::shared::{SharedFrame, SharedTableStore};
use xsb_obs::Counter;

/// A frame whose payload makes internal consistency checkable: `n`
/// answers, answer `i` holding the cells `[tag, tag + i]`. A torn or
/// half-written frame would break the arithmetic relation between spans
/// and cells.
fn coherent_frame(pred: u32, key: &[Cell], tag: i64, n: usize, epoch: u64) -> Arc<SharedFrame> {
    let mut cells = Vec::with_capacity(n * 2);
    let mut spans = Vec::with_capacity(n);
    for i in 0..n {
        spans.push((cells.len() as u32, 2));
        cells.push(Cell::int(tag));
        cells.push(Cell::int(tag + i as i64));
    }
    Arc::new(SharedFrame::new(
        pred,
        Arc::from(key),
        1,
        Arc::from(&cells[..]),
        spans,
        epoch,
    ))
}

/// Asserts the full payload invariant of [`coherent_frame`].
fn assert_coherent(f: &SharedFrame) {
    assert!(!f.spans.is_empty(), "published frames have answers");
    let tag = f.cells[0].int_value();
    for (i, &(off, len)) in f.spans.iter().enumerate() {
        assert_eq!(len, 2);
        let seq = &f.cells[off as usize..(off + len) as usize];
        assert_eq!(seq[0].int_value(), tag, "answer {i}: tag half");
        assert_eq!(seq[1].int_value(), tag + i as i64, "answer {i}: index half");
    }
}

/// Readers hammer `probe` while a writer loops publish → invalidate on
/// the same variant. Every successful probe must return an internally
/// coherent frame — seeing the *old* or the *new* table is fine, seeing a
/// mixture or a partially-removed frame is not. The barrier lines all
/// threads up so every iteration races inside the contended window.
#[test]
fn warm_hits_racing_epoch_bumps_see_whole_frames_only() {
    const READERS: usize = 4;
    const MIN_ROUNDS: usize = 200;
    const MAX_ROUNDS: usize = 200_000;
    let store = Arc::new(SharedTableStore::new());
    let key: Arc<[Cell]> = Arc::from(&[Cell::tvar(0)][..]);
    let stop = Arc::new(AtomicBool::new(false));
    let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let start = Arc::new(Barrier::new(READERS + 1));

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let store = store.clone();
        let key = key.clone();
        let stop = stop.clone();
        let hits = hits.clone();
        let start = start.clone();
        readers.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                if let Some(f) = store.probe(7, &key) {
                    assert_coherent(&f);
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    start.wait();
    // each round publishes a differently-tagged table, then rips it out
    // from under the readers via the epoch bump; keep racing until the
    // readers provably overlapped a live frame (self-pacing, so the test
    // is not timing-sensitive on single-core machines)
    for round in 0..MAX_ROUNDS {
        let epoch = store.epoch();
        let f = coherent_frame(7, &key, (round as i64 + 1) * 1000, 5, epoch);
        assert!(store.publish(f), "writer is the only publisher");
        std::thread::yield_now(); // give a reader the live-frame window
        store.invalidate_preds(&[7]);
        if round + 1 >= MIN_ROUNDS && hits.load(Ordering::Relaxed) > 0 {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap(); // propagates any coherence assertion failure
    }
    assert!(
        hits.load(Ordering::Relaxed) > 0,
        "readers never overlapped a live frame"
    );
    assert!(store.is_empty());
}

/// N threads race to publish the same variant. Exactly one wins; probes
/// during and after the race always return the winner's payload, so a
/// subgoal is never represented by answers from two computations.
#[test]
fn concurrent_publishes_of_one_variant_dedup_to_first_winner() {
    const WRITERS: usize = 8;
    let store = Arc::new(SharedTableStore::new());
    let key: Arc<[Cell]> = Arc::from(&[Cell::tvar(0), Cell::int(3)][..]);
    let start = Arc::new(Barrier::new(WRITERS));
    let published: Vec<bool> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            let key = key.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let f = coherent_frame(2, &key, (w as i64 + 1) * 100, 3, 0);
                start.wait();
                store.publish(f)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    assert_eq!(
        published.iter().filter(|&&p| p).count(),
        1,
        "first publisher wins, every other computation is discarded"
    );
    let f = store.probe(2, &key).expect("the winner's table serves");
    assert_coherent(&f);
    assert_eq!(store.len(), 1);
    assert_eq!(store.total_cells(), 6, "loser cells are not leaked");
}

/// Pool-level cold-start race: every worker gets the same query at once.
/// The claim/wait protocol guarantees exactly ONE worker computes — the
/// first claimant — while every other worker parks and imports the
/// published frame. No duplicated cold work, pool-wide.
#[test]
fn cold_query_race_across_workers_dedups_in_the_store() {
    const WORKERS: usize = 4;
    let p = ServerPool::new(
        r#"
        :- table path/2.
        path(X,Y) :- edge(X,Y).
        path(X,Y) :- path(X,Z), edge(Z,Y).
        edge(1,2). edge(2,3). edge(3,4). edge(4,1).
        "#,
        PoolConfig {
            workers: WORKERS,
            ..PoolConfig::default()
        },
    )
    .unwrap();
    // pin one copy of the same cold query to every worker, submitted
    // before any can finish: all race the claim
    let tickets: Vec<_> = (0..WORKERS)
        .map(|w| p.submit_count("path(X, Y)", Some(w)))
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap(), 16, "all workers agree on the answers");
    }
    p.join();
    assert_eq!(p.store().len(), 1, "one shared copy of path(X,Y)");
    let m = p.metrics();
    assert_eq!(
        m.get(Counter::SharedTablePublishes),
        1,
        "exactly one worker publishes"
    );
    assert_eq!(
        m.get(Counter::TableMisses),
        1,
        "exactly one worker computes — the claim/wait protocol parks the rest"
    );
    assert_eq!(
        m.get(Counter::SharedTableHits),
        (WORKERS - 1) as u64,
        "every losing racer imports the claimant's published table"
    );
    assert_eq!(m.get(Counter::SharedClaims), 1, "one claim granted");
}

/// Stress the claim/wait protocol: many distinct cold goals, each
/// submitted to every worker, in a deterministically scrambled order so
/// claim/park/publish/import interleave across goals. Each goal must be
/// computed exactly once pool-wide, and nothing may hang (the ci.sh
/// watchdog turns a claim/wait deadlock into a hard failure).
#[test]
fn scrambled_cold_goals_each_compute_once_pool_wide() {
    const WORKERS: usize = 6;
    const NODES: usize = 12; // a 12-cycle: path(k,X) has 12 answers
    let mut program = String::from(
        ":- table path/2.\n\
         path(X,Y) :- edge(X,Y).\n\
         path(X,Y) :- path(X,Z), edge(Z,Y).\n",
    );
    for k in 1..=NODES {
        program.push_str(&format!("edge({},{}).\n", k, k % NODES + 1));
    }
    let p = ServerPool::new(
        &program,
        PoolConfig {
            workers: WORKERS,
            ..PoolConfig::default()
        },
    )
    .unwrap();
    // every (goal, worker) pair, Fisher-Yates-scrambled by a fixed LCG so
    // the submit order is adversarial but reproducible
    let mut jobs: Vec<(usize, usize)> = (1..=NODES)
        .flat_map(|k| (0..WORKERS).map(move |w| (k, w)))
        .collect();
    let mut seed: u64 = 0x5DEECE66D;
    for i in (1..jobs.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        jobs.swap(i, (seed >> 33) as usize % (i + 1));
    }
    let tickets: Vec<_> = jobs
        .iter()
        .map(|&(k, w)| p.submit_count(&format!("path({k}, X)"), Some(w)))
        .collect();
    for t in tickets {
        assert_eq!(
            t.wait().unwrap(),
            NODES,
            "every goal reaches the full cycle"
        );
    }
    p.join();
    assert_eq!(p.store().len(), NODES, "one shared frame per goal");
    let m = p.metrics();
    assert_eq!(
        m.get(Counter::TableMisses),
        NODES as u64,
        "each goal computed exactly once pool-wide"
    );
    assert_eq!(m.get(Counter::SharedTablePublishes), NODES as u64);
    assert_eq!(
        m.get(Counter::SharedTableHits),
        (NODES * (WORKERS - 1)) as u64,
        "every non-claimant serves every goal by import"
    );
}

/// With the claim-wait timeout forced to zero, losers of a claim race
/// never park: they fall back to local computation immediately (the
/// stuck-claimant escape hatch, exercised deterministically at the store
/// level in `shared::tests`). Whatever the interleaving, the cold-path
/// outcome identity must hold and the store still dedups to one frame.
#[test]
fn zero_wait_timeout_falls_back_to_local_compute() {
    const WORKERS: usize = 4;
    let p = ServerPool::new(
        r#"
        :- table path/2.
        path(X,Y) :- edge(X,Y).
        path(X,Y) :- path(X,Z), edge(Z,Y).
        edge(1,2). edge(2,3). edge(3,4). edge(4,1).
        "#,
        PoolConfig {
            workers: WORKERS,
            ..PoolConfig::default()
        },
    )
    .unwrap();
    p.store().set_claim_wait_timeout(std::time::Duration::ZERO);
    let tickets: Vec<_> = (0..WORKERS)
        .map(|w| p.submit_count("path(X, Y)", Some(w)))
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap(), 16, "fallback answers are correct");
    }
    p.join();
    assert_eq!(p.store().len(), 1, "duplicate publishes still dedup");
    let m = p.metrics();
    let claims = m.get(Counter::SharedClaims);
    let fallbacks = m.get(Counter::ClaimFallbacks);
    let hits = m.get(Counter::SharedTableHits);
    let misses = m.get(Counter::TableMisses);
    assert_eq!(m.get(Counter::SharedTablePublishes), 1);
    // every worker's cold call resolves exactly one way: granted the
    // claim, served a published frame, or timed out into local compute
    assert_eq!(claims + fallbacks + hits, WORKERS as u64);
    assert_eq!(
        misses,
        claims + fallbacks,
        "each claim or fallback computes"
    );
    assert_eq!(m.get(Counter::ClaimWaits), 0, "zero timeout never parks");
}

/// A reader that imported a table keeps serving its local copy even after
/// the store evicts or invalidates the shared frame — the `Arc` keeps the
/// arena alive, which is the no-torn-read guarantee at the arena level.
#[test]
fn imported_arena_outlives_store_eviction() {
    let store = Arc::new(SharedTableStore::new());
    let key: Arc<[Cell]> = Arc::from(&[Cell::tvar(0)][..]);
    let f = coherent_frame(1, &key, 500, 4, 0);
    assert!(store.publish(f));
    let held = store.probe(1, &key).unwrap();
    store.invalidate_preds(&[1]);
    assert!(store.probe(1, &key).is_none(), "store side is gone");
    assert_coherent(&held); // the reader's view is untouched
}
