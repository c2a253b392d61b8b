//! The heap a node's history retains must follow its live entries. Traffic
//! is shaped like one node of the `headline` run — per period one proposal to
//! 7 partners of about 11 chunks, about 7 proposals and 16 confirm requests
//! received, about 11 serves — for five history windows, so every log fills,
//! then evicts from its front and refills across its ring's wrap point.
//!
//! Each log is a `VecDeque` that never shrinks and, when full, grows by an
//! eighth of its length, at least four entries: its capacity is at most the
//! most entries it has held plus that step. The bound below is that growth
//! rule, not a tuned figure. Recording a serve is a counter bump, checked
//! with a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lifting_core::NodeHistory;
use lifting_gossip::ChunkId;
use lifting_sim::{derive_rng, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The PlanetLab deployment: `nh`, fanout and population.
const NH: usize = 50;
const FANOUT: usize = 7;
const NODES: u32 = 300;

fn peer(rng: &mut SmallRng) -> NodeId {
    NodeId::new(rng.gen_range(1..NODES))
}

/// The next 8 to 14 chunk ids of the stream, as one shared list.
fn chunk_list(rng: &mut SmallRng, next: &mut u64) -> Arc<[ChunkId]> {
    let len = rng.gen_range(8..=14u64);
    *next += len;
    (*next - len..*next).map(ChunkId::primary).collect()
}

/// The most slots the growth rule lets a log retain after holding at most
/// `peak` entries.
fn grown_from(peak: usize) -> usize {
    peak + (peak / 8).max(4)
}

#[test]
fn retained_heap_follows_the_live_entries() {
    let mut rng = derive_rng(29, 0);
    let owner = NodeId::new(0);
    let mut history = NodeHistory::new(owner, NH);
    let mut next_chunk = 0u64;
    let mut peaks = [0; 5];

    for period in 0..5 * NH as u64 {
        let partners: Vec<NodeId> = (0..FANOUT).map(|_| peer(&mut rng)).collect();
        let round = chunk_list(&mut rng, &mut next_chunk);
        history.record_proposal_sent_shared(period, &partners, round);
        for _ in 0..rng.gen_range(5..=9u32) {
            let proposer = peer(&mut rng);
            let chunks = chunk_list(&mut rng, &mut next_chunk);
            history.record_proposal_received(period, proposer, chunks);
        }
        for _ in 0..rng.gen_range(12..=20u32) {
            let (asker, subject) = (peer(&mut rng), peer(&mut rng));
            history.record_confirm_received(period, asker, subject);
        }
        let serves = rng.gen_range(8..=14u32);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..serves {
            history.record_serve_received(period);
        }
        assert_eq!(
            ALLOCATIONS.load(Ordering::Relaxed),
            before,
            "recording {serves} serves allocated"
        );

        // A period's entries are all recorded before the next period's
        // first record evicts the oldest: each log peaks here.
        for ((log, live, capacity), peak) in history.log_occupancy().into_iter().zip(&mut peaks) {
            *peak = live.max(*peak);
            // At most 20 entries of one kind per period: nothing outlives
            // the window.
            assert!(
                live <= 20 * NH,
                "period {period}: the {log} log holds {live} entries for {NH} periods"
            );
            assert!(
                capacity <= grown_from(*peak),
                "period {period}: the {log} log retains {capacity} slots after holding at \
                 most {peak} entries (bound {})",
                grown_from(*peak)
            );
        }
        if period + 1 >= NH as u64 {
            assert_eq!(history.len(), NH, "the window holds nh periods");
        }
    }
    assert_eq!(
        peaks[0], NH,
        "the period ring never holds more than nh headers"
    );
}
