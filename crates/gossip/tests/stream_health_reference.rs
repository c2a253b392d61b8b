//! Property test: `StreamHealth::compute`, which sorts each node's lags once
//! and binary-searches them per grid point, counts exactly the nodes that the
//! naive sweep counts — one `PlayoutBuffer::delivery_ratio_within` call per
//! node and per lag, compared with the threshold. Cases cover empty
//! reference sets, no buffers at all (vacuously clear), receptions before a
//! chunk's emission, reference chunks no node received, repeated and foreign
//! reference chunks, unsorted lag grids, and thresholds at 0, ½ and 1.

use lifting_gossip::{Chunk, PlayoutBuffer, StreamClock, StreamHealth};
use lifting_sim::{SimDuration, SimTime, StreamId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Chunk indices a case draws from.
const INDICES: u64 = 40;

/// One 1 000-byte chunk every 40 ms.
fn clock_of(stream: StreamId) -> StreamClock {
    StreamClock::new(stream, 200_000, 1_000)
}

/// Fraction of nodes with at least `threshold` of `emitted` within each lag:
/// the per-node, per-lag sweep `compute` claims to match.
fn naive_fraction_clear(
    buffers: &[&PlayoutBuffer],
    emitted: &[Chunk],
    lags: &[SimDuration],
    threshold: f64,
) -> Vec<f64> {
    lags.iter()
        .map(|lag| {
            if buffers.is_empty() {
                return 1.0;
            }
            let clear = buffers
                .iter()
                .filter(|b| b.delivery_ratio_within(emitted, *lag) >= threshold)
                .count();
            clear as f64 / buffers.len() as f64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn compute_counts_like_the_per_lag_sweep(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let clock = clock_of(StreamId::PRIMARY);
        let foreign = clock_of(StreamId::new(1));

        // Receipts: each node holds a random subset of the chunks, received
        // anywhere from before emission to seconds after it. Times and lags
        // share a 20 ms grid, so a chunk's lag often equals a grid lag.
        let buffers: Vec<PlayoutBuffer> = (0..rng.gen_range(0..6usize))
            .map(|_| {
                let mut buffer = PlayoutBuffer::new(clock);
                for _ in 0..rng.gen_range(0..60usize) {
                    let chunk = clock.chunk(rng.gen_range(0..INDICES));
                    let at = SimTime::from_millis(20 * rng.gen_range(0..200u64));
                    buffer.record(&chunk, at);
                }
                buffer
            })
            .collect();
        let buffers: Vec<&PlayoutBuffer> = buffers.iter().collect();

        // The reference set: empty in some cases; otherwise chunks of the
        // buffers' stream (repeats allowed) and now and then a foreign one.
        let emitted: Vec<Chunk> = (0..rng.gen_range(0..30usize))
            .map(|_| {
                let index = rng.gen_range(0..INDICES);
                if rng.gen_range(0..8u32) == 0 {
                    foreign.chunk(index)
                } else {
                    clock.chunk(index)
                }
            })
            .collect();

        let lags: Vec<SimDuration> = (0..rng.gen_range(0..8usize))
            .map(|_| SimDuration::from_millis(20 * rng.gen_range(0..150u64)))
            .collect();
        let threshold = match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => 0.5,
            2 => 1.0,
            _ => rng.gen_range(0.0..1.0),
        };

        let health = StreamHealth::compute(&buffers, &emitted, &lags, threshold);
        let naive = naive_fraction_clear(&buffers, &emitted, &lags, threshold);
        prop_assert!(
            health.fraction_clear == naive,
            "{} buffers, {} reference chunks, threshold {threshold}: {:?} != {:?}",
            buffers.len(),
            emitted.len(),
            health.fraction_clear,
            naive
        );
        let lag_secs: Vec<f64> = lags.iter().map(|l| l.as_secs_f64()).collect();
        prop_assert!(health.lag_secs == lag_secs);
    }
}
