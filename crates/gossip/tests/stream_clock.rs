//! Property test: `StreamClock::chunk(i)` is exactly the `i`-th chunk of a
//! reference source that accumulates its next emission instant one interval
//! at a time, and `StreamSource::emit` hands out the same chunks in order.
//! The interval is a whole number of µs, so `first + interval × i` and the
//! running sum agree bit for bit.

use lifting_gossip::{Chunk, ChunkId, StreamClock, StreamSource};
use lifting_sim::{SimDuration, SimTime, StreamId};
use proptest::prelude::*;

/// How far each drawn stream is followed.
const CHUNKS: u64 = 100_000;

/// The reference: a source that keeps its next emission instant and adds
/// the interval after every chunk.
struct AccumulatingSource {
    stream: StreamId,
    chunk_size: u32,
    interval: SimDuration,
    next_index: u64,
    next_emission: SimTime,
}

impl AccumulatingSource {
    fn emit(&mut self) -> Chunk {
        let chunk = Chunk::new(
            ChunkId::new(self.stream, self.next_index),
            self.chunk_size,
            self.next_emission,
        );
        self.next_index += 1;
        self.next_emission += self.interval;
        chunk
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn the_clock_matches_an_accumulating_source(
        rate_bps in 1_000u64..10_000_001,
        chunk_size in 64u64..65_537,
        offset_us in 0u64..60_000_001,
        stream in 0u64..4,
    ) {
        let (stream, chunk_size) = (StreamId::new(stream as u16), chunk_size as u32);
        let first = SimTime::from_micros(offset_us);
        let clock = StreamClock::new(stream, rate_bps, chunk_size).starting_at(first);
        let mut reference = AccumulatingSource {
            stream,
            chunk_size,
            interval: SimDuration::from_secs_f64(chunk_size as f64 * 8.0 / rate_bps as f64),
            next_index: 0,
            next_emission: first,
        };
        let mut source = StreamSource::new(clock);
        for i in 0..CHUNKS {
            prop_assert!(source.next_emission() == reference.next_emission, "before {i}");
            let expected = reference.emit();
            prop_assert!(clock.chunk(i) == expected, "chunk {i}");
            prop_assert!(source.emit() == expected, "emission {i}");
        }
        prop_assert!(source.emitted() == CHUNKS);
    }
}
