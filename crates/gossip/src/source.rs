//! The broadcast sources, one per stream, and the clock that defines every
//! chunk of a stream.

use lifting_sim::{SimDuration, SimTime, StreamId};

use crate::chunk::{Chunk, ChunkId};

/// The one definition of a stream's chunks: chunk `i` has id `(stream, i)`,
/// `chunk_size` bytes and is emitted at `first + interval × i`.
///
/// A chunk's emission instant and size are facts of the stream, the same
/// for every node, so nothing per node stores them: the source emits
/// `clock.chunk(i)` and every playout buffer rebuilds them from the same
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamClock {
    /// The stream.
    pub stream: StreamId,
    /// Chunk payload size in bytes.
    pub chunk_size: u32,
    /// Emission instant of chunk 0.
    pub first: SimTime,
    /// Interval between consecutive emissions (a whole number of µs).
    pub interval: SimDuration,
}

impl StreamClock {
    /// The clock of `stream` at `rate_bps` bits per second in chunks of
    /// `chunk_size` bytes, starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the rate or the chunk size is zero.
    pub fn new(stream: StreamId, rate_bps: u64, chunk_size: u32) -> Self {
        assert!(rate_bps > 0, "stream rate must be positive");
        assert!(chunk_size > 0, "chunk size must be positive");
        StreamClock {
            stream,
            chunk_size,
            first: SimTime::ZERO,
            interval: SimDuration::from_secs_f64(chunk_size as f64 * 8.0 / rate_bps as f64),
        }
    }

    /// The paper's primary stream: 674 kbps in 4 KiB chunks from time zero
    /// (about 20.6 chunks per second).
    pub fn paper() -> Self {
        StreamClock::new(StreamId::PRIMARY, 674_000, 4_096)
    }

    /// Delays the first emission to `first` (channels need not begin
    /// together: a stream may come on air mid-run).
    pub fn starting_at(mut self, first: SimTime) -> Self {
        self.first = first;
        self
    }

    /// Chunk `index` of the stream.
    pub fn chunk(&self, index: u64) -> Chunk {
        Chunk::new(
            ChunkId::new(self.stream, index),
            self.chunk_size,
            self.first + self.interval.saturating_mul(index),
        )
    }
}

/// One stream's source: its clock and how many chunks it has emitted.
///
/// The paper broadcasts streams of 674, 1082 and 2036 kbps from a single
/// source; with the default 4 KiB chunks a 674 kbps stream produces about 20
/// chunks per second. A multi-channel deployment runs several sources side by
/// side, each with its own rate and start offset, all identified by their
/// [`StreamId`].
#[derive(Debug, Clone)]
pub struct StreamSource {
    clock: StreamClock,
    next_index: u64,
}

impl StreamSource {
    /// A source that has emitted nothing yet.
    pub fn new(clock: StreamClock) -> Self {
        StreamSource {
            clock,
            next_index: 0,
        }
    }

    /// The clock every chunk of this stream follows.
    pub fn clock(&self) -> StreamClock {
        self.clock
    }

    /// The instant the next chunk will be emitted.
    pub fn next_emission(&self) -> SimTime {
        self.clock.chunk(self.next_index).emitted_at
    }

    /// Number of chunks emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next_index
    }

    /// Every chunk emitted so far, in order (the stream-health reference).
    pub fn emitted_chunks(&self) -> impl Iterator<Item = Chunk> + '_ {
        (0..self.next_index).map(|i| self.clock.chunk(i))
    }

    /// Emits the next chunk, stamped with its scheduled emission instant
    /// (callers should invoke this when the simulation clock reaches
    /// [`next_emission`]).
    ///
    /// [`next_emission`]: StreamSource::next_emission
    pub fn emit(&mut self) -> Chunk {
        let chunk = self.clock.chunk(self.next_index);
        self.next_index += 1;
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stream_rate_produces_expected_chunk_rate() {
        // 674 kbps with 4 KiB chunks ≈ 20.6 chunks/s.
        let clock = StreamClock::paper();
        let cps = 1.0 / clock.interval.as_secs_f64();
        assert!((cps - 20.57).abs() < 0.1, "chunks/s = {cps}");
        assert_eq!(clock.interval, SimDuration::from_micros(48_617));
    }

    #[test]
    fn emission_is_sequential_and_timestamped() {
        let clock = StreamClock::new(StreamId::PRIMARY, 1_000_000, 1_250); // 100 chunks/s
        let mut src = StreamSource::new(clock);
        let c0 = src.emit();
        let c1 = src.emit();
        assert_eq!(c0.id, ChunkId::primary(0));
        assert_eq!(c1.id, ChunkId::primary(1));
        assert_eq!(c0.emitted_at, SimTime::ZERO);
        assert_eq!(c1.emitted_at, SimTime::from_millis(10));
        assert_eq!(src.emitted(), 2);
        assert_eq!(src.next_emission(), SimTime::from_millis(20));
        assert_eq!(src.emitted_chunks().collect::<Vec<_>>(), [c0, c1]);
    }

    #[test]
    fn secondary_stream_chunks_carry_the_stream_identity() {
        let stream = StreamId::new(3);
        let clock = StreamClock::new(stream, 1_000_000, 1_250).starting_at(SimTime::from_secs(2));
        let mut src = StreamSource::new(clock);
        assert_eq!(src.next_emission(), SimTime::from_secs(2));
        let c = src.emit();
        assert_eq!(c, clock.chunk(0));
        assert_eq!(c.id, ChunkId::new(stream, 0));
        assert_eq!(c.emitted_at, SimTime::from_secs(2));
        assert_eq!(clock.chunk(5).emitted_at, SimTime::from_millis(2_050));
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        let _ = StreamClock::new(StreamId::PRIMARY, 0, 1_000);
    }
}
