//! Traffic accounting.
//!
//! Table 5 of the paper reports the *practical overhead* of LiFTinG: the
//! bandwidth consumed by cross-checking and blaming relative to the gossip
//! dissemination traffic, for several stream rates and values of `pdcc`.
//! Every byte sent through [`crate::Network`] is attributed to a
//! [`TrafficCategory`] so that this ratio (and Table 3's message counts) can
//! be measured rather than estimated.

use serde::{Deserialize, Serialize};

use crate::transport::Transport;

/// Category of a message, used for overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrafficCategory {
    /// Chunk payloads (the stream itself, carried by serve messages).
    StreamData,
    /// Gossip control traffic: propose and request messages.
    GossipControl,
    /// Direct cross-checking traffic: ack, confirm and confirm responses.
    Verification,
    /// Blame messages and score reads sent to reputation managers.
    Blame,
    /// A-posteriori audit transfers (history upload over TCP).
    Audit,
    /// Peer-sampling / membership maintenance traffic.
    Membership,
}

impl TrafficCategory {
    /// All categories, in display order.
    pub const ALL: [TrafficCategory; 6] = [
        TrafficCategory::StreamData,
        TrafficCategory::GossipControl,
        TrafficCategory::Verification,
        TrafficCategory::Blame,
        TrafficCategory::Audit,
        TrafficCategory::Membership,
    ];

    /// The transport messages of this category travel over (Section 5.3):
    /// audits over TCP, everything else over UDP.
    pub fn transport(self) -> Transport {
        match self {
            TrafficCategory::Audit => Transport::Tcp,
            _ => Transport::Udp,
        }
    }

    /// True if this category is part of LiFTinG (verification overhead) rather
    /// than of the underlying dissemination protocol.
    pub fn is_lifting_overhead(self) -> bool {
        matches!(
            self,
            TrafficCategory::Verification | TrafficCategory::Blame | TrafficCategory::Audit
        )
    }
}

/// Per-category counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounters {
    /// Messages sent (attempted; includes messages later lost).
    pub messages_sent: u64,
    /// Bytes sent (attempted).
    pub bytes_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Bytes actually delivered.
    pub bytes_delivered: u64,
}

/// Aggregated traffic statistics for a run.
///
/// Flat-indexed by category discriminant: accounting happens twice per
/// message on the hot path, so it must be two array stores, not tree walks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    counters: [CategoryCounters; TrafficCategory::ALL.len()],
}

impl TrafficStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records an attempted send.
    pub fn record_sent(&mut self, category: TrafficCategory, bytes: u64) {
        let c = &mut self.counters[category as usize];
        c.messages_sent += 1;
        c.bytes_sent += bytes;
    }

    /// Records a successful delivery.
    pub fn record_delivered(&mut self, category: TrafficCategory, bytes: u64) {
        let c = &mut self.counters[category as usize];
        c.messages_delivered += 1;
        c.bytes_delivered += bytes;
    }

    /// Counters for one category.
    pub fn category(&self, category: TrafficCategory) -> CategoryCounters {
        self.counters[category as usize]
    }

    /// Total bytes sent across all categories.
    pub fn total_bytes_sent(&self) -> u64 {
        self.counters.iter().map(|c| c.bytes_sent).sum()
    }

    /// Total messages sent across all categories.
    pub fn total_messages_sent(&self) -> u64 {
        self.counters.iter().map(|c| c.messages_sent).sum()
    }

    /// Bytes sent by the underlying gossip protocol (stream data + control).
    pub fn gossip_bytes_sent(&self) -> u64 {
        self.category(TrafficCategory::StreamData).bytes_sent
            + self.category(TrafficCategory::GossipControl).bytes_sent
    }

    /// Bytes sent by LiFTinG itself (verification + blame + audit).
    pub fn lifting_bytes_sent(&self) -> u64 {
        TrafficCategory::ALL
            .iter()
            .filter(|c| c.is_lifting_overhead())
            .map(|c| self.category(*c).bytes_sent)
            .sum()
    }

    /// The overhead ratio reported in Table 5 of the paper: LiFTinG bytes
    /// divided by gossip bytes. Returns 0 when no gossip traffic was recorded.
    pub fn overhead_ratio(&self) -> f64 {
        let base = self.gossip_bytes_sent();
        if base == 0 {
            0.0
        } else {
            self.lifting_bytes_sent() as f64 / base as f64
        }
    }

    /// Produces a summary report.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            per_category: TrafficCategory::ALL
                .iter()
                .map(|c| (*c, self.category(*c)))
                .collect(),
            total_bytes_sent: self.total_bytes_sent(),
            total_messages_sent: self.total_messages_sent(),
            overhead_ratio: self.overhead_ratio(),
        }
    }
}

/// A flattened summary of [`TrafficStats`] suitable for serialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Counters per category, in [`TrafficCategory::ALL`] order.
    pub per_category: Vec<(TrafficCategory, CategoryCounters)>,
    /// Total bytes sent.
    pub total_bytes_sent: u64,
    /// Total messages sent.
    pub total_messages_sent: u64,
    /// LiFTinG overhead relative to gossip traffic.
    pub overhead_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ratio_matches_definition() {
        let mut s = TrafficStats::new();
        s.record_sent(TrafficCategory::StreamData, 900);
        s.record_sent(TrafficCategory::GossipControl, 100);
        s.record_sent(TrafficCategory::Verification, 50);
        s.record_sent(TrafficCategory::Blame, 30);
        s.record_sent(TrafficCategory::Audit, 20);
        assert_eq!(s.gossip_bytes_sent(), 1_000);
        assert_eq!(s.lifting_bytes_sent(), 100);
        assert!((s.overhead_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_overhead() {
        assert_eq!(TrafficStats::new().overhead_ratio(), 0.0);
    }

    #[test]
    fn delivered_and_sent_are_tracked_separately() {
        let mut s = TrafficStats::new();
        s.record_sent(TrafficCategory::StreamData, 100);
        s.record_sent(TrafficCategory::StreamData, 100);
        s.record_delivered(TrafficCategory::StreamData, 100);
        let c = s.category(TrafficCategory::StreamData);
        assert_eq!(c.messages_sent, 2);
        assert_eq!(c.messages_delivered, 1);
        assert_eq!(c.bytes_sent, 200);
        assert_eq!(c.bytes_delivered, 100);
    }

    #[test]
    fn category_classification() {
        assert!(TrafficCategory::Verification.is_lifting_overhead());
        assert!(TrafficCategory::Blame.is_lifting_overhead());
        assert!(TrafficCategory::Audit.is_lifting_overhead());
        assert!(!TrafficCategory::StreamData.is_lifting_overhead());
        assert!(!TrafficCategory::GossipControl.is_lifting_overhead());
        assert!(!TrafficCategory::Membership.is_lifting_overhead());
    }
}
