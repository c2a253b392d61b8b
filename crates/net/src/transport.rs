//! Transport kinds.

/// The transport used for a message.
///
/// The paper sends all dissemination and direct-verification traffic over UDP
/// (lossy, cheap) and runs a-posteriori audits over TCP (reliable, connection
/// overhead amortized over a large transfer) — see Sections 3 and 5.3;
/// [`crate::TrafficCategory::transport`] is that mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Unreliable datagram: subject to the configured loss model.
    Udp,
    /// Reliable stream: never lost, slightly larger per-message overhead.
    Tcp,
}

impl Transport {
    /// True if messages on this transport can be lost.
    pub fn is_lossy(self) -> bool {
        matches!(self, Transport::Udp)
    }

    /// Per-message header bytes added to a payload: IP + UDP (28) or IP +
    /// TCP (40). Connection setup is amortized and ignored, as in the paper.
    pub fn header_bytes(self) -> u64 {
        match self {
            Transport::Udp => 28,
            Transport::Tcp => 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_is_lossy_tcp_is_not() {
        assert!(Transport::Udp.is_lossy());
        assert!(!Transport::Tcp.is_lossy());
    }

    #[test]
    fn paper_policy_sends_only_audits_over_tcp() {
        for category in crate::TrafficCategory::ALL {
            let expected = if category == crate::TrafficCategory::Audit {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            assert_eq!(category.transport(), expected, "{category:?}");
        }
    }
}
