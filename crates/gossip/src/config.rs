//! Gossip protocol configuration.

use lifting_sim::{ComponentError, SimDuration};

/// Static parameters of the three-phase gossip protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Fanout `f`: number of partners each propose phase targets. The paper
    /// uses 7 on PlanetLab (300 nodes) and 12 in the 10,000-node simulations
    /// (`f` slightly above `ln n`).
    pub fanout: usize,
    /// Gossip period `Tg` between consecutive propose phases (500 ms in the
    /// paper's deployment).
    pub gossip_period: SimDuration,
    /// Fraction of the chunks due at a given lag that a node must have
    /// received to be counted as "viewing a clear stream" (Figure 1). The
    /// paper does not give the exact threshold used by its player; 99 % is the
    /// conventional choice for gossip streaming evaluations.
    pub clear_stream_threshold: f64,
}

impl GossipConfig {
    /// The PlanetLab deployment parameters of Section 7.1: `f = 7`,
    /// `Tg = 500 ms`.
    pub fn planetlab() -> Self {
        GossipConfig {
            fanout: 7,
            gossip_period: SimDuration::from_millis(500),
            clear_stream_threshold: 0.99,
        }
    }

    /// The large-scale simulation parameters of Section 6: `f = 12`.
    pub fn simulation() -> Self {
        GossipConfig {
            fanout: 12,
            gossip_period: SimDuration::from_millis(500),
            clear_stream_threshold: 0.99,
        }
    }

    /// Validates the configuration: a positive fanout and gossip period, a
    /// clear-stream threshold in `(0, 1]`. An error names the offending key
    /// of component `gossip`.
    pub fn validate(&self) -> Result<(), ComponentError> {
        let require = |ok, key, reason| ComponentError::require(ok, "gossip", key, reason);
        require(self.fanout > 0, "fanout", "fanout must be positive")?;
        require(
            !self.gossip_period.is_zero(),
            "gossip_period",
            "gossip period must be positive",
        )?;
        require(
            self.clear_stream_threshold > 0.0 && self.clear_stream_threshold <= 1.0,
            "clear_stream_threshold",
            "clear-stream threshold must be in (0, 1]",
        )
    }
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig::planetlab()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let p = GossipConfig::planetlab();
        assert_eq!(p.fanout, 7);
        assert_eq!(p.gossip_period, SimDuration::from_millis(500));
        let s = GossipConfig::simulation();
        assert_eq!(s.fanout, 12);
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = GossipConfig::planetlab();
        c.fanout = 0;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ComponentError::InvalidParam { key, .. } if key == "fanout"));
    }
}
