//! Simulated transport layer for the LiFTinG reproduction.
//!
//! The paper evaluates LiFTinG over PlanetLab: ~300 wide-area nodes exchanging
//! UDP datagrams with 4–7 % message loss, heterogeneous latency and limited,
//! heterogeneous upload bandwidth; audits use TCP. This crate models exactly
//! those properties as a deterministic, seedable substrate:
//!
//! * [`Transport::Udp`] messages are subject to Bernoulli loss and are never
//!   retransmitted (matching the paper's direct verification messages);
//!   [`Transport::Tcp`] messages are delivered reliably (matching the paper's
//!   audits, Section 5.3).
//! * Latency is drawn from a configurable [`LatencyModel`], including a
//!   PlanetLab-like heterogeneous model.
//! * Each node has an uplink capacity; outgoing messages are serialized on the
//!   uplink so that overloaded or poor nodes fall behind — the phenomenon the
//!   paper identifies as the main source of false positives.
//! * All traffic is accounted per [`TrafficCategory`], which is what Table 5
//!   (practical overhead) is computed from.
//! * Network faults can be injected deterministically: bursty
//!   ([`LossModel::GilbertElliott`]) loss, latency spikes and duplication
//!   ([`LinkFaults`]), and partition flags that cut both transports (set by
//!   the runtime's partition waves) — the resilience plane's substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod latency;
pub mod loss;
pub mod network;
pub mod provider;
pub mod traffic;
pub mod transport;

pub use bandwidth::{NodeCapability, UplinkState};
pub use latency::LatencyModel;
pub use loss::{BurstState, LossModel};
pub use network::{DeliveryOutcome, LinkFaults, Network, NetworkConfig};
pub use provider::{capability_components, CapabilityClassAssigner};
pub use traffic::{TrafficCategory, TrafficReport, TrafficStats};
pub use transport::Transport;

pub use lifting_sim::NodeId;
