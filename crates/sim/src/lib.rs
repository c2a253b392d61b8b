//! Deterministic discrete-event simulation engine for the LiFTinG reproduction.
//!
//! The whole reproduction runs on a single-threaded, seeded, discrete-event
//! simulator instead of a wall-clock async runtime. This gives two properties
//! the experiments of the paper need:
//!
//! * **Determinism** — every figure and table can be regenerated bit-for-bit
//!   from a seed, which makes the results auditable.
//! * **Speed** — a 10,000-node Monte-Carlo run (Figures 10–13 of the paper)
//!   executes faster than real time on a laptop, something a real-clock
//!   runtime cannot do.
//!
//! The engine is intentionally generic: the event type is chosen by the
//! embedding crate (see `lifting-runtime`), and protocol logic elsewhere in
//! the workspace is written *sans-IO* — state machines that return commands —
//! so it can be driven either by this engine or by unit tests directly.
//!
//! # Example
//!
//! ```
//! use lifting_sim::{Engine, World, Context, SimTime, SimDuration};
//!
//! struct Counter { ticks: u32 }
//!
//! impl World for Counter {
//!     type Event = ();
//!     fn handle_event(&mut self, _now: SimTime, _ev: (), ctx: &mut Context<()>) {
//!         self.ticks += 1;
//!         if self.ticks < 10 {
//!             ctx.schedule_after(SimDuration::from_millis(100), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { ticks: 0 });
//! engine.schedule(SimTime::ZERO, ());
//! engine.run_until(SimTime::from_secs(5));
//! assert_eq!(engine.world().ticks, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collections;
pub mod component;
pub mod engine;
pub mod event;
pub mod id;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod time;

pub use component::{Component, ComponentError, ComponentRegistry, ParamMap, SeedSplitter};
pub use engine::{Context, Engine, RunReport, ShardedWorld, World};
pub use event::EventQueue;
pub use id::{NodeId, StreamId};
pub use pool::{run_indexed, run_owned, worker_count};
pub use rng::{derive_rng, split_seed};
pub use shard::ShardMap;
pub use time::{SimDuration, SimTime};
