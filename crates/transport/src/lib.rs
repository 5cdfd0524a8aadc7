//! Reliable-delivery transport for `overlay-netsim` protocols.
//!
//! The paper's protocols (and the NCC0 model they live in) assume every sent
//! message is delivered in the next round. The fault layer of `overlay-netsim`
//! shows how brittle that assumption is: a fraction of a percent of message loss
//! is enough to strand the one-round binarization phase of the construction
//! pipeline. This crate provides the missing session layer as a *composable
//! adapter* rather than something each protocol reimplements: [`Reliable<P>`]
//! wraps any [`overlay_netsim::Protocol`] and gives it at-least-once delivery
//! with exactly-once *semantics* at the protocol boundary —
//!
//! * **per-peer sequence numbers** on every data message,
//! * **cumulative + selective acknowledgments** (one ack message per peer per
//!   round with news, carrying the highest contiguous sequence received plus a
//!   bitmap of out-of-order receptions),
//! * **deterministic retransmission timers in rounds** (no wall-clock, no
//!   randomness: a message unacknowledged for
//!   [`TransportConfig::retransmit_after`] rounds is re-sent, up to
//!   [`TransportConfig::max_retransmits`] times),
//! * **duplicate suppression** at the receiver, so the wrapped protocol never
//!   sees a payload twice, and
//! * a **per-peer window** ([`TransportConfig::window`]) bounding in-flight
//!   traffic so the adapter's overhead stays within the NCC0 `O(log n)`
//!   per-round budget (the simulator's send/receive caps apply to transport
//!   traffic exactly as to protocol traffic — an ack lost to the cap is simply
//!   retransmitted into).
//!
//! The adapter is *transparent on a clean network*: data is delivered one round
//! after sending (the same latency as a bare send), the wrapped protocol's inbox
//! contents and order are identical to the unwrapped run, and the node RNG is
//! never touched by the transport — so a loss-free wrapped run reproduces the
//! unwrapped run's random stream and final state byte for byte, with only ack
//! messages added on the wire.
//!
//! Overhead is observable at every level: the simulator's
//! [`overlay_netsim::RoundMetrics`] gain `retransmits` / `acks` /
//! `dupes_dropped` counters (reported through [`overlay_netsim::Ctx`]'s
//! `note_*` hooks), and each node keeps local [`ReliableStats`] totals.
//!
//! # Cost
//!
//! A wrapped node's work in a round is `O(active peers + sends + inbox)`,
//! not proportional to every peer it has ever contacted. The paper's
//! construction has a node touch `O(log n)` peers per round but contact a
//! number that grows with `n` over a run, so this is what keeps the layer's
//! cost on the protocol's own scale.
//!
//! - **Layout.** Per-peer state lives in a `Vec` slab, in first-contact
//!   order, reached through a `NodeId → slot` hash index; the index is only
//!   probed, never iterated. A node's outgoing entries to all peers share a
//!   second slab that reuses freed slots, each peer's stream a list through
//!   it, so the entries a round touches sit together. Out-of-order
//!   receptions are a sorted `Vec` above a cumulative horizon.
//! - **Worklist.** A node keeps the peers with an outgoing entry or an owed
//!   ack on a worklist. Only these peers are visited by the round's send
//!   steps and by [`Reliable::has_outstanding`]; a peer leaves the list once
//!   its stream is drained and its ack is sent.
//! - **Send order.** The worklist is sorted by [`overlay_graph::NodeId`]
//!   once per round, before the send steps. New data goes out in `NodeId`
//!   order, then retransmits in `(NodeId, seq)` order, then acks in `NodeId`
//!   order. That is the order of a walk over every peer by id, so the wire
//!   (and every report built on it) does not depend on the storage layout.
//!
//! # Example
//!
//! ```
//! use overlay_graph::NodeId;
//! use overlay_netsim::{Ctx, Envelope, FaultPlan, Protocol, SimConfig, Simulator};
//! use overlay_transport::{Reliable, TransportConfig};
//!
//! /// Sends one message to the next node; done once it has heard from its
//! /// predecessor.
//! struct Ring { next: NodeId, heard: bool }
//! impl Protocol for Ring {
//!     type Message = u8;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) { ctx.send_global(self.next, 1); }
//!     fn on_round(&mut self, _ctx: &mut Ctx<'_, u8>, inbox: &[Envelope<u8>]) {
//!         self.heard |= !inbox.is_empty();
//!     }
//!     fn is_done(&self) -> bool { self.heard }
//! }
//!
//! let n = 8;
//! let nodes: Vec<_> = (0..n)
//!     .map(|i| Reliable::new(
//!         Ring { next: NodeId::from((i + 1) % n), heard: false },
//!         TransportConfig::default(),
//!     ))
//!     .collect();
//! // 30% message loss would kill some of the bare sends; the transport retries.
//! let config = SimConfig::default().with_faults(FaultPlan::default().with_drop_prob(0.3));
//! let mut sim = Simulator::new(nodes, config);
//! let outcome = sim.run(64);
//! assert!(outcome.all_done);
//! assert!(sim.nodes().iter().all(|r| r.inner().heard));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod reliable;

pub use overlay_netsim::TransportConfig;
pub use reliable::{Reliable, ReliableStats, TransportMsg};
