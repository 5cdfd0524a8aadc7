//! The executor seam: run the pipeline's phases on something other than the
//! lockstep simulator.
//!
//! [`crate::OverlayBuilder`] drives the paper's three phases through a
//! [`PhaseExecutor`] on every entry point: [`crate::OverlayBuilder::build`]
//! and the fault-injected builds on a [`SimExecutor`], and
//! [`crate::OverlayBuilder::build_over`] on any executor. An executor receives a fully constructed [`Phase`] (every node's protocol
//! state, for *all* `n` nodes) plus a [`PhaseExecSpec`] (seed, capacity cap,
//! round budget, transport choice) and returns an [`ExecutedPhase`]: one
//! [`Summarize::Summary`] per node plus the run facts the hand-offs and the
//! report need.
//!
//! Two families of executors exist:
//!
//! * [`SimExecutor`] (here) — the deterministic lockstep simulator behind the
//!   seam. It also times each phase, brackets it with trace markers, and
//!   returns the simulator's counters the report is built from.
//! * The socket-backed runners in the `overlay-net` crate — one thread per
//!   node over in-process channels, or multiple OS processes over TCP. They
//!   replicate the simulator's delivery order, RNG seeding and stop rule, so
//!   per seed the final overlay graph is *identical* to the simulator's; the
//!   cross-backend equivalence tests in `overlay-net` pin that claim.
//!
//! Summaries exist because a multi-process executor cannot hand back remote
//! nodes' full protocol states. Each phase's hand-off needs only a small
//! per-node digest — final slot lists after construction, `(root, parent,
//! children)` after BFS, the relinked parent after binarization — and every
//! successor phase is constructible from those digests alone. Summaries
//! implement [`Wire`] so executors can exchange them across process
//! boundaries.

use crate::bfs::BfsNode;
use crate::expander::ExpanderNode;
use crate::pipeline::Phase;
use crate::wellformed::BinarizeNode;
use overlay_graph::NodeId;
use overlay_netsim::trace::{SharedTraceSink, TraceEvent};
use overlay_netsim::wire::{Wire, WireError};
use overlay_netsim::{
    MetricsMode, ParallelismConfig, Protocol, RunMetrics, SimConfig, Simulator, TransportConfig,
};
use overlay_transport::Reliable;
use std::time::{Duration, Instant};

/// A protocol whose per-node end state can be digested into a small,
/// wire-encodable summary sufficient for the pipeline's phase hand-offs.
pub trait Summarize: Protocol
where
    Self::Message: Wire,
{
    /// The per-node digest exchanged at phase boundaries.
    type Summary: Wire + Clone + std::fmt::Debug + Send;

    /// Digests this node's final state.
    fn summarize(&self) -> Self::Summary;
}

/// What the `CreateExpander` hand-off needs from each node: its identifier and
/// its final evolution-graph slot list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpanderSummary {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's slots in the final evolution graph `G_L` (one entry per
    /// incident half-edge, self-loops included).
    pub slots: Vec<NodeId>,
}

impl Wire for ExpanderSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.slots.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ExpanderSummary {
            id: NodeId::decode(buf)?,
            slots: Vec::decode(buf)?,
        })
    }
}

impl Summarize for ExpanderNode {
    type Summary = ExpanderSummary;

    fn summarize(&self) -> ExpanderSummary {
        ExpanderSummary {
            id: self.id(),
            slots: self.slots().to_vec(),
        }
    }
}

/// What the BFS hand-off needs from each node: the root it converged to and
/// its place in the BFS tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsSummary {
    /// The node's identifier.
    pub id: NodeId,
    /// The smallest identifier the node knows (the root it elected).
    pub root: NodeId,
    /// The node's BFS parent (itself for the root).
    pub parent: NodeId,
    /// The node's BFS children.
    pub children: Vec<NodeId>,
}

impl Wire for BfsSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.root.encode(out);
        self.parent.encode(out);
        self.children.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BfsSummary {
            id: NodeId::decode(buf)?,
            root: NodeId::decode(buf)?,
            parent: NodeId::decode(buf)?,
            children: Vec::decode(buf)?,
        })
    }
}

impl Summarize for BfsNode {
    type Summary = BfsSummary;

    fn summarize(&self) -> BfsSummary {
        BfsSummary {
            id: self.id(),
            root: self.root(),
            parent: self.parent(),
            children: self.children().to_vec(),
        }
    }
}

/// What the finalize hand-off needs from each node: its parent in the
/// binarized tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinarizeSummary {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's parent in the binarized (well-formed) tree.
    pub new_parent: NodeId,
}

impl Wire for BinarizeSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.new_parent.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BinarizeSummary {
            id: NodeId::decode(buf)?,
            new_parent: NodeId::decode(buf)?,
        })
    }
}

impl Summarize for BinarizeNode {
    type Summary = BinarizeSummary;

    fn summarize(&self) -> BinarizeSummary {
        BinarizeSummary {
            id: self.id(),
            new_parent: self.new_parent(),
        }
    }
}

/// The run parameters the pipeline driver behind every
/// [`crate::OverlayBuilder`] entry point resolves for one phase: the
/// phase-offset seed, the NCC0 cap, the scaled round budget and the effective
/// transport.
#[derive(Clone, Copy, Debug)]
pub struct PhaseExecSpec {
    /// Seed for this phase's randomness (already offset by the phase index,
    /// see [`crate::PhaseId::index`]).
    pub seed: u64,
    /// The NCC0 per-node, per-round global message cap.
    pub ncc0_cap: usize,
    /// Maximum message rounds to execute (the scaled [`crate::RoundBudget`]).
    pub budget: usize,
    /// Run the phase behind the reliable-delivery layer, or bare (`None`).
    pub transport: Option<TransportConfig>,
}

/// One executed phase: per-node summaries plus the facts the hand-offs need.
#[derive(Clone, Debug)]
pub struct ExecutedPhase<S> {
    /// One summary per node, in node order.
    pub summaries: Vec<S>,
    /// Liveness of each node when the phase ended (all `true` on clean runs;
    /// a socket backend marks peers its failure detector gave up on).
    pub alive: Vec<bool>,
    /// Message rounds executed (not counting the start round).
    pub rounds: usize,
    /// Whether every node reported done before the budget ran out.
    pub all_done: bool,
    /// Messages delivered to inboxes across the phase (best-effort bookkeeping
    /// for reporting; not part of the overlay-graph equivalence contract).
    pub delivered: u64,
    /// Nodes that had finished when the phase ended (crashed nodes count as
    /// finished), which a stalled phase reports. An executor that only sees
    /// the global stop rule reports all nodes or none.
    pub nodes_done: usize,
    /// The simulator's counters for the phase: drops by cause, delays,
    /// transport activity, crash and join events, per-round peaks and
    /// per-node send totals. Empty from an executor that cannot observe them.
    pub metrics: RunMetrics,
    /// Host wall-clock time spent running the phase; zero from an executor
    /// that does not time itself.
    pub wall: Duration,
}

/// An engine that can execute one pipeline phase end to end.
///
/// Implementations must reproduce the synchronous model faithfully — round
/// `r`'s sends are delivered at round `r + 1`, inboxes are ordered by sender
/// id then send order, the per-sender global send cap applies, and execution
/// stops when every node is done or the budget is exhausted — but are free to
/// realize it over any medium (the lockstep simulator, threads and channels,
/// TCP sockets).
pub trait PhaseExecutor {
    /// How this executor fails below the protocol layer (connection loss,
    /// undecodable frames). The simulator cannot fail.
    type Error: std::fmt::Display;

    /// Executes `phase` under `spec`, returning every node's summary.
    ///
    /// `P: Send` (and `P::Message: Send`) because threaded executors move each
    /// node's state into its own worker thread; the simulator ignores it.
    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send;
}

/// The lockstep simulator behind the [`PhaseExecutor`] seam.
///
/// Every [`crate::OverlayBuilder`] entry point but
/// [`crate::OverlayBuilder::build_over`] runs on this executor, configured
/// from the builder; it is also the model the `overlay-net` equivalence tests
/// compare the socket-backed executors against.
#[derive(Clone, Debug, Default)]
pub struct SimExecutor {
    /// Within-round parallelism policy (bitwise identical at any worker count).
    pub parallelism: ParallelismConfig,
    /// Metrics-retention mode for each phase's simulator.
    pub metrics_mode: MetricsMode,
    /// Trace sink each phase's simulator streams its events into, bracketed
    /// by [`TraceEvent::PhaseStart`] / [`TraceEvent::PhaseEnd`] markers;
    /// `None` keeps runs untraced. Tracing never changes the run itself.
    pub trace: Option<SharedTraceSink>,
}

impl PhaseExecutor for SimExecutor {
    type Error = std::convert::Infallible;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let (id, nodes, _, faults) = phase.into_parts();
        let config = SimConfig::ncc0_capped(spec.ncc0_cap, spec.seed, faults)
            .with_parallelism(self.parallelism)
            .with_metrics_mode(self.metrics_mode);
        if let Some(sink) = &self.trace {
            sink.borrow_mut()
                .record(TraceEvent::PhaseStart { phase: id.name() });
        }
        let started = Instant::now();
        let trace = self.trace.clone();
        let mut run = match spec.transport {
            Some(cfg) => simulate(
                nodes.into_iter().map(|p| Reliable::new(p, cfg)).collect(),
                config,
                spec.budget,
                trace,
                |node: &Reliable<P>| node.inner().summarize(),
            ),
            None => simulate(nodes, config, spec.budget, trace, P::summarize),
        };
        run.wall = started.elapsed();
        if let Some(sink) = &self.trace {
            sink.borrow_mut().record(TraceEvent::PhaseEnd {
                phase: id.name(),
                rounds: run.rounds,
                completed: run.all_done,
            });
        }
        Ok(run)
    }
}

/// Runs `nodes` on the simulator for at most `budget` message rounds and
/// digests each final state with `summarize`. Behind the reliable transport,
/// a node holding unacknowledged data is not done, so the phase keeps running
/// until retransmissions land or the budget runs out.
fn simulate<Q: Protocol, S>(
    nodes: Vec<Q>,
    config: SimConfig,
    budget: usize,
    trace: Option<SharedTraceSink>,
    summarize: impl Fn(&Q) -> S,
) -> ExecutedPhase<S> {
    let mut sim = Simulator::new(nodes, config);
    if let Some(sink) = trace {
        sim.set_trace_sink(sink);
    }
    let outcome = sim.run(budget);
    let metrics = sim.metrics().clone();
    ExecutedPhase {
        summaries: sim.nodes().iter().map(summarize).collect(),
        alive: (0..sim.node_count())
            .map(|i| sim.is_active(NodeId::from(i)))
            .collect(),
        rounds: outcome.rounds,
        all_done: outcome.all_done,
        delivered: metrics.total_delivered(),
        nodes_done: sim.done_count(),
        metrics,
        wall: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(T::decode(&mut slice).unwrap(), value);
        assert!(slice.is_empty());
    }

    #[test]
    fn summaries_round_trip() {
        round_trip(ExpanderSummary {
            id: NodeId::new(3),
            slots: vec![NodeId::new(1), NodeId::new(3), NodeId::new(7)],
        });
        round_trip(BfsSummary {
            id: NodeId::new(5),
            root: NodeId::new(0),
            parent: NodeId::new(2),
            children: vec![NodeId::new(9)],
        });
        round_trip(BinarizeSummary {
            id: NodeId::new(4),
            new_parent: NodeId::new(1),
        });
    }

    #[test]
    fn node_summaries_digest_the_accessors() {
        let b = BinarizeNode::new(NodeId::new(2), NodeId::new(1), vec![NodeId::new(3)]);
        let s = b.summarize();
        assert_eq!(s.id, NodeId::new(2));
        assert_eq!(s.new_parent, b.new_parent());
    }
}
