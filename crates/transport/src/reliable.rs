//! The [`Reliable`] protocol adapter: sequence numbers, acks, retransmission and
//! duplicate suppression around an arbitrary inner [`Protocol`].

use overlay_graph::NodeId;
use overlay_netsim::wire::{Wire, WireError};
use overlay_netsim::{Channel, Ctx, Envelope, Protocol, TransportConfig};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The wire format of the reliable layer: the inner protocol's payloads wrapped
/// with a per-peer sequence number, plus acknowledgment messages.
///
/// Both variants are `O(log n)` bits on top of the payload (a sequence number and
/// a constant-size bitmap), so a wrapped protocol still satisfies the NCC0
/// message-size discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportMsg<M> {
    /// An inner-protocol payload, tagged with the sender's per-peer sequence
    /// number (sequence numbers start at 1 and never repeat within a run).
    Data {
        /// Position of this payload in the sender→receiver stream.
        seq: u32,
        /// The lowest sequence number the sender still holds open: everything
        /// below it is acknowledged or *abandoned* and will never be re-sent.
        /// Lets the receiver advance its cumulative horizon past abandoned
        /// gaps — without it, one abandoned payload would wedge the cumulative
        /// ack below the gap forever, and once the stream moved more than the
        /// selective bitmap's 64 sequences past it, every later (delivered!)
        /// message would be retransmitted to exhaustion.
        floor: u32,
        /// The wrapped protocol message.
        payload: M,
    },
    /// A (cumulative + selective) acknowledgment for the reverse direction.
    Ack {
        /// Every sequence number `<= cum` has been received (`0` = none yet).
        cum: u32,
        /// Bit `i` set means sequence `cum + 1 + i` was received out of order.
        sel: u64,
    },
}

impl<M: Wire> Wire for TransportMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TransportMsg::Data {
                seq,
                floor,
                payload,
            } => {
                out.push(0);
                seq.encode(out);
                floor.encode(out);
                payload.encode(out);
            }
            TransportMsg::Ack { cum, sel } => {
                out.push(1);
                cum.encode(out);
                sel.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(TransportMsg::Data {
                seq: u32::decode(buf)?,
                floor: u32::decode(buf)?,
                payload: M::decode(buf)?,
            }),
            1 => Ok(TransportMsg::Ack {
                cum: u32::decode(buf)?,
                sel: u64::decode(buf)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The end of a stream in the outgoing-entry slab.
const NIL: u32 = u32::MAX;

/// One queued-or-in-flight outgoing payload.
#[derive(Clone, Debug)]
struct OutEntry<M> {
    seq: u32,
    channel: Channel,
    payload: M,
    /// Tick of the most recent send (meaningless while `sends == 0`).
    last_sent: u32,
    /// Times this entry went on the wire (1 = the original send); `0` while
    /// the window keeps it queued.
    sends: u32,
    /// Acknowledged (or abandoned): the payload will never be sent again.
    closed: bool,
    /// The next entry of the same peer's stream, or [`NIL`].
    next: u32,
}

/// Every outgoing entry of one node, to all its peers, in one `Vec`. Each
/// peer's stream is a list through it in sequence order. Slots are reused,
/// so the slab stays as small as the node's live entries and a round's
/// entries share a few cache lines.
#[derive(Clone, Debug)]
struct OutSlab<M> {
    entries: Vec<OutEntry<M>>,
    free: Vec<u32>,
}

impl<M> OutSlab<M> {
    fn insert(&mut self, entry: OutEntry<M>) -> u32 {
        match self.free.pop() {
            Some(at) => {
                self.entries[at as usize] = entry;
                at
            }
            None => {
                self.entries.push(entry);
                u32::try_from(self.entries.len() - 1).expect("fewer than 2^32 entries")
            }
        }
    }
}

/// Per-peer transport state: the outgoing stream (sender role) and the incoming
/// dedup horizon (receiver role).
#[derive(Clone, Debug)]
struct PeerState {
    id: NodeId,
    /// Sequence number the next enqueued payload will get.
    next_seq: u32,
    /// First slab entry of the outgoing stream ([`NIL`] when it is empty).
    /// The stream runs in sequence order; sent entries form a prefix.
    head: u32,
    /// Last slab entry of the outgoing stream ([`NIL`] when it is empty).
    tail: u32,
    /// Number of sent, unacknowledged, unabandoned entries (window occupancy).
    in_flight: u32,
    /// Every incoming sequence `<= cum_recv` has been delivered.
    cum_recv: u32,
    /// Incoming sequences received out of order, ascending (all `> cum_recv`,
    /// and never `cum_recv + 1`: that one is absorbed into the horizon).
    above: Vec<u32>,
    /// An ack to this peer is owed at the end of the current round.
    ack_pending: bool,
    /// The failure detector's verdict: the peer exhausted a retransmission
    /// budget and is presumed crashed; our sender role to it is closed for the
    /// rest of the run. Only ever set when
    /// [`TransportConfig::failure_detector`] is on.
    dead: bool,
    /// The peer is on the adapter's active worklist.
    listed: bool,
}

impl PeerState {
    fn new(id: NodeId) -> Self {
        PeerState {
            id,
            next_seq: 1,
            head: NIL,
            tail: NIL,
            in_flight: 0,
            cum_recv: 0,
            above: Vec::new(),
            ack_pending: false,
            dead: false,
            listed: false,
        }
    }

    /// Records an incoming data sequence; returns `true` if it is fresh (first
    /// delivery) and `false` for a duplicate.
    fn receive_data(&mut self, seq: u32) -> bool {
        if seq <= self.cum_recv {
            return false;
        }
        if seq == self.cum_recv + 1 {
            self.cum_recv = seq;
            self.absorb_run();
            return true;
        }
        match self.above.binary_search(&seq) {
            Ok(_) => false,
            Err(at) => {
                self.above.insert(at, seq);
                self.absorb_run();
                true
            }
        }
    }

    /// Advances the cumulative horizon past sequences the sender declared
    /// closed (acknowledged or abandoned — they will never be re-sent, so
    /// waiting for them would wedge the ack stream forever).
    fn advance_floor(&mut self, floor: u32) {
        if floor > self.cum_recv + 1 {
            self.cum_recv = floor - 1;
            let passed = self.above.partition_point(|&seq| seq <= self.cum_recv);
            self.above.drain(..passed);
            // The gap may have been the only thing holding back a received run.
            self.absorb_run();
        }
    }

    /// Moves the received run `cum_recv + 1, cum_recv + 2, …` at the front of
    /// `above` into the cumulative horizon.
    fn absorb_run(&mut self) {
        let run = self
            .above
            .iter()
            .zip(self.cum_recv + 1..)
            .take_while(|(&seq, want)| seq == *want)
            .count();
        if run > 0 {
            self.cum_recv += run as u32;
            self.above.drain(..run);
        }
    }

    /// `true` while some outgoing payload is neither acknowledged nor
    /// abandoned.
    fn has_outgoing(&self) -> bool {
        self.head != NIL
    }

    /// Appends `entry` to the outgoing stream.
    fn push<M>(&mut self, slab: &mut OutSlab<M>, entry: OutEntry<M>) {
        let at = slab.insert(entry);
        match self.tail {
            NIL => self.head = at,
            tail => slab.entries[tail as usize].next = at,
        }
        self.tail = at;
    }

    /// Applies an acknowledgment from this peer to the outgoing stream.
    fn handle_ack<M>(&mut self, slab: &mut OutSlab<M>, cum: u32, sel: u64) {
        let mut at = self.head;
        while at != NIL {
            let entry = &mut slab.entries[at as usize];
            at = entry.next;
            if entry.sends == 0 {
                break;
            }
            if entry.closed {
                continue;
            }
            let acked = entry.seq <= cum
                || (u64::from(entry.seq - cum - 1) < 64
                    && sel & (1u64 << (entry.seq - cum - 1)) != 0);
            if acked {
                entry.closed = true;
                self.in_flight -= 1;
            }
        }
        self.pop_closed(slab);
    }

    /// Drops the closed prefix of the outgoing stream.
    fn pop_closed<M>(&mut self, slab: &mut OutSlab<M>) {
        while self.head != NIL && slab.entries[self.head as usize].closed {
            slab.free.push(self.head);
            self.head = slab.entries[self.head as usize].next;
        }
        if self.head == NIL {
            self.tail = NIL;
        }
    }

    /// The sender-side stream floor: the lowest sequence still open (nothing
    /// below it will ever be re-sent). The outgoing stream's head is never
    /// closed (`pop_closed` maintains that invariant), so its sequence — or
    /// `next_seq` when the stream is drained — is exactly that bound.
    fn floor<M>(&self, slab: &OutSlab<M>) -> u32 {
        match self.head {
            NIL => self.next_seq,
            head => slab.entries[head as usize].seq,
        }
    }

    /// The cumulative/selective ack summarizing everything received so far.
    fn ack_message<M>(&self) -> TransportMsg<M> {
        let mut sel = 0u64;
        for &seq in &self.above {
            let off = seq - self.cum_recv - 1;
            if off >= 64 {
                break;
            }
            sel |= 1u64 << off;
        }
        TransportMsg::Ack {
            cum: self.cum_recv,
            sel,
        }
    }
}

/// Hashes a [`NodeId`] with one multiply instead of SipHash's rounds. Node ids
/// are the runners' dense indices `0..n`, which a multiply spreads evenly; the
/// protection SipHash gives against crafted colliding keys is not needed
/// for them. The peer index is only probed, never iterated, so the hash
/// cannot change what goes on the wire.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Per-node lifetime totals of the transport layer (the per-round equivalents go
/// to [`overlay_netsim::RoundMetrics`] via the [`Ctx`] hooks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Fresh payloads handed to the inner protocol.
    pub delivered_payloads: u64,
    /// Duplicate payloads suppressed before the inner protocol saw them.
    pub dupes_dropped: u64,
    /// Data messages re-sent after the retransmission timer fired.
    pub retransmits: u64,
    /// Acknowledgment messages sent.
    pub acks_sent: u64,
    /// Payloads abandoned after [`TransportConfig::max_retransmits`] resends
    /// (the peer is presumed crashed or unreachable forever). With the
    /// per-peer failure detector on, this also counts payloads abandoned in
    /// bulk when their peer was declared dead, and payloads dropped at the
    /// door because the peer already was.
    pub abandoned: u64,
    /// Peers declared dead by the per-peer failure detector (always `0` when
    /// [`TransportConfig::failure_detector`] is off).
    pub peers_failed: u64,
}

/// Wraps an inner [`Protocol`] with at-least-once delivery and duplicate
/// suppression; see the crate docs for the full contract.
///
/// The adapter is itself a [`Protocol`] whose message type is
/// [`TransportMsg<P::Message>`], so it runs in the unmodified simulator; capacity
/// caps and fault injection apply to transport traffic exactly as to protocol
/// traffic. The adapter never touches the node's RNG, keeping the inner
/// protocol's random stream identical to an unwrapped run.
///
/// [`Protocol::is_done`] for the wrapped node requires *both* the inner protocol
/// to be done *and* every outgoing payload to be acknowledged or abandoned — this
/// is what keeps the simulation alive long enough for retransmissions to rescue
/// protocols (like the pipeline's one-round binarization) that otherwise
/// terminate before their lost messages could be recovered.
#[derive(Clone, Debug)]
pub struct Reliable<P: Protocol> {
    inner: P,
    config: TransportConfig,
    /// Per-peer state, one slot per peer ever contacted, in first-contact
    /// order.
    peers: Vec<PeerState>,
    /// The outgoing entries of every peer's stream.
    outgoing: OutSlab<P::Message>,
    /// Slot in `peers` of each contacted peer.
    index: HashMap<NodeId, u32, BuildHasherDefault<IdHasher>>,
    /// The peers (id and slot) with an outgoing entry or an owed ack — the
    /// only peers a round's send steps visit. Sorted by [`NodeId`] before
    /// those steps, so the wire order is the same as a walk over every peer in
    /// id order; peers with nothing left to do are dropped after the acks, so
    /// between callbacks it holds exactly the peers with outgoing entries.
    active: Vec<(NodeId, u32)>,
    /// Reusable buffer the inner protocol's sends are collected in each round.
    inner_outbox: Vec<(NodeId, Channel, P::Message)>,
    /// Reusable buffer of fresh payloads handed to the inner protocol.
    inner_inbox: Vec<Envelope<P::Message>>,
    /// The adapter's own round clock: `0` at `on_start`, advanced once per
    /// `on_round`. Retransmission timers compare ticks, never the scheduler's
    /// round number, so the adapter behaves identically whether it is driven
    /// by the lockstep simulator or by a socket backend whose synchronizer
    /// has no global round counter to offer. Under the simulator the tick
    /// equals `ctx.round()` exactly.
    tick: u32,
    stats: ReliableStats,
}

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner` with the given transport configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` is out of range (see [`TransportConfig::validate`]).
    pub fn new(inner: P, config: TransportConfig) -> Self {
        config.validate();
        Reliable {
            inner,
            config,
            peers: Vec::new(),
            outgoing: OutSlab {
                entries: Vec::new(),
                free: Vec::new(),
            },
            index: HashMap::default(),
            active: Vec::new(),
            inner_outbox: Vec::new(),
            inner_inbox: Vec::new(),
            tick: 0,
            stats: ReliableStats::default(),
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol state.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwraps the adapter, returning the inner protocol state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The adapter's configuration.
    pub fn config(&self) -> TransportConfig {
        self.config
    }

    /// Lifetime transport totals of this node.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// `true` while some outgoing payload is neither acknowledged nor abandoned.
    pub fn has_outstanding(&self) -> bool {
        !self.active.is_empty()
    }

    /// The slot of peer `id`, allocating one on first contact.
    fn slot(&mut self, id: NodeId) -> usize {
        let next = self.peers.len();
        let slot = *self
            .index
            .entry(id)
            .or_insert_with(|| u32::try_from(next).expect("fewer than 2^32 peers"))
            as usize;
        if slot == next {
            self.peers.push(PeerState::new(id));
        }
        slot
    }

    /// Puts the peer in `slot` on the active worklist (once).
    fn activate(&mut self, slot: usize) {
        let peer = &mut self.peers[slot];
        if !peer.listed {
            peer.listed = true;
            self.active.push((peer.id, slot as u32));
        }
    }

    /// Moves the inner protocol's sends of this round into the per-peer outgoing
    /// queues (assigning sequence numbers in send order).
    fn collect_inner_sends(&mut self) {
        let mut out = std::mem::take(&mut self.inner_outbox);
        for (to, channel, payload) in out.drain(..) {
            let slot = self.slot(to);
            let peer = &mut self.peers[slot];
            if peer.dead {
                // The failure detector already wrote this peer off: the
                // payload can never be delivered, so it is abandoned at the
                // door instead of burning a fresh retransmission budget.
                self.stats.abandoned += 1;
                continue;
            }
            let seq = peer.next_seq;
            peer.next_seq += 1;
            peer.push(
                &mut self.outgoing,
                OutEntry {
                    seq,
                    channel,
                    payload,
                    last_sent: 0,
                    sends: 0,
                    closed: false,
                    next: NIL,
                },
            );
            self.activate(slot);
        }
        self.inner_outbox = out;
    }

    /// Sends queued entries while each peer's window has room (in sequence order,
    /// so per-peer FIFO is preserved — on a clean network this is exactly the
    /// inner protocol's send order).
    ///
    /// The first send step of a callback, so it puts the worklist in id order
    /// for all of them.
    fn open_windows(&mut self, ctx: &mut Ctx<'_, TransportMsg<P::Message>>) {
        self.active.sort_unstable_by_key(|&(id, _)| id);
        let window = self.config.window as u32;
        for &(_, slot) in &self.active {
            let peer = &mut self.peers[slot as usize];
            if peer.in_flight >= window {
                continue;
            }
            let floor = peer.floor(&self.outgoing);
            let mut budget = window - peer.in_flight;
            let mut at = peer.head;
            while at != NIL && budget > 0 {
                let entry = &mut self.outgoing.entries[at as usize];
                at = entry.next;
                if entry.sends > 0 || entry.closed {
                    continue;
                }
                entry.last_sent = self.tick;
                entry.sends = 1;
                peer.in_flight += 1;
                budget -= 1;
                ctx.send(
                    peer.id,
                    entry.channel,
                    TransportMsg::Data {
                        seq: entry.seq,
                        floor,
                        payload: entry.payload.clone(),
                    },
                );
            }
        }
    }

    /// Re-sends every in-flight entry whose retransmission timer expired;
    /// abandons entries that exhausted their retransmission budget.
    fn retransmit_due(&mut self, ctx: &mut Ctx<'_, TransportMsg<P::Message>>) {
        let round = self.tick;
        let after = u32::try_from(self.config.retransmit_after).unwrap_or(u32::MAX);
        let max_sends = self.config.max_retransmits as u64;
        for &(_, slot) in &self.active {
            let peer = &mut self.peers[slot as usize];
            // Computed before any abandonment below: the floor only ever rises,
            // so a conservatively low value is always safe to advertise.
            let floor = peer.floor(&self.outgoing);
            let mut at = peer.head;
            while at != NIL {
                let entry = &mut self.outgoing.entries[at as usize];
                at = entry.next;
                if entry.sends == 0 {
                    // Sent entries form a prefix: the rest is still queued.
                    break;
                }
                if entry.closed || round - entry.last_sent < after {
                    continue;
                }
                if u64::from(entry.sends) > max_sends {
                    // The peer has ignored every attempt: presumed gone for good.
                    entry.closed = true;
                    peer.in_flight -= 1;
                    self.stats.abandoned += 1;
                    ctx.note_give_up();
                    if self.config.failure_detector {
                        // Share the verdict across the whole stream: every
                        // other pending payload to this peer is abandoned now,
                        // and the single give-up above covers them all — a
                        // dead peer costs one give-up, not one per message.
                        peer.dead = true;
                        self.stats.peers_failed += 1;
                        let mut other_at = peer.head;
                        while other_at != NIL {
                            let other = &mut self.outgoing.entries[other_at as usize];
                            other_at = other.next;
                            if !other.closed {
                                other.closed = true;
                                if other.sends > 0 {
                                    peer.in_flight -= 1;
                                }
                                self.stats.abandoned += 1;
                            }
                        }
                        break;
                    }
                    continue;
                }
                entry.last_sent = round;
                entry.sends += 1;
                self.stats.retransmits += 1;
                ctx.note_retransmit();
                ctx.send(
                    peer.id,
                    entry.channel,
                    TransportMsg::Data {
                        seq: entry.seq,
                        floor,
                        payload: entry.payload.clone(),
                    },
                );
            }
            peer.pop_closed(&mut self.outgoing);
        }
    }

    /// Sends one cumulative/selective ack to every peer that delivered data this
    /// round (fresh or duplicate: a duplicate usually means our previous ack was
    /// lost, so it must be re-sent), then drops every peer with nothing left in
    /// its outgoing stream from the worklist.
    ///
    /// Acks always travel the global channel: sequence numbers are per-peer, so
    /// one ack summarizes both channels' data, and every protocol currently run
    /// behind the adapter is NCC0 (global-only). Wrapping a hybrid protocol
    /// whose traffic is mostly `Channel::Local` would charge ack volume that
    /// scales with local traffic against the scarce global cap — a known
    /// limitation; local-channel ack discipline (CONGEST-compatible
    /// piggybacking) is future work.
    fn send_acks(&mut self, ctx: &mut Ctx<'_, TransportMsg<P::Message>>) {
        let (peers, stats) = (&mut self.peers, &mut self.stats);
        self.active.retain(|&(_, slot)| {
            let peer = &mut peers[slot as usize];
            if peer.ack_pending {
                peer.ack_pending = false;
                stats.acks_sent += 1;
                ctx.note_ack();
                ctx.send_global(peer.id, peer.ack_message());
            }
            peer.listed = peer.has_outgoing();
            peer.listed
        });
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    type Message = TransportMsg<P::Message>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        self.tick = 0;
        self.inner_outbox.clear();
        {
            let mut inner_ctx = ctx.derived(&mut self.inner_outbox);
            self.inner.on_start(&mut inner_ctx);
        }
        self.collect_inner_sends();
        self.open_windows(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Message>, inbox: &[Envelope<Self::Message>]) {
        self.tick += 1;
        // 1. Unwrap the round's arrivals: acks update the outgoing streams, fresh
        //    data is queued for the inner protocol, duplicates are suppressed.
        //    Senders stage their messages together, so an inbox comes in runs
        //    from one sender and the last peer lookup is reused along a run.
        self.inner_inbox.clear();
        let mut last: Option<(NodeId, usize)> = None;
        for env in inbox {
            let slot = match last {
                Some((from, slot)) if from == env.from => slot,
                _ => self.slot(env.from),
            };
            last = Some((env.from, slot));
            match &env.payload {
                TransportMsg::Data {
                    seq,
                    floor,
                    payload,
                } => {
                    let peer = &mut self.peers[slot];
                    peer.ack_pending = true;
                    peer.advance_floor(*floor);
                    if peer.receive_data(*seq) {
                        self.stats.delivered_payloads += 1;
                        self.inner_inbox.push(Envelope {
                            from: env.from,
                            channel: env.channel,
                            payload: payload.clone(),
                        });
                    } else {
                        self.stats.dupes_dropped += 1;
                        ctx.note_dupe_dropped();
                    }
                    self.activate(slot);
                }
                TransportMsg::Ack { cum, sel } => {
                    self.peers[slot].handle_ack(&mut self.outgoing, *cum, *sel)
                }
            }
        }

        // 2. Run the inner protocol on the deduplicated inbox; its sends are
        //    collected, sequenced and sent window-permitting (data first, then
        //    retransmissions, then acks, so the simulator's send cap sheds
        //    transport overhead before fresh payload).
        self.inner_outbox.clear();
        {
            let mut inner_ctx = ctx.derived(&mut self.inner_outbox);
            self.inner.on_round(&mut inner_ctx, &self.inner_inbox);
        }
        self.collect_inner_sends();
        self.open_windows(ctx);
        self.retransmit_due(ctx);
        self.send_acks(ctx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done() && !self.has_outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_netsim::{CapacityModel, FaultPlan, SimConfig, Simulator};

    /// Each node sends `burst` uniquely-numbered messages to each of its
    /// `targets` (node 0 in a [`Beacon::fleet`]) per round for `rounds` rounds
    /// and records every payload it receives, in order.
    #[derive(Clone, Debug)]
    struct Beacon {
        me: usize,
        targets: Vec<NodeId>,
        burst: usize,
        rounds: usize,
        received: Vec<(usize, u32)>,
        done: bool,
    }

    impl Beacon {
        fn fleet(n: usize, burst: usize, rounds: usize) -> Vec<Beacon> {
            Beacon::aimed(
                n,
                burst,
                rounds,
                |me| {
                    if me == 0 {
                        Vec::new()
                    } else {
                        vec![0]
                    }
                },
            )
        }

        /// A fleet in which node `me` fires at `targets(me)`, in that order.
        fn aimed(
            n: usize,
            burst: usize,
            rounds: usize,
            targets: impl Fn(usize) -> Vec<usize>,
        ) -> Vec<Beacon> {
            (0..n)
                .map(|me| Beacon {
                    me,
                    targets: targets(me).into_iter().map(NodeId::from).collect(),
                    burst,
                    rounds,
                    received: Vec::new(),
                    done: false,
                })
                .collect()
        }

        fn fire(&self, ctx: &mut Ctx<'_, u32>, round: usize) {
            for (t, &to) in self.targets.iter().enumerate() {
                for k in 0..self.burst {
                    let tag = (self.me * 1_000_000 + round * 1_000 + t * self.burst + k) as u32;
                    ctx.send_global(to, tag);
                }
            }
        }
    }

    impl Protocol for Beacon {
        type Message = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.fire(ctx, 0);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            for env in inbox {
                self.received.push((env.from.index(), env.payload));
            }
            if ctx.round() < self.rounds {
                self.fire(ctx, ctx.round());
            } else {
                self.done = true;
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn wrap(nodes: Vec<Beacon>, config: TransportConfig) -> Vec<Reliable<Beacon>> {
        nodes
            .into_iter()
            .map(|b| Reliable::new(b, config))
            .collect()
    }

    fn lossy(seed: u64, drop: f64) -> SimConfig {
        SimConfig {
            caps: CapacityModel::Unbounded,
            seed,
            local_edges: None,
            faults: FaultPlan::default().with_drop_prob(drop),
            ..SimConfig::default()
        }
    }

    /// All payloads every sender fired, as node 0 would record them.
    fn all_payloads(nodes: &[Beacon]) -> Vec<(usize, u32)> {
        let mut want = Vec::new();
        for b in nodes {
            if b.me == 0 {
                continue;
            }
            for round in 0..b.rounds {
                for k in 0..b.burst {
                    want.push((b.me, (b.me * 1_000_000 + round * 1_000 + k) as u32));
                }
            }
        }
        want.sort_unstable();
        want
    }

    #[test]
    fn clean_network_is_a_transparent_pass_through() {
        let bare = {
            let mut sim = Simulator::new(Beacon::fleet(6, 2, 3), lossy(9, 0.0));
            sim.run(20);
            sim.into_nodes()
        };
        let wrapped = {
            let mut sim = Simulator::new(
                wrap(Beacon::fleet(6, 2, 3), TransportConfig::default()),
                lossy(9, 0.0),
            );
            let outcome = sim.run(20);
            assert!(outcome.all_done);
            // Only acks ride on top; nothing is ever re-sent or duplicated.
            assert_eq!(sim.metrics().total_retransmits(), 0);
            assert_eq!(sim.metrics().total_dupes_dropped(), 0);
            assert!(sim.metrics().total_acks() > 0);
            sim.into_nodes()
        };
        for (bare, wrapped) in bare.iter().zip(&wrapped) {
            // Identical inbox contents in identical order: the adapter added
            // latency nowhere and reordered nothing.
            assert_eq!(bare.received, wrapped.inner().received);
            assert_eq!(wrapped.stats().retransmits, 0);
            assert_eq!(wrapped.stats().dupes_dropped, 0);
            assert_eq!(wrapped.stats().abandoned, 0);
        }
    }

    #[test]
    fn heavy_loss_every_payload_arrives_exactly_once() {
        let n = 8;
        let mut sim = Simulator::new(
            wrap(Beacon::fleet(n, 3, 4), TransportConfig::default()),
            lossy(3, 0.35),
        );
        let outcome = sim.run(200);
        assert!(outcome.all_done, "retransmission must finish the run");
        assert!(sim.metrics().total_retransmits() > 0);
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        // Exactly once: no payload missing, none delivered twice.
        assert_eq!(got, all_payloads(&Beacon::fleet(n, 3, 4)));
    }

    #[test]
    fn duplicates_from_lost_acks_are_suppressed() {
        // Drop enough that acks get lost and data is re-sent after already being
        // received: the dupes must be counted and never reach the inner protocol.
        let n = 6;
        let mut sim = Simulator::new(
            wrap(Beacon::fleet(n, 3, 4), TransportConfig::default()),
            lossy(17, 0.45),
        );
        let outcome = sim.run(300);
        assert!(outcome.all_done);
        assert!(
            sim.metrics().total_dupes_dropped() > 0,
            "45% loss re-sends already-received data"
        );
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(
            got, deduped,
            "inner protocol must never see a payload twice"
        );
        assert_eq!(got, all_payloads(&Beacon::fleet(n, 3, 4)));
    }

    #[test]
    fn window_queues_bursts_without_losing_them() {
        // Window 2 against a 5-message burst: everything still arrives, later.
        let n = 3;
        let cfg = TransportConfig::default().with_window(2);
        let mut sim = Simulator::new(wrap(Beacon::fleet(n, 5, 2), cfg), lossy(5, 0.0));
        let outcome = sim.run(60);
        assert!(outcome.all_done);
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        assert_eq!(got, all_payloads(&Beacon::fleet(n, 5, 2)));
    }

    #[test]
    fn unreachable_peer_is_abandoned_after_the_budget() {
        // Total loss: no data or ack ever arrives. The sender must give up after
        // max_retransmits instead of keeping the run alive forever.
        let cfg = TransportConfig::default().with_max_retransmits(3);
        let mut sim = Simulator::new(wrap(Beacon::fleet(2, 1, 1), cfg), lossy(1, 1.0));
        let outcome = sim.run(100);
        assert!(outcome.all_done, "abandonment must unblock is_done");
        assert!(
            outcome.rounds < 100,
            "gave up after the budget, not the limit"
        );
        let sender = sim.node(NodeId::from(1usize));
        assert_eq!(sender.stats().abandoned, 1);
        assert_eq!(sender.stats().retransmits, 3);
        assert!(!sender.has_outstanding());
        // The abandonment is also visible in the simulator's round metrics.
        assert_eq!(sim.metrics().total_give_ups(), 1);
    }

    #[test]
    fn failure_detector_costs_one_give_up_per_dead_peer() {
        // Node 1 streams to node 0 through total loss. Per-message give-up
        // burns the full retransmission budget for every payload; the per-peer
        // detector pays it once, then abandons the rest of the stream (and
        // every later send) on the spot.
        let run = |detector: bool| {
            let cfg = TransportConfig::default()
                .with_max_retransmits(2)
                .with_failure_detector(detector);
            let mut sim = Simulator::new(wrap(Beacon::fleet(2, 2, 10), cfg), lossy(4, 1.0));
            let outcome = sim.run(200);
            assert!(outcome.all_done, "abandonment must unblock is_done");
            let stats = sim.node(NodeId::from(1usize)).stats();
            (
                sim.metrics().total_give_ups(),
                sim.metrics().total_retransmits(),
                stats,
            )
        };
        let (gu_off, rt_off, s_off) = run(false);
        let (gu_on, rt_on, s_on) = run(true);
        // Baseline: one give-up (and a full budget of resends) per payload.
        assert_eq!(s_off.peers_failed, 0);
        assert_eq!(gu_off, 20, "2 payloads x 10 rounds, each given up on");
        // Detector: the dead peer costs exactly one give-up.
        assert_eq!(gu_on, 1);
        assert_eq!(s_on.peers_failed, 1);
        assert_eq!(s_on.abandoned, 20, "every payload is still accounted for");
        assert!(
            rt_on < rt_off / 2,
            "shared detection must slash the dead-peer burn ({rt_on} vs {rt_off})"
        );
    }

    #[test]
    fn abandoned_gap_does_not_wedge_the_stream() {
        // Node 1 streams to node 0, but a partition swallows the first rounds:
        // with a tiny retransmission budget the early sequences are *abandoned*,
        // leaving a permanent gap in the stream. The advertised floor must let
        // the receiver's cumulative ack advance past the gap — otherwise every
        // post-heal message more than 64 sequences beyond it becomes unackable
        // and is retransmitted to exhaustion (the run would blow its budget and
        // drown in duplicates).
        let n = 2;
        let burst = 2;
        let rounds = 90; // > 64 sequences past the abandoned gap
        let cfg = TransportConfig::default().with_max_retransmits(2);
        let config = SimConfig {
            caps: CapacityModel::Unbounded,
            seed: 21,
            local_edges: None,
            faults: FaultPlan::default().with_partition(vec![NodeId::from(0usize)], 0, 12),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(wrap(Beacon::fleet(n, burst, rounds), cfg), config);
        let outcome = sim.run(rounds + 40);
        assert!(outcome.all_done, "the stream must drain past the gap");
        let sender = sim.node(NodeId::from(1usize));
        assert!(sender.stats().abandoned > 0, "the gap must actually exist");
        // Every payload fired after the heal (margin for in-flight retries)
        // arrived, exactly once.
        let hub = sim.node(NodeId::from(0usize));
        let mut got = hub.inner().received.clone();
        got.sort_unstable();
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(got, deduped, "no payload may be delivered twice");
        let fired = all_payloads(&Beacon::fleet(n, burst, rounds));
        let post_heal: Vec<_> = fired
            .iter()
            .filter(|&&(_, tag)| (tag / 1_000) % 1_000 >= 20)
            .copied()
            .collect();
        assert!(post_heal.iter().all(|p| got.contains(p)));
        // Bounded recovery, not a retransmit storm: nothing is re-sent more
        // than its per-message budget, so the total is a small multiple of the
        // abandoned window, never proportional to the post-gap stream.
        assert!(
            sender.stats().retransmits
                <= (cfg.max_retransmits as u64 + 1) * (sender.stats().abandoned + 64),
            "retransmits {} indicate a wedged cumulative ack",
            sender.stats().retransmits
        );
    }

    #[test]
    fn floor_advances_the_receiver_past_closed_sequences() {
        let mut p = PeerState::new(NodeId::from(1usize));
        assert!(p.receive_data(2));
        assert!(p.receive_data(5));
        assert_eq!(p.cum_recv, 0);
        // The sender declares everything below 4 closed: 1 and 3 will never
        // arrive; 2 was already received. The horizon jumps to 3, then absorbs
        // the waiting 5? No — 4 is still open, so it stops at 3.
        p.advance_floor(4);
        assert_eq!(p.cum_recv, 3);
        assert!(p.receive_data(4), "the open seq itself still delivers");
        assert_eq!(p.cum_recv, 5, "and the buffered run is absorbed");
        assert!(!p.receive_data(2), "pre-floor repeats stay duplicates");
    }

    #[test]
    fn seeded_runs_are_byte_identical() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(
                wrap(Beacon::fleet(7, 2, 3), TransportConfig::default()),
                lossy(seed, 0.25),
            );
            sim.run(150);
            let stats: Vec<ReliableStats> = sim.nodes().iter().map(|r| r.stats()).collect();
            let received: Vec<_> = sim
                .nodes()
                .iter()
                .map(|r| r.inner().received.clone())
                .collect();
            (sim.metrics().clone(), stats, received)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds `bytes` into an FNV-1a hash.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Runs a wrapped protocol against its own outbox and folds every send it
    /// makes — round, destination, channel and encoded message, in send
    /// order — into a hash before passing the send on unchanged.
    struct Tap<P: Protocol> {
        inner: P,
        sends: Vec<(NodeId, Channel, P::Message)>,
        hash: u64,
    }

    impl<P: Protocol> Tap<P>
    where
        P::Message: Wire,
    {
        fn forward(&mut self, ctx: &mut Ctx<'_, P::Message>) {
            let mut bytes = Vec::new();
            for (to, channel, msg) in self.sends.drain(..) {
                bytes.clear();
                (ctx.round() as u64).encode(&mut bytes);
                to.encode(&mut bytes);
                channel.encode(&mut bytes);
                msg.encode(&mut bytes);
                self.hash = fnv(self.hash, &bytes);
                ctx.send(to, channel, msg);
            }
        }
    }

    impl<P: Protocol> Protocol for Tap<P>
    where
        P::Message: Wire,
    {
        type Message = P::Message;

        fn on_start(&mut self, ctx: &mut Ctx<'_, P::Message>) {
            self.inner.on_start(&mut ctx.derived(&mut self.sends));
            self.forward(ctx);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, P::Message>, inbox: &[Envelope<P::Message>]) {
            self.inner
                .on_round(&mut ctx.derived(&mut self.sends), inbox);
            self.forward(ctx);
        }

        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
    }

    /// One hash over every wire send of a seeded run plus each node's final
    /// [`ReliableStats`], and those stats summed over the fleet.
    fn wire_hash(
        nodes: Vec<Beacon>,
        cfg: TransportConfig,
        sim: SimConfig,
        limit: usize,
    ) -> (u64, ReliableStats) {
        let taps = wrap(nodes, cfg)
            .into_iter()
            .map(|inner| Tap {
                inner,
                sends: Vec::new(),
                hash: FNV_OFFSET,
            })
            .collect();
        let mut sim = Simulator::new(taps, sim);
        let outcome = sim.run(limit);
        let mut h = fnv(FNV_OFFSET, &(outcome.rounds as u64).to_le_bytes());
        let mut total = ReliableStats::default();
        for tap in sim.nodes() {
            let s = tap.inner.stats();
            total.delivered_payloads += s.delivered_payloads;
            total.dupes_dropped += s.dupes_dropped;
            total.retransmits += s.retransmits;
            total.acks_sent += s.acks_sent;
            total.abandoned += s.abandoned;
            total.peers_failed += s.peers_failed;
            h = fnv(h, &tap.hash.to_le_bytes());
            for v in [
                s.delivered_payloads,
                s.dupes_dropped,
                s.retransmits,
                s.acks_sent,
                s.abandoned,
                s.peers_failed,
            ] {
                h = fnv(h, &v.to_le_bytes());
            }
        }
        (h, total)
    }

    /// Pins the adapter's wire behaviour — which data, retransmits and acks go
    /// out in which round and in which order — on the paths no committed
    /// report exercises: a window small enough to queue, the failure detector
    /// closing a crashed peer, an abandoned gap, and one node streaming to
    /// more than 64 peers it first contacted in descending-id order.
    #[test]
    fn wire_order_is_pinned() {
        let window = wire_hash(
            Beacon::fleet(5, 5, 6),
            TransportConfig::default().with_window(2),
            SimConfig {
                faults: FaultPlan::default().with_drop_prob(0.1).with_delays(0.3, 3),
                ..lossy(31, 0.0)
            },
            200,
        );
        let detector = wire_hash(
            Beacon::aimed(9, 2, 10, |me| vec![(me + 1) % 9, (me + 4) % 9]),
            TransportConfig::default()
                .with_max_retransmits(3)
                .with_failure_detector(true),
            SimConfig {
                faults: FaultPlan::default()
                    .with_drop_prob(0.3)
                    .with_crash(NodeId::from(4usize), 3),
                ..lossy(47, 0.0)
            },
            300,
        );
        let gap = wire_hash(
            Beacon::fleet(3, 2, 80),
            TransportConfig::default().with_max_retransmits(2),
            SimConfig {
                faults: FaultPlan::default().with_partition(vec![NodeId::from(0usize)], 2, 14),
                ..lossy(53, 0.0)
            },
            200,
        );
        let fan = wire_hash(
            Beacon::aimed(80, 1, 4, |me| {
                if me == 7 {
                    (0..80).rev().filter(|&t| t != 7).collect()
                } else {
                    vec![7]
                }
            }),
            TransportConfig::default(),
            lossy(59, 0.05),
            200,
        );
        // Each setup reaches the path it is meant to pin.
        assert!(window.1.retransmits > 0 && window.1.dupes_dropped > 0);
        assert!(detector.1.peers_failed > 0);
        assert!(gap.1.abandoned > 0 && gap.1.peers_failed == 0);
        assert!(fan.1.retransmits > 0);
        assert_eq!(
            [window.0, detector.0, gap.0, fan.0],
            [
                0x3153_df6b_7a86_b615,
                0x34ee_885b_e9a2_76db,
                0x4e75_141e_985d_1760,
                0x33c2_7cad_0515_e0bc,
            ],
            "the adapter's wire order changed"
        );
    }

    /// Wraps one beacon under a config written as a struct literal, which
    /// skips the `with_*` builders' checks.
    fn wrap_literal(cfg: TransportConfig) -> Reliable<Beacon> {
        Reliable::new(Beacon::fleet(2, 1, 1).remove(1), cfg)
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn new_rejects_a_zero_window_literal() {
        // It would queue every payload forever: the node is never done and
        // the run goes to its round limit instead of failing here.
        wrap_literal(TransportConfig {
            window: 0,
            ..TransportConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "selective-ack bitmap")]
    fn new_rejects_a_window_literal_beyond_the_ack_bitmap() {
        wrap_literal(TransportConfig {
            window: 65,
            ..TransportConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ack round-trip")]
    fn new_rejects_a_sub_roundtrip_timeout_literal() {
        // It would retransmit every in-flight payload every round.
        wrap_literal(TransportConfig {
            retransmit_after: 1,
            ..TransportConfig::default()
        });
    }

    #[test]
    fn peer_state_dedup_and_ack_bookkeeping() {
        let mut p = PeerState::new(NodeId::from(1usize));
        assert!(p.receive_data(1));
        assert!(!p.receive_data(1), "repeat of the cum prefix is a dupe");
        assert!(p.receive_data(3), "out-of-order reception is fresh");
        assert!(!p.receive_data(3), "repeat above cum is a dupe");
        assert_eq!(p.cum_recv, 1);
        match p.ack_message::<u32>() {
            TransportMsg::Ack { cum, sel } => {
                assert_eq!(cum, 1);
                assert_eq!(sel, 0b10, "seq 3 is cum+2, bit 1");
            }
            other => panic!("expected ack, got {other:?}"),
        }
        assert!(p.receive_data(2), "gap fill advances cum");
        assert_eq!(p.cum_recv, 3);
        assert!(p.above.is_empty());
    }
}
