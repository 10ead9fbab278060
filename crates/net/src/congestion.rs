//! The packet simulator: window-based senders and open-loop CBR flows over
//! drop-tail FIFO links with retransmission and ECN-style marking.
//!
//! A [`WindowedFlow`] keeps a congestion window, paces packets at
//! `cwnd / srtt`, retransmits on triple-duplicate-ACK or timeout, and
//! shrinks its window under either TCP-Reno-style AIMD or DCTCP-style
//! proportional ECN response ([`CcAlgorithm`]). Links are drop-tail FIFO
//! queues that set a congestion-experienced mark on packets enqueued while
//! the queue occupancy is at or above a configurable threshold
//! ([`CongestionLink::with_ecn`]).
//!
//! Traffic that does *not* react to congestion — Earth-observation bulk
//! downlinks, interactive user load — is modelled by [`CbrFlow`], sharing
//! the queues with windowed senders. [`CbrStats`] reports each CBR flow's
//! deliveries, drops and end-to-end latency; the `downlink_contention`
//! example uses them for the paper's §3.3 footnote 1 (EO downloads
//! crowding user traffic on a shared ~10 Gbps downlink).
//!
//! [`uncontended_transfer_s`] and [`uncontended_packet_transfer_s`] are the
//! analytic bounds an idle route gives a message and a packetized
//! transfer.
//!
//! # Model and simplifications
//!
//! * Data packets are fixed-size (`packet_bits`); a transfer of `packets`
//!   distinct packets completes when the **receiver** has seen every
//!   distinct sequence number at least once ([`WindowedStats::completion_s`]).
//! * ACKs are per-data-packet, carry the cumulative next-expected sequence
//!   number plus the triggering packet's sequence and CE mark, and return
//!   over an idealized reverse path: a pure delay equal to the sum of the
//!   forward route's propagation delays (no reverse-path queueing or
//!   serialization).
//! * The retransmission timeout is a fixed per-flow duration (no adaptive
//!   Jacobson/Karels RTO); the smoothed RTT is still tracked for pacing.
//! * Senders pace at `cwnd · packet_bits / srtt` rather than dumping whole
//!   windows back-to-back, so an uncontended transfer with a window at or
//!   above the path's bandwidth-delay product runs at line rate without
//!   overflowing the first queue.
//!
//! Determinism: the engine is a single sequential event loop; ties in event
//! time are broken by a fixed event-kind rank (transmit completions before
//! ACKs before timeouts before pacing before emissions before enqueues) and
//! then by insertion order. The scheduler packs that order into a 24-byte
//! integer key — the timestamp's bits mapped so that unsigned order is
//! [`f64::total_cmp`], then `rank << 61 | seq` — and keeps the events
//! themselves in a pool the key indexes. Every event is scheduled at or
//! after the last one popped, so the queue is monotone: a later event waits
//! in one of 64 buckets, picked by the highest bit where its time key
//! differs from the last popped time, and the events at exactly that time
//! form one batch sorted by rank and sequence. `(time, rank, seq)` is a
//! strict total order and the queue pops exactly that order, so the pop
//! sequence does not depend on how the keys are bucketed.
//!
//! Cross-traffic pays for a queue event only where its timing can interact
//! with other traffic. CBR flows added back to back with bit-equal start
//! times and intervals emit at the same instants, one after another in add
//! order, so they share one emission clock: one event per instant enqueues
//! every member's packet. A CBR packet that starts transmitting on its last
//! hop with nothing queued behind it takes its transmit completion's
//! sequence number but pushes no event. The completion (the delivery and
//! the freed link) settles in place when the next packet reaches that link
//! at or after its time, is pushed under its reserved `(time, rank 0, seq)`
//! key the moment a packet queues behind it, and otherwise settles when a
//! run call returns past it. Either way it takes effect at the place in
//! the `(time, rank, seq)` order where a pushed completion would have
//! popped, so the outputs are the same bits as with an event per emission
//! and per completion. Two runs of the same configuration produce
//! identical results, independent of thread count or observability level.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Identifier of a link in a [`CongestionNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CLinkId(pub usize);

/// Identifier of a windowed (congestion-controlled) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SenderId(pub usize);

/// Identifier of an open-loop CBR flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CbrId(pub usize);

/// A directed link: transmission rate, propagation delay, a drop-tail FIFO
/// queue, and an optional ECN marking threshold.
#[derive(Debug, Clone, Copy)]
pub struct CongestionLink {
    /// Transmission rate, bits per second.
    pub rate_bps: f64,
    /// Propagation delay, seconds.
    pub prop_delay_s: f64,
    /// Queue capacity in packets (excluding the packet in service).
    pub queue_packets: usize,
    /// Packets enqueued while the queue already holds at least this many
    /// packets are marked congestion-experienced. `None` disables marking.
    pub ecn_threshold: Option<usize>,
}

impl CongestionLink {
    /// Creates a link with marking disabled.
    ///
    /// # Panics
    /// Panics where [`Link::new`] does.
    pub fn new(rate_bps: f64, prop_delay_s: f64, queue_packets: usize) -> Self {
        let Link {
            rate_bps,
            prop_delay_s,
        } = Link::new(rate_bps, prop_delay_s);
        Self {
            rate_bps,
            prop_delay_s,
            queue_packets,
            ecn_threshold: None,
        }
    }

    /// Enables ECN-style marking at the given queue-occupancy threshold.
    pub fn with_ecn(mut self, threshold: usize) -> Self {
        assert!(
            threshold <= self.queue_packets,
            "ECN threshold {threshold} exceeds queue capacity {}",
            self.queue_packets
        );
        self.ecn_threshold = Some(threshold);
        self
    }
}

/// Congestion-control algorithm for a [`WindowedFlow`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CcAlgorithm {
    /// TCP-Reno-style AIMD: slow start below `ssthresh`, additive increase
    /// above it, multiplicative decrease on loss, and a half-window cut at
    /// most once per RTT when an ECN echo arrives.
    Aimd,
    /// DCTCP: per-window marked-ACK fraction feeds an EWMA `alpha` with the
    /// given gain, and the window scales by `1 - alpha/2` once per window
    /// that saw any mark. Loss is still handled Reno-style.
    Dctcp {
        /// EWMA gain `g` for the marked fraction (DCTCP paper uses 1/16).
        gain: f64,
    },
}

/// A window-based, congestion-controlled transfer of `packets` fixed-size
/// packets over a multi-hop route. Its retransmission timeout is fixed
/// at `max(4 × base RTT, 10 ms)`.
#[derive(Debug, Clone)]
pub struct WindowedFlow {
    /// Links traversed in order.
    pub route: Vec<CLinkId>,
    /// Size of every data packet, bits.
    pub packet_bits: f64,
    /// Number of distinct packets to deliver.
    pub packets: u64,
    /// Time the sender starts, seconds.
    pub start_s: f64,
    /// Initial congestion window, packets.
    pub init_cwnd: f64,
    /// Upper bound on the congestion window, packets.
    pub max_cwnd: f64,
    /// Congestion-control algorithm.
    pub algorithm: CcAlgorithm,
    /// Initial smoothed-RTT estimate used for pacing before the first RTT
    /// sample. `None` derives the route's uncontended packet RTT.
    pub base_rtt_s: Option<f64>,
    /// Initial slow-start threshold, packets. `None` starts in slow start
    /// (`ssthresh = ∞`). A sender that already knows its path's
    /// bandwidth-delay product should set this to `init_cwnd`: starting a
    /// full window in slow start doubles straight past 2× the BDP inside
    /// one RTT, overflowing the bottleneck queue it was sized for.
    pub init_ssthresh: Option<f64>,
}

impl WindowedFlow {
    /// Creates a flow with default tuning (initial window 10 packets,
    /// unbounded maximum window, derived base RTT).
    pub fn new(
        route: Vec<CLinkId>,
        packet_bits: f64,
        packets: u64,
        start_s: f64,
        algorithm: CcAlgorithm,
    ) -> Self {
        Self {
            route,
            packet_bits,
            packets,
            start_s,
            init_cwnd: 10.0,
            max_cwnd: f64::MAX,
            algorithm,
            base_rtt_s: None,
            init_ssthresh: None,
        }
    }
}

/// An open-loop constant-bit-rate flow (EO bulk downlink, user traffic,
/// background load). Emits regardless of congestion; lost packets are not
/// retransmitted.
#[derive(Debug, Clone)]
pub struct CbrFlow {
    /// Links traversed in order.
    pub route: Vec<CLinkId>,
    /// Size of every packet, bits.
    pub packet_bits: f64,
    /// Inter-packet emission interval, seconds.
    pub interval_s: f64,
    /// Time of the first emission, seconds.
    pub start_s: f64,
    /// Total packets to emit.
    pub packets: u64,
}

impl CbrFlow {
    /// A CBR flow offering `load_bps` starting at `start_s` for
    /// `duration_s` seconds.
    pub fn with_load(
        route: Vec<CLinkId>,
        packet_bits: f64,
        load_bps: f64,
        start_s: f64,
        duration_s: f64,
    ) -> Self {
        assert!(
            load_bps.is_finite() && load_bps > 0.0,
            "CBR load must be positive and finite, got {load_bps}"
        );
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "CBR duration must be positive and finite, got {duration_s}"
        );
        let interval_s = packet_bits / load_bps;
        let packets = (duration_s / interval_s).ceil().max(1.0) as u64;
        Self {
            route,
            packet_bits,
            interval_s,
            start_s,
            packets,
        }
    }
}

/// Outcome of a windowed flow, valid once the enclosing run has advanced
/// past the events that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedStats {
    /// Packet transmissions, including retransmissions.
    pub transmissions: u64,
    /// Retransmissions only (second and later transmissions of a sequence).
    pub retransmissions: u64,
    /// Packet arrivals at the receiver, including duplicates.
    pub arrivals: u64,
    /// Distinct packets delivered.
    pub delivered: u64,
    /// Transmissions lost to full queues.
    pub dropped: u64,
    /// Arrivals carrying a congestion-experienced mark.
    pub ecn_marked: u64,
    /// Receiver-side completion time: when the last distinct packet
    /// arrived. `None` while the transfer is incomplete.
    pub completion_s: Option<f64>,
    /// Congestion window at observation time, packets.
    pub final_cwnd: f64,
    /// Smoothed RTT at observation time, seconds.
    pub srtt_s: f64,
}

/// Outcome of a CBR flow.
///
/// A packet's latency runs from its nominal emission instant
/// `start_s + k · interval_s` (packet `k`) to its arrival at the receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbrStats {
    /// Packets emitted so far.
    pub emitted: u64,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Packets lost to full queues.
    pub dropped: u64,
    /// Delivered packets carrying a congestion-experienced mark.
    pub ecn_marked: u64,
    /// Sum of the delivered packets' latencies, seconds.
    pub latency_sum_s: f64,
    /// Smallest delivered latency, seconds; `None` before any delivery.
    pub min_latency_s: Option<f64>,
    /// Largest delivered latency, seconds; `None` before any delivery.
    pub max_latency_s: Option<f64>,
}

impl CbrStats {
    /// Mean latency of the delivered packets, seconds; `None` before any
    /// delivery.
    pub fn mean_latency_s(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum_s / self.delivered as f64)
    }
}

/// A directed link as the analytic bounds see it: rate and propagation
/// delay, no queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Transmission rate, bits per second.
    pub rate_bps: f64,
    /// Propagation delay, seconds.
    pub prop_delay_s: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite rate, or a negative or
    /// non-finite delay: either would turn every bound over the link
    /// into 0 or ∞.
    pub fn new(rate_bps: f64, prop_delay_s: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "link rate must be positive and finite, got {rate_bps}"
        );
        assert!(
            prop_delay_s.is_finite() && prop_delay_s >= 0.0,
            "propagation delay must be non-negative and finite, got {prop_delay_s}"
        );
        Link {
            rate_bps,
            prop_delay_s,
        }
    }

    /// Serialization time of `bits` on this link, seconds.
    fn serialization_s(&self, bits: f64) -> f64 {
        bits / self.rate_bps
    }
}

/// Analytic store-and-forward time of one indivisible message over an
/// uncontended path: per-hop serialization plus propagation. A lower
/// bound, and a quick estimate without running the event loop.
///
/// ```
/// use leo_net::congestion::{uncontended_transfer_s, Link};
///
/// // 1 GB of session state over a 100 Gbps ISL with 3 ms propagation.
/// let t = uncontended_transfer_s(8e9, &[Link::new(100e9, 0.003)]);
/// assert!((t - (8e9 / 100e9 + 0.003)).abs() < 1e-12);
/// ```
pub fn uncontended_transfer_s(size_bits: f64, links: &[Link]) -> f64 {
    links
        .iter()
        .map(|l| l.serialization_s(size_bits) + l.prop_delay_s)
        .sum()
}

/// Analytic completion time of an uncontended *packetized* transfer: the
/// first packet store-and-forwards across every hop, and the remaining
/// `n − 1` packets pipeline behind the slowest hop.
///
/// This is the packet-level analogue of [`uncontended_transfer_s`],
/// which times the transfer as one indivisible message. The two agree
/// exactly on single-hop routes; on multi-hop routes the packetized bound
/// is smaller because hops overlap (cut-through pipelining), which is what
/// a windowed sender actually achieves.
pub fn uncontended_packet_transfer_s(
    packet_bits: f64,
    packets: u64,
    links: &[CongestionLink],
) -> f64 {
    assert!(!links.is_empty(), "route must have at least one link");
    let first: f64 = links
        .iter()
        .map(|l| packet_bits / l.rate_bps + l.prop_delay_s)
        .sum();
    let bottleneck = links
        .iter()
        .map(|l| packet_bits / l.rate_bps)
        .fold(0.0_f64, f64::max);
    first + (packets.saturating_sub(1)) as f64 * bottleneck
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Win(usize),
    Cbr(usize),
}

#[derive(Debug, Clone, Copy)]
struct Pkt {
    src: Src,
    seq: u64,
    hop: usize,
    marked: bool,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A link finished serializing its in-service packet.
    TxDone { link: usize },
    /// An ACK reached the sender.
    Ack {
        flow: usize,
        seq: u64,
        cum: u64,
        marked: bool,
    },
    /// Retransmission timer for transmission number `txn` of `seq`.
    Timeout { flow: usize, seq: u64, txn: u32 },
    /// The pacer releases the sender's next packet.
    Pace { flow: usize },
    /// A CBR clock emits packet `k` of each of its flows.
    Emit { clock: usize, k: u64 },
    /// A packet arrives at a link's queue (inter-hop forwarding).
    Enqueue { link: usize, pkt: Pkt },
}

impl Ev {
    /// Tie-break rank for events at the same timestamp, the top three bits
    /// of [`Key::order`] above the insertion sequence. Transmit completions
    /// free links before anything else looks at them (pinned by
    /// `tests::coincident_tx_done_and_arrival_frees_the_link_first`); ACKs
    /// update windows before pacers fire; enqueues observe final link
    /// state.
    fn rank(&self) -> u8 {
        match self {
            Ev::TxDone { .. } => 0,
            Ev::Ack { .. } => 1,
            Ev::Timeout { .. } => 2,
            Ev::Pace { .. } => 3,
            Ev::Emit { .. } => 4,
            Ev::Enqueue { .. } => 5,
        }
    }
}

/// Bits of [`Key::order`] below the rank: room for the insertion sequence.
const SEQ_BITS: u32 = 61;

/// Maps a timestamp to an integer whose unsigned order is
/// [`f64::total_cmp`]'s: negative values have every bit flipped, the rest
/// only the sign bit.
fn time_key(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 1 << 63)
}

/// The exact inverse of [`time_key`].
fn key_time(k: u64) -> f64 {
    f64::from_bits(k ^ (!((k as i64 >> 63) as u64) | 1 << 63))
}

/// A scheduled event's place in the pop order, 24 bytes: the timestamp as
/// [`time_key`], then `rank << 61 | seq`, then the pool slot holding the
/// event itself. `(time, order)` is unique per event, so the slot never
/// decides a comparison.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: u64,
    order: u64,
    slot: u32,
}

/// The bucket of a time key above `floor`: the highest bit where the two
/// differ.
fn bucket_of(time: u64, floor: u64) -> usize {
    63 - (time ^ floor).leading_zeros() as usize
}

/// The pending events: a monotone radix queue of [`Key`]s over a pool of
/// [`Ev`]s whose freed slots are reused, so the queue moves 24-byte keys
/// instead of whole events.
///
/// `floor` is the time key of the last pop (0, below every key, before
/// the first). The events at exactly `floor` form the batch `head`, sorted
/// by descending `order` so that the next one pops off its end; a push at
/// `floor` goes in at its sorted place. A later event waits in bucket `i`
/// when its time key first differs from `floor` at bit `i`; `occupied`
/// marks the non-empty buckets and `mins` holds each one's earliest time.
/// Once `head` runs dry, the lowest occupied bucket holds the earliest
/// events: its minimum becomes the new `floor`, its events at that time
/// the new `head`, and the rest drop into lower buckets, since each now
/// differs from `floor` only below the old bit. The higher buckets keep
/// their keys, because the new floor agrees with the old one on every bit
/// above. Each key thus moves down at most 64 times, and a batch of exact
/// ties is sorted once, not sifted event by event.
///
/// The engine schedules every event at `now` plus a non-negative delay or
/// at a flow start not before `now`, so it pushes below `floor` only for a
/// flow that starts at −0.0 after events at +0.0 (equal as floats, not as
/// keys). Such a push still pops in order: it lowers the floor and
/// re-buckets every pending key.
///
/// [`reserve`](Self::reserve) takes a sequence number without pushing, and
/// [`push_reserved`](Self::push_reserved) later pushes an event under it:
/// the event pops where it would have had it been pushed when its number
/// was taken. `last` is the `(time, order)` of the last pop.
struct EventQueue {
    floor: u64,
    head: Vec<Key>,
    buckets: [Vec<Key>; 64],
    mins: [u64; 64],
    occupied: u64,
    pops: u64,
    last: (u64, u64),
    pool: Vec<Ev>,
    free: Vec<u32>,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            floor: 0,
            head: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [0; 64],
            occupied: 0,
            pops: 0,
            last: (0, 0),
            pool: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }
}

impl EventQueue {
    fn push(&mut self, time_s: f64, ev: Ev) {
        let seq = self.reserve();
        self.push_reserved(time_s, ev, seq);
    }

    /// Takes the next sequence number without pushing an event.
    fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(
            seq < 1 << SEQ_BITS,
            "event sequence {seq} overflows the scheduler key's {SEQ_BITS} bits"
        );
        self.next_seq += 1;
        seq
    }

    /// Pushes `ev` under a sequence number taken by [`reserve`](Self::reserve).
    fn push_reserved(&mut self, time_s: f64, ev: Ev, seq: u64) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.pool[slot as usize] = ev;
                slot
            }
            None => {
                let slot = u32::try_from(self.pool.len())
                    .expect("pending events overflow the scheduler key's u32 slot");
                self.pool.push(ev);
                slot
            }
        };
        let key = Key {
            time: time_key(time_s),
            order: u64::from(ev.rank()) << SEQ_BITS | seq,
            slot,
        };
        if key.time < self.floor {
            self.lower_floor(key.time);
        }
        if key.time == self.floor {
            let at = self.head.partition_point(|k| k.order > key.order);
            self.head.insert(at, key);
        } else {
            self.file(key);
        }
    }

    /// Puts a key later than `floor` in its bucket.
    fn file(&mut self, key: Key) {
        let b = bucket_of(key.time, self.floor);
        if self.occupied & 1 << b == 0 || key.time < self.mins[b] {
            self.mins[b] = key.time;
        }
        self.buckets[b].push(key);
        self.occupied |= 1 << b;
    }

    /// Re-buckets every pending key around a floor below all of them.
    fn lower_floor(&mut self, floor: u64) {
        let mut keys = std::mem::take(&mut self.head);
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            keys.append(&mut self.buckets[b]);
            self.occupied &= self.occupied - 1;
        }
        self.floor = floor;
        for key in keys.drain(..) {
            self.file(key);
        }
        self.head = keys;
    }

    /// Pops the earliest event if its time key is at most `limit`. A
    /// refused event leaves the queue as it was, floor included, so a
    /// later push before it still lands at or above the floor.
    fn pop_until(&mut self, limit: u64) -> Option<(f64, Ev)> {
        let key = if let Some(&next) = self.head.last() {
            if next.time > limit {
                return None;
            }
            self.head.pop()?
        } else {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let earliest = self.mins[b];
            if earliest > limit {
                return None;
            }
            self.floor = earliest;
            self.occupied &= !(1 << b);
            if self.buckets[b].len() == 1 {
                // A lone event needs no batch.
                self.buckets[b].pop()?
            } else {
                self.split(b);
                self.head.pop()?
            }
        };
        self.pops += 1;
        self.last = (key.time, key.order);
        self.free.push(key.slot);
        Some((key_time(key.time), self.pool[key.slot as usize]))
    }

    /// Empties bucket `b`, whose minimum is the new `floor`: the events at
    /// `floor` become the `head` batch, the rest drop into lower buckets.
    fn split(&mut self, b: usize) {
        let mut keys = std::mem::take(&mut self.buckets[b]);
        for key in keys.drain(..) {
            if key.time == self.floor {
                self.head.push(key);
            } else {
                self.file(key);
            }
        }
        self.buckets[b] = keys;
        // Keys reach a bucket mostly in push order, which an ascending sort
        // checks in one pass.
        self.head.sort_unstable_by_key(|k| k.order);
        self.head.reverse();
    }

    /// Events popped so far.
    fn popped(&self) -> u64 {
        self.pops
    }
}

struct LinkState {
    cfg: CongestionLink,
    busy: Option<Pkt>,
    queue: VecDeque<Pkt>,
    /// The `(time key, reserved seq)` of the in-service packet's transmit
    /// completion while it is deferred instead of queued.
    deferred: Option<(u64, u64)>,
}

struct WinState {
    cfg: WindowedFlow,
    /// Pure-delay reverse path for ACKs: sum of forward propagation delays.
    ack_delay_s: f64,
    rto_s: f64,
    // --- sender ---
    cwnd: f64,
    ssthresh: f64,
    srtt_s: f64,
    snd_una: u64,
    next_seq: u64,
    inflight: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    done: bool,
    pace_scheduled: bool,
    next_release_s: f64,
    rtx_queue: VecDeque<u64>,
    rtx_pending: Vec<bool>,
    sacked: Vec<bool>,
    outstanding: Vec<bool>,
    tx_count: Vec<u32>,
    sent_at: Vec<f64>,
    // DCTCP state.
    alpha: f64,
    window_end: u64,
    acks_in_window: u64,
    marked_in_window: u64,
    /// Last multiplicative decrease (loss or AIMD ECN cut).
    last_cut_s: f64,
    // --- receiver ---
    received: Vec<bool>,
    received_count: u64,
    rcv_cum: u64,
    // --- stats ---
    transmissions: u64,
    retransmissions: u64,
    arrivals: u64,
    dropped: u64,
    ecn_marked: u64,
    completion_s: Option<f64>,
}

impl WinState {
    fn window(&self) -> u64 {
        self.cwnd.floor().max(1.0) as u64
    }

    fn has_work(&self) -> bool {
        !self.rtx_queue.is_empty() || self.next_seq < self.cfg.packets
    }
}

/// CBR flows that emit at the same instants: added back to back with
/// bit-equal start times and intervals.
struct CbrClock {
    start_s: f64,
    interval_s: f64,
    /// The member flows, in add order.
    members: Vec<usize>,
    /// The longest member's packet count.
    packets: u64,
}

struct CbrState {
    cfg: CbrFlow,
    emitted: u64,
    delivered: u64,
    dropped: u64,
    ecn_marked: u64,
    latency_sum_s: f64,
    latency_min_s: f64,
    latency_max_s: f64,
}

/// The congestion-aware packet network: drop-tail ECN-marking links shared
/// by windowed senders and open-loop CBR cross-traffic.
#[derive(Default)]
pub struct CongestionNetwork {
    links: Vec<LinkState>,
    wins: Vec<WinState>,
    cbrs: Vec<CbrState>,
    clocks: Vec<CbrClock>,
    /// Events popped when the last CBR flow was added: the last clock
    /// takes new members only while no event has popped since.
    cbr_added_at: u64,
    queue: EventQueue,
    now_s: f64,
    incomplete_wins: usize,
    /// Test switch: every CBR flow gets its own clock and every transmit
    /// completion is pushed, the reference the default engine must match.
    #[cfg(test)]
    eager: bool,
}

impl CongestionNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link.
    pub fn add_link(&mut self, link: CongestionLink) -> CLinkId {
        // Route CongestionLink construction through `new` so hand-built
        // structs get the same validation.
        let validated = CongestionLink::new(link.rate_bps, link.prop_delay_s, link.queue_packets);
        let validated = match link.ecn_threshold {
            Some(t) => validated.with_ecn(t),
            None => validated,
        };
        self.links.push(LinkState {
            cfg: validated,
            busy: None,
            queue: VecDeque::new(),
            deferred: None,
        });
        CLinkId(self.links.len() - 1)
    }

    fn validate_route(&self, route: &[CLinkId], packet_bits: f64, start_s: f64) {
        assert!(!route.is_empty(), "flow route must have at least one link");
        for l in route {
            assert!(l.0 < self.links.len(), "route names unknown link {}", l.0);
        }
        assert!(
            packet_bits.is_finite() && packet_bits > 0.0,
            "packet size must be positive and finite, got {packet_bits}"
        );
        assert!(
            start_s.is_finite() && start_s >= self.now_s,
            "flow start must be finite and not in the simulated past, got {start_s} at t={}",
            self.now_s
        );
    }

    /// Adds a windowed flow; it starts pacing at `start_s`.
    pub fn add_windowed(&mut self, flow: WindowedFlow) -> SenderId {
        self.validate_route(&flow.route, flow.packet_bits, flow.start_s);
        assert!(
            flow.packets > 0,
            "windowed flow must carry at least one packet"
        );
        assert!(
            flow.init_cwnd.is_finite() && flow.init_cwnd >= 1.0,
            "initial window must be at least one packet, got {}",
            flow.init_cwnd
        );
        assert!(
            flow.max_cwnd >= flow.init_cwnd,
            "maximum window {} below initial window {}",
            flow.max_cwnd,
            flow.init_cwnd
        );
        if let CcAlgorithm::Dctcp { gain } = flow.algorithm {
            assert!(
                gain.is_finite() && gain > 0.0 && gain <= 1.0,
                "DCTCP gain must be in (0, 1], got {gain}"
            );
        }
        let base_rtt_s = flow.base_rtt_s.unwrap_or_else(|| {
            flow.route
                .iter()
                .map(|l| {
                    let cfg = &self.links[l.0].cfg;
                    flow.packet_bits / cfg.rate_bps + 2.0 * cfg.prop_delay_s
                })
                .sum()
        });
        assert!(
            base_rtt_s.is_finite() && base_rtt_s > 0.0,
            "base RTT must be positive and finite, got {base_rtt_s}"
        );
        let rto_s = (4.0 * base_rtt_s).max(0.01);
        let ssthresh = flow.init_ssthresh.unwrap_or(f64::MAX);
        assert!(
            !ssthresh.is_nan() && ssthresh >= 1.0,
            "initial ssthresh must be at least one packet, got {ssthresh}"
        );
        let n = flow.packets as usize;
        let ack_delay_s = flow
            .route
            .iter()
            .map(|l| self.links[l.0].cfg.prop_delay_s)
            .sum();
        let start_s = flow.start_s;
        let init_cwnd = flow.init_cwnd;
        let id = self.wins.len();
        self.wins.push(WinState {
            ack_delay_s,
            rto_s,
            cwnd: init_cwnd,
            ssthresh,
            srtt_s: base_rtt_s,
            snd_una: 0,
            next_seq: 0,
            inflight: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            done: false,
            pace_scheduled: true,
            next_release_s: start_s,
            rtx_queue: VecDeque::new(),
            rtx_pending: vec![false; n],
            sacked: vec![false; n],
            outstanding: vec![false; n],
            tx_count: vec![0; n],
            sent_at: vec![0.0; n],
            alpha: 1.0,
            window_end: 0,
            acks_in_window: 0,
            marked_in_window: 0,
            last_cut_s: f64::NEG_INFINITY,
            received: vec![false; n],
            received_count: 0,
            rcv_cum: 0,
            transmissions: 0,
            retransmissions: 0,
            arrivals: 0,
            dropped: 0,
            ecn_marked: 0,
            completion_s: None,
            cfg: flow,
        });
        self.incomplete_wins += 1;
        self.schedule(start_s, Ev::Pace { flow: id });
        SenderId(id)
    }

    /// Adds an open-loop CBR cross-traffic flow.
    ///
    /// A flow added right after another CBR flow, with a bit-equal
    /// `start_s` and `interval_s` and no event processed in between, joins
    /// that flow's emission clock: one event per instant emits both flows'
    /// packets, in add order, as their separate events would have.
    pub fn add_cbr(&mut self, flow: CbrFlow) -> CbrId {
        self.validate_route(&flow.route, flow.packet_bits, flow.start_s);
        assert!(flow.packets > 0, "CBR flow must emit at least one packet");
        assert!(
            flow.interval_s.is_finite() && flow.interval_s > 0.0,
            "CBR emission interval must be positive and finite, got {}",
            flow.interval_s
        );
        let id = self.cbrs.len();
        let (start_s, interval_s, packets) = (flow.start_s, flow.interval_s, flow.packets);
        let joins = !self.eager() && self.cbr_added_at == self.queue.popped();
        match self.clocks.last_mut().filter(|c| {
            joins
                && c.start_s.to_bits() == start_s.to_bits()
                && c.interval_s.to_bits() == interval_s.to_bits()
        }) {
            Some(clock) => {
                clock.members.push(id);
                clock.packets = clock.packets.max(packets);
            }
            None => {
                let clock = self.clocks.len();
                self.clocks.push(CbrClock {
                    start_s,
                    interval_s,
                    members: vec![id],
                    packets,
                });
                self.schedule(start_s, Ev::Emit { clock, k: 0 });
            }
        }
        self.cbr_added_at = self.queue.popped();
        self.cbrs.push(CbrState {
            cfg: flow,
            emitted: 0,
            delivered: 0,
            dropped: 0,
            ecn_marked: 0,
            latency_sum_s: 0.0,
            latency_min_s: f64::INFINITY,
            latency_max_s: f64::NEG_INFINITY,
        });
        CbrId(id)
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.run_until(f64::INFINITY);
    }

    /// Processes every event with timestamp `<= horizon_s`, then advances
    /// the clock to the horizon. Returns `true` if every windowed flow has
    /// completed.
    fn run_until(&mut self, horizon_s: f64) -> bool {
        assert!(!horizon_s.is_nan(), "horizon must not be NaN");
        self.drive(horizon_s, false)
    }

    /// Processes every event with timestamp `<= horizon_s`, but stops as
    /// soon as the last windowed flow completes, leaving cross-traffic
    /// events unprocessed. Returns `true` if every windowed flow has
    /// completed. Use this to time transfers without paying for background
    /// traffic that outlives them.
    pub fn run_while_incomplete(&mut self, horizon_s: f64) -> bool {
        assert!(!horizon_s.is_nan(), "horizon must not be NaN");
        self.drive(horizon_s, true)
    }

    fn drive(&mut self, horizon_s: f64, stop_on_complete: bool) -> bool {
        // `+ 0.0` turns a −0.0 horizon into +0.0: `<=` on floats admits an
        // event at +0.0 there, and so must the key order.
        let limit = time_key(horizon_s + 0.0);
        loop {
            if stop_on_complete && self.incomplete_wins == 0 {
                // The loop passed every deferred completion keyed below
                // the last pop.
                self.settle_before(self.queue.last);
                return true;
            }
            let Some((time_s, ev)) = self.queue.pop_until(limit) else {
                break;
            };
            self.now_s = time_s;
            match ev {
                Ev::TxDone { link } => self.on_tx_done(link),
                Ev::Ack {
                    flow,
                    seq,
                    cum,
                    marked,
                } => self.on_ack(flow, seq, cum, marked),
                Ev::Timeout { flow, seq, txn } => self.on_timeout(flow, seq, txn),
                Ev::Pace { flow } => self.on_pace(flow),
                Ev::Emit { clock, k } => self.on_emit(clock, k),
                Ev::Enqueue { link, pkt } => self.enqueue(link, pkt),
            }
        }
        // Every event up to `limit` has popped; so has every deferred
        // completion there.
        self.settle_before((limit, u64::MAX));
        if horizon_s.is_finite() && horizon_s > self.now_s {
            self.now_s = horizon_s;
        }
        self.incomplete_wins == 0
    }

    /// Stats for a windowed flow at the current simulated time.
    pub fn windowed_stats(&self, id: SenderId) -> WindowedStats {
        let w = &self.wins[id.0];
        WindowedStats {
            transmissions: w.transmissions,
            retransmissions: w.retransmissions,
            arrivals: w.arrivals,
            delivered: w.received_count,
            dropped: w.dropped,
            ecn_marked: w.ecn_marked,
            completion_s: w.completion_s,
            final_cwnd: w.cwnd,
            srtt_s: w.srtt_s,
        }
    }

    /// Stats for a CBR flow at the current simulated time.
    pub fn cbr_stats(&self, id: CbrId) -> CbrStats {
        let c = &self.cbrs[id.0];
        let any = c.delivered > 0;
        CbrStats {
            emitted: c.emitted,
            delivered: c.delivered,
            dropped: c.dropped,
            ecn_marked: c.ecn_marked,
            latency_sum_s: c.latency_sum_s,
            min_latency_s: any.then_some(c.latency_min_s),
            max_latency_s: any.then_some(c.latency_max_s),
        }
    }

    /// Events popped from the queue so far, across every run call. A
    /// clock's emission counts once for all its flows, and a deferred
    /// transmit completion that settles in place counts not at all.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    #[cfg(test)]
    fn eager(&self) -> bool {
        self.eager
    }

    #[cfg(not(test))]
    fn eager(&self) -> bool {
        false
    }

    fn schedule(&mut self, time_s: f64, kind: Ev) {
        debug_assert!(time_s.is_finite());
        self.queue.push(time_s, kind);
    }

    fn packet_bits(&self, src: Src) -> f64 {
        match src {
            Src::Win(i) => self.wins[i].cfg.packet_bits,
            Src::Cbr(i) => self.cbrs[i].cfg.packet_bits,
        }
    }

    fn route_len(&self, src: Src) -> usize {
        match src {
            Src::Win(i) => self.wins[i].cfg.route.len(),
            Src::Cbr(i) => self.cbrs[i].cfg.route.len(),
        }
    }

    /// Puts `pkt` in service on `link` and schedules its transmit
    /// completion, or defers it: a CBR packet on its last hop with nothing
    /// queued behind it only reserves the completion's sequence number.
    fn start_tx(&mut self, link: usize, pkt: Pkt) {
        let bits = self.packet_bits(pkt.src);
        let defer = !self.eager()
            && matches!(pkt.src, Src::Cbr(_))
            && pkt.hop + 1 == self.route_len(pkt.src);
        let l = &mut self.links[link];
        l.busy = Some(pkt);
        let done_s = self.now_s + bits / l.cfg.rate_bps;
        if defer && l.queue.is_empty() {
            l.deferred = Some((time_key(done_s), self.queue.reserve()));
        } else {
            self.schedule(done_s, Ev::TxDone { link });
        }
    }

    /// Applies `link`'s deferred transmit completion, as its `TxDone`
    /// would: frees the link and delivers the packet. Returns the
    /// completion's time key.
    fn settle(&mut self, link: usize) -> u64 {
        let l = &mut self.links[link];
        let (time, _) = l
            .deferred
            .take()
            .expect("settle without a deferred completion");
        let pkt = l.busy.take().expect("deferred completion on an idle link");
        let arrival = key_time(time) + l.cfg.prop_delay_s;
        self.deliver(pkt, arrival);
        time
    }

    /// Settles every deferred completion keyed below `bound`, a
    /// `(time key, order)` pair, and moves the clock to the latest one.
    fn settle_before(&mut self, bound: (u64, u64)) {
        for link in 0..self.links.len() {
            if self.links[link].deferred.is_some_and(|d| d < bound) {
                let time = self.settle(link);
                if time > time_key(self.now_s) {
                    self.now_s = key_time(time);
                }
            }
        }
    }

    fn enqueue(&mut self, link: usize, mut pkt: Pkt) {
        // Only a rank-0 completion pops before this event at the same time,
        // so a deferred one at or before `now` has already happened.
        if let Some((time, _)) = self.links[link].deferred {
            if time <= time_key(self.now_s) {
                self.settle(link);
            }
        }
        let l = &mut self.links[link];
        if l.busy.is_none() {
            self.start_tx(link, pkt);
        } else if l.queue.len() < l.cfg.queue_packets {
            if let Some(th) = l.cfg.ecn_threshold {
                if l.queue.len() >= th {
                    pkt.marked = true;
                }
            }
            l.queue.push_back(pkt);
            // A packet behind the deferred completion needs it to pop.
            if let Some((time, seq)) = l.deferred.take() {
                self.queue
                    .push_reserved(key_time(time), Ev::TxDone { link }, seq);
            }
        } else {
            match pkt.src {
                Src::Win(i) => self.wins[i].dropped += 1,
                Src::Cbr(i) => self.cbrs[i].dropped += 1,
            }
        }
    }

    fn on_tx_done(&mut self, link: usize) {
        let l = &mut self.links[link];
        let pkt = l.busy.take().expect("TxDone on idle link");
        let prop = l.cfg.prop_delay_s;
        if let Some(next) = l.queue.pop_front() {
            self.start_tx(link, next);
        }
        let arrival = self.now_s + prop;
        if pkt.hop + 1 < self.route_len(pkt.src) {
            let next_link = match pkt.src {
                Src::Win(i) => self.wins[i].cfg.route[pkt.hop + 1].0,
                Src::Cbr(i) => self.cbrs[i].cfg.route[pkt.hop + 1].0,
            };
            self.schedule(
                arrival,
                Ev::Enqueue {
                    link: next_link,
                    pkt: Pkt {
                        hop: pkt.hop + 1,
                        ..pkt
                    },
                },
            );
        } else {
            self.deliver(pkt, arrival);
        }
    }

    /// Receiver-side delivery. Processed while handling the final hop's
    /// `TxDone`, with the arrival timestamp carried explicitly; this is
    /// safe because receiver state is only ever read here and the ACK it
    /// produces is scheduled at `arrival + ack_delay >= arrival`.
    fn deliver(&mut self, pkt: Pkt, arrival_s: f64) {
        match pkt.src {
            Src::Cbr(i) => {
                let c = &mut self.cbrs[i];
                c.delivered += 1;
                if pkt.marked {
                    c.ecn_marked += 1;
                }
                // The emission instant follows from the sequence number,
                // so packets carry no timestamp.
                let latency = arrival_s - (c.cfg.start_s + pkt.seq as f64 * c.cfg.interval_s);
                c.latency_sum_s += latency;
                c.latency_min_s = c.latency_min_s.min(latency);
                c.latency_max_s = c.latency_max_s.max(latency);
            }
            Src::Win(i) => {
                let w = &mut self.wins[i];
                w.arrivals += 1;
                if pkt.marked {
                    w.ecn_marked += 1;
                }
                let seq = pkt.seq as usize;
                if !w.received[seq] {
                    w.received[seq] = true;
                    w.received_count += 1;
                    while w.rcv_cum < w.cfg.packets && w.received[w.rcv_cum as usize] {
                        w.rcv_cum += 1;
                    }
                    if w.received_count == w.cfg.packets {
                        w.completion_s = Some(arrival_s);
                        self.incomplete_wins -= 1;
                    }
                }
                let cum = self.wins[i].rcv_cum;
                let ack_delay = self.wins[i].ack_delay_s;
                self.schedule(
                    arrival_s + ack_delay,
                    Ev::Ack {
                        flow: i,
                        seq: pkt.seq,
                        cum,
                        marked: pkt.marked,
                    },
                );
            }
        }
    }

    fn on_ack(&mut self, flow: usize, seq: u64, cum: u64, marked: bool) {
        let now = self.now_s;
        let w = &mut self.wins[flow];
        if w.done {
            return;
        }
        let s = seq as usize;
        // Selective bookkeeping: the ACK names the exact packet that
        // arrived, so its transmission is no longer in flight.
        if !w.sacked[s] {
            w.sacked[s] = true;
            if w.outstanding[s] {
                w.outstanding[s] = false;
                w.inflight = w.inflight.saturating_sub(1);
            }
            // Karn's rule: only never-retransmitted packets give RTT samples.
            if w.tx_count[s] == 1 {
                let sample = now - w.sent_at[s];
                w.srtt_s = 0.875 * w.srtt_s + 0.125 * sample;
            }
        }
        w.acks_in_window += 1;
        if marked {
            w.marked_in_window += 1;
        }
        let old_una = w.snd_una;
        if cum > old_una {
            for q in old_una..cum {
                let q = q as usize;
                if w.outstanding[q] {
                    w.outstanding[q] = false;
                    w.inflight = w.inflight.saturating_sub(1);
                }
                w.sacked[q] = true;
            }
            w.snd_una = cum;
            w.dup_acks = 0;
            if w.in_recovery && cum >= w.recover {
                w.in_recovery = false;
            }
            if !w.in_recovery {
                let n = (cum - old_una) as f64;
                if w.cwnd < w.ssthresh {
                    w.cwnd = (w.cwnd + n).min(w.cfg.max_cwnd);
                } else {
                    w.cwnd = (w.cwnd + n / w.cwnd).min(w.cfg.max_cwnd);
                }
            }
        } else {
            w.dup_acks += 1;
            if w.dup_acks == 3 && !w.in_recovery {
                // Fast retransmit of the first missing packet.
                w.in_recovery = true;
                w.recover = w.next_seq;
                w.ssthresh = (w.cwnd / 2.0).max(2.0);
                w.cwnd = w.ssthresh;
                w.last_cut_s = now;
                let missing = w.snd_una as usize;
                if !w.sacked[missing] {
                    if w.outstanding[missing] {
                        w.outstanding[missing] = false;
                        w.inflight = w.inflight.saturating_sub(1);
                    }
                    if !w.rtx_pending[missing] {
                        w.rtx_pending[missing] = true;
                        w.rtx_queue.push_back(w.snd_una);
                    }
                }
            }
        }
        // ECN response.
        match w.cfg.algorithm {
            CcAlgorithm::Aimd => {
                if marked && now - w.last_cut_s >= w.srtt_s {
                    w.ssthresh = (w.cwnd / 2.0).max(2.0);
                    w.cwnd = w.ssthresh;
                    w.last_cut_s = now;
                }
            }
            CcAlgorithm::Dctcp { gain } => {
                if w.snd_una >= w.window_end {
                    let frac = if w.acks_in_window == 0 {
                        0.0
                    } else {
                        w.marked_in_window as f64 / w.acks_in_window as f64
                    };
                    w.alpha = (1.0 - gain) * w.alpha + gain * frac;
                    if w.marked_in_window > 0 {
                        w.cwnd = (w.cwnd * (1.0 - w.alpha / 2.0)).max(1.0);
                        w.ssthresh = w.cwnd;
                        w.last_cut_s = now;
                    }
                    w.acks_in_window = 0;
                    w.marked_in_window = 0;
                    w.window_end = w.next_seq.max(w.snd_una + 1);
                }
            }
        }
        if w.snd_una >= w.cfg.packets {
            w.done = true;
            w.rtx_queue.clear();
            return;
        }
        self.arm_pacer(flow);
    }

    fn on_timeout(&mut self, flow: usize, seq: u64, txn: u32) {
        let w = &mut self.wins[flow];
        let s = seq as usize;
        if w.done || seq < w.snd_una || w.sacked[s] || w.tx_count[s] != txn {
            return; // Stale timer: the packet has since been acknowledged
                    // or retransmitted.
        }
        if w.outstanding[s] {
            w.outstanding[s] = false;
            w.inflight = w.inflight.saturating_sub(1);
        }
        if !w.rtx_pending[s] {
            w.rtx_pending[s] = true;
            w.rtx_queue.push_back(seq);
        }
        // RTO: collapse to one packet and slow-start again.
        w.ssthresh = (w.cwnd / 2.0).max(2.0);
        w.cwnd = 1.0;
        w.in_recovery = false;
        w.dup_acks = 0;
        w.last_cut_s = self.now_s;
        self.arm_pacer(flow);
    }

    fn arm_pacer(&mut self, flow: usize) {
        let w = &mut self.wins[flow];
        if w.pace_scheduled || w.done || !w.has_work() || w.inflight >= w.window() {
            return;
        }
        w.pace_scheduled = true;
        let at = w.next_release_s.max(self.now_s);
        self.schedule(at, Ev::Pace { flow });
    }

    fn on_pace(&mut self, flow: usize) {
        let now = self.now_s;
        let w = &mut self.wins[flow];
        w.pace_scheduled = false;
        if w.done || w.inflight >= w.window() {
            return; // An ACK will re-arm the pacer when the window opens.
        }
        // Pick the next sequence: retransmissions first.
        let seq = loop {
            match w.rtx_queue.pop_front() {
                Some(q) => {
                    w.rtx_pending[q as usize] = false;
                    if !w.sacked[q as usize] && q >= w.snd_una {
                        break Some(q);
                    }
                }
                None => {
                    if w.next_seq < w.cfg.packets {
                        let q = w.next_seq;
                        w.next_seq += 1;
                        break Some(q);
                    }
                    break None;
                }
            }
        };
        let Some(seq) = seq else { return };
        let s = seq as usize;
        w.tx_count[s] += 1;
        w.sent_at[s] = now;
        w.outstanding[s] = true;
        w.inflight += 1;
        w.transmissions += 1;
        if w.tx_count[s] > 1 {
            w.retransmissions += 1;
        }
        let txn = w.tx_count[s];
        let first_link = w.cfg.route[0].0;
        let rto = w.rto_s;
        // Pace at cwnd per srtt.
        let interval = w.srtt_s.max(1e-9) / w.cwnd.max(1.0);
        w.next_release_s = now + interval;
        let pkt = Pkt {
            src: Src::Win(flow),
            seq,
            hop: 0,
            marked: false,
        };
        self.enqueue(first_link, pkt);
        self.schedule(now + rto, Ev::Timeout { flow, seq, txn });
        self.arm_pacer(flow);
    }

    fn on_emit(&mut self, clock: usize, k: u64) {
        let members = std::mem::take(&mut self.clocks[clock].members);
        for &cbr in &members {
            let c = &mut self.cbrs[cbr];
            if k >= c.cfg.packets {
                continue;
            }
            c.emitted += 1;
            let first_link = c.cfg.route[0].0;
            let pkt = Pkt {
                src: Src::Cbr(cbr),
                seq: k,
                hop: 0,
                marked: false,
            };
            self.enqueue(first_link, pkt);
        }
        let c = &mut self.clocks[clock];
        c.members = members;
        if k + 1 < c.packets {
            let at = self.now_s + c.interval_s;
            self.schedule(at, Ev::Emit { clock, k: k + 1 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn one_link_net(rate_bps: f64, prop_s: f64, queue: usize) -> (CongestionNetwork, CLinkId) {
        let mut net = CongestionNetwork::new();
        let l = net.add_link(CongestionLink::new(rate_bps, prop_s, queue));
        (net, l)
    }

    /// `packets` packets of `bits` on `route`, one every `interval_s` from
    /// t = 0.
    fn cbr(route: Vec<CLinkId>, bits: f64, interval_s: f64, packets: u64) -> CbrFlow {
        CbrFlow {
            route,
            packet_bits: bits,
            interval_s,
            start_s: 0.0,
            packets,
        }
    }

    /// Adds `flows`, drains the event queue, and returns their stats.
    fn run_cbrs(net: &mut CongestionNetwork, flows: Vec<CbrFlow>) -> Vec<CbrStats> {
        let ids: Vec<_> = flows.into_iter().map(|f| net.add_cbr(f)).collect();
        net.run();
        ids.into_iter().map(|id| net.cbr_stats(id)).collect()
    }

    /// Every delivered packet of `s` took `expect_s`.
    fn assert_latency(s: &CbrStats, expect_s: f64) {
        for lat in [s.min_latency_s, s.max_latency_s] {
            let lat = lat.expect("delivered packets have latencies");
            assert!(
                (lat - expect_s).abs() < 1e-12,
                "latency {lat} vs {expect_s}"
            );
        }
    }

    #[test]
    fn uncontended_transfer_matches_packet_analytic_bound() {
        // 100 Mbit/s, 5 ms prop, plenty of queue; 500 × 10 kbit packets.
        let (mut net, l) = one_link_net(100e6, 5e-3, 256);
        let mut f = WindowedFlow::new(vec![l], 10e3, 500, 0.0, CcAlgorithm::Aimd);
        // Window at the path BDP so pacing runs at line rate immediately.
        f.init_cwnd = 128.0;
        let id = net.add_windowed(f);
        net.run();
        let stats = net.windowed_stats(id);
        assert_eq!(stats.delivered, 500);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.retransmissions, 0);
        let bound =
            uncontended_packet_transfer_s(10e3, 500, &[CongestionLink::new(100e6, 5e-3, 256)]);
        let t = stats.completion_s.expect("transfer completed");
        assert!(
            t >= bound - 1e-9 && t <= bound * 1.05,
            "uncontended completion {t} vs analytic bound {bound}"
        );
    }

    #[test]
    fn single_hop_packet_bound_equals_message_bound_minus_pipelining() {
        // On one hop the packetized bound equals the message-level bound:
        // serialization of all bits plus one propagation delay.
        let links = [CongestionLink::new(50e6, 2e-3, 64)];
        let packets = 400_u64;
        let pkt_bits = 8e3;
        let packetized = uncontended_packet_transfer_s(pkt_bits, packets, &links);
        let message = uncontended_transfer_s(pkt_bits * packets as f64, &[Link::new(50e6, 2e-3)]);
        assert!((packetized - message).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_packet_bound_beats_message_bound() {
        let links = [
            CongestionLink::new(50e6, 2e-3, 64),
            CongestionLink::new(50e6, 3e-3, 64),
            CongestionLink::new(50e6, 1e-3, 64),
        ];
        let message_links: Vec<_> = links
            .iter()
            .map(|l| Link::new(l.rate_bps, l.prop_delay_s))
            .collect();
        let packetized = uncontended_packet_transfer_s(8e3, 400, &links);
        let message = uncontended_transfer_s(8e3 * 400.0, &message_links);
        assert!(
            packetized < message,
            "pipelining should beat store-and-forward: {packetized} vs {message}"
        );
    }

    #[test]
    fn slow_start_doubles_the_window_each_round_trip() {
        // Long-propagation link: the first window drains long before ACKs
        // return, so growth is driven purely by slow start.
        let (mut net, l) = one_link_net(1e9, 50e-3, 4096);
        let mut f = WindowedFlow::new(vec![l], 10e3, 4000, 0.0, CcAlgorithm::Aimd);
        f.init_cwnd = 2.0;
        let id = net.add_windowed(f);
        // After ~2 RTTs (ack of the first window arrives at ~100 ms + eps),
        // the window should have grown well past the initial 2.
        net.run_until(0.35);
        let stats = net.windowed_stats(id);
        assert!(
            stats.final_cwnd >= 8.0,
            "window should compound in slow start, got {}",
            stats.final_cwnd
        );
        net.run();
        assert_eq!(net.windowed_stats(id).delivered, 4000);
    }

    #[test]
    fn drop_tail_loss_triggers_retransmission_and_window_cut() {
        // Tiny queue + heavy CBR cross-traffic: the windowed flow must see
        // drops, recover all packets, and end with a reduced window.
        let (mut net, l) = one_link_net(10e6, 2e-3, 4);
        let cross = CbrFlow::with_load(vec![l], 10e3, 9e6, 0.0, 10.0);
        net.add_cbr(cross);
        let mut f = WindowedFlow::new(vec![l], 10e3, 300, 0.0, CcAlgorithm::Aimd);
        f.init_cwnd = 64.0;
        let id = net.add_windowed(f);
        net.run_while_incomplete(60.0);
        let stats = net.windowed_stats(id);
        assert_eq!(stats.delivered, 300, "all packets eventually delivered");
        assert!(stats.dropped > 0, "expected drop-tail losses");
        assert!(
            stats.retransmissions >= stats.dropped.min(1),
            "losses must be repaired by retransmission"
        );
        assert!(
            stats.final_cwnd < 64.0,
            "window should have been cut from its initial value, got {}",
            stats.final_cwnd
        );
    }

    #[test]
    fn ecn_marks_arrive_and_dctcp_keeps_losses_low() {
        // ECN threshold well below the queue limit: DCTCP should see marks
        // and back off before overflowing the queue.
        let mut net = CongestionNetwork::new();
        let l = net.add_link(CongestionLink::new(10e6, 2e-3, 64).with_ecn(8));
        let cross = CbrFlow::with_load(vec![l], 10e3, 4e6, 0.0, 30.0);
        net.add_cbr(cross);
        let mut f = WindowedFlow::new(vec![l], 10e3, 500, 0.0, CcAlgorithm::Dctcp { gain: 0.0625 });
        f.init_cwnd = 16.0;
        let id = net.add_windowed(f);
        net.run_while_incomplete(120.0);
        let stats = net.windowed_stats(id);
        assert_eq!(stats.delivered, 500);
        assert!(stats.ecn_marked > 0, "expected ECN marks under load");
    }

    #[test]
    fn contended_transfer_is_slower_than_uncontended() {
        let run = |load_bps: Option<f64>| {
            let (mut net, l) = one_link_net(20e6, 3e-3, 32);
            if let Some(bps) = load_bps {
                net.add_cbr(CbrFlow::with_load(vec![l], 10e3, bps, 0.0, 60.0));
            }
            let mut f = WindowedFlow::new(vec![l], 10e3, 400, 0.0, CcAlgorithm::Aimd);
            f.init_cwnd = 16.0;
            let id = net.add_windowed(f);
            net.run_while_incomplete(120.0);
            net.windowed_stats(id).completion_s.expect("completed")
        };
        let clear = run(None);
        let loaded = run(Some(15e6));
        assert!(
            loaded > clear * 1.5,
            "cross-traffic should slow the transfer: {loaded} vs {clear}"
        );
    }

    #[test]
    fn engine_is_deterministic_across_runs() {
        let run = || {
            let mut net = CongestionNetwork::new();
            let a = net.add_link(CongestionLink::new(10e6, 2e-3, 8).with_ecn(4));
            let b = net.add_link(CongestionLink::new(5e6, 4e-3, 8));
            net.add_cbr(CbrFlow::with_load(vec![a, b], 8e3, 3e6, 0.0, 20.0));
            net.add_cbr(CbrFlow::with_load(vec![b], 8e3, 1e6, 0.5, 20.0));
            let f = WindowedFlow::new(
                vec![a, b],
                8e3,
                250,
                0.1,
                CcAlgorithm::Dctcp { gain: 0.0625 },
            );
            let id = net.add_windowed(f);
            net.run();
            net.windowed_stats(id)
        };
        assert_eq!(run(), run());
    }

    /// Pins the engine's output bit for bit on a contended scenario full
    /// of exact ties: two CBR flows with equal start times and intervals
    /// share link `a` (every emission coincides with the other flow's),
    /// and a DCTCP flow crosses `a` then `b`. Any change to the event pop
    /// order or to handler arithmetic moves these values.
    #[test]
    fn engine_output_bits_are_pinned() {
        let mut net = CongestionNetwork::new();
        let a = net.add_link(CongestionLink::new(10e6, 2e-3, 8).with_ecn(4));
        let b = net.add_link(CongestionLink::new(5e6, 4e-3, 8));
        let cross = [0, 1].map(|_| net.add_cbr(CbrFlow::with_load(vec![a], 8e3, 3e6, 0.0, 2.0)));
        let id = net.add_windowed(WindowedFlow::new(
            vec![a, b],
            8e3,
            300,
            0.0,
            CcAlgorithm::Dctcp { gain: 0.0625 },
        ));
        net.run();
        let w = net.windowed_stats(id);
        assert_eq!(
            (
                w.transmissions,
                w.retransmissions,
                w.arrivals,
                w.delivered,
                w.dropped,
                w.ecn_marked
            ),
            (309, 9, 300, 300, 9, 93)
        );
        assert_eq!(
            (
                w.completion_s.map(f64::to_bits),
                w.srtt_s.to_bits(),
                w.final_cwnd.to_bits()
            ),
            (
                Some(0x3fe6_0f77_4eb0_4f86),
                0x3f90_d243_768b_c7a6,
                0x4026_3ed7_25b1_408b
            )
        );
        let expect = [
            (
                (750, 746, 4, 36),
                (
                    0x4003_8f48_e4b6_f1e0,
                    0x3f66_f006_8db8_0000,
                    0x3f82_d773_18fc_5054,
                ),
            ),
            (
                (750, 741, 9, 64),
                (
                    0x4007_f268_6ebf_f484,
                    0x3f6d_7dbf_487f_1000,
                    0x3f82_d773_18fc_503c,
                ),
            ),
        ];
        for (c, (counts, bits)) in cross.into_iter().zip(expect) {
            let s = net.cbr_stats(c);
            assert_eq!((s.emitted, s.delivered, s.dropped, s.ecn_marked), counts);
            let latency = |v: Option<f64>| v.expect("delivered").to_bits();
            assert_eq!(
                (
                    s.latency_sum_s.to_bits(),
                    latency(s.min_latency_s),
                    latency(s.max_latency_s)
                ),
                bits
            );
        }
    }

    /// Pins the engine's output bit for bit on the benchmark probe's shape:
    /// an 8-hop chain of 10 Gbps ISLs, each carrying 90 % CBR cross-traffic,
    /// and a 10 MB transfer by the sender `migrate_via_packets` sets up,
    /// stopped by `run_while_incomplete` while the cross-traffic still has
    /// completions in flight. The values were captured before CBR flows
    /// shared clocks and last-hop completions settled in place.
    #[test]
    fn cross_loaded_chain_stopped_on_completion_output_bits_are_pinned() {
        let (bits, rate, hops) = (384_000.0, 10e9, 8);
        let link = CongestionLink::new(rate, 1.5e-3, 256).with_ecn(64);
        let mut net = CongestionNetwork::new();
        let route: Vec<_> = (0..hops).map(|_| net.add_link(link)).collect();
        let cross: Vec<_> = route
            .iter()
            .map(|&id| net.add_cbr(CbrFlow::with_load(vec![id], bits, 0.9 * rate, 0.0, 15.0)))
            .collect();
        let base_rtt_s = f64::from(hops) * (bits / rate + 2.0 * link.prop_delay_s);
        let bdp = (rate * base_rtt_s / bits).max(10.0);
        let id = net.add_windowed(WindowedFlow {
            init_cwnd: bdp,
            max_cwnd: 2.0 * bdp,
            base_rtt_s: Some(base_rtt_s),
            init_ssthresh: Some(bdp),
            ..WindowedFlow::new(route, bits, 209, 0.0, CcAlgorithm::Dctcp { gain: 0.0625 })
        });
        assert!(net.run_while_incomplete(15.0));
        let w = net.windowed_stats(id);
        assert_eq!(
            (
                w.transmissions,
                w.retransmissions,
                w.arrivals,
                w.delivered,
                w.dropped,
                w.ecn_marked
            ),
            (209, 0, 209, 209, 0, 137)
        );
        assert_eq!(
            (
                w.completion_s.map(f64::to_bits),
                w.srtt_s.to_bits(),
                w.final_cwnd.to_bits(),
                net.now_s.to_bits()
            ),
            (
                Some(0x3faf_6cfd_595c_9332),
                0x3faa_ef09_aa06_a632,
                0x4083_c9e8_73b8_7be5,
                0x3fae_a861_b379_3f3a
            )
        );
        // Per hop: (delivered, ECN-marked) and the latency sum, min and
        // max bits. Every flow emitted 1,404 packets and dropped none.
        let expect = [
            (
                (1350, 1241),
                (
                    0x4020_8ab0_277a_9940,
                    0x3f59_d594_1bab_5731,
                    0x3f81_f1bd_d648_2ea9,
                ),
            ),
            (
                (1346, 1170),
                (
                    0x401d_f64e_ca20_db38,
                    0x3f59_3484_6c0a_eb14,
                    0x3f80_77b1_e844_f86c,
                ),
            ),
            (
                (1342, 1056),
                (
                    0x401b_1901_8e75_7b09,
                    0x3f59_3484_6c0a_eb10,
                    0x3f7e_49de_b7f8_71fc,
                ),
            ),
            (
                (1338, 928),
                (
                    0x4018_71bc_ff88_9be9,
                    0x3f59_3484_6c0a_eafc,
                    0x3f7b_e6e6_5386_9178,
                ),
            ),
            (
                (1334, 791),
                (
                    0x4015_fc70_93e6_d3e7,
                    0x3f59_3484_6c0a_eae8,
                    0x3f79_c31f_a4e0_f7c8,
                ),
            ),
            (
                (1330, 642),
                (
                    0x4013_b125_cb24_101e,
                    0x3f59_3484_6c0a_ead0,
                    0x3f77_d479_b10d_9e20,
                ),
            ),
            (
                (1326, 484),
                (
                    0x4011_8d66_4fc0_335a,
                    0x3f59_3484_6c0a_eac0,
                    0x3f76_1799_79b9_2d20,
                ),
            ),
            (
                (1322, 308),
                (
                    0x400f_144b_5834_bf88,
                    0x3f59_3484_6c0a_eaa8,
                    0x3f74_7502_0a9c_3f78,
                ),
            ),
        ];
        for (c, ((delivered, marked), bits)) in cross.into_iter().zip(expect) {
            let s = net.cbr_stats(c);
            assert_eq!(
                (s.emitted, s.delivered, s.dropped, s.ecn_marked),
                (1404, delivered, 0, marked)
            );
            let latency = |v: Option<f64>| v.expect("delivered").to_bits();
            assert_eq!(
                (
                    s.latency_sum_s.to_bits(),
                    latency(s.min_latency_s),
                    latency(s.max_latency_s)
                ),
                bits
            );
        }
    }

    #[test]
    fn completion_is_receiver_side_even_when_acks_lag() {
        // Completion is the arrival of the last distinct packet, not the
        // return of its ACK: with a huge propagation delay the difference
        // is visible.
        let (mut net, l) = one_link_net(1e6, 0.2, 64);
        let mut f = WindowedFlow::new(vec![l], 1e3, 5, 0.0, CcAlgorithm::Aimd);
        f.init_cwnd = 8.0;
        let id = net.add_windowed(f);
        net.run();
        let t = net.windowed_stats(id).completion_s.unwrap();
        // The pacer releases the 5 packets over 4 × (401 ms / 8) ≈ 200 ms,
        // so the last arrival is ≈ 402 ms — but its ACK only returns at
        // ≈ 602 ms. Completion must record the arrival, not the ACK.
        assert!(t < 0.5, "completion should not wait for ACKs, got {t}");
    }

    #[test]
    #[should_panic(expected = "route names unknown link")]
    fn unknown_links_are_rejected() {
        let mut net = CongestionNetwork::new();
        net.add_windowed(WindowedFlow::new(
            vec![CLinkId(7)],
            1e3,
            1,
            0.0,
            CcAlgorithm::Aimd,
        ));
    }

    #[test]
    #[should_panic(expected = "packet size must be positive and finite")]
    fn non_finite_packet_sizes_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 1e-3, 8);
        net.add_windowed(WindowedFlow::new(
            vec![l],
            f64::INFINITY,
            1,
            0.0,
            CcAlgorithm::Aimd,
        ));
    }

    #[test]
    #[should_panic(expected = "flow start must be finite")]
    fn nan_start_times_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 1e-3, 8);
        net.add_windowed(WindowedFlow::new(
            vec![l],
            1e3,
            1,
            f64::NAN,
            CcAlgorithm::Aimd,
        ));
    }

    #[test]
    #[should_panic(expected = "ECN threshold")]
    fn ecn_threshold_above_queue_capacity_is_rejected() {
        CongestionLink::new(1e6, 1e-3, 8).with_ecn(9);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive and finite")]
    fn non_finite_link_rates_are_rejected() {
        CongestionLink::new(f64::NAN, 0.0, 4);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_links_are_rejected() {
        Link::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive and finite")]
    fn infinite_rate_links_are_rejected() {
        Link::new(f64::INFINITY, 0.0);
    }

    #[test]
    #[should_panic(expected = "propagation delay must be non-negative and finite")]
    fn infinite_delay_links_are_rejected() {
        Link::new(1e9, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "flow route must have at least one link")]
    fn empty_cbr_routes_are_rejected() {
        CongestionNetwork::new().add_cbr(cbr(vec![], 1.0, 1.0, 1));
    }

    #[test]
    #[should_panic(expected = "flow route must have at least one link")]
    fn empty_windowed_routes_are_rejected() {
        let f = WindowedFlow::new(vec![], 1e3, 1, 0.0, CcAlgorithm::Aimd);
        CongestionNetwork::new().add_windowed(f);
    }

    #[test]
    #[should_panic(expected = "packet size must be positive and finite")]
    fn infinite_cbr_packet_sizes_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        net.add_cbr(cbr(vec![l], f64::INFINITY, 1.0, 1));
    }

    #[test]
    #[should_panic(expected = "flow start must be finite")]
    fn infinite_cbr_start_times_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        net.add_cbr(CbrFlow {
            start_s: f64::INFINITY,
            ..cbr(vec![l], 1e4, 1.0, 1)
        });
    }

    #[test]
    #[should_panic(expected = "CBR emission interval must be positive and finite")]
    fn nan_cbr_intervals_are_rejected() {
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        net.add_cbr(cbr(vec![l], 1e4, f64::NAN, 1));
    }

    #[test]
    fn scheduler_keys_are_24_bytes_and_events_at_most_48() {
        // The heap moves only keys. Every queued packet rides inside a
        // pooled event; CBR latency is derived from the sequence number so
        // that packets carry no timestamp.
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert!(std::mem::size_of::<Ev>() <= 48);
    }

    #[test]
    fn lone_cbr_flow_below_capacity_sees_only_the_latency_floor() {
        let (mut net, l) = one_link_net(1e9, 0.002, 16);
        let s = run_cbrs(&mut net, vec![cbr(vec![l], 1e4, 1e4 / 0.5e9, 100)])[0];
        assert_eq!((s.delivered, s.dropped), (100, 0));
        assert_latency(&s, 1e4 / 1e9 + 0.002);
    }

    #[test]
    fn multi_hop_cbr_latency_is_per_hop_serialization_plus_propagation() {
        let mut net = CongestionNetwork::new();
        let l1 = net.add_link(CongestionLink::new(1e9, 0.001, 8));
        let l2 = net.add_link(CongestionLink::new(1e9, 0.003, 8));
        let s = run_cbrs(&mut net, vec![cbr(vec![l1, l2], 1e4, 1e4 / 0.1e9, 10)])[0];
        assert_eq!(s.delivered, 10);
        assert_latency(&s, 2.0 * (1e4 / 1e9) + 0.001 + 0.003);
    }

    /// Duration of a one-packet windowed transfer of `bits` started at
    /// `start_s` over links of the given (rate, delay). One packet is one
    /// indivisible message that store-and-forwards, so the engine must
    /// meet the message-level bound exactly.
    fn one_packet_duration_s(bits: f64, hops: &[(f64, f64)], start_s: f64) -> f64 {
        let mut net = CongestionNetwork::new();
        let route = hops
            .iter()
            .map(|&(rate, delay)| net.add_link(CongestionLink::new(rate, delay, 0)))
            .collect();
        let flow = WindowedFlow::new(route, bits, 1, start_s, CcAlgorithm::Aimd);
        let id = net.add_windowed(flow);
        net.run();
        let done = net.windowed_stats(id).completion_s;
        done.expect("one packet completes") - start_s
    }

    #[test]
    fn single_hop_matches_analytic_time() {
        // 1 Gbit over 1 Gbps = 1 s serialization + 5 ms propagation.
        let t = one_packet_duration_s(1e9, &[(1e9, 0.005)], 0.0);
        assert!((t - 1.005).abs() < 1e-12, "{t}");
    }

    #[test]
    fn multi_hop_store_and_forward_adds_per_hop_serialization() {
        // 3 × 0.1 s serialization + 9 ms propagation.
        let t = one_packet_duration_s(1e8, &[(1e9, 0.002), (1e9, 0.003), (1e9, 0.004)], 0.0);
        assert!((t - 0.309).abs() < 1e-12, "{t}");
    }

    #[test]
    fn analytic_helper_agrees_with_one_packet_transfers() {
        let hops = [(1e10, 0.0037), (2.5e9, 0.0012)];
        let links: Vec<_> = hops.iter().map(|&(r, d)| Link::new(r, d)).collect();
        let t = one_packet_duration_s(8e9, &hops, 1.0);
        let bound = uncontended_transfer_s(8e9, &links);
        assert!((t - bound).abs() < 1e-9, "{t} vs {bound}");
    }

    #[test]
    fn bottleneck_link_dominates() {
        let t = one_packet_duration_s(1e7, &[(1e10, 0.0), (1e7, 0.0)], 0.0);
        assert!((t - (0.001 + 1.0)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn contention_serializes_packets_fifo() {
        // Two 1 Gbit packets at t = 0 on one 1 Gbps link: the second
        // waits for the first.
        let (mut net, l) = one_link_net(1e9, 0.0, 4);
        let flow = cbr(vec![l], 1e9, 1.0, 1);
        let s = run_cbrs(&mut net, vec![flow.clone(), flow]);
        assert_latency(&s[0], 1.0);
        assert_latency(&s[1], 2.0);
    }

    #[test]
    fn later_arrival_does_not_preempt() {
        // A small packet arriving mid-service waits behind the large one.
        let (mut net, l) = one_link_net(1e9, 0.0, 4);
        let small = CbrFlow {
            start_s: 1.0,
            ..cbr(vec![l], 1e6, 1.0, 1)
        };
        let s = run_cbrs(&mut net, vec![cbr(vec![l], 2e9, 1.0, 1), small]);
        assert_latency(&s[0], 2.0);
        assert_latency(&s[1], 2.001 - 1.0);
    }

    #[test]
    fn packets_on_disjoint_links_do_not_interact() {
        let mut net = CongestionNetwork::new();
        let link = CongestionLink::new(1e9, 0.001, 4);
        let (a, b) = (net.add_link(link), net.add_link(link));
        let flows = vec![cbr(vec![a], 1e9, 1.0, 1), cbr(vec![b], 1e9, 1.0, 1)];
        for s in run_cbrs(&mut net, flows) {
            assert_latency(&s, 1.001);
        }
    }

    #[test]
    fn cbr_overload_drops_the_excess() {
        // Offered 2 Mbps into a 1 Mbps link: about half must drop once the
        // queue fills.
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        let s = run_cbrs(&mut net, vec![cbr(vec![l], 1e4, 1e4 / 2e6, 500)])[0];
        assert!(s.dropped > 150, "dropped {}", s.dropped);
        assert_eq!(s.delivered + s.dropped, 500);
        let ratio = s.delivered as f64 / 500.0;
        assert!((0.4..0.7).contains(&ratio), "delivery {ratio}");
    }

    #[test]
    fn two_cbr_flows_share_a_link_below_capacity() {
        let (mut net, l) = one_link_net(1e9, 0.0, 1024);
        let flow = cbr(vec![l], 1e4, 1e4 / 0.4e9, 400);
        for s in run_cbrs(&mut net, vec![flow.clone(), flow]) {
            assert_eq!((s.delivered, s.dropped), (400, 0));
        }
    }

    #[test]
    fn queueing_latency_grows_with_load() {
        // n flows of 10 µs packets share one 1 Gbps link, flow i starting
        // 3i µs after flow 0. Each period flow i starts service at 10i µs,
        // having waited 7i µs, so mean queueing is (n − 1)/2 × 7 µs.
        let mean_queueing_s = |n: u32, load_bps: f64| {
            let (mut net, l) = one_link_net(1e9, 0.001, 64);
            let interval_s = f64::from(n) * 1e4 / load_bps;
            let flows = (0..n)
                .map(|i| CbrFlow {
                    start_s: f64::from(i) * 3e-6,
                    ..cbr(vec![l], 1e4, interval_s, 1000)
                })
                .collect();
            let stats = run_cbrs(&mut net, flows);
            let delivered: u64 = stats.iter().map(|s| s.delivered).sum();
            let sum_s: f64 = stats.iter().map(|s| s.latency_sum_s).sum();
            sum_s / delivered as f64 - (1e4 / 1e9 + 0.001)
        };
        let light = mean_queueing_s(3, 0.3e9);
        let heavy = mean_queueing_s(9, 0.99e9);
        assert!((light - 7e-6).abs() < 1e-9, "light {light}");
        assert!((heavy - 28e-6).abs() < 1e-9, "heavy {heavy}");
    }

    #[test]
    fn bulk_cbr_inflates_interactive_queueing_on_a_shared_downlink() {
        // §3.3 footnote 1: EO bulk download and user traffic on one
        // 10 Gbps downlink. Compare queueing delay, the latency above the
        // serialization + propagation floor.
        let floor = 1.2e4 / 10e9 + 0.002;
        let queueing = |with_bulk: bool| {
            let (mut net, l) = one_link_net(10e9, 0.002, 256);
            let mut flows = vec![cbr(vec![l], 1.2e4, 1.2e4 / 0.1e9, 500)];
            if with_bulk {
                // Together the two flows slightly oversubscribe the link.
                flows.push(cbr(vec![l], 1.2e5, 1.2e5 / 9.98e9, 20_000));
            }
            run_cbrs(&mut net, flows)[0]
                .mean_latency_s()
                .expect("user packets delivered")
                - floor
        };
        let (alone, shared) = (queueing(false), queueing(true));
        assert!(alone < 1e-9, "uncontended queueing {alone}");
        assert!(
            shared > 1e-6,
            "bulk sharing should add microseconds of queueing, got {shared}"
        );
        assert!(shared > alone * 100.0 + 1e-9);
    }

    #[test]
    fn zero_queue_link_is_pure_blocking() {
        // The second packet finds the server busy and no queue: dropped.
        let (mut net, l) = one_link_net(1e6, 0.0, 0);
        let s = run_cbrs(&mut net, vec![cbr(vec![l], 1e6, 0.5, 2)])[0];
        assert_eq!((s.delivered, s.dropped), (1, 1));
    }

    /// An arrival at the exact instant a transmission completes sees the
    /// freed link: it is served on a zero-queue link instead of dropped,
    /// and it does not queue behind a packet that has already left.
    #[test]
    fn coincident_tx_done_and_arrival_frees_the_link_first() {
        // 1 Mbit at 1 Mbps takes 1 s, the emission interval: every
        // emission coincides with the previous packet's TxDone.
        for queue in [0, 8] {
            let (mut net, l) = one_link_net(1e6, 0.0, queue);
            let s = run_cbrs(&mut net, vec![cbr(vec![l], 1e6, 1.0, 4)])[0];
            assert_eq!((s.delivered, s.dropped), (4, 0), "queue {queue}");
            assert_latency(&s, 1.0);
        }
    }

    #[test]
    fn cbr_latency_is_none_until_a_delivery() {
        let (mut net, l) = one_link_net(1e6, 0.0, 0);
        let id = net.add_cbr(cbr(vec![l], 1e6, 1.0, 1));
        let s = net.cbr_stats(id);
        assert_eq!(
            (s.mean_latency_s(), s.min_latency_s, s.max_latency_s),
            (None, None, None)
        );
        net.run();
        assert_eq!(net.cbr_stats(id).mean_latency_s(), Some(1.0));
    }

    #[test]
    fn events_processed_counts_every_handled_event() {
        // One packet on one link: the pacer releases it, the link finishes
        // serializing it (the receiver completes here), its ACK returns,
        // and its retransmission timer fires stale.
        let (mut net, l) = one_link_net(1e6, 1e-3, 4);
        net.add_windowed(WindowedFlow::new(vec![l], 1e3, 1, 0.0, CcAlgorithm::Aimd));
        assert_eq!(net.events_processed(), 0);
        assert!(net.run_while_incomplete(f64::INFINITY));
        assert_eq!(net.events_processed(), 2, "pace, tx-done");
        net.run();
        assert_eq!(net.events_processed(), 4, "then the ACK and the timeout");
    }

    /// A network whose CBR flows each get their own clock and whose
    /// transmit completions are all pushed.
    fn eager_net() -> CongestionNetwork {
        CongestionNetwork {
            eager: true,
            ..CongestionNetwork::default()
        }
    }

    #[test]
    fn a_shared_clock_costs_one_event_per_instant_and_no_completions() {
        // Two flows of 10 packets, one per link, each packet done before
        // the next emission: every completion settles in place.
        let events = |mut net: CongestionNetwork| {
            let link = CongestionLink::new(1e6, 1e-3, 4);
            let flows: Vec<_> = (0..2)
                .map(|_| {
                    let l = net.add_link(link);
                    net.add_cbr(cbr(vec![l], 1e3, 2e-3, 10))
                })
                .collect();
            net.run();
            let stats = flows
                .iter()
                .map(|&id| net.cbr_stats(id))
                .collect::<Vec<_>>();
            (net.events_processed(), stats)
        };
        let (lazy, lazy_stats) = events(CongestionNetwork::new());
        let (eager, eager_stats) = events(eager_net());
        assert_eq!((lazy, eager), (10, 40), "emissions, then completions");
        assert_eq!(lazy_stats, eager_stats);
        for s in lazy_stats {
            assert_eq!((s.emitted, s.delivered), (10, 10));
            assert_latency(&s, 2e-3);
        }
    }

    #[test]
    fn a_negative_zero_horizon_admits_an_event_at_positive_zero() {
        // `0.0 <= -0.0` on floats, so the key order must agree.
        let (mut net, l) = one_link_net(1e6, 0.0, 4);
        let id = net.add_cbr(cbr(vec![l], 1e3, 1.0, 1));
        net.run_until(-0.0);
        assert_eq!(net.cbr_stats(id).emitted, 1);
    }

    /// `run_until(h)` refuses the next event, at `m > h`, without moving
    /// the queue's floor past `h`, so a flow added afterwards that starts
    /// in `[h, m)` runs before that event.
    #[test]
    fn a_flow_added_after_run_until_runs_before_the_refused_event() {
        // A 1 Mbit packet holds the 1 Mbps link for 1 s; there is no queue.
        let (mut net, l) = one_link_net(1e6, 0.0, 0);
        let one = |start_s| CbrFlow {
            start_s,
            ..cbr(vec![l], 1e6, 1.0, 1)
        };
        let early = net.add_cbr(one(0.0));
        let refused = net.add_cbr(one(3.0));
        net.run_until(2.0);
        assert!(
            net.queue.floor <= time_key(2.0),
            "the refused event moved the floor"
        );
        let added = net.add_cbr(one(2.5));
        net.run();
        // The added packet holds the link from 2.5 s to 3.5 s, so the one
        // emitted at 3 s finds it busy and is dropped.
        for (id, counts) in [(early, (1, 0)), (added, (1, 0)), (refused, (0, 1))] {
            let s = net.cbr_stats(id);
            assert_eq!((s.delivered, s.dropped), counts);
        }
        assert_latency(&net.cbr_stats(added), 1.0);
    }

    /// Timestamps that stress the time key: both zeros, subnormals, the
    /// normal extremes, neighbours one ulp apart, and negatives the engine
    /// never schedules but the key must still order.
    const EDGE_TIMES: [f64; 12] = [
        -f64::MAX,
        -1.0,
        -0.0,
        0.0,
        5e-324,
        2.225_073_858_507_201e-308,
        f64::MIN_POSITIVE,
        1.0,
        1.000_000_000_000_000_2,
        1e300,
        f64::MAX,
        f64::INFINITY,
    ];

    #[test]
    fn time_key_orders_the_edge_times_like_total_cmp() {
        for a in EDGE_TIMES {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits(), "{a:e}");
            for b in EDGE_TIMES {
                assert_eq!(
                    time_key(a).cmp(&time_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    /// An event of the given rank carrying `id` in its first field.
    fn tagged(rank: u8, id: usize) -> Ev {
        match rank {
            0 => Ev::TxDone { link: id },
            1 => Ev::Ack {
                flow: id,
                seq: 0,
                cum: 0,
                marked: false,
            },
            2 => Ev::Timeout {
                flow: id,
                seq: 0,
                txn: 0,
            },
            3 => Ev::Pace { flow: id },
            4 => Ev::Emit { clock: id, k: 0 },
            _ => Ev::Enqueue {
                link: id,
                pkt: Pkt {
                    src: Src::Win(0),
                    seq: 0,
                    hop: 0,
                    marked: false,
                },
            },
        }
    }

    /// The `id` that [`tagged`] put in.
    fn tag(ev: Ev) -> usize {
        match ev {
            Ev::TxDone { link } | Ev::Enqueue { link, .. } => link,
            Ev::Ack { flow, .. } | Ev::Timeout { flow, .. } | Ev::Pace { flow } => flow,
            Ev::Emit { clock, .. } => clock,
        }
    }

    /// Delays after the last popped time in the engine's regime: zero (a
    /// push into the batch being popped), a 48 kB packet's 10 Gbps transmit
    /// time, a 90 %-load CBR interval, a propagation delay and a long one.
    const DELAYS: [f64; 6] = [0.0, 0.0, 3.84e-5, 4.266_666_666_666_667e-5, 3e-3, 0.25];

    /// A completion pushed because a packet queued behind it pops under
    /// the sequence number it reserved when its packet started, so it
    /// still precedes a completion at the same time on another link that
    /// started later. The order shows two hops on, where the packets
    /// started by the two completions meet on one link.
    #[test]
    fn a_completion_pushed_behind_a_queued_packet_keeps_its_reserved_key() {
        let latencies = |mut net: CongestionNetwork| {
            // 1 kbit at 1 Mbps: every transmission takes 1 ms.
            let link = CongestionLink::new(1e6, 0.0, 4);
            let [l1, l2, l3] = [(); 3].map(|_| net.add_link(link));
            let one = |route, start_s| CbrFlow {
                start_s,
                ..cbr(route, 1e3, 1.0, 1)
            };
            // At t = 0 the last-hop packet on l1 defers its completion,
            // then the packet on l2 pushes its own, both due at 1 ms.
            net.add_cbr(one(vec![l1], 0.0));
            net.add_cbr(one(vec![l2, l3], 0.0));
            // At 0.5 ms a packet queues behind each: l1's completion is
            // pushed now, and must still pop first at 1 ms.
            let via_l1 = net.add_cbr(one(vec![l1, l3], 5e-4));
            let via_l2 = net.add_cbr(one(vec![l2, l3], 5e-4));
            net.run();
            [via_l1, via_l2].map(|id| net.cbr_stats(id).max_latency_s)
        };
        let lazy = latencies(CongestionNetwork::new());
        assert_eq!(lazy, latencies(eager_net()));
        // Both leave their first hop at 2 ms; the one from l1 takes l3
        // first and arrives at 3 ms, the other waits for it.
        let [via_l1, via_l2] = lazy.map(|v| v.expect("delivered"));
        assert!((via_l1 - 2.5e-3).abs() < 1e-12, "{via_l1}");
        assert!((via_l2 - 3.5e-3).abs() < 1e-12, "{via_l2}");
    }

    /// Every stat of every flow, `now_s` included, as bits.
    fn output_bits(
        net: &CongestionNetwork,
        cbrs: &[CbrId],
        wins: &[SenderId],
    ) -> (Vec<[u64; 7]>, Vec<[u64; 9]>, u64) {
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        let cbr = cbrs.iter().map(|&id| {
            let s = net.cbr_stats(id);
            [
                s.emitted,
                s.delivered,
                s.dropped,
                s.ecn_marked,
                s.latency_sum_s.to_bits(),
                opt(s.min_latency_s),
                opt(s.max_latency_s),
            ]
        });
        let win = wins.iter().map(|&id| {
            let s = net.windowed_stats(id);
            [
                s.transmissions,
                s.retransmissions,
                s.arrivals,
                s.delivered,
                s.dropped,
                s.ecn_marked,
                opt(s.completion_s),
                s.final_cwnd.to_bits(),
                s.srtt_s.to_bits(),
            ]
        });
        (cbr.collect(), win.collect(), net.now_s.to_bits())
    }

    /// Link rates and packet sizes whose transmit times (0.2–5 ms) meet
    /// the CBR intervals and start offsets exactly, so that completions,
    /// emissions and arrivals tie.
    const RATES: [f64; 3] = [1e6, 2e6, 5e6];
    const PROPS: [f64; 3] = [0.0, 1e-3, 2.5e-3];
    const BITS: [f64; 3] = [1e3, 2e3, 5e3];
    const INTERVALS: [f64; 3] = [1e-3, 1e-3, 2e-3];
    const STARTS: [f64; 3] = [0.0, 0.0, 1e-3];
    const STEPS: [f64; 4] = [0.0, 1e-3, 7e-3, 0.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Shared clocks and deferred completions move no output bit: after
        /// every operation on a random network (CBR flows on 1–3-link
        /// routes, added back to back from a few shared starts and
        /// intervals so that clocks form; AIMD and DCTCP flows; stops by
        /// `run_until`, a zero step included, and by
        /// `run_while_incomplete`; flows added after a stop) and after a
        /// final `run()`, every stat, `now_s` and the completion flag equal
        /// those of the eager engine.
        #[test]
        fn clocks_and_deferred_completions_change_no_bit(
            links in proptest::collection::vec(
                (0_usize..3, 0_usize..3, 0_usize..=9, 0_usize..=19),
                1..=4,
            ),
            ops in proptest::collection::vec(
                (
                    0_u8..6,
                    proptest::collection::vec(0_usize..4, 1..=3),
                    0_usize..3,
                    0_usize..3,
                    0_usize..3,
                    1_u64..=40,
                    0_usize..4,
                ),
                1..=13,
            ),
        ) {
            let (mut lazy, mut eager) = (CongestionNetwork::new(), eager_net());
            for net in [&mut lazy, &mut eager] {
                for &(rate, prop, queue, ecn) in &links {
                    let link = CongestionLink::new(RATES[rate], PROPS[prop], queue);
                    // A threshold above the queue disables marking.
                    net.add_link(if ecn <= queue { link.with_ecn(ecn) } else { link });
                }
            }
            let (mut cbrs, mut wins) = (Vec::new(), Vec::new());
            for (op, route, bits, interval, start, packets, step) in ops {
                let route: Vec<_> = route.iter().map(|&l| CLinkId(l % links.len())).collect();
                // The flow added, or the flag a run call returned.
                let apply = |net: &mut CongestionNetwork| {
                    let start_s = net.now_s + STARTS[start];
                    let horizon = net.now_s + STEPS[step];
                    match op {
                        0..=2 => {
                            let flow = CbrFlow {
                                route: route.clone(),
                                packet_bits: BITS[bits],
                                interval_s: INTERVALS[interval],
                                start_s,
                                packets,
                            };
                            (Some(net.add_cbr(flow)), None, false)
                        }
                        3 => {
                            let algorithm = if step % 2 == 0 {
                                CcAlgorithm::Aimd
                            } else {
                                CcAlgorithm::Dctcp { gain: 0.0625 }
                            };
                            // Short transfers, so that runs stop on their
                            // completion with cross-traffic in flight.
                            let packets = 1 + packets % 12;
                            let flow = WindowedFlow::new(
                                route.clone(), BITS[bits], packets, start_s, algorithm,
                            );
                            (None, Some(net.add_windowed(flow)), false)
                        }
                        4 => (None, None, net.run_until(horizon)),
                        _ => (None, None, net.run_while_incomplete(horizon)),
                    }
                };
                let got = apply(&mut lazy);
                prop_assert_eq!(got, apply(&mut eager));
                cbrs.extend(got.0);
                wins.extend(got.1);
                prop_assert_eq!(
                    output_bits(&lazy, &cbrs, &wins), output_bits(&eager, &cbrs, &wins)
                );
            }
            lazy.run();
            eager.run();
            prop_assert_eq!(
                output_bits(&lazy, &cbrs, &wins), output_bits(&eager, &cbrs, &wins)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Retransmission conservation for the congestion sender: after a
        /// full run every transmission is either delivered to the receiver
        /// or dropped at a queue, every distinct packet is delivered
        /// exactly once, and transmissions split exactly into first
        /// transmissions plus retransmissions.
        #[test]
        fn prop_retransmission_conservation(
            rate_mbps in 1.0_f64..50.0,
            queue in 2_usize..24,
            ecn_raw in 0_usize..32,
            cross_frac in 0.0_f64..1.4,
            packets in 20_u64..300,
            dctcp_raw in 0_u8..2,
        ) {
            let rate = rate_mbps * 1e6;
            let dctcp = dctcp_raw == 1;
            let mut net = CongestionNetwork::new();
            // Upper half of the raw range disables marking.
            let ecn = if ecn_raw < 16 { Some(ecn_raw) } else { None };
            let ecn = ecn.filter(|t| *t <= queue);
            let mut link = CongestionLink::new(rate, 1e-3, queue);
            if let Some(t) = ecn {
                link = link.with_ecn(t);
            }
            let l = net.add_link(link);
            if cross_frac > 0.05 {
                net.add_cbr(CbrFlow::with_load(vec![l], 8e3, cross_frac * rate, 0.0, 240.0));
            }
            let algo = if dctcp {
                CcAlgorithm::Dctcp { gain: 0.0625 }
            } else {
                CcAlgorithm::Aimd
            };
            let mut f = WindowedFlow::new(vec![l], 8e3, packets, 0.0, algo);
            f.init_cwnd = 10.0;
            let id = net.add_windowed(f);
            // Full drain: every in-flight packet resolves to an arrival or
            // a drop, so the conservation identity is exact.
            net.run();
            let s = net.windowed_stats(id);
            prop_assert_eq!(s.delivered, packets, "all distinct packets delivered");
            prop_assert!(s.completion_s.is_some());
            prop_assert_eq!(
                s.transmissions, s.arrivals + s.dropped,
                "each transmission must end delivered or dropped"
            );
            prop_assert_eq!(
                s.transmissions, packets + s.retransmissions,
                "transmissions = first transmissions + retransmissions"
            );
            prop_assert!(s.arrivals >= s.delivered);
        }

        /// Multi-hop: conservation holds per-hop with an interior
        /// bottleneck, and CBR cross-traffic accounting is exact.
        #[test]
        fn prop_multi_hop_retransmission_conservation(
            q_mid in 1_usize..8,
            cross_frac in 0.0_f64..1.2,
            packets in 20_u64..160,
        ) {
            let mut net = CongestionNetwork::new();
            let entry = net.add_link(CongestionLink::new(20e6, 1e-3, 64));
            let mid = net.add_link(CongestionLink::new(4e6, 2e-3, q_mid));
            let exit = net.add_link(CongestionLink::new(20e6, 1e-3, 64));
            let cross = if cross_frac > 0.05 {
                Some(net.add_cbr(CbrFlow::with_load(
                    vec![mid], 8e3, cross_frac * 4e6, 0.0, 600.0,
                )))
            } else {
                None
            };
            let f = WindowedFlow::new(
                vec![entry, mid, exit], 8e3, packets, 0.0, CcAlgorithm::Aimd,
            );
            let id = net.add_windowed(f);
            net.run();
            let s = net.windowed_stats(id);
            prop_assert_eq!(s.delivered, packets);
            prop_assert_eq!(s.transmissions, s.arrivals + s.dropped);
            prop_assert_eq!(s.transmissions, packets + s.retransmissions);
            if let Some(c) = cross {
                let cs = net.cbr_stats(c);
                prop_assert_eq!(cs.emitted, cs.delivered + cs.dropped);
            }
        }

        /// The windowed sender never beats the packetized analytic bound,
        /// whatever the route and the cross-traffic on it.
        #[test]
        fn prop_windowed_never_beats_the_packet_bound(
            hops in proptest::collection::vec((1.0_f64..100.0, 0.0_f64..0.01), 1..=4),
            packets in 1_u64..200,
            cross_frac in 0.0_f64..0.9,
        ) {
            let bits = 8e3;
            let links: Vec<_> = hops
                .iter()
                .map(|&(mbps, delay)| CongestionLink::new(mbps * 1e6, delay, 32))
                .collect();
            let bound = uncontended_packet_transfer_s(bits, packets, &links);
            let mut net = CongestionNetwork::new();
            let route: Vec<_> = links.iter().map(|l| net.add_link(*l)).collect();
            if cross_frac > 0.05 {
                for (&id, l) in route.iter().zip(&links) {
                    let load = cross_frac * l.rate_bps;
                    net.add_cbr(CbrFlow::with_load(vec![id], bits, load, 0.0, 10.0 * bound));
                }
            }
            let id = net.add_windowed(WindowedFlow::new(route, bits, packets, 0.0, CcAlgorithm::Aimd));
            prop_assert!(net.run_while_incomplete(f64::INFINITY));
            let t = net.windowed_stats(id).completion_s.expect("completed");
            prop_assert!(t >= bound - 1e-9, "completion {t} beats the bound {bound}");
        }

        /// Every emitted CBR packet is delivered or dropped exactly once,
        /// and a flow reports latencies exactly when it delivered.
        #[test]
        fn prop_cbr_conservation(
            n1 in 1_u64..200,
            n2 in 1_u64..200,
            rate in 1e6..1e9f64,
            queue in 0_usize..64,
        ) {
            let (mut net, l) = one_link_net(rate, 0.001, queue);
            let flows = vec![
                cbr(vec![l], 1e4, 1e4 / (0.8 * rate), n1),
                cbr(vec![l], 1e4, 1e4 / (0.8 * rate), n2),
            ];
            for (s, n) in run_cbrs(&mut net, flows).iter().zip([n1, n2]) {
                prop_assert_eq!(s.emitted, n);
                prop_assert_eq!(s.delivered + s.dropped, n);
                prop_assert_eq!(s.min_latency_s.is_some(), s.delivered > 0);
            }
        }

        /// Conservation over multi-hop routes with unequal per-link queues
        /// and a guaranteed interior bottleneck: the entry link is
        /// generously buffered and under-subscribed, so every drop happens
        /// at an interior hop.
        #[test]
        fn prop_cbr_conservation_multi_hop(
            n1 in 1_u64..200,
            n2 in 1_u64..200,
            rate in 1e6..1e9f64,
            q_mid in 0_usize..8,
            q_out in 0_usize..64,
            delay in 0.0..0.01f64,
        ) {
            let mut net = CongestionNetwork::new();
            // Entry: ample queue, jointly under-subscribed (0.8 load).
            let entry = net.add_link(CongestionLink::new(rate, delay, 1024));
            // Interior: 4x oversubscribed with a small queue.
            let mid = net.add_link(CongestionLink::new(rate * 0.2, 0.002, q_mid));
            let exit = net.add_link(CongestionLink::new(rate, 0.001, q_out));
            let interval = 1e4 / (0.4 * rate);
            let flows = vec![
                cbr(vec![entry, mid, exit], 1e4, interval, n1),
                cbr(vec![entry, mid], 1e4, interval, n2),
            ];
            let stats = run_cbrs(&mut net, flows);
            for (s, n) in stats.iter().zip([n1, n2]) {
                prop_assert_eq!(s.delivered + s.dropped, n);
                prop_assert_eq!(s.min_latency_s.is_some(), s.delivered > 0);
            }
            // The bottleneck must bite once the emission run is longer
            // than its queue can hide.
            if n1 + n2 > 60 {
                let dropped = stats[0].dropped + stats[1].dropped;
                prop_assert!(dropped > 0, "no interior drops at {} packets", n1 + n2);
            }
        }

        /// Latency lies between the serialization + propagation floor and
        /// the full-queue ceiling.
        #[test]
        fn prop_cbr_latency_bounds(load in 0.1..1.5f64, queue in 1_usize..32) {
            let (rate, bits) = (1e8, 1e4);
            let (mut net, l) = one_link_net(rate, 0.002, queue);
            let s = run_cbrs(&mut net, vec![cbr(vec![l], bits, bits / (rate * load), 200)])[0];
            let floor = bits / rate + 0.002;
            let ceiling = floor + (queue as f64 + 1.0) * bits / rate;
            prop_assert!(s.min_latency_s.expect("first packet delivered") >= floor - 1e-12);
            prop_assert!(s.max_latency_s.expect("first packet delivered") <= ceiling + 1e-9);
        }

        /// A link offered at least its capacity, with room for every
        /// packet, never idles: the last packet arrives after exactly the
        /// total serialization work plus one propagation delay.
        #[test]
        fn prop_saturated_link_is_work_conserving(
            packets in 1_u64..300,
            rate in 1e6..1e9f64,
            overload in 1.0..4.0f64,
        ) {
            let bits = 1e4;
            let interval = bits / (rate * overload);
            let (mut net, l) = one_link_net(rate, 0.001, packets as usize);
            let s = run_cbrs(&mut net, vec![cbr(vec![l], bits, interval, packets)])[0];
            prop_assert_eq!(s.delivered, packets);
            // Under overload a FIFO link's latency grows with k, so the
            // last packet's latency is the largest.
            let last_arrival =
                s.max_latency_s.expect("delivered") + (packets - 1) as f64 * interval;
            let work = packets as f64 * bits / rate;
            prop_assert!((last_arrival - (work + 0.001)).abs() < 1e-9 * work.max(1.0));
        }

        /// Random pushes interleaved with pops come out in the order of a
        /// sort by `(time.total_cmp, rank, seq)`, ties of every kind
        /// included, and freed pool slots are reused.
        #[test]
        fn prop_scheduler_pops_in_time_rank_seq_order(
            ops in proptest::collection::vec(
                (0_u8..4, 0_usize..EDGE_TIMES.len() + 3, 0_u64..u64::MAX, 0_u8..6),
                1..300,
            ),
        ) {
            let mut queue = EventQueue::default();
            // (time, rank, seq) of the pending events; seq doubles as the tag.
            let mut pending: Vec<(f64, u8, usize)> = Vec::new();
            let mut most_pending = 0;
            let pop = |queue: &mut EventQueue, pending: &mut Vec<(f64, u8, usize)>| {
                pending.sort_by(|a, b| {
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                });
                let want = (!pending.is_empty()).then(|| pending.remove(0));
                let got = queue.pop_until(u64::MAX).map(|(t, ev)| (t, ev.rank(), tag(ev)));
                let bits = |e: Option<(f64, u8, usize)>| e.map(|(t, r, s)| (t.to_bits(), r, s));
                (bits(got), bits(want))
            };
            for (seq, &(op, pick, raw, rank)) in ops.iter().enumerate() {
                if op == 0 {
                    let (got, want) = pop(&mut queue, &mut pending);
                    prop_assert_eq!(got, want);
                    continue;
                }
                let time = match EDGE_TIMES.get(pick) {
                    // The engine never schedules an infinite time.
                    Some(t) if t.is_finite() => *t,
                    Some(_) => 1.0,
                    None if f64::from_bits(raw).is_finite() => f64::from_bits(raw),
                    None => 0.5,
                };
                queue.push(time, tagged(rank, seq));
                pending.push((time, rank, seq));
                most_pending = most_pending.max(pending.len());
            }
            while !pending.is_empty() {
                let (got, want) = pop(&mut queue, &mut pending);
                prop_assert_eq!(got, want);
            }
            prop_assert!(queue.pop_until(u64::MAX).is_none());
            prop_assert_eq!(queue.pool.len(), most_pending);
            prop_assert_eq!(queue.popped(), queue.next_seq);
        }

        /// The engine's own regime: each step pushes up to 64 exact ties of
        /// mixed rank at one instant at or after the last popped time (on it
        /// when the delay is zero, into a batch that may be half popped),
        /// then pops part of the way. Pops come out in the order of a sort
        /// by `(time, rank, seq)`.
        #[test]
        fn prop_monotone_pushes_pop_in_time_rank_seq_order(
            steps in proptest::collection::vec(
                (
                    0_usize..DELAYS.len(),
                    proptest::collection::vec(0_u8..6, 1..=64),
                    0_usize..=96,
                ),
                1..48,
            ),
        ) {
            let mut queue = EventQueue::default();
            // (time bits, rank, seq) of the pending events: every time is
            // non-negative, so its bits sort like the time.
            let mut pending = std::collections::BTreeSet::new();
            let pop = |queue: &mut EventQueue| {
                queue.pop_until(u64::MAX).map(|(t, ev)| (t.to_bits(), ev.rank(), tag(ev)))
            };
            let (mut now, mut seq) = (0.0_f64, 0);
            for (delay, ranks, pops) in steps {
                let at = now + DELAYS[delay];
                for rank in ranks {
                    queue.push(at, tagged(rank, seq));
                    pending.insert((at.to_bits(), rank, seq));
                    seq += 1;
                }
                for _ in 0..pops.min(pending.len()) {
                    let got = pop(&mut queue);
                    prop_assert_eq!(got, pending.pop_first());
                    now = f64::from_bits(got.expect("pending event").0);
                }
            }
            while let Some(want) = pending.pop_first() {
                prop_assert_eq!(pop(&mut queue), Some(want));
            }
            prop_assert!(queue.pop_until(u64::MAX).is_none());
        }

        /// The time key is monotone in `f64::total_cmp` and exactly
        /// invertible over arbitrary finite times, neighbours one ulp apart
        /// included.
        #[test]
        fn prop_time_key_is_monotone_and_invertible(a in 0_u64..u64::MAX, b in 0_u64..u64::MAX) {
            let (x, y, next) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(a ^ 1));
            prop_assume!(x.is_finite() && y.is_finite() && next.is_finite());
            prop_assert_eq!(key_time(time_key(x)).to_bits(), a);
            prop_assert_eq!(time_key(x).cmp(&time_key(y)), x.total_cmp(&y));
            prop_assert_eq!(time_key(x).cmp(&time_key(next)), x.total_cmp(&next));
        }

        /// `run_until(h)` processes an event at exactly `h` and leaves one
        /// an ulp later pending.
        #[test]
        fn prop_run_until_includes_the_horizon_and_not_the_next_ulp(
            bits in 0_u64..f64::MAX.to_bits(),
        ) {
            let horizon = f64::from_bits(bits);
            let (mut net, l) = one_link_net(1e6, 0.0, 4);
            let one = |start_s| CbrFlow { start_s, ..cbr(vec![l], 1e3, 1.0, 1) };
            let at = net.add_cbr(one(horizon));
            let after = net.add_cbr(one(f64::from_bits(bits + 1)));
            net.run_until(horizon);
            prop_assert_eq!(net.cbr_stats(at).emitted, 1);
            prop_assert_eq!(net.cbr_stats(after).emitted, 0);
            prop_assert_eq!(net.now_s.to_bits(), bits);
        }
    }
}
