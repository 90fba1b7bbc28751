//! `pckpt-simobs` — structured observability for the simulation stack.
//!
//! Three layers, each independently usable:
//!
//! 1. **Event recorder** ([`Recorder`]): a fixed-capacity ring that
//!    captures flow-wave completions, protocol transitions, failures and
//!    recoveries with sim-time, in every build, whenever a ring is
//!    installed; the campaign path installs none and pays one inlined
//!    check per hook. The `trace` cargo feature adds the queue's event
//!    pops and schedules and the *causal parent id* they give
//!    every record; without it each record's parent is [`NO_PARENT`].
//! 2. **Per-run metrics** ([`RunObs`], [`ObsAggregate`]): always-on,
//!    fixed-size counters and power-of-two-bucket histograms (queue
//!    depth, events per run, checkpoint latency per level,
//!    recomputation). No heap, no branches beyond the bucket index —
//!    cheap enough for the steady-state campaign path.
//! 3. **Exporters**: Chrome-trace/Perfetto JSON for a single recording
//!    ([`Recording::to_chrome_trace`]) and causal diffing of two
//!    recordings ([`diff_report`]) that turns "campaign digest mismatch"
//!    into "these two runs first diverged *here*".
//!
//! [`json`] is the one JSON writer every report line goes through, here
//! and in the crates above (the grid and service metadata, `CELL_JSON`).
//!
//! The crate deliberately has no dependencies (not even on `desim`):
//! sim-time crosses the boundary as raw nanoseconds, so any layer of the
//! stack can report into it without cycles.

use std::sync::{Arc, Mutex};

pub mod json;

use json::{Arr, Fixed, Obj, Seq, Writer};

/// Sentinel parent id for records with no causal parent (e.g. the events
/// scheduled before the simulation loop starts).
pub const NO_PARENT: u64 = u64::MAX;

/// Record kind codes. Stable across runs and feature settings — they are
/// folded into trace digests, so renumbering invalidates goldens. Code 3
/// named a cancelled event while the queue could cancel; it stays unused.
pub mod kind {
    /// An event was popped from the queue and dispatched.
    pub const POP: u16 = 1;
    /// An event was scheduled (`a` = event id).
    pub const SCHED: u16 = 2;
    /// A fluid-flow transfer completed (`a` = transfer id, `b` = bytes
    /// as `f64::to_bits`).
    pub const FLOW_WAVE: u16 = 4;
    /// The C/R state machine moved (`a` = state code).
    pub const STATE: u16 = 5;
    /// A failure prediction was delivered (`a` = [`node_flag`]`(node,
    /// genuine)`, `b` = lead seconds as `f64::to_bits`).
    pub const PREDICTION: u16 = 6;
    /// Live migration started (`a` = node).
    pub const LM_START: u16 = 7;
    /// Live migration committed (`a` = node).
    pub const LM_COMMIT: u16 = 8;
    /// Live migration aborted in favour of p-ckpt (`a` = node).
    pub const LM_ABORT: u16 = 9;
    /// A p-ckpt round opened.
    pub const ROUND_START: u16 = 10;
    /// A vulnerable node's phase-1 commit landed (`a` = node).
    pub const PHASE1_COMMIT: u16 = 11;
    /// The round's phase-2 collective commit finished.
    pub const ROUND_COMPLETE: u16 = 12;
    /// A safeguard commit started.
    pub const SAFEGUARD_START: u16 = 13;
    /// The safeguard commit finished.
    pub const SAFEGUARD_DONE: u16 = 14;
    /// A periodic checkpoint reached the burst buffers.
    pub const BB_CKPT: u16 = 15;
    /// An asynchronous drain made a checkpoint PFS-durable.
    pub const DRAIN_DONE: u16 = 16;
    /// A failure arrived (`a` = [`node_flag`]`(node, mitigated)`).
    pub const FAILURE: u16 = 17;
    /// Recovery began (`b` = lost work seconds as `f64::to_bits`).
    pub const RECOVERY_START: u16 = 18;
    /// Recovery finished.
    pub const RECOVERY_DONE: u16 = 19;
    /// The application completed.
    pub const COMPLETE: u16 = 20;

    /// The `a` payload of [`PREDICTION`] and [`FAILURE`] records: the
    /// node in the low 32 bits, `flag` (genuine, mitigated) above them.
    #[inline]
    pub fn node_flag(node: u32, flag: bool) -> u64 {
        u64::from(node) | (u64::from(flag) << 32)
    }

    /// Splits a [`node_flag`] payload back into `(node, flag)`.
    pub fn split_node_flag(a: u64) -> (u32, bool) {
        (a as u32, a >> 32 == 1)
    }

    /// Human-readable name for a kind code.
    pub fn name(k: u16) -> &'static str {
        match k {
            POP => "pop",
            SCHED => "sched",
            FLOW_WAVE => "flow_wave",
            STATE => "state",
            PREDICTION => "prediction",
            LM_START => "lm_start",
            LM_COMMIT => "lm_commit",
            LM_ABORT => "lm_abort",
            ROUND_START => "round_start",
            PHASE1_COMMIT => "phase1_commit",
            ROUND_COMPLETE => "round_complete",
            SAFEGUARD_START => "safeguard_start",
            SAFEGUARD_DONE => "safeguard_done",
            BB_CKPT => "bb_ckpt",
            DRAIN_DONE => "drain_done",
            FAILURE => "failure",
            RECOVERY_START => "recovery_start",
            RECOVERY_DONE => "recovery_done",
            COMPLETE => "complete",
            _ => "unknown",
        }
    }
}

/// One recorded occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Sim-time, nanoseconds.
    pub t: u64,
    /// Monotone sequence number within the recording (0-based). Also the
    /// causal id other records' `parent` fields refer to.
    pub seq: u64,
    /// Causal parent: the `seq` of the record that caused this one
    /// (the pop being handled when it was emitted; for a pop, the sched
    /// that enqueued it). [`NO_PARENT`] at the causal roots.
    pub parent: u64,
    /// What happened — a [`kind`] code.
    pub kind: u16,
    /// Kind-specific payload (event id, node, transfer id, ...).
    pub a: u64,
    /// Kind-specific payload (bytes/seconds as `f64::to_bits`, flags).
    pub b: u64,
}

/// A finished recording: the ring's contents, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    /// Records in `seq` order. When the ring overflowed, this is the
    /// *prefix* of the stream (divergence hunting wants the earliest
    /// difference, so the ring keeps first and drops late).
    pub records: Vec<Record>,
    /// Number of records dropped after the ring filled.
    pub dropped: u64,
}

impl Recording {
    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// FNV-1a digest over every retained record and the drop count.
    /// Stable across platforms; used by the trace-determinism goldens.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for r in &self.records {
            fold(r.t);
            fold(r.seq);
            fold(r.parent);
            fold(r.kind as u64);
            fold(r.a);
            fold(r.b);
        }
        fold(self.dropped);
        h
    }

    /// [`Recording::digest`] as a 16-hex-digit string.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Serializes the recording as one line of Chrome-trace JSON
    /// (instant events, microsecond timestamps). Load in
    /// `chrome://tracing` or [ui.perfetto.dev](https://ui.perfetto.dev).
    pub fn to_chrome_trace(&self, label: &str) -> String {
        let process = Obj(|m| {
            m.field("ph", "M").field("pid", 1u64).field("tid", 1u64);
            let args = Obj(|a| {
                a.field("name", label);
            });
            m.field("name", "process_name").field("args", args);
        });
        let events = Arr(|events| {
            events.item(process);
            for r in &self.records {
                let parent = if r.parent == NO_PARENT {
                    -1
                } else {
                    r.parent as i64
                };
                let args = Obj(|a| {
                    a.field("seq", r.seq).field("parent", parent);
                    a.field("a", r.a).field("b", r.b);
                });
                events.item(Obj(|e| {
                    e.field("ph", "i").field("pid", 1u64).field("tid", 1u64);
                    e.field("s", "t");
                    e.field("ts", Fixed(r.t as f64 / 1_000.0, 3));
                    e.field("name", kind::name(r.kind)).field("args", args);
                }));
            }
        });
        let mut s = String::new();
        json::object(&mut s, |top| {
            top.field("displayTimeUnit", "ms");
            top.field("traceEvents", events);
        });
        s.push('\n');
        s
    }

    /// First index at which two recordings disagree, with both sides'
    /// records (`None` = that recording ended first). `None` when the
    /// streams are identical.
    pub fn first_divergence(&self, other: &Recording) -> Option<Divergence> {
        let n = self.records.len().min(other.records.len());
        for i in 0..n {
            if self.records[i] != other.records[i] {
                return Some(Divergence {
                    index: i,
                    left: Some(self.records[i]),
                    right: Some(other.records[i]),
                });
            }
        }
        if self.records.len() != other.records.len() {
            return Some(Divergence {
                index: n,
                left: self.records.get(n).copied(),
                right: other.records.get(n).copied(),
            });
        }
        None
    }

    /// The record with causal id `seq`, if retained.
    pub fn by_seq(&self, seq: u64) -> Option<&Record> {
        // seq assignment is dense from 0, so the ring prefix is indexable.
        self.records.get(seq as usize).filter(|r| r.seq == seq)
    }
}

/// Outcome of aligning two recordings: the first position where the
/// streams disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Position in the aligned streams (also the causal id, as both
    /// streams agree on everything before it).
    pub index: usize,
    /// The first stream's record at `index` (`None` = stream ended).
    pub left: Option<Record>,
    /// The second stream's record at `index`.
    pub right: Option<Record>,
}

fn render_record(r: &Record, rec: &Recording) -> String {
    let parent = if r.parent == NO_PARENT {
        "  (causal root)".to_string()
    } else {
        match rec.by_seq(r.parent) {
            Some(p) => format!(
                "  caused by #{} {} @ {:.6}s",
                p.seq,
                kind::name(p.kind),
                p.t as f64 / 1e9
            ),
            None => format!("  caused by #{} (dropped from ring)", r.parent),
        }
    };
    format!(
        "#{seq} {name} @ {t:.6}s  a={a} b={b}\n{parent}",
        seq = r.seq,
        name = kind::name(r.kind),
        t = r.t as f64 / 1e9,
        a = r.a,
        b = r.b,
    )
}

/// Renders a human-readable report of the first divergence between two
/// recordings, with sim-times and causal parents on both sides. `None`
/// when the streams are identical.
pub fn diff_report(
    (label_a, a): (&str, &Recording),
    (label_b, b): (&str, &Recording),
) -> Option<String> {
    let d = a.first_divergence(b)?;
    let mut out = format!(
        "streams agree on the first {} event(s), then diverge:\n",
        d.index
    );
    for (label, side, rec) in [(label_a, d.left, a), (label_b, d.right, b)] {
        out.push_str(&format!("--- {label} ---\n"));
        match side {
            Some(r) => out.push_str(&format!("{}\n", render_record(&r, rec))),
            None => out.push_str("(stream ended)\n"),
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Recorder: the ring, compiled in every build.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Ring {
    rec: Recording,
    capacity: usize,
    seq: u64,
    /// Causal id of the pop currently being dispatched.
    current: u64,
    /// Event id → causal id of the record that scheduled it.
    sched_parent: Vec<u64>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            rec: Recording::default(),
            capacity,
            seq: 0,
            current: NO_PARENT,
            sched_parent: Vec::new(),
        }
    }

    fn record(&mut self, t: u64, parent: u64, kind: u16, a: u64, b: u64) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        if self.rec.records.len() < self.capacity {
            self.rec.records.push(Record {
                t,
                seq,
                parent,
                kind,
                a,
                b,
            });
        } else {
            self.rec.dropped += 1;
        }
        seq
    }

    /// Empties the ring and re-arms it, returning what it held.
    fn take(&mut self) -> Recording {
        self.seq = 0;
        self.current = NO_PARENT;
        self.sched_parent.clear();
        std::mem::take(&mut self.rec)
    }
}

/// Shared handle to one recording ring, or to none (the default, which
/// records nothing). Cloning shares the ring, so the queue, the flow link
/// and the C/R model all feed one causally ordered stream.
/// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>` because it rides inside
/// `Send` closures (the flow link's capacity function); the lock is
/// uncontended — one sim thread per ring.
///
/// Domain records ([`emit`](Self::emit)) are kept whenever a ring is
/// installed. The queue's own records — [`on_pop`](Self::on_pop) and
/// [`on_sched`](Self::on_sched) — and the causal parents they set are
/// compiled in only under the `trace` feature; without it those hooks
/// are empty and every record carries parent [`NO_PARENT`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Ring>>>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder retaining the first `capacity` records.
    pub fn enabled(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Ring::new(capacity)))),
        }
    }

    /// True when records are being retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the ring, if one is installed.
    fn with(&self, f: impl FnOnce(&mut Ring)) {
        if let Some(ring) = &self.inner {
            f(&mut ring.lock().expect("simobs ring poisoned"));
        }
    }

    /// An event was popped for dispatch. Its causal parent is the
    /// record that scheduled it; subsequent emissions hang off it.
    /// Recorded only under the `trace` feature.
    #[inline(always)]
    pub fn on_pop(&self, t: u64, id: u64) {
        if cfg!(feature = "trace") {
            self.with(|g| {
                let parent = g
                    .sched_parent
                    .get(id as usize)
                    .copied()
                    .unwrap_or(NO_PARENT);
                let seq = g.record(t, parent, kind::POP, id, 0);
                g.current = seq;
            });
        }
    }

    /// An event was scheduled (during the current pop, if any).
    /// Recorded only under the `trace` feature.
    #[inline(always)]
    pub fn on_sched(&self, t: u64, id: u64) {
        if cfg!(feature = "trace") {
            self.with(|g| {
                let parent = g.current;
                let seq = g.record(t, parent, kind::SCHED, id, 0);
                let idx = id as usize;
                if g.sched_parent.len() <= idx {
                    g.sched_parent.resize(idx + 1, NO_PARENT);
                }
                g.sched_parent[idx] = seq;
            });
        }
    }

    /// A domain event (protocol transition, flow wave, failure, ...)
    /// occurred inside the current pop.
    ///
    /// Only the ring check is inlined into the call site; recording is
    /// an out-of-line call taking the payload in registers, so the
    /// campaign path, which installs no ring, keeps its handlers small.
    #[inline]
    pub fn emit(&self, t: u64, kind: u16, a: u64, b: u64) {
        #[cold]
        #[inline(never)]
        fn emit_locked(ring: &Mutex<Ring>, t: u64, kind: u16, a: u64, b: u64) {
            let mut g = ring.lock().expect("simobs ring poisoned");
            let parent = g.current;
            g.record(t, parent, kind, a, b);
        }
        if let Some(ring) = &self.inner {
            emit_locked(ring, t, kind, a, b);
        }
    }

    /// Discards everything recorded so far and re-arms the ring.
    pub fn clear(&self) {
        self.with(|g| {
            g.take();
        });
    }

    /// Takes the recording out, leaving an empty re-armed ring.
    pub fn take(&self) -> Recording {
        let mut out = Recording::default();
        self.with(|g| out = g.take());
        out
    }
}

// ---------------------------------------------------------------------------
// Always-on per-run metrics.
// ---------------------------------------------------------------------------

/// Power-of-two-bucket histogram with a fixed footprint (no heap).
///
/// Bucket 0 counts zero values; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. 64 buckets cover the full `u64` range, so
/// nanosecond latencies from sub-microsecond to centuries all land
/// without saturating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedHist {
    buckets: [u64; 64],
    sum: u128,
}

impl Default for FixedHist {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            sum: 0,
        }
    }
}

impl FixedHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(63)
        };
        self.buckets[idx] += 1;
        self.sum += v as u128;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observations (u128: 64-bit values over long campaigns
    /// would overflow a u64 sum).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &FixedHist) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.sum += other.sum;
    }

    /// Appends the histogram's wire encoding to `out`: a one-byte count
    /// of non-empty buckets, then strictly ascending `(index u8,
    /// count u64 LE)` pairs, then the `u128` LE sum. Sparse because the
    /// service's cell records carry four of these per run and most runs
    /// populate a handful of buckets.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let n = self.buckets.iter().filter(|&&b| b != 0).count() as u8;
        out.push(n);
        for (i, &b) in self.buckets.iter().enumerate() {
            if b != 0 {
                out.push(i as u8);
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.sum.to_le_bytes());
    }

    /// Decodes an [`encode_into`](Self::encode_into) encoding starting at
    /// `bytes[*pos]`, advancing `*pos` past it. Rejects truncated input
    /// and non-canonical bucket lists (out-of-range or non-ascending
    /// indices), so a decoded histogram re-encodes to identical bytes.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<Self, String> {
        let mut hist = FixedHist::new();
        hist.decode_into(bytes, pos)?;
        Ok(hist)
    }

    /// [`decode_from`](Self::decode_from) into `self`, overwriting its
    /// previous contents — lets a hot decode loop reuse one histogram
    /// instead of moving a fresh one out per call. On error the
    /// contents are unspecified.
    pub fn decode_into(&mut self, bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        let take = |pos: &mut usize, n: usize| -> Result<usize, String> {
            let at = *pos;
            if bytes.len() - at.min(bytes.len()) < n {
                return Err(format!("histogram truncated at byte {at}"));
            }
            *pos = at + n;
            Ok(at)
        };
        self.buckets = [0; 64];
        let at = take(pos, 1)?;
        let n = bytes[at] as usize;
        let mut prev: Option<usize> = None;
        for _ in 0..n {
            let at = take(pos, 1)?;
            let idx = bytes[at] as usize;
            if idx >= 64 || prev.is_some_and(|p| idx <= p) {
                return Err(format!("non-canonical histogram bucket index {idx}"));
            }
            prev = Some(idx);
            let at = take(pos, 8)?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[at..at + 8]);
            let count = u64::from_le_bytes(raw);
            if count == 0 {
                return Err(format!("empty bucket {idx} in sparse histogram"));
            }
            self.buckets[idx] = count;
        }
        let at = take(pos, 16)?;
        let mut raw = [0u8; 16];
        raw.copy_from_slice(&bytes[at..at + 16]);
        self.sum = u128::from_le_bytes(raw);
        Ok(())
    }

    /// Writes `"count":..,"mean":..,"buckets":[[i,n],..]` (sparse: only
    /// non-empty buckets) into the open object `o`.
    fn write_json(&self, o: &mut Writer) {
        o.field("count", self.count())
            .field("mean", Fixed(self.mean(), 1));
        let buckets = self.buckets.iter().enumerate().filter(|(_, &n)| n != 0);
        o.field("buckets", Seq(buckets.map(|(i, &n)| Seq([i as u64, n]))));
    }
}

/// Fixed-size per-run observability snapshot. Lives inside `RunResult`;
/// contains no heap storage, so producing one in the campaign steady
/// state allocates nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunObs {
    /// Events dispatched by the engine during the run.
    pub events_handled: u64,
    /// Events scheduled during the run (≥ handled: events due after the
    /// run ends never pop).
    pub events_scheduled: u64,
    /// High-water mark of pending events in the queue.
    pub queue_depth_hwm: u64,
    /// Burst-buffer checkpoint commit latency, nanoseconds.
    pub lat_bb: FixedHist,
    /// p-ckpt phase-1 (single vulnerable node → PFS) latency, ns.
    pub lat_phase1: FixedHist,
    /// Full-PFS commit latency (safeguards and phase-2 rounds), ns.
    pub lat_pfs_full: FixedHist,
    /// Recomputation per recovery, nanoseconds of lost work.
    pub recomp: FixedHist,
}

impl RunObs {
    /// Zeroes every counter and histogram in place (arena reuse).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Appends the snapshot's wire encoding to `out`: the three counters
    /// as `u64` LE, then the four histograms via
    /// [`FixedHist::encode_into`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.events_handled.to_le_bytes());
        out.extend_from_slice(&self.events_scheduled.to_le_bytes());
        out.extend_from_slice(&self.queue_depth_hwm.to_le_bytes());
        self.lat_bb.encode_into(out);
        self.lat_phase1.encode_into(out);
        self.lat_pfs_full.encode_into(out);
        self.recomp.encode_into(out);
    }

    /// Decodes an [`encode_into`](Self::encode_into) encoding starting at
    /// `bytes[*pos]`, advancing `*pos` past it. Errors on truncation.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<Self, String> {
        let word = |pos: &mut usize| -> Result<u64, String> {
            let at = *pos;
            if bytes.len() - at.min(bytes.len()) < 8 {
                return Err(format!("run snapshot truncated at byte {at}"));
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[at..at + 8]);
            *pos = at + 8;
            Ok(u64::from_le_bytes(raw))
        };
        Ok(RunObs {
            events_handled: word(pos)?,
            events_scheduled: word(pos)?,
            queue_depth_hwm: word(pos)?,
            lat_bb: FixedHist::decode_from(bytes, pos)?,
            lat_phase1: FixedHist::decode_from(bytes, pos)?,
            lat_pfs_full: FixedHist::decode_from(bytes, pos)?,
            recomp: FixedHist::decode_from(bytes, pos)?,
        })
    }

    /// [`decode_from`](Self::decode_from) into `self`, overwriting its
    /// previous contents (reusable-buffer form; see
    /// [`FixedHist::decode_into`]). On error the contents are
    /// unspecified.
    pub fn decode_into(&mut self, bytes: &[u8], pos: &mut usize) -> Result<(), String> {
        let word = |pos: &mut usize| -> Result<u64, String> {
            let at = *pos;
            if bytes.len() - at.min(bytes.len()) < 8 {
                return Err(format!("run snapshot truncated at byte {at}"));
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[at..at + 8]);
            *pos = at + 8;
            Ok(u64::from_le_bytes(raw))
        };
        self.events_handled = word(pos)?;
        self.events_scheduled = word(pos)?;
        self.queue_depth_hwm = word(pos)?;
        self.lat_bb.decode_into(bytes, pos)?;
        self.lat_phase1.decode_into(bytes, pos)?;
        self.lat_pfs_full.decode_into(bytes, pos)?;
        self.recomp.decode_into(bytes, pos)
    }
}

/// Campaign-level reduction of [`RunObs`] values: counters sum,
/// histograms merge, the queue high-water mark takes the max.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsAggregate {
    /// Runs folded in.
    pub runs: u64,
    /// Total events dispatched across runs.
    pub events_handled: u64,
    /// Total events scheduled across runs.
    pub events_scheduled: u64,
    /// Max queue depth observed in any run.
    pub queue_depth_hwm: u64,
    /// Merged burst-buffer commit latencies, ns.
    pub lat_bb: FixedHist,
    /// Merged phase-1 commit latencies, ns.
    pub lat_phase1: FixedHist,
    /// Merged full-PFS commit latencies, ns.
    pub lat_pfs_full: FixedHist,
    /// Merged recomputation amounts, ns.
    pub recomp: FixedHist,
}

impl ObsAggregate {
    /// Folds one run's snapshot in.
    pub fn push(&mut self, o: &RunObs) {
        self.runs += 1;
        self.events_handled += o.events_handled;
        self.events_scheduled += o.events_scheduled;
        self.queue_depth_hwm = self.queue_depth_hwm.max(o.queue_depth_hwm);
        self.lat_bb.merge(&o.lat_bb);
        self.lat_phase1.merge(&o.lat_phase1);
        self.lat_pfs_full.merge(&o.lat_pfs_full);
        self.recomp.merge(&o.recomp);
    }

    /// Merges another aggregate (parallel reduction).
    pub fn merge(&mut self, other: &ObsAggregate) {
        self.runs += other.runs;
        self.events_handled += other.events_handled;
        self.events_scheduled += other.events_scheduled;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.lat_bb.merge(&other.lat_bb);
        self.lat_phase1.merge(&other.lat_phase1);
        self.lat_pfs_full.merge(&other.lat_pfs_full);
        self.recomp.merge(&other.recomp);
    }

    /// Merges any number of aggregates into one (the grid-wide rollup a
    /// campaign sweep reports alongside its per-cell aggregates).
    pub fn merge_all<'a, I>(parts: I) -> ObsAggregate
    where
        I: IntoIterator<Item = &'a ObsAggregate>,
    {
        let mut out = ObsAggregate::default();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Mean events dispatched per run.
    pub fn events_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.events_handled as f64 / self.runs as f64
        }
    }

    /// One-line JSON document (the payload of the `METRICS_JSON` lines
    /// the experiment bins print; `scripts/bench.sh` folds these into
    /// its snapshot). Histogram values are nanoseconds; buckets are
    /// `[log2-index, count]` pairs with bucket `i` covering
    /// `[2^(i-1), 2^i)` ns.
    pub fn to_json(&self, name: &str) -> String {
        let mut s = String::new();
        json::object(&mut s, |o| {
            o.field("name", name)
                .field("runs", self.runs)
                .field("events_handled", self.events_handled)
                .field("events_scheduled", self.events_scheduled)
                .field("events_per_run", Fixed(self.events_per_run(), 1))
                .field("queue_depth_hwm", self.queue_depth_hwm);
            for (key, hist) in [
                ("lat_bb_ns", &self.lat_bb),
                ("lat_phase1_ns", &self.lat_phase1),
                ("lat_pfs_full_ns", &self.lat_pfs_full),
                ("recomp_ns", &self.recomp),
            ] {
                o.field(key, Obj(|h| hist.write_json(h)));
            }
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_bucket_edges() {
        let mut h = FixedHist::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1: [1, 2)
        h.record(2); // bucket 2: [2, 4)
        h.record(3); // bucket 2
        h.record(4); // bucket 3: [4, 8)
        h.record(u64::MAX); // clamped into bucket 63
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[63], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn hist_mean_and_merge() {
        let mut a = FixedHist::new();
        a.record(10);
        a.record(30);
        assert_eq!(a.mean(), 20.0);
        let mut b = FixedHist::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 140);
        assert_eq!(FixedHist::new().mean(), 0.0);
    }

    #[test]
    fn obs_aggregate_folds_counters_and_hwm() {
        let mut run = RunObs::default();
        run.events_handled = 10;
        run.events_scheduled = 12;
        run.queue_depth_hwm = 4;
        run.lat_bb.record(1_000);
        let mut agg = ObsAggregate::default();
        agg.push(&run);
        run.queue_depth_hwm = 2;
        agg.push(&run);
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.events_handled, 20);
        assert_eq!(agg.queue_depth_hwm, 4);
        assert_eq!(agg.lat_bb.count(), 2);

        let mut other = ObsAggregate::default();
        run.queue_depth_hwm = 9;
        other.push(&run);
        agg.merge(&other);
        assert_eq!(agg.runs, 3);
        assert_eq!(agg.queue_depth_hwm, 9);
    }

    #[test]
    fn obs_reset_zeroes_everything() {
        let mut run = RunObs::default();
        run.events_handled = 7;
        run.recomp.record(55);
        run.reset();
        assert_eq!(run, RunObs::default());
    }

    #[test]
    fn aggregate_json_is_single_line_and_sparse() {
        let mut run = RunObs::default();
        run.events_handled = 3;
        run.lat_phase1.record(1_500);
        let mut agg = ObsAggregate::default();
        agg.push(&run);
        let j = agg.to_json("unit");
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"name\":\"unit\""));
        assert!(j.contains("\"events_handled\":3"));
        // 1500 ns lands in bucket 11 ([1024, 2048)).
        assert!(j.contains("\"lat_phase1_ns\":{\"count\":1,\"mean\":1500.0,\"buckets\":[[11,1]]}"));
        // Empty histograms serialize as empty bucket lists.
        assert!(j.contains("\"recomp_ns\":{\"count\":0,\"mean\":0.0,\"buckets\":[]}"));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.on_pop(5, 1);
        r.on_sched(5, 2);
        r.emit(6, kind::BB_CKPT, 0, 0);
        assert!(r.take().is_empty());
    }

    #[test]
    fn digest_distinguishes_recordings() {
        let mk = |t: u64| Recording {
            records: vec![Record {
                t,
                seq: 0,
                parent: NO_PARENT,
                kind: kind::POP,
                a: 1,
                b: 0,
            }],
            dropped: 0,
        };
        assert_eq!(mk(5).digest(), mk(5).digest());
        assert_ne!(mk(5).digest(), mk(6).digest());
        assert_ne!(Recording::default().digest(), mk(5).digest());
    }

    #[test]
    fn first_divergence_finds_field_and_length_differences() {
        let base = |kinds: &[u16]| Recording {
            records: kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| Record {
                    t: i as u64 * 10,
                    seq: i as u64,
                    parent: NO_PARENT,
                    kind: k,
                    a: 0,
                    b: 0,
                })
                .collect(),
            dropped: 0,
        };
        let a = base(&[kind::POP, kind::BB_CKPT, kind::COMPLETE]);
        assert!(a.first_divergence(&a.clone()).is_none());

        let b = base(&[kind::POP, kind::FAILURE, kind::COMPLETE]);
        let d = a.first_divergence(&b).expect("differs");
        assert_eq!(d.index, 1);
        assert_eq!(d.left.unwrap().kind, kind::BB_CKPT);
        assert_eq!(d.right.unwrap().kind, kind::FAILURE);

        let short = base(&[kind::POP]);
        let d = a.first_divergence(&short).expect("length differs");
        assert_eq!(d.index, 1);
        assert!(d.right.is_none());

        let report = diff_report(("a", &a), ("b", &b)).expect("report");
        assert!(report.contains("agree on the first 1 event(s)"));
        assert!(report.contains("bb_ckpt"));
        assert!(report.contains("failure"));
    }

    #[test]
    fn chrome_trace_shape() {
        let rec = Recording {
            records: vec![Record {
                t: 1_500,
                seq: 0,
                parent: NO_PARENT,
                kind: kind::ROUND_START,
                a: 0,
                b: 0,
            }],
            dropped: 0,
        };
        let j = rec.to_chrome_trace("demo");
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"name\":\"round_start\""));
        assert!(j.contains("\"ts\":1.500"));
        assert!(j.contains("\"parent\":-1"));
    }

    /// Needs the `trace` feature: only the queue hooks set parents.
    #[cfg(feature = "trace")]
    #[test]
    fn live_recorder_tracks_causal_parents() {
        let r = Recorder::enabled(1024);
        assert!(r.is_enabled());
        // Pre-loop schedule: causal root.
        r.on_sched(0, 0);
        // Pop it; its parent must be the sched record (seq 0).
        r.on_pop(10, 0);
        // Work inside the pop: a domain event and a new schedule.
        r.emit(10, kind::BB_CKPT, 0, 0);
        r.on_sched(10, 1);
        // Pop the second event: parent = the sched at seq 3.
        r.on_pop(25, 1);
        let rec = r.take();
        assert_eq!(rec.len(), 5);
        let p: Vec<u64> = rec.records.iter().map(|x| x.parent).collect();
        assert_eq!(p, vec![NO_PARENT, 0, 1, 1, 3]);
        assert_eq!(rec.records[4].t, 25);
        // take() re-arms.
        r.on_sched(0, 0);
        assert_eq!(r.take().len(), 1);
    }

    #[test]
    fn ring_keeps_first_and_counts_drops() {
        let r = Recorder::enabled(2);
        r.emit(0, kind::STATE, 0, 0);
        r.emit(1, kind::BB_CKPT, 0, 0);
        r.emit(2, kind::DRAIN_DONE, 0, 0);
        r.emit(3, kind::COMPLETE, 0, 0);
        let rec = r.take();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped, 2);
        assert_eq!(rec.records[0].t, 0);
        assert_eq!(rec.records[1].t, 1);
        assert_eq!(rec.records[1].seq, 1);
        // take() re-arms: numbering restarts and nothing counts as dropped.
        r.emit(4, kind::COMPLETE, 0, 0);
        let again = r.take();
        assert_eq!(
            (again.len(), again.dropped, again.records[0].seq),
            (1, 0, 0)
        );
    }

    #[test]
    fn clear_discards_without_disabling() {
        let r = Recorder::enabled(16);
        r.emit(0, kind::BB_CKPT, 0, 0);
        r.clear();
        assert!(r.is_enabled());
        assert!(r.take().is_empty());
    }

    #[test]
    fn queue_hooks_record_only_under_the_trace_feature() {
        let r = Recorder::enabled(16);
        r.on_sched(0, 0);
        r.on_pop(1, 0);
        r.emit(1, kind::BB_CKPT, 0, 0);
        let rec = r.take();
        let kinds: Vec<u16> = rec.records.iter().map(|x| x.kind).collect();
        if cfg!(feature = "trace") {
            assert_eq!(kinds, [kind::SCHED, kind::POP, kind::BB_CKPT]);
        } else {
            assert_eq!(kinds, [kind::BB_CKPT]);
            assert_eq!(rec.records[0].parent, NO_PARENT);
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(kind::name(kind::POP), "pop");
        assert_eq!(kind::name(kind::PHASE1_COMMIT), "phase1_commit");
        assert_eq!(kind::name(999), "unknown");
    }

    #[test]
    fn hist_wire_roundtrip_is_identity() {
        let mut h = FixedHist::new();
        for v in [0u64, 1, 7, 1 << 20, u64::MAX, 1 << 20] {
            h.record(v);
        }
        let mut bytes = Vec::new();
        h.encode_into(&mut bytes);
        let mut pos = 0;
        let back = FixedHist::decode_from(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, h);
        // Canonical: a decode re-encodes to identical bytes.
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn hist_wire_rejects_every_truncation() {
        let mut h = FixedHist::new();
        h.record(3);
        h.record(1 << 33);
        let mut bytes = Vec::new();
        h.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            assert!(
                FixedHist::decode_from(&bytes[..cut], &mut pos).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn run_obs_wire_roundtrip_is_identity() {
        let mut o = RunObs {
            events_handled: 12,
            events_scheduled: 15,
            queue_depth_hwm: 4,
            ..RunObs::default()
        };
        o.lat_bb.record(9_000_000);
        o.recomp.record(123);
        o.recomp.record(1 << 40);
        let mut bytes = Vec::new();
        o.encode_into(&mut bytes);
        let mut pos = 0;
        let back = RunObs::decode_from(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, o);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            assert!(RunObs::decode_from(&bytes[..cut], &mut pos).is_err());
        }
    }
}
