//! Unified telemetry: counters, spans, and timeline export shared by the
//! pulse simulator, the Monte-Carlo sweep engine, and (via `rlse-ta`) the
//! zone-graph model checker.
//!
//! The paper's evaluation (Tables 2/3, Fig. 16) is all about *measuring* the
//! engines; this module makes that measurement a first-class, always-carried
//! capability instead of a bespoke harness concern:
//!
//! * **Counters and gauges** — monotonic counts (events dispatched, pulses
//!   heap-pushed/popped, κ-transitions taken, trials completed, zones
//!   explored/subsumed, …) and high-water marks (max heap depth, peak zone
//!   store). Engines accumulate into plain local `u64`s on the hot path and
//!   flush once per run under a single lock, so the hot loop never touches a
//!   string, a map, or an atomic.
//! * **Per-cell tallies** — dispatch/transition/fired counts per cell type,
//!   keyed by the compiled circuit's interned `u32` symbols during the run
//!   and resolved to names only at the flush boundary.
//! * **Spans** — lightweight `(name, track, start, duration)` intervals
//!   for coarse units of work (a run, a sweep worker, a model-check
//!   level), recorded with [`Telemetry::record_span`] into one shared,
//!   capped store: the exported order is a pure function of
//!   `(track, seq)`.
//! * **Latency histograms** — log-linear [`Histogram`]s (HDR-style: 32
//!   linear sub-buckets per power of two, ~3% relative error) recorded
//!   explicitly via [`Telemetry::record_hist`] and implicitly from every
//!   span's duration, rendered as p50/p90/p99/max quantiles. Histograms
//!   are deterministic to *merge* (bucket counts add, `Eq` compares them),
//!   but the recorded values are wall-clock durations, so — like spans —
//!   they are exported only out-of-band ([`Telemetry::histograms`]), never
//!   through the [`TelemetryReport`].
//! * **Exporters** — a [`TelemetryReport`] of the counter state (hand-rolled
//!   JSON in the `BENCH_sim.json` style plus a human [`std::fmt::Display`]
//!   summary), and a Chrome `trace_event` JSON timeline loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev) for visualizing
//!   sweep-worker and model-checker utilization.
//!
//! # Determinism contract
//!
//! [`TelemetryReport`] contains **only deterministic data**: additive
//! counters, max-merged gauges, and per-cell tallies, all of which are pure
//! functions of the workload (`BTreeMap`-ordered, `u64`-summed). For the
//! deterministic engines ([`Sweep`](crate::sweep::Sweep) and the `rlse-ta`
//! model checker) the report is therefore **bit-identical at any thread
//! count** — `report().to_json()` compares equal byte for byte. Wall-clock
//! span timings are inherently nondeterministic, so spans are exported only
//! through the Chrome-trace timeline, never through the report.
//!
//! # Cost model
//!
//! A [`Telemetry`] handle is either *enabled* (backed by shared state) or
//! *disabled* (a `None` inner — every method is a no-op and no counter
//! storage is ever allocated). Engines test `is_enabled()` once per run and
//! hoist the result, so the disabled path adds a single predictable branch
//! per run, not per event; the telemetry-off overhead guard
//! (`rlse-bench`'s `telemetry_guard` binary) holds it under 2% on the
//! bitonic-8 steady state.
//!
//! ```
//! use rlse_core::prelude::*;
//! use rlse_core::telemetry::Telemetry;
//! use rlse_core::machine::{EdgeDef, Machine};
//!
//! # fn main() -> Result<(), rlse_core::Error> {
//! let jtl = Machine::new("JTL", &["a"], &["q"], 5.0, 2, &[EdgeDef {
//!     src: "idle", trigger: "a", dst: "idle", firing: "q", ..EdgeDef::default()
//! }])?;
//! let mut c = Circuit::new();
//! let a = c.inp_at(&[10.0, 20.0], "A");
//! let q = c.add_machine(&jtl, &[a])?[0];
//! c.inspect(q, "Q");
//!
//! let tel = Telemetry::new();
//! Simulation::new(c).telemetry(&tel).run()?;
//! let report = tel.report();
//! assert_eq!(report.counter("sim.runs"), 1);
//! assert_eq!(report.counter("sim.dispatches"), 2);
//! let trace = tel.chrome_trace_json(); // open in about:tracing / Perfetto
//! assert!(trace.starts_with("{\"traceEvents\":["));
//! # Ok(())
//! # }
//! ```

use crate::ir::json::escape_json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on spans retained in the shared store; further spans are counted
/// as dropped.
const MAX_STORED_SPANS: usize = 1 << 16;

/// Per-cell-type tallies, accumulated during a run under interned `u32`
/// symbols and resolved to the cell name only when flushed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CellTally {
    /// Batches dispatched to instances of this cell type.
    pub dispatches: u64,
    /// κ-transitions taken (0 for holes, which have no machine state).
    pub transitions: u64,
    /// Output pulses fired.
    pub fired: u64,
}

impl CellTally {
    /// Fold another tally into this one (all fields additive).
    pub fn merge(&mut self, other: &CellTally) {
        self.dispatches += other.dispatches;
        self.transitions += other.transitions;
        self.fired += other.fired;
    }

    fn is_zero(&self) -> bool {
        self.dispatches == 0 && self.transitions == 0 && self.fired == 0
    }
}

/// One recorded span: a named interval on a track (thread/worker lane),
/// with a sequence number for deterministic ordering and one numeric
/// payload (trial index, BFS level, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Static span name (`"sim.run"`, `"sweep.trial"`, `"mc.expand"`, …).
    pub name: &'static str,
    /// Track (timeline lane): 0 is the driving thread, workers use 1-based
    /// indices.
    pub track: u32,
    /// Sequence number (monotonic in recording order).
    pub seq: u32,
    /// Start time in microseconds since the owning [`Telemetry`]'s epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// One numeric payload (meaning depends on `name`).
    pub arg: u64,
}

/// Sub-bucket precision of [`Histogram`]: 2^5 = 32 linear sub-buckets per
/// power of two, bounding the relative quantile error at ~3%.
pub const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;

/// A log-linear (HDR-style) histogram of `u64` samples — typically
/// durations in microseconds.
///
/// Values below 32 get exact unit buckets; above that, each power of two
/// is split into 32 linear sub-buckets, so any quantile is reported with
/// at most ~3% relative error while the whole `u64` range fits in under
/// 2k buckets (allocated lazily up to the largest recorded value).
///
/// Histograms are **deterministically mergeable**: [`merge`](Self::merge)
/// adds bucket counts element-wise, and `Eq` compares the bucket counts,
/// so folding per-worker histograms in any order yields equal results.
/// The recorded *values* are usually wall-clock, which is why histograms
/// live outside the deterministic [`TelemetryReport`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; the last element is always nonzero (the vector
    /// grows only as far as the largest recorded value's bucket).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn index_of(v: u64) -> usize {
        if v < HIST_SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let offset = ((v >> (msb - HIST_SUB_BITS)) - HIST_SUB) as usize;
            (msb - HIST_SUB_BITS + 1) as usize * HIST_SUB as usize + offset
        }
    }

    /// Largest value that lands in bucket `i` — the value quantiles report
    /// for samples in that bucket.
    pub fn bucket_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < HIST_SUB {
            i
        } else {
            let (octave, off) = (i / HIST_SUB, i % HIST_SUB);
            ((HIST_SUB + off + 1) << (octave - 1)) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = Self::index_of(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.max = self.max.max(v);
    }

    /// Fold `other` into this histogram (bucket counts add element-wise;
    /// merge order never changes the result).
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest value recorded (exact, not bucket-rounded).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in [0, 1] (bucket upper bound, capped at
    /// the exact max; 0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)`, in increasing value
    /// order — the shape a Prometheus-histogram exposition accumulates.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
    }

    /// One-line quantile summary: `count=N p50=… p90=… p99=… max=…`.
    pub fn render(&self) -> String {
        format!(
            "count={} p50={} p90={} p99={} max={}",
            self.count,
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Shared mutable telemetry state behind the handle's `Arc`.
#[derive(Debug, Default)]
struct State {
    /// Additive counters, keyed by static name.
    counters: BTreeMap<&'static str, u64>,
    /// Max-merged gauges (high-water marks).
    peaks: BTreeMap<&'static str, u64>,
    /// Per-cell-type tallies, keyed by resolved cell name.
    cells: BTreeMap<String, CellTally>,
    /// Recorded spans.
    spans: Vec<SpanRec>,
    /// Duration histograms: one per span name (fed automatically by
    /// [`Telemetry::record_span`]) plus any recorded explicitly via
    /// [`Telemetry::record_hist`].
    hists: BTreeMap<&'static str, Histogram>,
    /// Spans lost to the store cap.
    dropped_spans: u64,
    /// Sequence counter for recorded spans.
    direct_seq: u32,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// The telemetry handle shared by the engines. Cheap to clone (an `Arc`);
/// a disabled handle carries no storage and turns every operation into a
/// no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A fresh, enabled telemetry store. Its epoch (the zero point of every
    /// span timestamp) is the moment of creation.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A disabled handle: every method is a no-op, nothing is allocated.
    /// Attaching it to an engine is equivalent to attaching nothing —
    /// useful for call sites that want an unconditional handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything. Engines hoist this check out
    /// of their hot loops.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `v` to the additive counter `name`.
    pub fn add(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            *inner.state.lock().expect("telemetry poisoned").counters.entry(name).or_insert(0) +=
                v;
        }
    }

    /// Add a batch of counters under one lock acquisition — the per-run
    /// flush path used by the engines.
    pub fn add_many(&self, pairs: &[(&'static str, u64)]) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("telemetry poisoned");
            for &(name, v) in pairs {
                *st.counters.entry(name).or_insert(0) += v;
            }
        }
    }

    /// Raise the gauge `name` to at least `v` (max-merge: high-water marks
    /// fold deterministically regardless of flush order).
    pub fn peak(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("telemetry poisoned");
            let slot = st.peaks.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        }
    }

    /// Fold a per-cell tally into the cell named `cell`.
    pub fn add_cell(&self, cell: &str, tally: &CellTally) {
        if tally.is_zero() {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("telemetry poisoned");
            match st.cells.get_mut(cell) {
                Some(t) => t.merge(tally),
                None => {
                    st.cells.insert(cell.to_string(), *tally);
                }
            }
        }
    }

    /// Record a span directly on the shared store (one lock per call; meant
    /// for coarse driving-thread spans like a whole run, not per-event use).
    pub fn record_span(&self, name: &'static str, track: u32, started: Instant, arg: u64) {
        let Some(inner) = &self.inner else { return };
        let start_us = started.saturating_duration_since(inner.epoch).as_secs_f64() * 1e6;
        let dur_us = started.elapsed().as_secs_f64() * 1e6;
        let mut st = inner.state.lock().expect("telemetry poisoned");
        let seq = st.direct_seq;
        st.direct_seq = st.direct_seq.wrapping_add(1);
        st.hists.entry(name).or_default().record(dur_us as u64);
        if st.spans.len() >= MAX_STORED_SPANS {
            st.dropped_spans += 1;
        } else {
            st.spans.push(SpanRec {
                name,
                track,
                seq,
                start_us,
                dur_us,
                arg,
            });
        }
    }

    /// An `Instant` for timing a span, taken only when enabled so the
    /// disabled path never reads the clock.
    pub fn now(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Record one sample into the histogram `name` (no-op when disabled).
    /// Span recording feeds the span-name histogram automatically; this is
    /// for values that aren't spans (queue depths, payload sizes, …).
    pub fn record_hist(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .expect("telemetry poisoned")
                .hists
                .entry(name)
                .or_default()
                .record(v);
        }
    }

    /// Snapshot every histogram, sorted by name. Like spans (and unlike
    /// [`report`](Self::report)), histogram contents are wall-clock data:
    /// out-of-band only, never part of a deterministic response.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .state
                .lock()
                .expect("telemetry poisoned")
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Snapshot the single histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.as_ref().and_then(|inner| {
            inner
                .state
                .lock()
                .expect("telemetry poisoned")
                .hists
                .get(name)
                .cloned()
        })
    }

    /// Clear all recorded counters, tallies, and spans, keeping the epoch.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("telemetry poisoned");
            *st = State::default();
        }
    }

    /// Snapshot the deterministic counter state (see the module docs for
    /// the determinism contract). A disabled handle yields an empty report.
    pub fn report(&self) -> TelemetryReport {
        match &self.inner {
            None => TelemetryReport::default(),
            Some(inner) => {
                let st = inner.state.lock().expect("telemetry poisoned");
                TelemetryReport {
                    counters: st.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                    peaks: st.peaks.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                    cells: st.cells.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                }
            }
        }
    }

    /// Number of spans dropped at the shared-store cap.
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.state.lock().expect("telemetry poisoned").dropped_spans,
        }
    }

    /// Export every recorded span as a Chrome `trace_event` JSON document
    /// (load in `about:tracing` or Perfetto). Spans are sorted by
    /// `(track, seq)`, so the document layout is a pure function of the
    /// recorded span set; only the timestamps themselves vary run to run.
    pub fn chrome_trace_json(&self) -> String {
        match &self.inner {
            None => chrome_trace_for(&[], 0),
            Some(inner) => {
                let st = inner.state.lock().expect("telemetry poisoned");
                let mut spans = st.spans.clone();
                spans.sort_by_key(|s| (s.track, s.seq));
                chrome_trace_for(&spans, st.dropped_spans)
            }
        }
    }
}

/// Render a span set as a Chrome `trace_event` document. Pure function of
/// its inputs — the golden shape test feeds it fixed spans and compares the
/// exact output. Tracks are announced with `thread_name` metadata events
/// (`main` for track 0, `worker-N` otherwise); each span is a complete
/// (`"ph":"X"`) event carrying its payload and sequence number in `args`.
pub fn chrome_trace_for(spans: &[SpanRec], dropped: u64) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut seen_tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    seen_tracks.sort_unstable();
    seen_tracks.dedup();
    for t in &seen_tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if *t == 0 {
            "main".to_string()
        } else {
            format!("worker-{t}")
        };
        out.push_str(&format!(
            "\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":\"");
        escape_json(s.name, &mut out);
        out.push_str(&format!(
            "\",\"cat\":\"rlse\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"arg\":{},\"seq\":{}}}}}",
            s.track, s.start_us, s.dur_us, s.arg, s.seq
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"tool\":\"rlse-telemetry\",\
         \"droppedSpans\":{dropped}}}}}"
    ));
    out
}

/// A deterministic snapshot of the counter state: additive counters,
/// max-merged gauges, and per-cell tallies, each sorted by name. For the
/// deterministic engines the report — including [`to_json`](Self::to_json)
/// — is bit-identical at any thread count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Additive counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// High-water-mark gauges, sorted by name.
    pub peaks: Vec<(String, u64)>,
    /// Per-cell-type tallies, sorted by cell name.
    pub cells: Vec<(String, CellTally)>,
}

impl TelemetryReport {
    /// The additive counter `name`, or 0 if never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// All counters whose name starts with `prefix`, in sorted-name order —
    /// the view one subsystem's counters present (e.g.
    /// `counters_with_prefix("sweep.")` for a Monte-Carlo sweep's verdict
    /// and kernel counters). Deterministic for equal reports.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
            .collect()
    }

    /// The gauge `name`, or 0 if never recorded.
    pub fn gauge(&self, name: &str) -> u64 {
        self.peaks
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// True if nothing was recorded (e.g. the handle was disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.peaks.is_empty() && self.cells.is_empty()
    }

    /// Hand-rolled JSON in the `BENCH_sim.json` house style (the workspace
    /// deliberately has no serde dependency). Byte-identical for equal
    /// reports.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    \"");
            escape_json(k, &mut out);
            out.push_str(&format!("\": {v}"));
        }
        out.push_str("\n  },\n  \"peaks\": {");
        for (i, (k, v)) in self.peaks.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    \"");
            escape_json(k, &mut out);
            out.push_str(&format!("\": {v}"));
        }
        out.push_str("\n  },\n  \"cells\": [");
        for (i, (name, t)) in self.cells.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": \"");
            escape_json(name, &mut out);
            out.push_str(&format!(
                "\", \"dispatches\": {}, \"transitions\": {}, \"fired\": {}}}",
                t.dispatches, t.transitions, t.fired
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "telemetry: (empty)");
        }
        writeln!(f, "telemetry:")?;
        for (k, v) in &self.counters {
            writeln!(f, "  {k:<28} {v}")?;
        }
        for (k, v) in &self.peaks {
            writeln!(f, "  {k:<28} {v} (peak)")?;
        }
        if !self.cells.is_empty() {
            writeln!(f, "  per cell (dispatches / transitions / fired):")?;
            for (name, t) in &self.cells {
                writeln!(
                    f,
                    "    {name:<16} {:>8} / {:>8} / {:>8}",
                    t.dispatches, t.transitions, t.fired
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.add("x", 5);
        tel.peak("y", 9);
        tel.add_cell("JTL", &CellTally {
            dispatches: 1,
            transitions: 1,
            fired: 1,
        });
        assert!(tel.now().is_none());
        let report = tel.report();
        assert!(report.is_empty());
        assert_eq!(report.counter("x"), 0);
        assert_eq!(tel.dropped_spans(), 0);
    }

    #[test]
    fn counters_add_and_peaks_max() {
        let tel = Telemetry::new();
        tel.add("a", 2);
        tel.add("a", 3);
        tel.peak("p", 7);
        tel.peak("p", 4);
        let r = tel.report();
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.gauge("p"), 7);
        tel.reset();
        assert!(tel.report().is_empty());
    }

    #[test]
    fn counters_with_prefix_selects_one_subsystem() {
        let tel = Telemetry::new();
        tel.add("sweep.blocks", 4);
        tel.add("sweep.dispatches", 100);
        tel.add("sim.runs", 64);
        let r = tel.report();
        let sweep = r.counters_with_prefix("sweep.");
        assert_eq!(sweep, vec![("sweep.blocks", 4), ("sweep.dispatches", 100)]);
        assert!(r.counters_with_prefix("analog.").is_empty());
    }

    #[test]
    fn cell_tallies_merge() {
        let tel = Telemetry::new();
        tel.add_cell("C", &CellTally { dispatches: 1, transitions: 2, fired: 1 });
        tel.add_cell("C", &CellTally { dispatches: 1, transitions: 1, fired: 0 });
        tel.add_cell("Z", &CellTally::default()); // zero tally: not stored
        let r = tel.report();
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].1, CellTally { dispatches: 2, transitions: 3, fired: 1 });
    }

    #[test]
    fn report_json_is_deterministic_for_equal_reports() {
        let build = || {
            let tel = Telemetry::new();
            tel.add("b", 1);
            tel.add("a", 2);
            tel.peak("hw", 3);
            tel.add_cell("JTL", &CellTally { dispatches: 4, transitions: 4, fired: 4 });
            tel.report()
        };
        let (r1, r2) = (build(), build());
        assert_eq!(r1, r2);
        assert_eq!(r1.to_json(), r2.to_json());
        // Sorted by name regardless of insertion order.
        assert_eq!(r1.counters[0].0, "a");
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = [
            SpanRec { name: "sim.run", track: 0, seq: 0, start_us: 1.0, dur_us: 2.5, arg: 0 },
            SpanRec { name: "sweep.trial", track: 1, seq: 0, start_us: 2.0, dur_us: 1.0, arg: 7 },
        ];
        let json = chrome_trace_for(&spans, 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"main\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn histogram_buckets_are_exact_below_32_and_3pct_above() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
            assert_eq!(Histogram::bucket_bound(Histogram::index_of(v)), v);
        }
        // Above the linear range the bucket bound over-reports by < 1/32.
        for v in [32u64, 100, 999, 4096, 123_456, u64::MAX / 2] {
            let bound = Histogram::bucket_bound(Histogram::index_of(v));
            assert!(bound >= v, "{v} -> {bound}");
            assert!(bound as f64 <= v as f64 * (1.0 + 1.0 / 32.0), "{v} -> {bound}");
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn histogram_quantiles_and_render() {
        let mut h = Histogram::new();
        h.record_n(10, 90); // p50, p90 land here
        h.record_n(1000, 9); // p99 lands here
        h.record(50_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.9), 10);
        let p99 = h.quantile(0.99);
        assert!((1000..=1031).contains(&p99), "{p99}");
        assert_eq!(h.max(), 50_000);
        let line = h.render();
        assert!(line.starts_with("count=100 p50=10 p90=10 p99="), "{line}");
        assert!(line.ends_with("max=50000"), "{line}");
        assert_eq!(Histogram::new().quantile(0.5), 0, "empty histogram");
    }

    #[test]
    fn histogram_merge_is_order_independent_and_eq_compares_buckets() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3u64, 77, 500, 500, 1_000_000] {
            a.record(v);
        }
        for v in [9u64, 77, 123_456] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.max(), 1_000_000);
        // Recording the same multiset directly compares equal too.
        let mut direct = Histogram::new();
        for v in [3u64, 9, 77, 77, 500, 500, 123_456, 1_000_000] {
            direct.record(v);
        }
        assert_eq!(ab, direct);
        // Cumulative bucket counts are monotone (the Prometheus shape).
        let total: u64 = ab.buckets().map(|(_, c)| c).sum();
        assert_eq!(total, ab.count());
    }

    #[test]
    fn spans_feed_duration_histograms() {
        let tel = Telemetry::new();
        let t0 = Instant::now();
        tel.record_span("sim.run", 0, t0, 1);
        tel.record_span("sweep.worker", 1, t0, 0);
        tel.record_span("sweep.worker", 2, t0, 1);
        tel.record_hist("queue.depth", 17);
        let hists = tel.histograms();
        let names: Vec<&str> = hists.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["queue.depth", "sim.run", "sweep.worker"]);
        assert_eq!(tel.histogram("sim.run").unwrap().count(), 1);
        assert_eq!(tel.histogram("sweep.worker").unwrap().count(), 2);
        assert_eq!(tel.histogram("queue.depth").unwrap().max(), 17);
        assert!(tel.histogram("nope").is_none());
        // Disabled handles never record or allocate.
        let off = Telemetry::disabled();
        off.record_hist("x", 1);
        assert!(off.histograms().is_empty());
        // Reset clears histograms with everything else.
        tel.reset();
        assert!(tel.histograms().is_empty());
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        let tel = Telemetry::new();
        tel.add_cell("we\"ird\\cell\n", &CellTally { dispatches: 1, transitions: 0, fired: 0 });
        let json = tel.report().to_json();
        assert!(json.contains("we\\\"ird\\\\cell\\n"));
    }
}
