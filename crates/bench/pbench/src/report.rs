//! Metric catalogue, measured outcomes, JSON output and spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::inputs::Workload;
use crate::stats::{percentile, quartiles, tail_percentile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction (BENCHMARK.json carries the
/// same table plus the end-to-end bounds; a unit test keeps them equal).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: [MetricDef; 4] = [
    // Median wall time of one operation: a whole grid pass for the
    // simulation workloads, one request for the service workloads.
    def("op_p50_ms", "ms", Lower),
    // Lane-runs (cells × models × runs) answered per second of op time,
    // median over passes.
    def("lane_runs_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, reported by every workload from the traced run.
/// Costs per unit of a layer's work are replayed on the workload's own
/// cells; a `share` of 0 means the layer is not on the workload's path.
pub const PER_LAYER: [MetricDef; 28] = [
    def("failure.trace_gen_us", "us", Lower),
    def("failure.trace_gens", "count", Lower),
    def("failure.trace_hit_rate", "ratio", Higher),
    def("failure.share", "ratio", Lower),
    def("core.runner.plan_ms", "ms", Lower),
    def("core.runner.units_per_lane", "ratio", Lower),
    def("core.runner.pool_busy_frac", "ratio", Higher),
    def("core.runner.pool_overhead_ms", "ms", Lower),
    def("core.runner.fold_ns_per_result", "ns", Lower),
    def("core.sim.unit_us", "us", Lower),
    def("core.sim.ns_per_event", "ns", Lower),
    def("core.sim.events_per_run", "count", Lower),
    def("core.sim.handled_per_scheduled", "ratio", Higher),
    def("core.sim.queue_depth_hwm_p50", "count", Lower),
    def("core.sim.queue_depth_hwm_max", "count", Lower),
    def("core.sim.share", "ratio", Lower),
    def("desim.queue.hold_ns", "ns", Lower),
    def("core.fingerprint.us_per_cell", "us", Lower),
    def("service.cellframe.encode_us_per_cell", "us", Lower),
    def("service.cellframe.decode_ns_per_result", "ns", Lower),
    def("service.cache.get_us", "us", Lower),
    def("service.cache.put_us", "us", Lower),
    def("service.cache.bytes_per_cell", "B", Lower),
    def("service.journal.append_us", "us", Lower),
    def("service.journal.recover_us_per_cell", "us", Lower),
    def("service.reuse_ratio", "ratio", Higher),
    def("service.computed_cells", "count", Lower),
    def("service.share", "ratio", Lower),
];

/// Looks a metric up in either table.
pub fn metric_def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
}

/// One metric's headline value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Measured {
    /// A value that is its own single sample.
    pub fn one(value: f64) -> Measured {
        Measured {
            value,
            samples: vec![value],
        }
    }

    /// The median of the samples as the value.
    pub fn median_of(samples: Vec<f64>) -> Measured {
        Measured {
            value: crate::stats::median(&samples),
            samples,
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few).
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Exact counters that must repeat between runs of one commit.
    pub counts: BTreeMap<&'static str, f64>,
    /// Further numbers for humans (tails, attribution rows), name → (value, unit).
    pub extra: Vec<(String, f64, &'static str)>,
    /// Output digests the run checked, by name.
    pub digests: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new(workload: Workload, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
            counts: BTreeMap::new(),
            extra: Vec::new(),
            digests: Vec::new(),
        }
    }

    pub fn extra_digest(&mut self, name: &'static str, digest: &str) {
        self.digests.retain(|(n, _)| *n != name);
        self.digests.push((name, digest.to_string()));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric table this run must report.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Names the run should have reported but did not.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs()
            .iter()
            .filter(|d| !self.metrics.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// Adds the tail of a latency sample set (ms) under `name`.
    pub fn add_tail(&mut self, name: &str, samples_ms: &[f64]) {
        if let Some(p) = tail_percentile(samples_ms.len()) {
            self.extra
                .push((format!("{name}_p{p}"), percentile(samples_ms, p), "ms"));
        }
        self.extra
            .push((format!("{name}_n"), samples_ms.len() as f64, "count"));
    }
}

/// Formats a float with every digit it has (shortest round-trip form).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", pckpt_service::json::escape(s))
}

/// The one-line result object the benchmark contract asks for.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .defs()
        .iter()
        .filter_map(|d| {
            o.metrics.get(d.name).map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(d.name),
                    num(m.value),
                    json_str(d.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// Host regime recorded beside every result (never gated on).
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Pool size of the timed operations and of the traced run's pool probe.
    pub op_threads: usize,
    pub pool_threads: usize,
    pub loadavg: String,
    pub calib_ms_before: f64,
    pub calib_ms_after: f64,
}

/// Milliseconds of a fixed xorshift loop: a coarse CPU-speed probe
/// taken before and after a run, so a slow host shows in the record.
pub fn calibrate_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The full record of one run: every metric with its quartiles, the
/// exact counters, the extra rows and the host regime.
pub fn detail_json(o: &Outcome, host: &Host, seed: u64, seconds: f64, quick: bool) -> String {
    let mut metrics = Vec::new();
    for d in o.defs() {
        let Some(m) = o.metrics.get(d.name) else {
            continue;
        };
        let q = quartiles(&m.samples);
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            json_str(d.name),
            num(m.value),
            json_str(d.unit),
            num(q.median),
            num(q.q1),
            num(q.q3),
            q.n
        ));
    }
    let counts: Vec<String> = o
        .counts
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
        .collect();
    let extra: Vec<String> = o
        .extra
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let notes: Vec<String> = o.notes.iter().map(|n| json_str(n)).collect();
    let digests: Vec<String> = o
        .digests
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\":{},\"traced\":{},\"seed\":{seed},\"seconds\":{},\"quick\":{quick},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"notes\":[{}],\"metrics\":{{{}}},\
         \"counts\":{{{}}},\"extra\":{{{}}},\"digests\":{{{}}},\"host\":{{\"nproc\":{},\
         \"op_threads\":{},\"pool_threads\":{},\"loadavg\":{},\"calib_ms_before\":{},\
         \"calib_ms_after\":{}}}}}",
        json_str(o.workload.name()),
        o.traced,
        num(seconds),
        o.correct(),
        o.attempted,
        o.failed,
        notes.join(","),
        metrics.join(","),
        counts.join(","),
        extra.join(","),
        digests.join(","),
        host.nproc,
        host.op_threads,
        host.pool_threads,
        json_str(&host.loadavg),
        num(host.calib_ms_before),
        num(host.calib_ms_after),
    )
}

/// Human-readable table of a run, one metric per line.
pub fn print_outcome(o: &Outcome, out: &mut dyn std::io::Write) {
    let _ = writeln!(
        out,
        "{} ({}): attempted {}, failed {}{}",
        o.workload.name(),
        if o.traced { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        if o.notes.is_empty() {
            String::new()
        } else {
            format!(" — {}", o.notes.join("; "))
        }
    );
    for d in o.defs() {
        if let Some(m) = o.metrics.get(d.name) {
            let q = quartiles(&m.samples);
            let _ = writeln!(
                out,
                "  {:<40} {:>14.6} {:<6} median {:.6} q1 {:.6} q3 {:.6} n {} ({} is better)",
                d.name,
                m.value,
                d.unit,
                q.median,
                q.q1,
                q.q3,
                q.n,
                d.better.as_str()
            );
        }
    }
    for (k, v) in &o.counts {
        let _ = writeln!(out, "  {:<40} {:>14} count (exact)", k, num(*v));
    }
    for (k, v, u) in &o.extra {
        let _ = writeln!(out, "  {:<40} {:>14.6} {}", k, v, u);
    }
    for (k, v) in &o.digests {
        let _ = writeln!(out, "  {:<40} {}", k, v);
    }
}

/// One recorded span: `[start, end)` in ns since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
    pub track: u32,
}

/// In-memory span recorder, written out once as a Chrome trace.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u32,
        track: u32,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            track,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u32,
        track: u32,
    ) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request, track)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Self time per span name: each span's duration minus the part
    /// its children cover, summed by name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                json_str(s.name),
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let o = t.origin;
        let at = |ms: u64| o + std::time::Duration::from_millis(ms);
        let root = t.record("root", at(0), at(10), None, 0, 0);
        t.record("child", at(2), at(5), Some(root), 0, 0);
        let st = t.self_times();
        assert!((st["root"] - 0.007).abs() < 1e-9);
        assert!((st["child"] - 0.003).abs() < 1e-9);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(Workload::Fig4Sweep, false);
        o.attempted = 3;
        for d in END_TO_END {
            o.metrics.insert(d.name, Measured::one(1.25));
        }
        let line = result_line(&o);
        let doc = pckpt_service::json::parse(&line).expect("valid JSON");
        let pckpt_service::json::Json::Obj(members) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("ms"));
        assert!(o.missing().is_empty());
    }
}
