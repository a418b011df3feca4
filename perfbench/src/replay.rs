//! The single-thread layer replay of the traced run.
//!
//! The replay feeds the lines the server just answered, in order, through
//! each layer's public entry point and records one span per layer call,
//! tagged with the request's index. Spans stay in memory and are written
//! out when the replay ends. The [`CRITICAL_PATH`] layers partition the
//! work a lean server must do for a request; `ir.rebuild`, `ir.hash` and
//! `cache.fresh` time sub-steps and the miss path separately, so they are
//! not part of that sum.

use crate::check::{direct_sweep, mc_options, queries, shmoo_options};
use crate::gen::{Generator, Op};
use crate::stats::median;
use rlse_core::ir::json::JsonValue;
use rlse_core::ir::{CompiledCache, Ir};
use rlse_core::prelude::*;
use rlse_ta::prelude::*;
use std::io::Write;
use std::time::{Duration, Instant};

/// The layers whose spans add up to one request's necessary work.
pub const CRITICAL_PATH: [&str; 10] = [
    "json.parse",
    "ir.decode",
    "cache.hit",
    "cache.miss",
    "sim.run",
    "sweep.run",
    "shmoo.run",
    "ta.translate",
    "mc.check",
    "json.encode",
];

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the request in the stream.
    pub req: u64,
    /// Layer name, e.g. `json.parse`.
    pub layer: &'static str,
    /// The enclosing span's layer: `request` for a layer call, empty for
    /// the request span itself.
    pub parent: &'static str,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans plus the counts measured at the same boundaries.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Requests replayed (a prefix of the served stream).
    pub requests: u64,
    /// Request bytes parsed.
    pub bytes: u64,
    /// Warm-cache lookups that hit / missed.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Warm-cache evictions.
    pub evictions: u64,
    /// Simulation dispatches (events).
    pub events: u64,
    /// Sweep trials.
    pub trials: u64,
    /// Model-checker states, candidates and subsumed candidates.
    pub states: u64,
    /// See `states`.
    pub candidates: u64,
    /// See `states`.
    pub subsumed: u64,
    /// Re-encoded responses that differed from the served bytes.
    pub encode_mismatches: u64,
}

struct Recorder<'r> {
    origin: Instant,
    req: u64,
    out: &'r mut Vec<Span>,
}

impl Recorder<'_> {
    /// Record a span of `layer` from `t0` to now.
    fn push(&mut self, layer: &'static str, parent: &'static str, t0: Instant) {
        self.out.push(Span {
            req: self.req,
            layer,
            parent,
            start_ns: (t0 - self.origin).as_nanos() as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
        });
    }

    /// Run `f` inside a span of `layer`, a child of the request span.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        self.push(layer, "request", t0);
        v
    }
}

impl Replay {
    /// Replay requests `0..n` of `gen` (stopping early once `budget` has
    /// elapsed) against `responses`, the served lines. The warm cache is
    /// first filled with the warm-up lines' circuits, as the server was.
    pub fn run(gen: &Generator, responses: &[String], budget: Duration) -> Replay {
        let tel = Telemetry::new();
        let warm = CompiledCache::new()
            .with_max_entries(gen.workload().cache_cap())
            .with_telemetry(&tel);
        for line in gen.warmup_lines() {
            let req = JsonValue::parse(&line).expect("warm-up lines are valid JSON");
            if let Some(ir) = req.get("ir") {
                let ir = Ir::from_value(ir).expect("warm-up IR decodes");
                warm.get_or_compile(&ir).expect("warm-up IR compiles");
            }
        }
        let hits0 = warm.hits();
        let misses0 = warm.misses();
        let evictions0 = tel.report().counter("ir_cache.evictions");

        let mut r = Replay::default();
        let mut spans = Vec::new();
        let origin = Instant::now();
        for (i, served) in responses.iter().enumerate() {
            if origin.elapsed() >= budget {
                break;
            }
            let line = gen.request(i as u64).line;
            r.bytes += line.len() as u64;
            let mut rec = Recorder {
                origin,
                req: i as u64,
                out: &mut spans,
            };
            let t_req = Instant::now();
            r.replay_one(&mut rec, &warm, gen, &line, served);
            rec.push("request", "", t_req);
            r.requests += 1;
        }
        r.spans = spans;
        r.hits = warm.hits() - hits0;
        r.misses = warm.misses() - misses0;
        r.evictions = tel.report().counter("ir_cache.evictions") - evictions0;
        r
    }

    fn replay_one(
        &mut self,
        rec: &mut Recorder,
        warm: &CompiledCache,
        gen: &Generator,
        line: &str,
        served: &str,
    ) {
        let req = gen.request(rec.req);
        let parsed = rec
            .time("json.parse", || JsonValue::parse(line))
            .expect("generated lines are valid JSON");
        let loaded = parsed.get("ir").map(|v| {
            let ir = rec
                .time("ir.decode", || Ir::from_value(v))
                .expect("generated IR decodes");
            rec.time("ir.rebuild", || ir.to_circuit())
                .expect("generated IR rebuilds");
            rec.time("ir.hash", || ir.content_hash());
            rec.time("cache.fresh", || CompiledCache::new().get_or_compile(&ir))
                .expect("generated IR compiles");
            let t0 = Instant::now();
            let outcome = warm.get_or_compile(&ir).expect("generated IR compiles");
            let layer = if outcome.hit {
                "cache.hit"
            } else {
                "cache.miss"
            };
            rec.push(layer, "request", t0);
            (ir, outcome)
        });
        let seed = req.seed.unwrap_or(0);
        match (&gen.classes()[req.class].op, loaded) {
            (Op::Simulate, Some((_, outcome))) => {
                let tel = Telemetry::new();
                rec.time("sim.run", || {
                    let mut sim = Simulation::with_compiled(outcome.circuit, outcome.compiled);
                    sim.set_telemetry(&tel);
                    sim.run()
                })
                .expect("generated circuits simulate");
                self.events += tel.report().counter("sim.dispatches");
            }
            (&Op::Sweep { trials, std, check }, Some((ir, _))) => {
                let sweep = direct_sweep(&ir, trials, seed, std, check).expect("valid sweep");
                rec.time("sweep.run", || sweep.try_run())
                    .expect("generated sweeps run");
                self.trials += trials;
            }
            (&Op::ModelCheck { max_states }, Some((ir, outcome))) => {
                let tr = rec
                    .time("ta.translate", || translate_circuit(&outcome.circuit))
                    .expect("generated circuits translate");
                for q in &queries(&ir) {
                    let result = rec.time("mc.check", || {
                        rlse_ta::mc::check(
                            &tr.net,
                            &McQuery::from_ir(&tr, q),
                            mc_options(max_states),
                        )
                    });
                    self.states += result.stats.states as u64;
                    self.candidates += result.stats.candidates;
                    self.subsumed += result.stats.subsumed;
                }
            }
            (
                &Op::Shmoo {
                    design,
                    sigmas,
                    scales,
                    trials,
                },
                None,
            ) => {
                let opts = shmoo_options(trials, seed);
                rec.time("shmoo.run", || {
                    rlse_designs::shmoo_map(design, sigmas, scales, &opts)
                });
            }
            _ => unreachable!("circuit-bearing classes carry an IR and shmoo does not"),
        }
        let response = JsonValue::parse(served).expect("served responses are valid JSON");
        let encoded = rec.time("json.encode", || response.to_compact());
        if encoded != served {
            self.encode_mismatches += 1;
        }
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_spans(&self, gen: &Generator, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                gen.id(s.req),
                s.layer,
                s.parent,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }

    /// Median duration of `layer`'s spans in microseconds (0 if none).
    pub fn us_p50(&self, layer: &str) -> f64 {
        median(&self.durations_us(layer))
    }

    /// Summed duration of `layer`'s spans in seconds.
    pub fn total_s(&self, layer: &str) -> f64 {
        self.durations_us(layer).iter().sum::<f64>() / 1e6
    }

    /// Durations of `layer`'s spans in microseconds.
    fn durations_us(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Summed duration of the [`CRITICAL_PATH`] spans, in microseconds.
    pub fn critical_path_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| CRITICAL_PATH.contains(&s.layer))
            .map(|s| s.dur_ns as f64 / 1e3)
            .sum()
    }
}
