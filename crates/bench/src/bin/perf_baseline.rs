//! Performance-baseline harness: measures median ns/event and heap
//! allocations per run for the simulation, sweep, and verification
//! workloads, and prints a `BENCH_sim.json` document to stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rlse-bench --bin perf_baseline [label] > BENCH_sim.json
//! ```
//!
//! The optional `label` (default `"current"`) tags the kernel under test so
//! before/after reports from different checkouts can sit side by side.
//!
//! Two timing modes are reported per simulation workload:
//!
//! * `fresh` — build a new `Simulation` per iteration and run it, matching
//!   the `benches/simulation.rs` criterion setup (includes circuit
//!   compilation and first-use buffer growth);
//! * `reused` — one `Simulation` run repeatedly, the steady state seen by
//!   Monte-Carlo sweep workers (compiled tables and buffers reused).
//!
//! Event and state counts come from the shared telemetry layer
//! ([`rlse_core::telemetry`]): every workload is run once with an enabled
//! [`Telemetry`] handle and the counters (`sim.wire_pulses`, `sweep.trials`,
//! `mc.states`, ...) feed the JSON directly, so the numbers here are the
//! same ones every other consumer of the telemetry layer sees. A dedicated
//! section measures the overhead of the instrumentation itself (no handle
//! vs. disabled handle vs. enabled handle) on the bitonic_8 workload.
//!
//! A `json_decode` section reports `JsonValue::parse` throughput in MiB/s
//! on single-string lines of 16 KiB to 1 MiB (flat MiB/s shows the decoder
//! scales linearly) and on the served bitonic_8 `simulate` request line.
//! It and the `sweep_batch` section carry the host fingerprint (cores, CPU
//! model, rustc, profile) of the run.
//!
//! Allocation counts come from a counting global allocator and cover the
//! whole `run()` call, including the per-run `Events` materialization at the
//! boundary; the interesting signal is the per-event marginal cost.

use rlse_analog::synth::from_circuit;
use rlse_bench::{
    bench_adder_sync, bench_bitonic, bench_c, bench_c_inv, bench_min_max, expected_outputs,
    simulate, Bench,
};
use rlse_core::prelude::*;
use rlse_core::sweep::{trial_seed, Sweep};
use rlse_designs::ripple_adder_with_inputs;
use rlse_ta::mc::{check, check_with_telemetry, McOptions, McQuery};
use rlse_ta::translate::translate_circuit;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts every allocation and reallocation.
struct CountingAlloc;

// SAFETY: delegates every operation verbatim to the system allocator; the
// counter is a relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Median of a sample of nanosecond timings.
fn median_ns(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Time `f` repeatedly until ~`budget_ms` of samples are collected (at least
/// `min_reps`), returning the median ns per call.
fn time_median<F: FnMut()>(mut f: F, budget_ms: f64, min_reps: usize) -> f64 {
    // Warmup.
    f();
    let probe = {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e9
    };
    let reps = ((budget_ms * 1e6 / probe.max(1.0)) as usize).clamp(min_reps, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    median_ns(&mut samples)
}

/// Like [`time_median`], but with a per-iteration `setup` whose cost is
/// excluded from the timing (criterion's `iter_batched` shape).
fn time_median_with_setup<T, S: FnMut() -> T, F: FnMut(T)>(
    mut setup: S,
    mut routine: F,
    budget_ms: f64,
    min_reps: usize,
) -> f64 {
    routine(setup());
    let probe = {
        let v = setup();
        let t0 = Instant::now();
        routine(v);
        t0.elapsed().as_secs_f64() * 1e9
    };
    let reps = ((budget_ms * 1e6 / probe.max(1.0)) as usize).clamp(min_reps, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let v = setup();
        let t0 = Instant::now();
        routine(v);
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    median_ns(&mut samples)
}

struct SimRow {
    name: &'static str,
    events: u64,
    dispatches: u64,
    transitions: u64,
    max_heap: u64,
    fresh_ns: f64,
    fresh_allocs: u64,
    reused_ns: f64,
    reused_allocs: u64,
}

fn measure_sim<F: Fn() -> Bench>(name: &'static str, build: F) -> SimRow {
    // One instrumented run: the event/dispatch/transition counts come from
    // the telemetry report and are identical on every run (no variability).
    let tel = Telemetry::new();
    let (events, dispatches, transitions, max_heap) = {
        let mut sim = Simulation::new(build().circuit);
        sim.set_telemetry(&tel);
        let ev = sim.run().expect("bench simulates cleanly");
        let report = tel.report();
        assert_eq!(
            report.counter("sim.wire_pulses"),
            ev.pulse_count_all() as u64,
            "{name}: telemetry wire-pulse counter must match the Events view"
        );
        (
            report.counter("sim.wire_pulses"),
            report.counter("sim.dispatches"),
            report.counter("sim.transitions"),
            report.gauge("sim.max_heap_depth"),
        )
    };
    // Fresh: new simulation per iteration (setup excluded from timing, as
    // in the criterion bench), so the number includes compilation and
    // first-use buffer growth but not circuit construction.
    let fresh_ns = time_median_with_setup(
        || Simulation::new(build().circuit),
        |mut sim| {
            sim.run().expect("clean");
        },
        150.0,
        10,
    );
    let fresh_allocs = {
        let mut sim = Simulation::new(build().circuit);
        let a0 = allocs();
        sim.run().expect("clean");
        allocs() - a0
    };
    // Reused: one simulation, repeated runs (the sweep steady state).
    let mut sim = Simulation::new(build().circuit);
    sim.run().expect("clean");
    let reused_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        150.0,
        10,
    );
    let reused_allocs = {
        let a0 = allocs();
        sim.run().expect("clean");
        allocs() - a0
    };
    SimRow {
        name,
        events,
        dispatches,
        transitions,
        max_heap,
        fresh_ns,
        fresh_allocs,
        reused_ns,
        reused_allocs,
    }
}

/// One workload at high trial count, on one thread: a per-trial
/// `Simulation::run` loop (the "scalar" column) against a [`Sweep`]. The
/// two are proven bit-identical by `tests/sweep_batch_differential.rs`;
/// this row prices what the sweep skips per trial: the circuit check, the
/// recording of unobserved wires and the `Events` dictionary.
struct BatchRow {
    name: &'static str,
    trials: u64,
    threads: usize,
    scalar_ns_per_trial: f64,
    batch_ns_per_trial: f64,
    blocks: u64,
    dispatches: u64,
    wire_pulses: u64,
}

impl BatchRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_trial / self.batch_ns_per_trial.max(1e-9)
    }
}

fn measure_batch_sweep<F>(name: &'static str, build: F, trials: u64) -> BatchRow
where
    F: Fn() -> Circuit + Send + Sync + Copy,
{
    const SIGMA: f64 = 0.2;
    const SEED: u64 = 42;
    let sweep = || {
        Sweep::over(build)
            .variability(|| Variability::Gaussian { std: SIGMA })
            .trials(trials)
            .master_seed(SEED)
            .threads(1)
    };
    // The per-trial loop: one reused simulation, seeded per trial exactly
    // as a sweep seeds it. Returns the count of clean trials.
    let per_trial = || {
        let mut sim = Simulation::new(build());
        (0..trials)
            .filter(|&trial| {
                sim.set_seed(trial_seed(SEED, trial));
                sim.set_variability(Some(Variability::Gaussian { std: SIGMA }));
                sim.run().is_ok()
            })
            .count() as u64
    };
    // One instrumented sweep supplies the per-block counters and the
    // outcome tally both columns must agree on (checked cheaply here via
    // the ok count; the differential test suite proves full bit-identity).
    let tel = Telemetry::new();
    let batch_ok = sweep().telemetry(&tel).run().ok;
    let report = tel.report();
    assert_eq!(
        batch_ok,
        per_trial(),
        "{name}: engines disagree on outcomes"
    );
    let scalar_ns = time_median(
        || {
            per_trial();
        },
        600.0,
        3,
    );
    let batch_ns = time_median(
        || {
            sweep().run();
        },
        600.0,
        3,
    );
    BatchRow {
        name,
        trials,
        threads: 1,
        scalar_ns_per_trial: scalar_ns / trials as f64,
        batch_ns_per_trial: batch_ns / trials as f64,
        blocks: report.counter("sweep.blocks"),
        dispatches: report.counter("sweep.dispatches"),
        wire_pulses: report.counter("sweep.wire_pulses"),
    }
}

/// One `serve_throughput` row: the generated mixed corpus served end to end
/// through the request scheduler at a fixed worker count, cache-cold (a
/// fresh server, so every distinct circuit compiles) and cache-warm (the
/// same server again, so every circuit hits). Every pass's response bytes
/// are asserted identical to the first — the worker count may only change
/// the wall clock, never the output.
struct ServeRow {
    workers: usize,
    engine_threads: usize,
    cold_rps: f64,
    warm_rps: f64,
    singleflight_waits: u64,
}

fn measure_serve_throughput(corpus: &str, workers_list: &[usize]) -> Vec<ServeRow> {
    use rlse_serve::{ServeOptions, Server};
    let n = corpus.lines().count() as f64;
    let mut reference: Option<Vec<u8>> = None;
    workers_list
        .iter()
        .map(|&workers| {
            let server = Server::new(ServeOptions {
                workers,
                ..ServeOptions::default()
            });
            let mut out = Vec::new();
            let t0 = Instant::now();
            server.serve_reader(corpus.as_bytes(), &mut out).expect("cold pass serves");
            let cold_s = t0.elapsed().as_secs_f64();
            match &reference {
                Some(r) => assert_eq!(
                    *r, out,
                    "workers={workers}: responses must be byte-identical to workers={}",
                    workers_list[0]
                ),
                None => reference = Some(out.clone()),
            }
            // Warm: the same server, so every circuit hits the compiled
            // cache. Median of three passes.
            let mut warm = Vec::with_capacity(3);
            for _ in 0..3 {
                let mut again = Vec::new();
                let t0 = Instant::now();
                server.serve_reader(corpus.as_bytes(), &mut again).expect("warm pass serves");
                warm.push(t0.elapsed().as_secs_f64());
                assert_eq!(out, again, "workers={workers}: warm pass changed bytes");
            }
            warm.sort_by(f64::total_cmp);
            ServeRow {
                workers,
                engine_threads: server.engine_threads(),
                cold_rps: n / cold_s.max(1e-9),
                warm_rps: n / warm[1].max(1e-9),
                singleflight_waits: server.cache().singleflight_waits(),
            }
        })
        .collect()
}

/// One JSON-decoding workload: a request-sized document and the median
/// time `JsonValue::parse` takes on it.
struct DecodeRow {
    name: String,
    bytes: usize,
    median_ns: f64,
}

impl DecodeRow {
    fn mib_per_s(&self) -> f64 {
        self.bytes as f64 / (1u64 << 20) as f64 / (self.median_ns * 1e-9)
    }
}

/// `JsonValue::parse` throughput on single-string lines of growing size
/// (a linear decoder holds MiB/s flat across them) and on the served
/// bitonic_8 `simulate` request line.
fn measure_json_decode() -> Vec<DecodeRow> {
    use rlse_core::ir::json::JsonValue;
    use std::hint::black_box;
    let mut docs: Vec<(String, String)> = [16usize, 64, 256, 1024]
        .iter()
        .map(|&kib| {
            let body: String = (0..kib << 10)
                .map(|i| char::from(b'a' + (i % 26) as u8))
                .collect();
            (format!("string_{kib}KiB"), format!("\"{body}\""))
        })
        .collect();
    let ir = rlse_designs::design_ir("bitonic_8", 1.0)
        .to_value()
        .to_compact();
    docs.push((
        "bitonic_8_simulate".into(),
        format!("{{\"id\":\"sim\",\"kind\":\"simulate\",\"until\":5000,\"ir\":{ir}}}"),
    ));
    docs.into_iter()
        .map(|(name, doc)| {
            JsonValue::parse(&doc).expect("valid JSON");
            let median_ns = time_median(
                || drop(black_box(JsonValue::parse(black_box(&doc)))),
                300.0,
                10,
            );
            DecodeRow {
                name,
                bytes: doc.len(),
                median_ns,
            }
        })
        .collect()
}

/// The host fingerprint recorded next to timing sections: logical cores,
/// CPU model, compiler version and build profile.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut cpu_json = String::new();
    rlse_core::ir::json::escape_json(&cpu, &mut cpu_json);
    format!(
        "{{\"cores\": {cores}, \"cpu\": \"{cpu_json}\", \"rustc\": \"{}\", \"profile\": \"{profile}\"}}",
        env!("RLSE_BENCH_RUSTC")
    )
}

/// Telemetry overhead on the reused bitonic_8 workload: median run time
/// with no handle attached, with a disabled handle, and with an enabled
/// handle. The first two must be indistinguishable (the disabled handle is
/// a `None` inner — every call is a no-op); the third prices the enabled
/// instrumentation.
struct Overhead {
    off_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
}

fn measure_overhead() -> Overhead {
    let bench = bench_bitonic(8);
    let mut sim = Simulation::new(bench.circuit);
    sim.run().expect("clean");
    let off_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        300.0,
        20,
    );
    let disabled = Telemetry::disabled();
    sim.set_telemetry(&disabled);
    let disabled_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        300.0,
        20,
    );
    let enabled = Telemetry::new();
    sim.set_telemetry(&enabled);
    let enabled_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        300.0,
        20,
    );
    Overhead {
        off_ns,
        disabled_ns,
        enabled_ns,
    }
}

/// One Table-2 design measured on both analog engines: the naive per-step
/// reference (the "before" of the event-gating work) and the event-gated
/// engine (the "after"), plus the gating counters from one instrumented run.
struct AnalogRow {
    name: &'static str,
    jjs: usize,
    steps: usize,
    reference_median_ns: f64,
    gated_median_ns: f64,
    report: TelemetryReport,
}

fn measure_analog() -> Vec<AnalogRow> {
    [
        ("c_element", bench_c(), 450.0),
        ("inv_c", bench_c_inv(), 450.0),
        ("min_max", bench_min_max(), 450.0),
        ("bitonic_8", bench_bitonic(8), 300.0),
    ]
    .into_iter()
    .map(|(name, bench, t_end)| {
        let tel = Telemetry::new();
        let mut sim = from_circuit(&bench.circuit)
            .expect("Table 2 designs use only analog-modelled cells")
            .telemetry(&tel);
        let gated_ev = sim.run(t_end);
        let reference_ev = sim.run_reference(t_end);
        assert_eq!(
            gated_ev.pulses, reference_ev.pulses,
            "{name}: gated engine diverged from the reference pulse times"
        );
        let report = tel.report();
        // Time the engines without instrumentation attached.
        let disabled = Telemetry::disabled();
        sim.set_telemetry(&disabled);
        let gated_median_ns = time_median(|| drop(sim.run(t_end)), 200.0, 5);
        let reference_median_ns = time_median(|| drop(sim.run_reference(t_end)), 400.0, 3);
        AnalogRow {
            name,
            jjs: gated_ev.jjs,
            steps: gated_ev.steps,
            reference_median_ns,
            gated_median_ns,
            report,
        }
    })
    .collect()
}

fn main() {
    let mut label = String::from("current");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            flag if flag.starts_with("--") => panic!("unknown flag '{flag}'"),
            positional => label = positional.to_string(),
        }
    }

    let rows = [
        measure_sim("c_element", bench_c),
        measure_sim("inv_c", bench_c_inv),
        measure_sim("min_max", bench_min_max),
        measure_sim("bitonic_4", || bench_bitonic(4)),
        measure_sim("bitonic_8", || bench_bitonic(8)),
        measure_sim("bitonic_16", || bench_bitonic(16)),
        measure_sim("bitonic_32", || bench_bitonic(32)),
    ];

    // Sweep: the 1000-trial Gaussian study of the 4-bit ripple adder from
    // benches/sweep.rs, pinned to one worker so the number isolates kernel
    // cost rather than core count. The trial/outcome tallies come from one
    // instrumented sweep; the timed loop runs uninstrumented.
    const TRIALS: u64 = 1000;
    let build_adder = || {
        let mut c = Circuit::new();
        ripple_adder_with_inputs(&mut c, 4, 9, 6, false).expect("valid bench");
        c
    };
    let sweep_tel = Telemetry::new();
    {
        let report = Sweep::over(build_adder)
            .variability(|| Variability::Gaussian { std: 0.2 })
            .trials(TRIALS)
            .master_seed(42)
            .threads(1)
            .telemetry(&sweep_tel)
            .run();
        assert_eq!(report.trials, TRIALS);
    }
    let sweep_report = sweep_tel.report();
    assert_eq!(sweep_report.counter("sweep.trials"), TRIALS);
    let adder_events = {
        let mut sim = Simulation::new(build_adder());
        sim.run().expect("clean").pulse_count_all() as u64
    };
    let sweep_ns = time_median(
        || {
            let report = Sweep::over(build_adder)
                .variability(|| Variability::Gaussian { std: 0.2 })
                .trials(TRIALS)
                .master_seed(42)
                .threads(1)
                .run();
            assert_eq!(report.trials, TRIALS);
        },
        400.0,
        3,
    );
    let sweep_ns_per_trial = sweep_ns / TRIALS as f64;
    let sweep_ns_per_event = sweep_ns_per_trial / adder_events.max(1) as f64;

    // Batch sweep: a per-trial `Simulation::run` loop vs a sweep on the
    // same high-trial-count Monte-Carlo workloads (one thread each).
    let build_adder8 = || {
        let mut c = Circuit::new();
        ripple_adder_with_inputs(&mut c, 8, 173, 99, false).expect("valid bench");
        c
    };
    let batch_rows = [
        measure_batch_sweep("ripple_adder_4bit", build_adder, 100_000),
        measure_batch_sweep("ripple_adder_8bit", build_adder8, 100_000),
        measure_batch_sweep("bitonic_8", || bench_bitonic(8).circuit, 100_000),
    ];

    // Verification: PyLSE→TA translation of the 8-input bitonic sorter and
    // Query-2 model checking of the And cell (from benches/verification.rs).
    let bitonic8 = bench_bitonic(8).circuit;
    let translate_ns = time_median(|| drop(translate_circuit(&bitonic8).unwrap()), 150.0, 10);
    let and_spec = rlse_cells::defs::and_elem();
    let and_circ = rlse_bench::cell_bench("And", &and_spec).circuit;
    let tr = translate_circuit(&and_circ).unwrap();
    let mc_ns = time_median(
        || drop(check(&tr.net, &McQuery::query2(&tr), McOptions::default())),
        400.0,
        3,
    );

    // Design-level model checking: Table-3-style compositions, both queries.
    // Explored-state, peak-store, and subsumption counts come from the
    // telemetry flush of one instrumented Query-2 pass per design.
    struct McRow {
        name: &'static str,
        q1_ns: f64,
        q2_ns: f64,
        report: TelemetryReport,
    }
    let mc_rows: Vec<McRow> = [
        ("min_max", bench_min_max()),
        ("adder_sync", bench_adder_sync()),
        ("bitonic_4", bench_bitonic(4)),
    ]
    .into_iter()
    .map(|(name, bench)| {
        let (events, _, circ) = simulate(bench);
        let expected = expected_outputs(&circ, &events);
        let refs: Vec<(&str, Vec<f64>)> = expected
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect();
        let tr = translate_circuit(&circ).unwrap();
        let tel = Telemetry::new();
        let q2 = check_with_telemetry(&tr.net, &McQuery::query2(&tr), McOptions::default(), Some(&tel));
        assert_eq!(q2.holds, Some(true), "{name} q2: {:?}", q2.violation);
        let report = tel.report();
        assert_eq!(report.counter("mc.states"), q2.states() as u64);
        let q2_ns = time_median(
            || drop(check(&tr.net, &McQuery::query2(&tr), McOptions::default())),
            400.0,
            3,
        );
        let q1_ns = time_median(
            || drop(check(&tr.net, &McQuery::query1(&tr, &refs), McOptions::default())),
            400.0,
            3,
        );
        McRow {
            name,
            q1_ns,
            q2_ns,
            report,
        }
    })
    .collect();

    let overhead = measure_overhead();
    let analog_rows = measure_analog();

    // Serving throughput: the generated 200-request mixed corpus through
    // the request scheduler at the canonical worker counts. On a 1-core
    // host the multi-worker rows measure scheduling overhead, not speedup;
    // host_cores is recorded so readers can judge.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    const SERVE_CORPUS: usize = 200;
    let serve_corpus = rlse_serve::generated_requests(SERVE_CORPUS);
    let serve_rows = measure_serve_throughput(&serve_corpus, &[1, 2, 4, 8]);

    let decode_rows = measure_json_decode();

    // Hand-rolled JSON (the workspace deliberately has no serde dependency).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"kernel\": \"{label}\",\n"));
    out.push_str("  \"tool\": \"perf_baseline\",\n");
    out.push_str("  \"simulation\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let ev = r.events.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events_per_run\": {}, \
             \"dispatches_per_run\": {}, \"transitions_per_run\": {}, \
             \"max_heap_depth\": {}, \
             \"fresh_median_ns\": {:.0}, \"fresh_ns_per_event\": {:.1}, \
             \"fresh_allocs_per_run\": {}, \
             \"reused_median_ns\": {:.0}, \"reused_ns_per_event\": {:.1}, \
             \"reused_allocs_per_run\": {}}}{}\n",
            r.name,
            r.events,
            r.dispatches,
            r.transitions,
            r.max_heap,
            r.fresh_ns,
            r.fresh_ns / ev,
            r.fresh_allocs,
            r.reused_ns,
            r.reused_ns / ev,
            r.reused_allocs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // Analog engines: the naive per-step reference is the "before", the
    // event-gated engine the "after"; both produce identical pulse times
    // (asserted in `measure_analog`).
    out.push_str("  \"analog\": [\n");
    for (i, r) in analog_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"jjs\": {}, \"steps\": {}, \
             \"reference_median_ns\": {:.0}, \"gated_median_ns\": {:.0}, \
             \"speedup\": {:.2}, \"cell_steps\": {}, \"solves\": {}, \
             \"solves_skipped\": {}, \"newton_iters\": {}, \
             \"refactorizations\": {}, \"refactor_avoided\": {}, \
             \"pulses_routed\": {}, \"peak_active_cells\": {}}}{}\n",
            r.name,
            r.jjs,
            r.steps,
            r.reference_median_ns,
            r.gated_median_ns,
            r.reference_median_ns / r.gated_median_ns.max(1.0),
            r.report.counter("analog.cell_steps"),
            r.report.counter("analog.solves"),
            r.report.counter("analog.solves_skipped"),
            r.report.counter("analog.newton_iters"),
            r.report.counter("analog.refactorizations"),
            r.report.counter("analog.refactor_avoided"),
            r.report.counter("analog.pulses_routed"),
            r.report.gauge("analog.peak_active_cells"),
            if i + 1 == analog_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"sweep\": {{\"name\": \"ripple_adder_4bit_gaussian\", \"trials\": {}, \
         \"threads\": 1, \"ok_trials\": {}, \"check_failures\": {}, \
         \"timing_violations\": {}, \"events_per_trial\": {adder_events}, \
         \"median_ns_per_trial\": {sweep_ns_per_trial:.0}, \
         \"ns_per_event\": {sweep_ns_per_event:.1}}},\n",
        sweep_report.counter("sweep.trials"),
        sweep_report.counter("sweep.ok"),
        sweep_report.counter("sweep.check_failures"),
        sweep_report.counter("sweep.timing_violations"),
    ));
    out.push_str(&format!(
        "  \"sweep_batch\": {{\"host\": {}, \"rows\": [\n",
        host_fingerprint()
    ));
    for (i, r) in batch_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"trials\": {}, \"threads\": {}, \
             \"scalar_ns_per_trial\": {:.1}, \"batch_ns_per_trial\": {:.1}, \
             \"speedup\": {:.2}, \"blocks\": {}, \"dispatches\": {}, \
             \"wire_pulses\": {}}}{}\n",
            r.name,
            r.trials,
            r.threads,
            r.scalar_ns_per_trial,
            r.batch_ns_per_trial,
            r.speedup(),
            r.blocks,
            r.dispatches,
            r.wire_pulses,
            if i + 1 == batch_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!(
        "  \"verification\": {{\"translate_bitonic_8_median_ns\": {translate_ns:.0}, \
         \"model_check_query2_and_median_ns\": {mc_ns:.0},\n"
    ));
    out.push_str("  \"model_check_designs\": [\n");
    for (i, r) in mc_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"query1_median_ns\": {:.0}, \
             \"query2_median_ns\": {:.0}, \"states\": {}, \"peak_store\": {}, \
             \"candidates\": {}, \"subsumed\": {}, \"evicted\": {}}}{}\n",
            r.name,
            r.q1_ns,
            r.q2_ns,
            r.report.counter("mc.states"),
            r.report.gauge("mc.peak_store"),
            r.report.counter("mc.candidates"),
            r.report.counter("mc.subsumed"),
            r.report.counter("mc.evicted"),
            if i + 1 == mc_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!(
        "  \"serve_throughput\": {{\"corpus_requests\": {SERVE_CORPUS}, \
         \"host_cores\": {host_cores}, \"rows\": [\n"
    ));
    for (i, r) in serve_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"engine_threads\": {}, \
             \"cold_requests_per_sec\": {:.1}, \"warm_requests_per_sec\": {:.1}, \
             \"singleflight_waits\": {}}}{}\n",
            r.workers,
            r.engine_threads,
            r.cold_rps,
            r.warm_rps,
            r.singleflight_waits,
            if i + 1 == serve_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!(
        "  \"json_decode\": {{\"host\": {}, \"rows\": [\n",
        host_fingerprint()
    ));
    for (i, r) in decode_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"bytes\": {}, \"median_ns\": {:.0}, \
             \"mib_per_s\": {:.1}}}{}\n",
            r.name,
            r.bytes,
            r.median_ns,
            r.mib_per_s(),
            if i + 1 == decode_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    let disabled_pct = 100.0 * (overhead.disabled_ns - overhead.off_ns) / overhead.off_ns;
    let enabled_pct = 100.0 * (overhead.enabled_ns - overhead.off_ns) / overhead.off_ns;
    out.push_str(&format!(
        "  \"telemetry_overhead\": {{\"workload\": \"bitonic_8_reused\", \
         \"off_median_ns\": {:.0}, \"disabled_median_ns\": {:.0}, \
         \"enabled_median_ns\": {:.0}, \"disabled_overhead_pct\": {:.2}, \
         \"enabled_overhead_pct\": {:.2}}}\n",
        overhead.off_ns, overhead.disabled_ns, overhead.enabled_ns, disabled_pct, enabled_pct,
    ));
    out.push_str("}\n");
    print!("{out}");
}
