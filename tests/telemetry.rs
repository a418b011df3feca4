//! Integration tests for the unified telemetry layer: the Chrome-trace
//! golden shape, cross-thread determinism of the report for both the sweep
//! engine and the model checker, and the zero-cost contract of the disabled
//! handle.

use rlse::core::sweep::Sweep;
use rlse::core::telemetry::{chrome_trace_for, SpanRec};
use rlse::prelude::*;
use rlse::ta::mc::{check_with_telemetry, McOptions, McQuery};
use rlse::ta::translate::translate_machine;

fn and_inputs() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("a", vec![20.0]),
        ("b", vec![30.0]),
        ("clk", vec![50.0]),
    ]
}

/// The Chrome `trace_event` exporter is a pure function of the span list,
/// so its output is goldenable byte-for-byte.
#[test]
fn chrome_trace_golden() {
    let spans = vec![
        SpanRec {
            name: "sim.run",
            track: 0,
            seq: 0,
            start_us: 1.5,
            dur_us: 250.25,
            arg: 42,
        },
        SpanRec {
            name: "sweep.worker",
            track: 2,
            seq: 0,
            start_us: 2.0,
            dur_us: 100.0,
            arg: 7,
        },
    ];
    let got = chrome_trace_for(&spans, 3);
    let want = concat!(
        "{\"traceEvents\":[",
        "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,",
        "\"args\":{\"name\":\"main\"}},",
        "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,",
        "\"args\":{\"name\":\"worker-2\"}},",
        "\n{\"name\":\"sim.run\",\"cat\":\"rlse\",\"ph\":\"X\",\"pid\":1,\"tid\":0,",
        "\"ts\":1.500,\"dur\":250.250,\"args\":{\"arg\":42,\"seq\":0}},",
        "\n{\"name\":\"sweep.worker\",\"cat\":\"rlse\",\"ph\":\"X\",\"pid\":1,\"tid\":2,",
        "\"ts\":2.000,\"dur\":100.000,\"args\":{\"arg\":7,\"seq\":0}}",
        "\n],\"displayTimeUnit\":\"ms\",",
        "\"otherData\":{\"tool\":\"rlse-telemetry\",\"droppedSpans\":3}}",
    );
    assert_eq!(got, want);
}

/// A live handle on a real run produces a trace with the same frame.
#[test]
fn chrome_trace_from_a_real_run_has_the_golden_frame() {
    let tel = Telemetry::new();
    let mut c = Circuit::new();
    let a = c.inp_at(&[10.0, 20.0], "a");
    let q = rlse::cells::jtl(&mut c, a).unwrap();
    c.inspect(q, "q");
    Simulation::new(c).telemetry(&tel).run().unwrap();
    let trace = tel.chrome_trace_json();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"sim.run\""));
    assert!(trace.contains("\"name\":\"sim.compile\""));
    assert!(trace.ends_with("\"droppedSpans\":0}}"));
}

/// The sweep flushes identical counters regardless of worker count: the
/// report (and its JSON rendering) is bit-identical at 1 and 8 threads.
#[test]
fn sweep_report_is_identical_across_thread_counts() {
    let report_at = |threads: usize| {
        let tel = Telemetry::new();
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 20.0, 30.0, 40.0], "a");
            let q = rlse::cells::jtl(&mut c, a).unwrap();
            c.inspect(q, "q");
            c
        };
        let sweep_report = Sweep::over(build)
            .variability(|| Variability::Gaussian { std: 0.1 })
            .trials(64)
            .master_seed(7)
            .threads(threads)
            .telemetry(&tel)
            .run();
        assert_eq!(sweep_report.trials, 64);
        tel.report()
    };
    let one = report_at(1);
    let eight = report_at(8);
    assert_eq!(one, eight);
    assert_eq!(one.to_json(), eight.to_json());
    assert_eq!(one.counter("sweep.trials"), 64);
    // A sweep records its own counter set, not per-trial `sim.*` ones: 4
    // blocks of 16 trials, each trial dispatching its 4 stimulus pulses
    // once.
    assert_eq!(one.counter("sweep.blocks"), 4);
    assert_eq!(one.counter("sweep.dispatches"), 64 * 4);
    assert_eq!(one.counter("sweep.transitions"), 64 * 4);
    assert_eq!(one.counter("sim.runs"), 0);
}

/// Same contract for the model checker at 1 vs 4 shard workers.
#[test]
fn model_checker_report_is_identical_across_thread_counts() {
    let tr = translate_machine(&rlse::cells::defs::and_elem(), &and_inputs(), 10).unwrap();
    let q2 = McQuery::query2(&tr);
    let report_at = |threads: usize| {
        let tel = Telemetry::new();
        let opts = McOptions {
            threads,
            ..Default::default()
        };
        let r = check_with_telemetry(&tr.net, &q2, opts, Some(&tel));
        assert_eq!(r.holds, Some(true), "{:?}", r.violation);
        assert_eq!(r.states() as u64, tel.report().counter("mc.states"));
        tel.report()
    };
    let seq = report_at(1);
    let par = report_at(4);
    assert_eq!(seq, par);
    assert_eq!(seq.to_json(), par.to_json());
}

/// The disabled handle is a no-op everywhere: nothing is counted, no span
/// storage exists, and attaching it to a simulation changes nothing.
#[test]
fn disabled_handle_records_nothing() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    assert!(tel.now().is_none(), "no clock reads on the disabled path");

    let mut c = Circuit::new();
    let a = c.inp_at(&[10.0], "a");
    let q = rlse::cells::jtl(&mut c, a).unwrap();
    c.inspect(q, "q");
    let mut sim = Simulation::new(c).telemetry(&tel);
    sim.run().unwrap();

    tel.add("sim.runs", 5);
    tel.peak("sim.max_heap_depth", 5);
    let report = tel.report();
    assert!(report.is_empty(), "disabled handle stays empty: {report:?}");
    assert_eq!(report.counter("sim.runs"), 0);
    assert_eq!(tel.dropped_spans(), 0);
    assert_eq!(
        tel.chrome_trace_json(),
        chrome_trace_for(&[], 0),
        "disabled trace is the empty frame"
    );
}

/// `reset` clears counters between phases so one handle can be reused for
/// before/after comparisons.
#[test]
fn reset_clears_the_report() {
    let tel = Telemetry::new();
    tel.add("sim.runs", 2);
    tel.peak("sim.max_heap_depth", 9);
    assert!(!tel.report().is_empty());
    tel.reset();
    assert!(tel.report().is_empty());
}
