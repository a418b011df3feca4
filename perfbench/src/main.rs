//! `rlse-perfbench`: the end-to-end and per-layer benchmark of the
//! `rlse-serve` request stack.
//!
//! ```text
//! rlse-perfbench --workload sim_hot|sim_cold|montecarlo|verify
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run serves a seeded request stream through the real serving stack
//! in process (`Server::serve_reader`, built as `rlse-serve --workers 0`
//! builds it) under a closed loop of one client per hardware thread for
//! `--seconds`, checks every response, and prints the end-to-end metrics. With `--trace 1` each phase gets half the time: it
//! serves the lines of the untraced phase again through
//! `Server::serve_observed` with the access log and metrics file on,
//! replays them layer by layer on one thread, writes the replay spans under
//! `perfbench/out/`, and prints the per-layer metrics instead. The last
//! line of standard output is one JSON result object.

mod check;
mod closed_loop;
mod gen;
mod replay;
mod report;
mod stats;

use check::Collector;
use closed_loop::{ClosedLoop, CreditReader, StampWriter};
use gen::{Generator, Workload};
use replay::Replay;
use report::{metric, Metric};
use rlse_core::ir::json::JsonValue;
use rlse_serve::{ObserveOptions, Observer, ServeOptions, Server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times the server is built and warmed per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Equal-time windows the measured phase is cut into; each end-to-end
/// rate and latency metric is the median of its per-window values.
const WINDOWS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::SimHot,
        seed: gen::DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |max: u64| -> Result<u64, String> {
            value
                .parse::<u64>()
                .ok()
                .filter(|v| *v <= max)
                .ok_or_else(|| format!("{flag}: '{value}' is not an integer in 0..={max}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = int(gen::SEED_LIMIT - 1)?,
            "--seconds" => args.seconds = int(3600)?.max(1),
            "--trace" => args.trace = int(1)? == 1,
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Build a server and serve the warm-up lines: one set-up. Returns the
/// server, the set-up time, and a description of any warm-up response
/// that was not `"ok":true`.
fn set_up(gen: &Generator, opts: ServeOptions) -> std::io::Result<(Server, f64, Option<String>)> {
    let lines = gen.warmup_lines().join("\n");
    let t0 = Instant::now();
    let server = Server::new(opts);
    let mut out = Vec::new();
    server.serve_reader(lines.as_bytes(), &mut out)?;
    let secs = t0.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out);
    let bad = text
        .lines()
        .find(|l| !l.contains("\"ok\":true"))
        .map(|l| format!("warm-up failed: {}", &l[..l.len().min(200)]));
    Ok((server, secs, bad))
}

/// Serve `gen`'s stream through `server` under a closed loop.
fn serve_closed_loop<'g>(
    server: &Server,
    gen: &'g Generator,
    lp: &ClosedLoop,
    keep_all: bool,
    observer: Option<&mut Observer>,
) -> std::io::Result<Collector<'g>> {
    let mut coll = Collector::new(gen, keep_all);
    let reader = CreditReader::new(lp, |i| gen.request(i).line);
    let writer = StampWriter::new(lp, |line: &[u8], released, done| {
        coll.on_response(line, released, done);
    });
    match observer {
        Some(obs) => server.serve_observed(reader, writer, obs)?,
        None => server.serve_reader(reader, writer)?,
    };
    let missing = lp.released().saturating_sub(coll.received);
    for _ in 0..missing {
        coll.fail("request without a response".into());
    }
    Ok(coll)
}

/// One access-log record's wall-clock fields.
struct Access {
    parse: f64,
    cache: f64,
    run: f64,
    encode: f64,
    total: f64,
    queue: f64,
    reorder: f64,
}

fn read_access_log(path: &Path) -> Result<Vec<Access>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            let v = JsonValue::parse(l).map_err(|e| format!("access log: {e}"))?;
            let f = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            Ok(Access {
                parse: f("parse_us"),
                cache: f("cache_us"),
                run: f("run_us"),
                encode: f("encode_us"),
                total: f("total_us"),
                queue: f("queue_us"),
                reorder: f("reorder_us"),
            })
        })
        .collect()
}

fn read_gauge(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Everything the traced run measures.
struct Traced {
    metrics: Vec<Metric>,
    digest_mismatches: u64,
    failures: Vec<String>,
    spans_path: PathBuf,
}

fn traced_run(
    gen: &Generator,
    opts: ServeOptions,
    callers: usize,
    phase: Duration,
    untraced: &Collector,
) -> Result<Traced, String> {
    let io = |e: std::io::Error| e.to_string();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(io)?;
    let stem = gen.workload().name();
    let access_path = dir.join(format!("{stem}-access.jsonl"));
    let metrics_path = dir.join(format!("{stem}-metrics.prom"));
    let spans_path = dir.join(format!("{stem}-spans.jsonl"));
    let (server, _, bad) = set_up(gen, opts).map_err(io)?;
    let mut failures: Vec<String> = bad.into_iter().collect();
    let mut observer = Observer::from_options(&ObserveOptions {
        access_log: Some(access_path.clone()),
        metrics: Some(metrics_path.clone()),
        ..Default::default()
    })
    .map_err(io)?;

    // 1. The same lines through the observed serving path.
    let lp = ClosedLoop::new(callers, None, untraced.received);
    let t0 = Instant::now();
    let traced = serve_closed_loop(&server, gen, &lp, true, Some(&mut observer)).map_err(io)?;
    let wall = t0.elapsed().as_secs_f64();
    failures.extend(traced.failures.iter().cloned());
    let n = untraced.line_digests.len().max(traced.line_digests.len());
    let digest_mismatches = (0..n)
        .filter(|&i| untraced.line_digests.get(i) != traced.line_digests.get(i))
        .count() as u64;

    // 2. The single-thread layer replay over the same lines.
    let replay = Replay::run(gen, &traced.responses, phase);
    replay.write_spans(gen, &spans_path).map_err(io)?;
    if replay.encode_mismatches > 0 {
        failures.push(format!(
            "{} re-encoded responses differ from the served bytes",
            replay.encode_mismatches
        ));
    }

    let access = read_access_log(&access_path)?;
    let prom = std::fs::read_to_string(&metrics_path).map_err(io)?;
    let col = |f: fn(&Access) -> f64| access.iter().map(f).collect::<Vec<f64>>();
    let replayed = (replay.requests as usize).min(access.len());
    let served_us: f64 = access[..replayed].iter().map(|a| a.total).sum();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let count = |layer: &str| replay.spans.iter().filter(|s| s.layer == layer).count() as u64;
    let lookups = replay.hits + replay.misses;
    let m = vec![
        metric("json.parse_us_p50", replay.us_p50("json.parse"), "us"),
        metric(
            "json.parse_mib_per_s",
            replay.bytes as f64 / f64::from(1 << 20) / replay.total_s("json.parse").max(1e-9),
            "MiB/s",
        ),
        metric("json.encode_us_p50", replay.us_p50("json.encode"), "us"),
        metric(
            "json.bytes_per_request",
            per(replay.bytes as f64, replay.requests),
            "bytes",
        ),
        metric("ir.decode_us_p50", replay.us_p50("ir.decode"), "us"),
        metric("ir.rebuild_us_p50", replay.us_p50("ir.rebuild"), "us"),
        metric("ir.hash_us_p50", replay.us_p50("ir.hash"), "us"),
        metric("cache.hit_us_p50", replay.us_p50("cache.hit"), "us"),
        metric(
            "cache.hit_ratio",
            per(replay.hits as f64, lookups),
            "fraction",
        ),
        metric("cache.miss_us_p50", replay.us_p50("cache.fresh"), "us"),
        metric("cache.misses", replay.misses as f64, "count"),
        metric("cache.evictions", replay.evictions as f64, "count"),
        metric(
            "cache.singleflight_waits",
            server.cache().singleflight_waits() as f64,
            "count",
        ),
        metric("sim.run_us_p50", replay.us_p50("sim.run"), "us"),
        metric(
            "sim.events_per_request",
            per(replay.events as f64, count("sim.run")),
            "count",
        ),
        metric(
            "sim.ns_per_event",
            per(replay.total_s("sim.run") * 1e9, replay.events),
            "ns",
        ),
        metric("sweep.run_us_p50", replay.us_p50("sweep.run"), "us"),
        metric(
            "sweep.ns_per_trial",
            per(replay.total_s("sweep.run") * 1e9, replay.trials),
            "ns",
        ),
        metric("shmoo.run_us_p50", replay.us_p50("shmoo.run"), "us"),
        metric("ta.translate_us_p50", replay.us_p50("ta.translate"), "us"),
        metric("mc.check_us_p50", replay.us_p50("mc.check"), "us"),
        metric(
            "mc.states_per_request",
            per(replay.states as f64, count("ta.translate")),
            "count",
        ),
        metric(
            "mc.ns_per_state",
            per(replay.total_s("mc.check") * 1e9, replay.states),
            "ns",
        ),
        metric(
            "mc.subsumed_ratio",
            per(replay.subsumed as f64, replay.candidates),
            "fraction",
        ),
        metric("serve.parse_us_p50", stats::median(&col(|a| a.parse)), "us"),
        metric("serve.cache_us_p50", stats::median(&col(|a| a.cache)), "us"),
        metric("serve.run_us_p50", stats::median(&col(|a| a.run)), "us"),
        metric(
            "serve.encode_us_p50",
            stats::median(&col(|a| a.encode)),
            "us",
        ),
        metric("serve.total_us_p50", stats::median(&col(|a| a.total)), "us"),
        metric(
            "serve.unattributed_frac",
            if served_us > 0.0 {
                1.0 - replay.critical_path_us() / served_us
            } else {
                0.0
            },
            "fraction",
        ),
        metric(
            "sched.queue_us_p90",
            stats::percentile(&col(|a| a.queue), 0.9),
            "us",
        ),
        metric(
            "sched.reorder_us_p90",
            stats::percentile(&col(|a| a.reorder), 0.9),
            "us",
        ),
        metric(
            "sched.queue_depth_peak",
            read_gauge(&prom, "rlse_sched_queue_depth_peak"),
            "count",
        ),
        metric(
            "sched.reorder_depth_peak",
            read_gauge(&prom, "rlse_sched_reorder_depth_peak"),
            "count",
        ),
        metric(
            "sched.busy_frac",
            col(|a| a.total).iter().sum::<f64>() / 1e6 / (wall * server.workers() as f64),
            "fraction",
        ),
        metric("trace.throughput_rps", traced.throughput(), "1/s"),
        metric(
            "trace.untraced_throughput_rps",
            untraced.throughput(),
            "1/s",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - traced.throughput() / untraced.throughput().max(1e-9),
            "fraction",
        ),
        metric("replay.requests", replay.requests as f64, "count"),
    ];
    Ok(Traced {
        metrics: m,
        digest_mismatches,
        failures,
        spans_path,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let io = |e: std::io::Error| e.to_string();
    let gen = Generator::new(args.workload, args.seed);
    // `rlse-serve` callers pipe lines in and wait for in-order replies:
    // one such caller per hardware thread.
    let callers = host_threads();
    let opts = ServeOptions {
        workers: 0,
        threads: 0,
        max_cache_entries: args.workload.cache_cap(),
        ..Default::default()
    };

    // The first set-up builds the server the measured phase uses.
    let (server, first_setup, bad) = set_up(&gen, opts).map_err(io)?;
    let mut setups = vec![first_setup];
    let mut failures: Vec<String> = bad.into_iter().collect();

    println!(
        "# rlse-perfbench workload={} seed={} seconds={} trace={} (default seed {}, held-out seed {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gen::DEFAULT_SEED,
        gen::HELD_OUT_SEED
    );
    println!(
        "# host: nproc={} cpu=\"{}\" rustc=\"{}\" profile={}",
        host_threads(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!(
        "# server: workers={} engine_threads={} cache_cap={} callers={} (closed loop)",
        server.workers(),
        server.engine_threads(),
        args.workload.cache_cap(),
        callers
    );
    let shares: Vec<String> = gen
        .shares()
        .iter()
        .map(|(name, share)| format!("{name} {:.0}%", share * 100.0))
        .collect();
    println!("# classes: {}", shares.join(", "));

    // The measured phase, untraced. A traced run reports no end-to-end
    // metrics, so it halves each of its three phases to fit one run's time.
    let phase = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    let lp = ClosedLoop::new(callers, Some(Instant::now() + phase), u64::MAX);
    let coll = serve_closed_loop(&server, &gen, &lp, false, None).map_err(io)?;
    let attempted = lp.released();
    let rss = peak_rss_mib();
    // The other set-ups come after the peak is read: the memory their
    // threads leave with the allocator would otherwise blur it.
    for _ in 1..SETUP_REPS {
        let (_, secs, bad) = set_up(&gen, opts).map_err(io)?;
        setups.push(secs);
        failures.extend(bad);
    }
    let mut failed = failures.len() as u64 + coll.failed;
    failures.extend(coll.failures.iter().cloned());
    let sample_failures = check::verify_sample(&gen, &coll.sample);
    failed += sample_failures.len() as u64;
    failures.extend(sample_failures);

    let win = coll.windowed(WINDOWS);
    let e2e = vec![
        metric("throughput_rps", win.rps, "1/s"),
        metric("latency_p50_ms", win.p50_ms, "ms"),
        metric("latency_p90_ms", win.p90_ms, "ms"),
        metric("setup_s", stats::median(&setups), "s"),
        metric("peak_rss_mib", rss, "MiB"),
    ];
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!(
        "# measured: sent={attempted} completed={} peak outstanding={} latency samples={} \
         checked={} digest={:016x}",
        coll.received,
        lp.peak_outstanding(),
        coll.latency_ms.len(),
        coll.sample.len(),
        coll.digest.0
    );
    print!("{}", report::table(&e2e));
    println!("  {:<30} {:>14.4} fraction", "error_rate", error_rate);
    let cdf: Vec<String> = [0.4, 0.45, 0.5, 0.55, 0.6, 0.85, 0.875, 0.9, 0.925, 0.95]
        .iter()
        .map(|&q| {
            format!(
                "p{}={:.2}",
                (q * 1000.0_f64).round() / 10.0,
                stats::percentile(&coll.latency_ms, q)
            )
        })
        .collect();
    println!("#   latency ms: {}", cdf.join(" "));
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); gen.classes().len()];
    for (i, &ms) in coll.latency_ms.iter().enumerate() {
        by_class[gen.slot(i as u64).0].push(ms);
    }
    for (class, lat) in gen.classes().iter().zip(&by_class) {
        let (p50, p90) = report::quantiles(lat);
        println!(
            "#   {:<24} n={:<5} p50={p50:.3} ms p90={p90:.3} ms",
            class.name,
            lat.len()
        );
    }

    let mut metrics = e2e;
    if args.trace {
        let traced = traced_run(&gen, opts, callers, phase, &coll)?;
        failed += traced.digest_mismatches + traced.failures.len() as u64;
        failures.extend(traced.failures.iter().cloned());
        if traced.digest_mismatches > 0 {
            failures.push(format!(
                "{} responses differ between the untraced and traced runs",
                traced.digest_mismatches
            ));
        }
        println!(
            "# traced: digest {} the untraced run; spans in {}",
            if traced.digest_mismatches == 0 {
                "matches"
            } else {
                "DIFFERS FROM"
            },
            traced.spans_path.display()
        );
        print!("{}", report::table(&traced.metrics));
        metrics = traced.metrics;
    }

    for f in &failures {
        println!("# FAILED: {f}");
    }
    let correct = failures.is_empty() && failed == 0 && attempted > 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rlse-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
