//! Response collection and the correctness check.
//!
//! While a phase runs, [`Collector`] sees every response line as it leaves
//! the server. It only does cheap work there: it checks that the line is
//! `"ok":true` and carries the expected request's `id` in input order,
//! folds it into the stream digest, records its latency, and keeps a
//! deterministic sample of lines. Responses that depend only on their
//! circuit (`simulate`, `model_check`) must also be byte-identical, apart
//! from the `id`, to the first response for that circuit.
//!
//! After the phase, [`verify_sample`] recomputes every sampled response
//! through direct library calls.

use crate::gen::{Generator, Op};
use rlse_core::ir::json::JsonValue;
use rlse_core::ir::{Ir, IrQuery};
use rlse_core::prelude::*;
use rlse_ta::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// 64-bit FNV-1a, the digest of response streams and bodies.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.update(bytes);
        h.0
    }
}

/// Medians over time slices of a phase; see [`Collector::windowed`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Windowed {
    /// Completions per second.
    pub rps: f64,
    /// p50 latency in milliseconds.
    pub p50_ms: f64,
    /// p90 latency in milliseconds.
    pub p90_ms: f64,
}

/// Per-response bookkeeping for one served phase.
pub struct Collector<'g> {
    gen: &'g Generator,
    /// Index of the next expected response.
    pub received: u64,
    /// Digest of every response line, newline included, in order.
    pub digest: Fnv,
    /// Digest of each response line, by index.
    pub line_digests: Vec<u64>,
    /// Latency of each response in milliseconds, by index.
    pub latency_ms: Vec<f64>,
    /// Arrival of each response, in seconds since the first release.
    pub done_s: Vec<f64>,
    /// Release time of the first request and arrival of the last response.
    pub first_release: Option<Instant>,
    /// See `first_release`.
    pub last_done: Option<Instant>,
    /// Responses that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Sampled `(index, response)` pairs for [`verify_sample`].
    pub sample: Vec<(u64, String)>,
    /// Keep every response (the traced phase replays them).
    pub keep_all: bool,
    /// Every response, when `keep_all` is set.
    pub responses: Vec<String>,
    body_digests: HashMap<(usize, usize), u64>,
}

impl<'g> Collector<'g> {
    /// An empty collector for `gen`'s stream.
    pub fn new(gen: &'g Generator, keep_all: bool) -> Self {
        Collector {
            gen,
            received: 0,
            digest: Fnv::default(),
            line_digests: Vec::new(),
            latency_ms: Vec::new(),
            done_s: Vec::new(),
            first_release: None,
            last_done: None,
            failed: 0,
            failures: Vec::new(),
            sample: Vec::new(),
            keep_all,
            responses: Vec::new(),
            body_digests: HashMap::new(),
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Take in response line number `received`.
    pub fn on_response(&mut self, line: &[u8], released: Instant, done: Instant) {
        let i = self.received;
        self.received += 1;
        let first = *self.first_release.get_or_insert(released);
        self.last_done = Some(done);
        self.done_s
            .push(done.saturating_duration_since(first).as_secs_f64());
        self.latency_ms
            .push(done.saturating_duration_since(released).as_secs_f64() * 1e3);
        self.digest.update(line);
        self.digest.update(b"\n");
        self.line_digests.push(Fnv::of(line));

        let (class_idx, variant) = self.gen.slot(i);
        let class = &self.gen.classes()[class_idx];
        let head = format!("{{\"id\":\"{}\",", self.gen.id(i));
        let Some(body) = line.strip_prefix(head.as_bytes()) else {
            self.fail(format!(
                "response #{i} does not carry id {}",
                self.gen.id(i)
            ));
            return;
        };
        let ok = format!("\"kind\":\"{}\",\"ok\":true", class.op.kind());
        if !body.starts_with(ok.as_bytes()) {
            let shown = String::from_utf8_lossy(&line[..line.len().min(200)]).into_owned();
            self.fail(format!("response #{i} is not ok: {shown}"));
            return;
        }
        let sampled = match class.op {
            // These bodies depend only on the circuit: repeats must match.
            Op::Simulate | Op::ModelCheck { .. } => {
                let digest = Fnv::of(body);
                match self.body_digests.get(&(class_idx, variant)) {
                    Some(&first) if first != digest => {
                        self.fail(format!("response #{i} differs from its circuit's first"));
                        false
                    }
                    Some(_) => false,
                    None => {
                        self.body_digests.insert((class_idx, variant), digest);
                        // Thin large circuit pools to every 16th circuit.
                        variant % 16 == 0
                    }
                }
            }
            Op::Sweep { .. } | Op::Shmoo { .. } => i % 32 < 2,
        };
        if sampled || self.keep_all {
            let text = String::from_utf8_lossy(line).into_owned();
            if sampled {
                self.sample.push((i, text.clone()));
            }
            if self.keep_all {
                self.responses.push(text);
            }
        }
    }

    /// Cut the time between the first release and the last response into
    /// `windows` equal slices and summarise each slice: its completion
    /// rate and the p50 and p90 latency of the responses that arrived in
    /// it. Returns the median of each over the slices, so that a burst of
    /// outside load in one slice does not move the result.
    pub fn windowed(&self, windows: usize) -> Windowed {
        let span = self.done_s.last().copied().unwrap_or(0.0);
        if span <= 0.0 {
            return Windowed::default();
        }
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for (&t, &ms) in self.done_s.iter().zip(&self.latency_ms) {
            slices[((t / span * windows as f64) as usize).min(windows - 1)].push(ms);
        }
        let width = span / windows as f64;
        let each = |f: &dyn Fn(&[f64]) -> f64| {
            crate::stats::median(&slices.iter().map(|v| f(v)).collect::<Vec<_>>())
        };
        Windowed {
            rps: each(&|v| v.len() as f64 / width),
            p50_ms: each(&|v| crate::report::quantiles(v).0),
            p90_ms: each(&|v| crate::report::quantiles(v).1),
        }
    }

    /// Completed requests per second between the first release and the
    /// last response.
    pub fn throughput(&self) -> f64 {
        match (self.first_release, self.last_done) {
            (Some(a), Some(b)) if b > a => self.received as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    v.get(key).ok_or_else(|| format!("response lacks '{key}'"))
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("'{key}' is not a number"))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: served {got:?}, direct {want:?}"))
    }
}

/// The `Sweep` a sweep request of these parameters runs, built directly,
/// on one thread (thread count never changes a sweep's results).
pub fn direct_sweep(
    ir: &Ir,
    trials: u64,
    seed: u64,
    std: f64,
    check: bool,
) -> Result<Sweep<'_>, String> {
    let mut sweep = Sweep::over(|| ir.to_circuit().expect("the IR rebuilt before"))
        .trials(trials)
        .master_seed(seed)
        .threads(1)
        .variability(move || Variability::Gaussian { std });
    if check {
        let expected = ir
            .queries
            .iter()
            .find_map(|q| match q {
                IrQuery::OutputsOnlyAt { outputs } => Some(outputs.clone()),
                _ => None,
            })
            .ok_or("check:true without expected outputs")?;
        sweep = sweep.check(move |ev| {
            expected
                .iter()
                .all(|(name, times)| ev.times(name) == times.as_slice())
        });
    }
    Ok(sweep)
}

/// The shmoo options of a request, on one thread.
pub fn shmoo_options(trials: u64, seed: u64) -> rlse_designs::ShmooOptions {
    rlse_designs::ShmooOptions {
        trials,
        master_seed: seed,
        threads: 1,
        ..Default::default()
    }
}

/// The queries the server checks for `ir`: its own, or Query 2 if none.
pub fn queries(ir: &Ir) -> Vec<IrQuery> {
    if ir.queries.is_empty() {
        vec![IrQuery::NoErrorState]
    } else {
        ir.queries.clone()
    }
}

/// The server's model-checker options for `max_states`, on one thread.
pub fn mc_options(max_states: u64) -> McOptions {
    McOptions {
        max_states: max_states as usize,
        max_seconds: rlse_serve::ServeOptions::default().max_seconds,
        threads: 1,
    }
}

/// Recompute one sampled response through direct library calls.
pub fn verify_one(gen: &Generator, index: u64, response: &str) -> Result<(), String> {
    let req = gen.request(index);
    let class = &gen.classes()[req.class];
    let resp = JsonValue::parse(response).map_err(|e| format!("response JSON: {e}"))?;
    let ir = match class.variants.get(req.variant) {
        Some(v) => {
            let ir = Ir::from_json(v).map_err(|e| e.to_string())?;
            let hash = format!("{:016x}", ir.content_hash());
            expect_eq("hash", field(&resp, "hash")?.as_str(), Some(hash.as_str()))?;
            Some(ir)
        }
        None => None,
    };
    let circuit = || -> Result<Circuit, String> {
        ir.as_ref()
            .expect("circuit-bearing class")
            .to_circuit()
            .map_err(|e| e.to_string())
    };
    match &class.op {
        Op::Simulate => {
            let direct = Simulation::new(circuit()?)
                .run()
                .map_err(|e| e.to_string())?;
            let served = field(&resp, "events")?
                .as_obj()
                .ok_or("'events' is not an object")?;
            expect_eq("event names", served.len(), direct.names().count())?;
            for (name, times) in served {
                let times: Vec<f64> = times
                    .as_arr()
                    .ok_or("event times are not an array")?
                    .iter()
                    .filter_map(JsonValue::as_f64)
                    .collect();
                expect_eq(name, times.as_slice(), direct.times(name))?;
            }
        }
        Op::Sweep { trials, std, check } => {
            let ir = ir.as_ref().expect("sweeps carry a circuit");
            let seed = req.seed.expect("sweeps carry a seed");
            let direct = direct_sweep(ir, *trials, seed, *std, *check)?
                .try_run()
                .map_err(|e| e.to_string())?;
            for (key, want) in [
                ("trials", direct.trials),
                ("ok_trials", direct.ok),
                ("check_failures", direct.check_failures),
                ("timing_violations", direct.timing_violations),
                ("other_errors", direct.other_errors),
            ] {
                expect_eq(key, num(&resp, key)?, want as f64)?;
            }
        }
        Op::Shmoo {
            design,
            sigmas,
            scales,
            trials,
        } => {
            let opts = shmoo_options(*trials, req.seed.expect("shmoo requests carry a seed"));
            let map = rlse_designs::shmoo_map(design, sigmas, scales, &opts);
            expect_eq("evaluated", num(&resp, "evaluated")?, map.evaluated as f64)?;
            let served: Vec<&str> = field(&resp, "map")?
                .as_arr()
                .ok_or("'map' is not an array")?
                .iter()
                .filter_map(JsonValue::as_str)
                .collect();
            let direct: Vec<String> = (0..sigmas.len())
                .map(|row| {
                    (0..scales.len())
                        .map(|col| match map.cell(row, col) {
                            rlse_designs::CellState::PassMeasured => 'P',
                            rlse_designs::CellState::PassInferred => 'p',
                            rlse_designs::CellState::FailMeasured => 'F',
                            rlse_designs::CellState::FailInferred => 'f',
                        })
                        .collect()
                })
                .collect();
            expect_eq("map", served, direct.iter().map(String::as_str).collect())?;
        }
        Op::ModelCheck { max_states } => {
            let ir = ir.as_ref().expect("model checks carry a circuit");
            let tr = translate_circuit(&circuit()?).map_err(|e| e.to_string())?;
            let queries = queries(ir);
            let served = field(&resp, "results")?
                .as_arr()
                .ok_or("'results' is not an array")?;
            expect_eq("query count", served.len(), queries.len())?;
            for (q, got) in queries.iter().zip(served) {
                let direct =
                    rlse_ta::mc::check(&tr.net, &McQuery::from_ir(&tr, q), mc_options(*max_states));
                expect_eq("direct verdict", direct.holds, Some(true))?;
                expect_eq("holds", field(got, "holds")?.as_bool(), Some(true))?;
                expect_eq("states", num(got, "states")?, direct.states() as f64)?;
            }
        }
    }
    Ok(())
}

/// Recompute every sampled response; the failures, one line each.
pub fn verify_sample(gen: &Generator, sample: &[(u64, String)]) -> Vec<String> {
    sample
        .iter()
        .filter_map(|(i, response)| {
            verify_one(gen, *i, response).err().map(|e| {
                format!(
                    "response #{i} ({}): {e}",
                    gen.classes()[gen.slot(*i).0].name
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use rlse_serve::{ServeOptions, Server};

    #[test]
    fn served_responses_pass_and_a_tampered_one_fails() {
        let server = Server::new(ServeOptions::default());
        for w in Workload::ALL {
            let gen = Generator::new(w, 5);
            // The first request of every class but the slowest ones.
            let period: u64 = gen.classes().iter().map(|c| c.weight as u64).sum();
            for (c, class) in gen.classes().iter().enumerate() {
                let heavy = class.name.contains("bitonic_16")
                    || (w == Workload::Verify && class.name.contains("bitonic"));
                if heavy {
                    continue;
                }
                let i = (0..period).find(|&i| gen.slot(i).0 == c).unwrap();
                let response = server.handle_line(&gen.request(i).line);
                verify_one(&gen, i, &response).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            }
        }
        let gen = Generator::new(Workload::SimHot, 5);
        let i = (0..20)
            .find(|&i| gen.classes()[gen.slot(i).0].name.starts_with("min_max"))
            .unwrap();
        let response = server.handle_line(&gen.request(i).line);
        let tampered = response.replacen("[", "[1.5,", 1);
        assert!(verify_one(&gen, i, &tampered).is_err());
    }

    #[test]
    fn collector_flags_wrong_ids_errors_and_mismatched_repeats() {
        let gen = Generator::new(Workload::SimHot, 5);
        let mut c = Collector::new(&gen, false);
        let now = Instant::now();
        let good = |i: u64| {
            format!(
                "{{\"id\":\"{}\",\"kind\":\"simulate\",\"ok\":true,\"x\":1}}",
                gen.id(i)
            )
        };
        c.on_response(good(0).as_bytes(), now, now);
        assert_eq!(c.failed, 0);
        c.on_response(good(0).as_bytes(), now, now); // wrong id for #1
        c.on_response(
            format!(
                "{{\"id\":\"{}\",\"kind\":\"simulate\",\"ok\":false}}",
                gen.id(2)
            )
            .as_bytes(),
            now,
            now,
        );
        assert_eq!(c.failed, 2);
        // Request #period repeats #0's circuit; a different body fails.
        let period: u64 = gen.classes().iter().map(|c| c.weight as u64).sum();
        for i in 3..period {
            c.on_response(good(i).as_bytes(), now, now);
        }
        let mut bad = good(period);
        bad.push(' ');
        c.on_response(bad.as_bytes(), now, now);
        assert_eq!(c.failed, 3, "{:?}", c.failures);
    }
}
