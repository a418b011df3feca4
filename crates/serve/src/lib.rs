//! # rlse-serve — the JSON-lines batch serving front end
//!
//! A request file (or stdin) holds one JSON object per line; each line is
//! answered with exactly one JSON response line, in request order. Five
//! request kinds are served:
//!
//! * `simulate` — rebuild a netlist-IR circuit and run one simulation,
//!   returning the full events dictionary.
//! * `sweep` — a deterministically-seeded Monte-Carlo sweep over an IR
//!   circuit under a variability model.
//! * `shmoo` — a σ × time-scale margin map over one of the named
//!   evaluation designs.
//! * `model_check` — translate an IR circuit to timed automata and check
//!   its embedded queries (Query 1 / Query 2 of the paper).
//! * `ping` — a deterministic liveness probe: answers `"ok":true` without
//!   touching the compiled cache or any engine. Batch drivers use it to
//!   check the service end to end at near-zero cost.
//!
//! Circuits arrive as [`Ir`] documents. Every IR-bearing request goes
//! through one shared [`CompiledCache`], so repeating a request (or sharing
//! a circuit across requests) reuses the compiled dispatch tables; the
//! cache's hit/miss counters are reported out of band in the
//! [`Server::summary`], never in a response line.
//!
//! ## Determinism
//!
//! Responses are byte-identical for byte-identical request lines: seeds are
//! explicit, worker thread counts never change results, and responses carry
//! only deterministic fields (no wall-clock times, no cache hit flags).
//! Each response embeds the request's own deterministic telemetry counters
//! under `"telemetry"`.
//!
//! ## Observability
//!
//! All wall-clock and operational data flows *out-of-band* (see [`obs`]):
//! a JSON-lines access log per request, phase-latency histograms exposed
//! as Prometheus text, per-tenant accounting in the [`ServeSummary`], and
//! Chrome traces for slow requests. Requests may carry an optional
//! `"tenant"` label (and the existing `"id"`); both are accounting-only —
//! neither enters the circuit content hash nor changes response bytes.
//!
//! ## Budgets
//!
//! [`ServeOptions`] caps what one request may ask for: sweep/shmoo trials,
//! model-checker states and wall-clock seconds, and the simulation time
//! horizon. Requests asking for more are clamped, and the effective values
//! are echoed in the response.
//!
//! Every request field is read strictly: a value of the wrong JSON type, a
//! negative horizon or budget, a `shmoo` axis the design's bench cannot be
//! built on, or a feedback circuit with no finite horizon is answered with
//! an `"ok":false` line before any engine runs. A finite horizon is not
//! bounded further, so a feedback circuit with a huge `until` still runs
//! until it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod obs;
mod sched;

pub use obs::{
    prometheus_text_for, prometheus_text_for_with_sched, AccessRecord, ObserveOptions, Observer,
    SchedStats,
};

use rlse_core::compiled::CompiledCircuit;
use rlse_core::ir::json::JsonValue;
use rlse_core::ir::{CompiledCache, Ir, IrQuery};
use rlse_core::prelude::*;
use rlse_ta::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Per-request resource caps. A request may ask for less than any cap but
/// never gets more.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Largest trial count a `sweep` or `shmoo` request may run per cell.
    pub max_trials: u64,
    /// Largest model-checker state budget a `model_check` request may use.
    pub max_states: usize,
    /// Largest model-checker wall-clock budget in seconds.
    pub max_seconds: f64,
    /// Largest simulation time horizon (`until`) in ps; `simulate` requests
    /// without an explicit horizon inherit it when finite.
    pub max_until: f64,
    /// Worker threads for the engines *inside* one request — sweeps and
    /// the model checker (0 = let the governor split the host between
    /// request workers; see [`Server::new`]). Thread count never changes
    /// response bytes.
    pub threads: usize,
    /// Concurrent request workers (0 = available parallelism). Responses
    /// are emitted strictly in input order and are byte-identical at any
    /// worker count; see [`Server::serve_observed`].
    pub workers: usize,
    /// Compiled-cache entry cap (0 = unbounded). A long-lived server fed
    /// many distinct circuits would otherwise grow without limit; overflow
    /// evicts least-recently-used entries, which only affects the summary's
    /// hit/miss counters, never response bytes.
    pub max_cache_entries: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_trials: 100_000,
            max_states: 2_000_000,
            max_seconds: 600.0,
            max_until: f64::INFINITY,
            threads: 0,
            workers: 1,
            max_cache_entries: 1024,
        }
    }
}

/// Per-request-kind accounting within a [`ServeSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTally {
    /// Requests of this kind answered.
    pub requests: u64,
    /// Of those, requests answered with `"ok":false`.
    pub errors: u64,
}

/// Per-tenant accounting within a [`ServeSummary`]. Requests without a
/// `"tenant"` field aggregate under the empty-string tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantTally {
    /// Requests this tenant submitted.
    pub requests: u64,
    /// Of those, requests answered with `"ok":false`.
    pub errors: u64,
    /// Compiled-cache hits attributable to this tenant's requests.
    pub cache_hits: u64,
    /// Compiled-cache misses (compilations) this tenant triggered.
    pub cache_misses: u64,
    /// Monte-Carlo trials executed for this tenant (sweep + shmoo).
    pub trials: u64,
    /// Model-checker states explored for this tenant.
    pub states: u64,
    /// Simulation events dispatched for this tenant.
    pub events: u64,
}

/// End-of-run accounting: requests served, compiled-cache traffic, and
/// per-kind / per-tenant breakdowns. Deterministic — it carries no
/// wall-clock data (latency lives in the [`obs`] histograms).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines answered (including error responses).
    pub requests: u64,
    /// Requests that produced an `"ok":false` response.
    pub errors: u64,
    /// Compiled-cache hits across all requests so far.
    pub cache_hits: u64,
    /// Compiled-cache misses (compilations) across all requests so far.
    pub cache_misses: u64,
    /// Per-request-kind tallies (`simulate`, `sweep`, …, plus `error` for
    /// lines with no recognizable kind), name-sorted.
    pub kinds: BTreeMap<String, KindTally>,
    /// Per-tenant tallies, tenant-name-sorted ("" = untenanted requests).
    pub tenants: BTreeMap<String, TenantTally>,
}

impl ServeSummary {
    /// Fold one served request into the tallies (cache traffic is patched
    /// in separately from the shared cache's counters).
    pub fn absorb(&mut self, rec: &AccessRecord) {
        self.requests += 1;
        if !rec.ok {
            self.errors += 1;
        }
        let k = self.kinds.entry(rec.kind.clone()).or_default();
        k.requests += 1;
        if !rec.ok {
            k.errors += 1;
        }
        let t = self
            .tenants
            .entry(rec.tenant.clone().unwrap_or_default())
            .or_default();
        t.requests += 1;
        if !rec.ok {
            t.errors += 1;
        }
        match rec.cache_hit {
            Some(true) => t.cache_hits += 1,
            Some(false) => t.cache_misses += 1,
            None => {}
        }
        t.trials += rec.counter("sweep.trials") + rec.counter("shmoo.trials");
        t.states += rec.counter("mc.states");
        t.events += rec.counter("sim.dispatches") + rec.counter("sweep.dispatches");
    }

    /// One-line JSON rendering (the `--summary` output). Built through the
    /// shared JSON emitter, so hostile tenant names are escaped.
    pub fn to_json(&self) -> String {
        let kinds = JsonValue::Obj(
            self.kinds
                .iter()
                .map(|(kind, t)| {
                    (
                        kind.clone(),
                        JsonValue::Obj(vec![
                            ("requests".into(), int(t.requests)),
                            ("errors".into(), int(t.errors)),
                        ]),
                    )
                })
                .collect(),
        );
        let tenants = JsonValue::Obj(
            self.tenants
                .iter()
                .map(|(tenant, t)| {
                    (
                        tenant.clone(),
                        JsonValue::Obj(vec![
                            ("requests".into(), int(t.requests)),
                            ("errors".into(), int(t.errors)),
                            ("cache_hits".into(), int(t.cache_hits)),
                            ("cache_misses".into(), int(t.cache_misses)),
                            ("trials".into(), int(t.trials)),
                            ("states".into(), int(t.states)),
                            ("events".into(), int(t.events)),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::Obj(vec![
            ("requests".into(), int(self.requests)),
            ("errors".into(), int(self.errors)),
            ("cache_hits".into(), int(self.cache_hits)),
            ("cache_misses".into(), int(self.cache_misses)),
            ("kinds".into(), kinds),
            ("tenants".into(), tenants),
        ])
        .to_compact()
    }
}

/// The batch front end: a shared compiled-artifact cache plus the budget
/// configuration, serving one request line at a time.
#[derive(Debug)]
pub struct Server {
    cache: CompiledCache,
    opts: ServeOptions,
    /// Resolved request-worker count (the governor ran at construction).
    workers: usize,
    /// Resolved per-request engine thread count (never 0 — two concurrent
    /// requests must not each claim every core).
    engine_threads: usize,
    /// Deterministic serial-replay of cache hit/miss outcomes for the
    /// access log; see `sched`'s module docs.
    hit_model: std::sync::Mutex<sched::HitModel>,
}

/// An internal request failure, rendered as an `"ok":false` response line.
struct RequestError(String);

/// Per-request bookkeeping threaded through the handlers: the request's
/// telemetry handle plus everything the access log needs that a handler
/// learns along the way. None of it feeds back into response bytes except
/// the telemetry counters the handlers were already embedding.
struct ReqCtx {
    tel: Telemetry,
    hash: Option<u64>,
    cache_hit: Option<bool>,
    clamps: Vec<&'static str>,
    cache_us: u64,
}

impl ReqCtx {
    fn new() -> Self {
        ReqCtx {
            tel: Telemetry::new(),
            hash: None,
            cache_hit: None,
            clamps: Vec::new(),
            cache_us: 0,
        }
    }
}

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

impl<E: std::fmt::Display> From<E> for RequestError {
    fn from(e: E) -> Self {
        RequestError(e.to_string())
    }
}

fn int(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_string())
}

/// The deterministic counters of a per-request telemetry report, as a JSON
/// object (spans and gauges carry wall-clock or memory detail and are
/// dropped).
fn telemetry_obj(report: &TelemetryReport) -> JsonValue {
    JsonValue::Obj(
        report
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), int(*v)))
            .collect(),
    )
}

/// An optional request field, read strictly: absent is `None`, and a
/// present value that `read` refuses is an in-band error naming the `rule`
/// it breaks — never silently ignored.
fn get_field<T>(
    req: &JsonValue,
    key: &str,
    rule: &str,
    read: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Option<T>, RequestError> {
    req.get(key)
        .map(|v| read(v).ok_or_else(|| RequestError(format!("'{key}' must be {rule}"))))
        .transpose()
}

/// An optional non-negative integer request field (`seed`, `trials`,
/// `max_states`), read exactly: a present value that is not an integer in
/// `[0, 2^53)` — fractional, negative, too large to be exact in a JSON
/// number, or not a number — is an in-band error.
fn get_count(req: &JsonValue, key: &str) -> Result<Option<u64>, RequestError> {
    get_field(req, key, "an integer in [0, 2^53)", |v| {
        v.as_usize().map(|n| n as u64)
    })
}

/// An optional non-negative number field (`until`, `max_seconds`,
/// `tolerance`).
fn get_nonneg(req: &JsonValue, key: &str) -> Result<Option<f64>, RequestError> {
    get_field(req, key, "a non-negative number", |v| {
        v.as_f64().filter(|x| *x >= 0.0)
    })
}

/// An optional boolean field (`check`, `adaptive`).
fn get_bool(req: &JsonValue, key: &str) -> Result<Option<bool>, RequestError> {
    get_field(req, key, "true or false", JsonValue::as_bool)
}

fn events_obj(events: &Events) -> JsonValue {
    JsonValue::Obj(
        events
            .names()
            .map(|n| {
                let times = events.times(n).iter().map(|&t| num(t)).collect();
                (n.to_string(), JsonValue::Arr(times))
            })
            .collect(),
    )
}

/// A request's parsed variability model. [`Variability`] itself is not
/// `Clone` (custom models box stateful closures), so the spec is kept in
/// this cloneable form and instantiated once per consumer.
#[derive(Debug, Clone)]
enum VarSpec {
    Gaussian(f64),
    PerCellType(std::collections::HashMap<String, f64>),
}

impl VarSpec {
    fn make(&self) -> Variability {
        match self {
            VarSpec::Gaussian(std) => Variability::Gaussian { std: *std },
            VarSpec::PerCellType(map) => Variability::PerCellType(map.clone()),
        }
    }
}

/// The rule every jitter σ a request carries must meet (`variability`
/// and `shmoo`'s `sigmas` alike).
fn sigma_ok(sigma: f64) -> bool {
    sigma.is_finite() && sigma >= 0.0
}

/// The `"variability"` field of a request: `{"kind":"gaussian","std":S}` or
/// `{"kind":"per_cell_type","sigmas":{"JTL":S,…}}`.
fn parse_variability(v: &JsonValue) -> Result<VarSpec, RequestError> {
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| RequestError("variability needs a 'kind'".into()))?;
    match kind {
        "gaussian" => {
            let std = v
                .get("std")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| RequestError("gaussian variability needs 'std'".into()))?;
            if !sigma_ok(std) {
                return Err(RequestError(
                    "gaussian 'std' must be finite and non-negative".into(),
                ));
            }
            Ok(VarSpec::Gaussian(std))
        }
        "per_cell_type" => {
            let sigmas = v
                .get("sigmas")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| RequestError("per_cell_type needs a 'sigmas' object".into()))?;
            let mut map = std::collections::HashMap::new();
            for (cell, sigma) in sigmas {
                let sigma = sigma.as_f64().ok_or_else(|| {
                    RequestError(format!("sigma for '{cell}' is not a number"))
                })?;
                if !sigma_ok(sigma) {
                    return Err(RequestError(format!(
                        "sigma for '{cell}' must be finite and non-negative"
                    )));
                }
                map.insert(cell.clone(), sigma);
            }
            Ok(VarSpec::PerCellType(map))
        }
        other => Err(RequestError(format!("unknown variability kind '{other}'"))),
    }
}

fn hex_hash(hash: u64) -> JsonValue {
    s(&format!("{hash:016x}"))
}

impl Server {
    /// A server with the given budgets and an empty compiled cache.
    ///
    /// The **thread-budget governor** runs here, once, so concurrent
    /// requests can't each claim the whole host: with `H` hardware threads,
    /// `workers = 0` resolves to `H` request workers, and `threads = 0`
    /// resolves to `max(1, H / workers)` engine threads per request —
    /// `workers × engine_threads ≈ H`. Explicit non-zero values are
    /// honored verbatim (deliberate oversubscription stays possible). The
    /// defaults (`workers = 1`, `threads = 0`) reproduce the historical
    /// serial behaviour: one request at a time, each using every core.
    pub fn new(opts: ServeOptions) -> Self {
        let cache = match opts.max_cache_entries {
            0 => CompiledCache::new(),
            cap => CompiledCache::new().with_max_entries(cap),
        };
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = if opts.workers == 0 { host } else { opts.workers };
        let engine_threads = if opts.threads == 0 {
            (host / workers).max(1)
        } else {
            opts.threads
        };
        let hit_model = std::sync::Mutex::new(sched::HitModel::new(match opts.max_cache_entries {
            0 => None,
            cap => Some(cap),
        }));
        Server {
            cache,
            opts,
            workers,
            engine_threads,
            hit_model,
        }
    }

    /// The shared compiled-artifact cache (for tests and embedding).
    pub fn cache(&self) -> &CompiledCache {
        &self.cache
    }

    /// Resolved request-worker count (after the governor's 0 → available
    /// parallelism substitution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolved per-request engine thread count (after the governor's
    /// split; never 0).
    pub fn engine_threads(&self) -> usize {
        self.engine_threads
    }

    pub(crate) fn hit_model(&self) -> std::sync::MutexGuard<'_, sched::HitModel> {
        self.hit_model.lock().expect("hit model poisoned")
    }

    /// Current accounting. `requests`/`errors` only advance through
    /// [`serve_reader`](Self::serve_reader); cache traffic always counts.
    pub fn summary(&self) -> ServeSummary {
        ServeSummary {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            ..ServeSummary::default()
        }
    }

    /// Answer one request line with one compact JSON response line (no
    /// trailing newline). Parse and dispatch failures become
    /// `"ok":false` responses, never panics.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_recorded(line).0
    }

    /// [`handle_line`](Self::handle_line) plus the request's
    /// [`AccessRecord`] (with `seq` left at 0 for the caller to assign)
    /// and its telemetry handle, whose spans back slow-request traces.
    /// The response string is byte-identical to `handle_line`'s.
    pub fn handle_recorded(&self, line: &str) -> (String, AccessRecord, Telemetry) {
        let t_total = Instant::now();
        let mut ctx = ReqCtx::new();
        let t_parse = Instant::now();
        let parsed = JsonValue::parse(line);
        let parse_us = elapsed_us(t_parse);
        let mut tenant = None;
        let t_run = Instant::now();
        let (id, kind, body) = match parsed {
            Ok(req) => {
                tenant = req
                    .get("tenant")
                    .and_then(JsonValue::as_str)
                    .map(String::from);
                let id = req.get("id").and_then(JsonValue::as_str).map(String::from);
                let kind = req
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .map(String::from);
                match kind.as_deref() {
                    Some("simulate") => (id, kind, self.simulate(&req, &mut ctx)),
                    Some("sweep") => (id, kind, self.sweep(&req, &mut ctx)),
                    Some("shmoo") => (id, kind, self.shmoo(&req, &mut ctx)),
                    Some("model_check") => (id, kind, self.model_check(&req, &mut ctx)),
                    Some("ping") => (id, kind, Ok(Vec::new())),
                    Some(other) => (
                        id,
                        None,
                        Err(RequestError(format!("unknown request kind '{other}'"))),
                    ),
                    None => (id, None, Err(RequestError("request needs a 'kind'".into()))),
                }
            }
            Err(e) => (None, None, Err(RequestError(format!("bad request JSON: {e}")))),
        };
        let run_us = elapsed_us(t_run).saturating_sub(ctx.cache_us);
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(id) = &id {
            fields.push(("id".into(), s(id)));
        }
        fields.push((
            "kind".into(),
            s(kind.as_deref().unwrap_or("error")),
        ));
        let error = match body {
            Ok(rest) => {
                fields.push(("ok".into(), JsonValue::Bool(true)));
                fields.extend(rest);
                None
            }
            Err(RequestError(msg)) => {
                fields.push(("ok".into(), JsonValue::Bool(false)));
                fields.push(("error".into(), s(&msg)));
                Some(msg)
            }
        };
        let t_encode = Instant::now();
        let response = JsonValue::Obj(fields).to_compact();
        let encode_us = elapsed_us(t_encode);
        let rec = AccessRecord {
            seq: 0,
            tenant,
            id,
            kind: kind.unwrap_or_else(|| "error".into()),
            ok: error.is_none(),
            error,
            hash: ctx.hash,
            cache_hit: ctx.cache_hit,
            clamps: ctx.clamps,
            counters: ctx.tel.report().counters,
            parse_us,
            cache_us: ctx.cache_us,
            run_us,
            encode_us,
            total_us: elapsed_us(t_total),
            queue_us: 0,
            reorder_us: 0,
        };
        (response, rec, ctx.tel)
    }

    /// Serve every non-blank line of `input`, writing one response line per
    /// request to `output` in request order.
    ///
    /// # Errors
    ///
    /// Only I/O errors from `input`/`output`; request failures are answered
    /// in-band.
    pub fn serve_reader(
        &self,
        input: impl BufRead + Send,
        output: impl Write,
    ) -> std::io::Result<ServeSummary> {
        self.serve_observed(input, output, &mut Observer::disabled())
    }

    /// [`serve_reader`](Self::serve_reader) with out-of-band observability:
    /// each request is appended to the observer's access log and latency
    /// histograms, slow requests dump Chrome traces, and the metrics file
    /// is rewritten at the configured stride, on writer idle, and at end
    /// of batch. Response bytes are identical to the unobserved path.
    ///
    /// Requests are handled by [`workers`](Self::workers) concurrent
    /// request workers behind an in-order reorder buffer (internals in
    /// DESIGN.md §16): responses and access records are emitted strictly
    /// in input order, byte-identical at any worker count.
    ///
    /// # Errors
    ///
    /// I/O errors from `input`/`output` or from the observer's sinks.
    pub fn serve_observed(
        &self,
        input: impl BufRead + Send,
        output: impl Write,
        observer: &mut Observer,
    ) -> std::io::Result<ServeSummary> {
        sched::serve_pipeline(self, input, output, observer, self.workers)
    }

    /// Decode the request's `"ir"` member and resolve it through the cache,
    /// timing the lookup/compile and recording the hash and hit/miss for
    /// the access log. The member is decoded straight from the request's
    /// parsed value with [`Ir::from_value`]: a request line is parsed once,
    /// in [`handle_recorded`](Self::handle_recorded), and never
    /// re-serialized.
    fn load_ir(
        &self,
        req: &JsonValue,
        ctx: &mut ReqCtx,
    ) -> Result<(Ir, rlse_core::ir::CacheOutcome), RequestError> {
        let ir_val = req
            .get("ir")
            .ok_or_else(|| RequestError("request needs an 'ir' object".into()))?;
        let ir = Ir::from_value(ir_val)?;
        let t0 = Instant::now();
        let outcome = self.cache.get_or_compile(&ir);
        ctx.cache_us += elapsed_us(t0);
        let outcome = outcome?;
        ctx.hash = Some(outcome.hash);
        ctx.cache_hit = Some(outcome.hit);
        Ok((ir, outcome))
    }

    /// The request's simulation horizon: its `until` clamped to
    /// `max_until`, or infinite when neither sets one. A circuit with a
    /// feedback loop needs a finite horizon, or its run would never end.
    fn horizon(
        &self,
        req: &JsonValue,
        compiled: &CompiledCircuit,
        ctx: &mut ReqCtx,
    ) -> Result<f64, RequestError> {
        let requested = get_nonneg(req, "until")?;
        let until = requested.unwrap_or(f64::INFINITY).min(self.opts.max_until);
        if requested.is_some_and(|r| until < r) {
            ctx.clamps.push("until");
        }
        if !until.is_finite() && compiled.has_cycle() {
            return Err(RequestError(
                "the circuit has a feedback loop, so the request needs a finite 'until'".into(),
            ));
        }
        Ok(until)
    }

    fn simulate(
        &self,
        req: &JsonValue,
        ctx: &mut ReqCtx,
    ) -> Result<Vec<(String, JsonValue)>, RequestError> {
        let (_ir, outcome) = self.load_ir(req, ctx)?;
        let until = self.horizon(req, &outcome.compiled, ctx)?;
        let mut sim = Simulation::with_compiled(outcome.circuit, outcome.compiled);
        sim.set_telemetry(&ctx.tel);
        if until.is_finite() {
            sim.set_until(Some(until));
        }
        if let Some(v) = req.get("variability") {
            sim.set_variability(Some(parse_variability(v)?.make()));
        }
        if let Some(seed) = get_count(req, "seed")? {
            sim.set_seed(seed);
        }
        let events = sim.run()?;
        Ok(vec![
            ("hash".into(), hex_hash(outcome.hash)),
            ("events".into(), events_obj(&events)),
            ("telemetry".into(), telemetry_obj(&ctx.tel.report())),
        ])
    }

    fn sweep(
        &self,
        req: &JsonValue,
        ctx: &mut ReqCtx,
    ) -> Result<Vec<(String, JsonValue)>, RequestError> {
        let (ir, outcome) = self.load_ir(req, ctx)?;
        let requested_trials = get_count(req, "trials")?;
        let trials = requested_trials.unwrap_or(100).min(self.opts.max_trials);
        if requested_trials.is_some_and(|r| trials < r) {
            ctx.clamps.push("trials");
        }
        let seed = get_count(req, "seed")?.unwrap_or(0);
        let until = self.horizon(req, &outcome.compiled, ctx)?;
        let variability = req.get("variability").map(parse_variability).transpose()?;
        // `check:true` turns the IR's expected-output query into the
        // per-trial verdict (a trial passes when every listed output fires
        // at exactly the listed times).
        let expected: Option<Vec<(String, Vec<f64>)>> = if get_bool(req, "check")? == Some(true) {
            let found = ir.queries.iter().find_map(|q| match q {
                IrQuery::OutputsOnlyAt { outputs } => Some(outputs.clone()),
                _ => None,
            });
            Some(found.ok_or_else(|| {
                RequestError("check:true needs an outputs_only_at query in the IR".into())
            })?)
        } else {
            None
        };

        let mut sweep = Sweep::over(move || {
            ir.to_circuit().expect("IR validated by the cache lookup")
        })
        .trials(trials)
        .master_seed(seed)
        .threads(self.engine_threads)
        .telemetry(&ctx.tel);
        if until.is_finite() {
            sweep = sweep.until(until);
        }
        if let Some(spec) = variability {
            sweep = sweep.variability(move || spec.make());
        }
        if let Some(expected) = expected {
            sweep = sweep.check(move |ev| {
                expected
                    .iter()
                    .all(|(name, times)| ev.times(name) == times.as_slice())
            });
        }
        let report = sweep.try_run()?;
        let outputs = report
            .outputs
            .iter()
            .map(|o| {
                JsonValue::Obj(vec![
                    ("name".into(), s(&o.name)),
                    ("pulses".into(), int(o.pulses)),
                    ("mean".into(), num(o.mean)),
                    ("std".into(), num(o.std)),
                    ("min".into(), num(o.min)),
                    ("max".into(), num(o.max)),
                ])
            })
            .collect();
        Ok(vec![
            ("hash".into(), hex_hash(outcome.hash)),
            ("trials".into(), int(report.trials)),
            ("ok_trials".into(), int(report.ok)),
            ("check_failures".into(), int(report.check_failures)),
            ("timing_violations".into(), int(report.timing_violations)),
            ("other_errors".into(), int(report.other_errors)),
            ("outputs".into(), JsonValue::Arr(outputs)),
            ("telemetry".into(), telemetry_obj(&ctx.tel.report())),
        ])
    }

    fn shmoo(
        &self,
        req: &JsonValue,
        ctx: &mut ReqCtx,
    ) -> Result<Vec<(String, JsonValue)>, RequestError> {
        let design = req
            .get("design")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| RequestError("shmoo needs a 'design' name".into()))?;
        if !rlse_designs::shmoo_design_names().contains(&design) {
            return Err(RequestError(format!(
                "unknown shmoo design '{design}' (expected one of {:?})",
                rlse_designs::shmoo_design_names()
            )));
        }
        let axis = |key: &str| -> Result<Vec<f64>, RequestError> {
            req.get(key)
                .and_then(JsonValue::as_arr)
                .map(|a| a.iter().map(|v| v.as_f64()).collect::<Option<Vec<_>>>())
                .and_then(|v| v.filter(|v| !v.is_empty()))
                .ok_or_else(|| RequestError(format!("shmoo needs a non-empty '{key}' array")))
        };
        let sigmas = axis("sigmas")?;
        if !sigmas.iter().all(|&sigma| sigma_ok(sigma)) {
            return Err(RequestError(
                "'sigmas' values must be finite and non-negative".into(),
            ));
        }
        let scales = axis("scales")?;
        if let Some(i) = scales
            .iter()
            .position(|&scale| !rlse_designs::shmoo_scale_is_valid(design, scale))
        {
            return Err(RequestError(format!(
                "'scales' value at index {i} puts a stimulus pulse of '{design}' \
                 at a negative or non-finite time"
            )));
        }
        let mut opts = rlse_designs::ShmooOptions {
            threads: self.engine_threads,
            ..Default::default()
        };
        let requested_trials = get_count(req, "trials")?;
        opts.trials = requested_trials
            .unwrap_or(opts.trials)
            .min(self.opts.max_trials);
        if requested_trials.is_some_and(|r| opts.trials < r) {
            ctx.clamps.push("trials");
        }
        if let Some(seed) = get_count(req, "seed")? {
            opts.master_seed = seed;
        }
        if let Some(tol) = get_nonneg(req, "tolerance")? {
            opts.tolerance = tol;
        }
        if let Some(adaptive) = get_bool(req, "adaptive")? {
            opts.adaptive = adaptive;
        }
        let map = rlse_designs::shmoo_map(design, &sigmas, &scales, &opts);
        // The shmoo engine runs without a telemetry handle; account its
        // trial volume here so per-tenant trial totals cover it. The shmoo
        // response embeds no telemetry, so this never reaches a response.
        ctx.tel
            .add("shmoo.trials", map.evaluated.saturating_mul(map.trials));
        let rows = (0..sigmas.len())
            .map(|row| {
                let line: String = (0..scales.len())
                    .map(|col| match map.cell(row, col) {
                        rlse_designs::CellState::PassMeasured => 'P',
                        rlse_designs::CellState::PassInferred => 'p',
                        rlse_designs::CellState::FailMeasured => 'F',
                        rlse_designs::CellState::FailInferred => 'f',
                    })
                    .collect();
                s(&line)
            })
            .collect();
        let margins = (0..sigmas.len())
            .map(|row| map.margin_scale(row).map_or(JsonValue::Null, num))
            .collect();
        Ok(vec![
            ("design".into(), s(design)),
            ("trials".into(), int(map.trials)),
            ("evaluated".into(), int(map.evaluated)),
            ("map".into(), JsonValue::Arr(rows)),
            ("margin_scales".into(), JsonValue::Arr(margins)),
        ])
    }

    fn model_check(
        &self,
        req: &JsonValue,
        ctx: &mut ReqCtx,
    ) -> Result<Vec<(String, JsonValue)>, RequestError> {
        let (ir, outcome) = self.load_ir(req, ctx)?;
        let req_states = get_count(req, "max_states")?.map(|n| n as usize);
        let max_states = req_states
            .unwrap_or(self.opts.max_states)
            .min(self.opts.max_states);
        if req_states.is_some_and(|r| max_states < r) {
            ctx.clamps.push("max_states");
        }
        let req_seconds = get_nonneg(req, "max_seconds")?;
        let max_seconds = req_seconds
            .unwrap_or(self.opts.max_seconds)
            .min(self.opts.max_seconds);
        if req_seconds.is_some_and(|r| max_seconds < r) {
            ctx.clamps.push("max_seconds");
        }
        let mc_opts = McOptions {
            max_states,
            max_seconds,
            threads: self.engine_threads,
        };
        let tr = translate_circuit(&outcome.circuit)?;
        let queries: Vec<IrQuery> = if ir.queries.is_empty() {
            vec![IrQuery::NoErrorState]
        } else {
            ir.queries.clone()
        };
        let results = queries
            .iter()
            .map(|q| {
                let label = match q {
                    IrQuery::NoErrorState => "no_error_state",
                    IrQuery::OutputsOnlyAt { .. } => "outputs_only_at",
                };
                let r = rlse_ta::mc::check_with_telemetry(
                    &tr.net,
                    &McQuery::from_ir(&tr, q),
                    mc_opts,
                    Some(&ctx.tel),
                );
                JsonValue::Obj(vec![
                    ("query".into(), s(label)),
                    (
                        "holds".into(),
                        r.holds.map_or(JsonValue::Null, JsonValue::Bool),
                    ),
                    ("states".into(), int(r.states() as u64)),
                    ("peak_store".into(), int(r.peak_store() as u64)),
                    (
                        "violation".into(),
                        r.violation.as_deref().map_or(JsonValue::Null, s),
                    ),
                    (
                        "diagnostic".into(),
                        r.diagnostic.as_deref().map_or(JsonValue::Null, s),
                    ),
                ])
            })
            .collect();
        Ok(vec![
            ("hash".into(), hex_hash(outcome.hash)),
            ("max_states".into(), int(mc_opts.max_states as u64)),
            ("results".into(), JsonValue::Arr(results)),
            ("telemetry".into(), telemetry_obj(&ctx.tel.report())),
        ])
    }
}

/// The fixture request corpus: one request of each kind over the `min_max`
/// design, as JSON lines, with tenant labels exercising the per-tenant
/// accounting (and one untenanted request for the "" row). The smoke tests
/// and the CI serve step pipe this file through the server twice and
/// require byte-identical responses with cache hits on the second pass.
pub fn fixture_requests() -> String {
    let ir = rlse_designs::design_ir("min_max", 1.0);
    let ir_line = |ir: &Ir| ir.to_value().to_compact();
    let with_outputs = rlse_designs::design_ir_with_expected_outputs("min_max", 1.0);
    let mut out = String::new();
    out.push_str("{\"id\":\"ping-1\",\"kind\":\"ping\",\"tenant\":\"probe\"}\n");
    out.push_str(&format!(
        "{{\"id\":\"sim-1\",\"kind\":\"simulate\",\"tenant\":\"acme\",\"ir\":{}}}\n",
        ir_line(&ir)
    ));
    out.push_str(&format!(
        "{{\"id\":\"sweep-1\",\"kind\":\"sweep\",\"tenant\":\"acme\",\"trials\":40,\"seed\":7,\
         \"variability\":{{\"kind\":\"gaussian\",\"std\":0.2}},\"ir\":{}}}\n",
        ir_line(&ir)
    ));
    out.push_str(&format!(
        "{{\"id\":\"sweep-2\",\"kind\":\"sweep\",\"tenant\":\"beta\",\"trials\":20,\"seed\":3,\
         \"check\":true,\"ir\":{}}}\n",
        ir_line(&with_outputs)
    ));
    out.push_str(
        "{\"id\":\"shmoo-1\",\"kind\":\"shmoo\",\"design\":\"min_max\",\
         \"sigmas\":[0.0,0.4],\"scales\":[0.6,1.0,1.4],\"trials\":24,\"seed\":11}\n",
    );
    out.push_str(&format!(
        "{{\"id\":\"mc-1\",\"kind\":\"model_check\",\"tenant\":\"beta\",\
         \"max_states\":200000,\"ir\":{}}}\n",
        ir_line(&ir)
    ));
    out
}

/// A deterministically generated mixed corpus for the differential
/// concurrency tests and the `serve_throughput` benchmark: `n` JSON request
/// lines cycling through every request kind, with only four distinct IR
/// documents behind all the circuit-bearing lines so duplicate content
/// hashes interleave — concurrent workers pile onto the same cache entries
/// and exercise single-flight compilation. Budgets are small enough that a
/// 200-line corpus serves in seconds on one core.
pub fn generated_requests(n: usize) -> String {
    let irs: Vec<String> = [("min_max", 1.0), ("min_max", 2.0), ("race_tree", 1.0)]
        .iter()
        .map(|(name, scale)| rlse_designs::design_ir(name, *scale).to_value().to_compact())
        .collect();
    let checked = rlse_designs::design_ir_with_expected_outputs("min_max", 1.0)
        .to_value()
        .to_compact();
    let tenants = ["acme", "beta", ""];
    let mut out = String::new();
    for i in 0..n {
        let tenant = tenants[i % tenants.len()];
        let tenant_field = if tenant.is_empty() {
            String::new()
        } else {
            format!("\"tenant\":\"{tenant}\",")
        };
        let ir = &irs[i % irs.len()];
        let line = match i % 8 {
            0 | 1 => {
                format!("{{\"id\":\"sim-{i}\",\"kind\":\"simulate\",{tenant_field}\"ir\":{ir}}}")
            }
            2 => format!(
                "{{\"id\":\"sweep-{i}\",\"kind\":\"sweep\",{tenant_field}\"trials\":10,\
                 \"seed\":{i},\"variability\":{{\"kind\":\"gaussian\",\"std\":0.2}},\"ir\":{ir}}}"
            ),
            3 => format!(
                "{{\"id\":\"sweep-{i}\",\"kind\":\"sweep\",{tenant_field}\"trials\":8,\
                 \"seed\":{i},\"check\":true,\"ir\":{checked}}}"
            ),
            4 => format!(
                "{{\"id\":\"shmoo-{i}\",\"kind\":\"shmoo\",{tenant_field}\"design\":\"min_max\",\
                 \"sigmas\":[0.0,0.4],\"scales\":[0.8,1.2],\"trials\":8,\"seed\":{i}}}"
            ),
            5 => format!(
                "{{\"id\":\"mc-{i}\",\"kind\":\"model_check\",{tenant_field}\
                 \"max_states\":50000,\"ir\":{ir}}}"
            ),
            6 => format!("{{\"id\":\"ping-{i}\",\"kind\":\"ping\",{tenant_field}\"probe\":true}}"),
            _ => format!(
                "{{\"id\":\"sim-{i}\",\"kind\":\"simulate\",{tenant_field}\"until\":5000,\
                 \"ir\":{ir}}}"
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kinds_and_bad_json_become_error_lines() {
        let server = Server::new(ServeOptions::default());
        let r = server.handle_line("{\"kind\":\"frobnicate\"}");
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("unknown request kind"), "{r}");
        let r = server.handle_line("not json");
        assert!(r.contains("bad request JSON"), "{r}");
        let r = server.handle_line("{\"id\":\"x\",\"kind\":\"simulate\"}");
        assert!(r.starts_with("{\"id\":\"x\","), "{r}");
        assert!(r.contains("needs an 'ir' object"), "{r}");
    }

    #[test]
    fn hostile_request_lines_never_panic() {
        // REVIEW regressions: both lines previously killed the whole batch
        // (an out-of-bounds machine index panicked in `canonical_bytes`; a
        // deeply nested line overflowed the parser's stack).
        let server = Server::new(ServeOptions::default());
        let dangling = "{\"kind\":\"simulate\",\"ir\":{\"version\":1,\"name\":\"\",\
             \"machines\":[],\"nodes\":[{\"kind\":\"cell\",\"machine\":0}],\
             \"wires\":[],\"queries\":[]}}";
        let r = server.handle_line(dangling);
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("machine"), "{r}");

        let bomb = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let r = server.handle_line(&bomb);
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("bad request JSON"), "{r}");

        // The server still answers well-formed requests afterwards.
        let ir = rlse_designs::design_ir("min_max", 1.0);
        let good = format!(
            "{{\"kind\":\"simulate\",\"ir\":{}}}",
            ir.to_value().to_compact()
        );
        assert!(server.handle_line(&good).contains("\"ok\":true"));
    }

    #[test]
    fn megabyte_request_id_is_answered_in_linear_time() {
        // The request line is decoded once, in time linear in its length:
        // a quadratic string scan takes tens of seconds on this line even
        // in a release build; the bound is generous for an unoptimized one.
        let server = Server::new(ServeOptions::default());
        let id = "é0123456789abcdef".repeat((1 << 20) / 18);
        let line = format!("{{\"id\":\"{id}\",\"kind\":\"ping\"}}");
        let t0 = Instant::now();
        let r = server.handle_line(&line);
        let took = t0.elapsed();
        assert!(took.as_secs_f64() < 5.0, "1 MiB ping took {took:?}");
        assert_eq!(
            r,
            format!("{{\"id\":\"{id}\",\"kind\":\"ping\",\"ok\":true}}")
        );
    }

    #[test]
    fn bounded_cache_evicts_but_keeps_serving() {
        let server = Server::new(ServeOptions {
            max_cache_entries: 1,
            ..Default::default()
        });
        let line = |scale: f64| {
            format!(
                "{{\"kind\":\"simulate\",\"ir\":{}}}",
                rlse_designs::design_ir("min_max", scale).to_value().to_compact()
            )
        };
        let first = server.handle_line(&line(1.0));
        server.handle_line(&line(2.0)); // evicts the scale-1.0 entry
        let again = server.handle_line(&line(1.0)); // recompiles
        assert_eq!(first, again, "eviction never changes response bytes");
        assert_eq!(server.cache().len(), 1);
        assert_eq!(server.cache().hits(), 0);
        assert_eq!(server.cache().misses(), 3);
    }

    #[test]
    fn simulate_matches_a_direct_run_and_hits_the_cache_on_repeat() {
        let server = Server::new(ServeOptions::default());
        let ir = rlse_designs::design_ir("min_max", 1.0);
        let line = format!(
            "{{\"kind\":\"simulate\",\"ir\":{}}}",
            ir.to_value().to_compact()
        );
        let first = server.handle_line(&line);
        let second = server.handle_line(&line);
        assert_eq!(first, second, "responses must be byte-identical");
        assert!(first.contains("\"ok\":true"), "{first}");
        assert_eq!(server.cache().hits(), 1);
        assert_eq!(server.cache().misses(), 1);
        // The reported events equal a direct simulation of the same IR.
        let events = Simulation::new(ir.to_circuit().unwrap()).run().unwrap();
        for name in events.names() {
            assert!(first.contains(&format!("\"{name}\":[")), "{first}");
        }
    }

    #[test]
    fn sweep_honors_the_trial_budget_and_reports_unknown_cell_types() {
        let server = Server::new(ServeOptions {
            max_trials: 8,
            ..Default::default()
        });
        let ir = rlse_designs::design_ir("min_max", 1.0).to_value().to_compact();
        let r = server.handle_line(&format!(
            "{{\"kind\":\"sweep\",\"trials\":1000,\"ir\":{ir}}}"
        ));
        assert!(r.contains("\"trials\":8"), "clamped to the budget: {r}");
        let r = server.handle_line(&format!(
            "{{\"kind\":\"sweep\",\"variability\":{{\"kind\":\"per_cell_type\",\
             \"sigmas\":{{\"NOPE\":0.5}}}},\"ir\":{ir}}}"
        ));
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("NOPE"), "{r}");
    }

    #[test]
    fn integer_fields_are_read_exactly_or_rejected() {
        let server = Server::new(ServeOptions::default());
        let ir = rlse_designs::design_ir("min_max", 1.0)
            .to_value()
            .to_compact();
        let line = |kind: &str, field: &str, value: &str| {
            let body = if kind == "shmoo" {
                "\"design\":\"min_max\",\"sigmas\":[0.1],\"scales\":[1.0]".to_string()
            } else {
                format!("\"ir\":{ir}")
            };
            let trials = if field == "trials" {
                ""
            } else {
                "\"trials\":2,"
            };
            format!("{{\"kind\":\"{kind}\",{trials}\"{field}\":{value},{body}}}")
        };
        let fields = [
            ("simulate", "seed"),
            ("sweep", "seed"),
            ("sweep", "trials"),
            ("shmoo", "seed"),
            ("shmoo", "trials"),
            ("model_check", "max_states"),
        ];
        for (kind, field) in fields {
            // Fractional, negative, aliased above 2^53, and non-numeric
            // values each get the same deterministic in-band error.
            for bad in ["1.5", "-1", "9007199254740993", "\"7\"", "null"] {
                let r = server.handle_line(&line(kind, field, bad));
                let want =
                    format!("\"ok\":false,\"error\":\"'{field}' must be an integer in [0, 2^53)\"");
                assert!(r.contains(&want), "{kind}.{field}={bad}: {r}");
                assert_eq!(r, server.handle_line(&line(kind, field, bad)));
            }
            let exact = if field == "seed" {
                "9007199254740991"
            } else {
                "3"
            };
            let good = server.handle_line(&line(kind, field, exact));
            assert!(good.contains("\"ok\":true"), "{kind}.{field}: {good}");
        }
    }

    #[test]
    fn optional_fields_are_read_strictly_or_rejected() {
        let server = Server::new(ServeOptions::default());
        let ir = rlse_designs::design_ir("min_max", 1.0)
            .to_value()
            .to_compact();
        let line = |kind: &str, field: &str, value: &str| {
            let body = if kind == "shmoo" {
                "\"design\":\"min_max\",\"sigmas\":[0.1],\"scales\":[1.0]".to_string()
            } else {
                format!("\"ir\":{ir}")
            };
            format!("{{\"kind\":\"{kind}\",\"trials\":2,\"{field}\":{value},{body}}}")
        };
        let number = "a non-negative number";
        let boolean = "true or false";
        let fields = [
            ("simulate", "until", number),
            ("sweep", "until", number),
            ("model_check", "max_seconds", number),
            ("shmoo", "tolerance", number),
            ("sweep", "check", boolean),
            ("shmoo", "adaptive", boolean),
        ];
        for (kind, field, rule) in fields {
            let (bads, good) = if rule == number {
                (["\"100\"", "-1", "[]", "null"], "1")
            } else {
                (["\"yes\"", "0", "{}", "null"], "false")
            };
            // Wrong types and negative numbers each get the same
            // deterministic in-band error instead of being ignored.
            for bad in bads {
                let r = server.handle_line(&line(kind, field, bad));
                let want = format!("\"ok\":false,\"error\":\"'{field}' must be {rule}\"");
                assert!(r.contains(&want), "{kind}.{field}={bad}: {r}");
                assert_eq!(r, server.handle_line(&line(kind, field, bad)));
            }
            let r = server.handle_line(&line(kind, field, good));
            assert!(r.contains("\"ok\":true"), "{kind}.{field}={good}: {r}");
        }
    }

    #[test]
    fn variability_sigmas_are_read_as_strictly_as_shmoo_sigmas() {
        let server = Server::new(ServeOptions::default());
        let ir = rlse_designs::design_ir("min_max", 1.0)
            .to_value()
            .to_compact();
        let line = |kind: &str, variability: &str| {
            format!(
                "{{\"kind\":\"{kind}\",\"trials\":2,\"variability\":{variability},\"ir\":{ir}}}"
            )
        };
        let bad = |what: &str| Some(format!("{what} must be finite and non-negative"));
        let cases = [
            (r#"{"kind":"gaussian","std":-1}"#, bad("gaussian 'std'")),
            (
                r#"{"kind":"gaussian","std":-1e-300}"#,
                bad("gaussian 'std'"),
            ),
            (
                r#"{"kind":"per_cell_type","sigmas":{"S":-5}}"#,
                bad("sigma for 'S'"),
            ),
            (
                r#"{"kind":"per_cell_type","sigmas":{"S":0.1,"J":-0.1}}"#,
                bad("sigma for 'J'"),
            ),
            (r#"{"kind":"gaussian","std":0}"#, None),
            (r#"{"kind":"gaussian","std":0.3}"#, None),
            (r#"{"kind":"per_cell_type","sigmas":{"S":0}}"#, None),
        ];
        for kind in ["simulate", "sweep"] {
            for (variability, error) in &cases {
                let r = server.handle_line(&line(kind, variability));
                let want = match error {
                    Some(e) => format!("\"ok\":false,\"error\":\"{e}\""),
                    None => "\"ok\":true".to_string(),
                };
                assert!(r.contains(&want), "{kind} {variability}: {r}");
            }
        }
    }

    #[test]
    fn shmoo_records_a_trials_clamp_only_when_asked_for_more() {
        let server = Server::new(ServeOptions {
            max_trials: 8,
            ..Default::default()
        });
        let line = |trials: &str| {
            format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":[0.1],\
                 \"scales\":[1.0]{trials}}}"
            )
        };
        for (trials, clamped) in [
            ("", false),
            (",\"trials\":8", false),
            (",\"trials\":9", true),
        ] {
            let (r, rec, _) = server.handle_recorded(&line(trials));
            assert!(r.contains("\"trials\":8"), "{r}");
            assert_eq!(rec.clamps.contains(&"trials"), clamped, "trials{trials}");
        }
    }

    /// The merger → splitter → JTL feedback ring, as an IR document.
    fn ring_ir() -> Ir {
        let mut c = Circuit::new();
        let seed = c.inp_at(&[10.0], "SEED");
        let ring = rlse_designs::ring_oscillator(&mut c, seed, 1).unwrap();
        c.inspect(ring.tap, "TAP");
        Ir::from_circuit(&c).unwrap()
    }

    #[test]
    fn hostile_fixture_lines_are_answered_in_band() {
        // Each of the first three lines used to panic a worker (shmoo
        // scales that put a stimulus pulse at a negative or infinite time)
        // or run without bound (a feedback ring with no horizon); the next
        // two were answered "ok":true with a negative jitter σ; the
        // trailing ping proves the server is still serving.
        let fixture = include_str!("../fixtures/hostile.jsonl");
        let lines: Vec<&str> = fixture.lines().collect();
        let ring = JsonValue::parse(lines[2]).unwrap();
        assert_eq!(Ir::from_value(ring.get("ir").unwrap()).unwrap(), ring_ir());
        let server = Server::new(ServeOptions {
            workers: 2,
            ..Default::default()
        });
        let mut out = Vec::new();
        let summary = server.serve_reader(fixture.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let responses: Vec<&str> = out.lines().collect();
        assert_eq!(responses.len(), 6, "{out}");
        for r in &responses[..5] {
            assert!(r.contains("\"ok\":false"), "{r}");
        }
        assert!(responses[0].contains("'scales' value at index 0"), "{out}");
        assert!(responses[1].contains("'scales' value at index 0"), "{out}");
        assert!(responses[2].contains("feedback loop"), "{out}");
        assert!(responses[3].contains("gaussian 'std' must be"), "{out}");
        assert!(responses[4].contains("sigma for 'M' must be"), "{out}");
        assert_eq!(responses[5], "{\"kind\":\"ping\",\"ok\":true}");
        assert_eq!((summary.requests, summary.errors), (6, 5));
    }

    #[test]
    fn a_feedback_ring_needs_a_finite_until() {
        let server = Server::new(ServeOptions::default());
        let ir = ring_ir().to_value().to_compact();
        for kind in ["simulate", "sweep"] {
            let r =
                server.handle_line(&format!("{{\"kind\":\"{kind}\",\"trials\":2,\"ir\":{ir}}}"));
            assert!(r.contains("\"ok\":false"), "{r}");
            assert!(r.contains("needs a finite 'until'"), "{r}");
            let r = server.handle_line(&format!(
                "{{\"kind\":\"{kind}\",\"trials\":2,\"until\":500,\"ir\":{ir}}}"
            ));
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        // A server-wide horizon is a finite horizon too.
        let capped = Server::new(ServeOptions {
            max_until: 500.0,
            ..Default::default()
        });
        let r = capped.handle_line(&format!("{{\"kind\":\"simulate\",\"ir\":{ir}}}"));
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn hostile_shmoo_axes_are_rejected_before_the_map_runs() {
        let server = Server::new(ServeOptions::default());
        let line = |design: &str, sigmas: &str, scales: &str| {
            format!(
                "{{\"kind\":\"shmoo\",\"design\":\"{design}\",\"sigmas\":{sigmas},\
                 \"scales\":{scales},\"trials\":2}}"
            )
        };
        let r = server.handle_line(&line("min_max", "[0.1,-0.1]", "[1]"));
        assert!(
            r.contains("'sigmas' values must be finite and non-negative"),
            "{r}"
        );
        let r = server.handle_line(&line("race_tree", "[0.1]", "[1,3]"));
        assert!(r.contains("'scales' value at index 1"), "{r}");
        // race_tree's stimulus stays non-negative at a negative scale.
        let r = server.handle_line(&line("race_tree", "[0.1]", "[-1]"));
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn fixture_corpus_serves_clean_and_deterministically() {
        let server = Server::new(ServeOptions::default());
        let requests = fixture_requests();
        let mut pass1 = Vec::new();
        let sum1 = server
            .serve_reader(requests.as_bytes(), &mut pass1)
            .unwrap();
        let mut pass2 = Vec::new();
        let sum2 = server
            .serve_reader(requests.as_bytes(), &mut pass2)
            .unwrap();
        assert_eq!(pass1, pass2, "responses must be byte-identical");
        assert_eq!(sum1.requests, 6);
        assert_eq!(sum1.errors, 0, "{}", String::from_utf8_lossy(&pass1));
        assert_eq!(sum1.cache_misses, sum2.cache_misses, "no new compiles");
        assert!(sum2.cache_hits > sum1.cache_hits, "second pass must hit");
    }
}
