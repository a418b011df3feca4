//! The seeded request generator.
//!
//! Each workload is a fixed set of request *classes* with integer weights.
//! Requests follow a periodic schedule in which each class fills a run of
//! `weight` slots, so every window of `period` consecutive requests holds
//! exactly each class's share. The seed picks where in that schedule the
//! stream starts, the per-request engine seeds, the `sim_cold` stimulus
//! scales and the request ids. Line `i` is a pure function of
//! `(workload, seed, i)`.
//!
//! Circuits come from the public `rlse_designs::design_ir*` emitters and
//! are rendered to JSON once, when the generator is built; composing a
//! line afterwards only copies strings. Every seed and count written into
//! a request is an integer below 2^53, so it survives the server's `f64`
//! number representation exactly.

use std::fmt::Write as _;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for held-out checks: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7_340_033;
/// Seeds (and every number the generator writes) stay below 2^53.
pub const SEED_LIMIT: u64 = 1 << 53;

/// Distinct stimulus scales per `sim_cold` design. The pool is cycled, and
/// across the five designs it holds 20× the 64-entry cache cap, so every
/// lookup misses, inserts and evicts.
const COLD_POOL: usize = 256;
/// The compiled-cache cap the `sim_cold` server runs with.
pub const COLD_CACHE_CAP: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `simulate` over a fixed set of circuits; every lookup hits.
    SimHot,
    /// `simulate` over circuits the cache has not seen; every lookup misses.
    SimCold,
    /// `sweep` and `shmoo` Monte-Carlo requests.
    MonteCarlo,
    /// `model_check` requests (Query 2, some Query 1).
    Verify,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SimHot,
        Workload::SimCold,
        Workload::MonteCarlo,
        Workload::Verify,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimHot => "sim_hot",
            Workload::SimCold => "sim_cold",
            Workload::MonteCarlo => "montecarlo",
            Workload::Verify => "verify",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The compiled-cache cap the workload's server runs with.
    pub fn cache_cap(self) -> usize {
        match self {
            Workload::SimCold => COLD_CACHE_CAP,
            _ => rlse_serve::ServeOptions::default().max_cache_entries,
        }
    }

    fn stream(self) -> u64 {
        match self {
            Workload::SimHot => 0x686f74,
            Workload::SimCold => 0x636f6c64,
            Workload::MonteCarlo => 0x6d6363,
            Workload::Verify => 0x766572,
        }
    }
}

/// What a class's requests ask the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `simulate` the variant's circuit.
    Simulate,
    /// A Gaussian-σ Monte-Carlo `sweep`; `check` turns the IR's expected
    /// outputs into the per-trial verdict.
    Sweep { trials: u64, std: f64, check: bool },
    /// A σ × scale `shmoo` map over a named design.
    Shmoo {
        design: &'static str,
        sigmas: &'static [f64],
        scales: &'static [f64],
        trials: u64,
    },
    /// `model_check` the variant's embedded queries.
    ModelCheck { max_states: u64 },
}

impl Op {
    /// The request `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Simulate => "simulate",
            Op::Sweep { .. } => "sweep",
            Op::Shmoo { .. } => "shmoo",
            Op::ModelCheck { .. } => "model_check",
        }
    }
}

/// A request class: one operation over one design, with a fixed share.
#[derive(Debug, Clone)]
pub struct Class {
    /// Display name, unique within the workload.
    pub name: String,
    /// Requests of this class per schedule period.
    pub weight: usize,
    /// What the requests ask for.
    pub op: Op,
    /// The IR documents (compact JSON, rendered once) cycled through by
    /// successive requests of the class; empty for `shmoo`, which names its
    /// design.
    pub variants: Vec<String>,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into [`Generator::classes`].
    pub class: usize,
    /// Index into the class's variants (0 for `shmoo`).
    pub variant: usize,
    /// The engine seed written into the request, if any.
    pub seed: Option<u64>,
    /// The JSON line, without its newline.
    pub line: String,
}

/// The request stream of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    classes: Vec<Class>,
    /// Class index of every slot of one schedule period.
    schedule: Vec<usize>,
    /// For every slot: how many earlier slots of the period hold its class.
    rank: Vec<usize>,
    offset: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 53-bit value derived from `(seed, stream, i)`.
fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.rotate_left(29)) ^ i) >> 11
}

/// One design's IR at a stimulus scale, as compact JSON.
fn variant(design: &str, scale: f64, expected_outputs: bool) -> String {
    let ir = if expected_outputs {
        rlse_designs::design_ir_with_expected_outputs(design, scale)
    } else {
        rlse_designs::design_ir(design, scale)
    };
    ir.to_value().to_compact()
}

fn class(name: &str, weight: usize, op: Op, variants: Vec<String>) -> Class {
    Class {
        name: name.to_string(),
        weight,
        op,
        variants,
    }
}

/// The classes of `workload`. Only `sim_cold`'s stimulus scales depend on
/// the seed; every other workload carries the same circuits under any seed.
fn classes(workload: Workload, seed: u64) -> Vec<Class> {
    match workload {
        Workload::SimHot => [
            ("min_max", 1.0, 2),
            ("race_tree", 1.0, 1),
            ("adder_xsfq", 1.0, 1),
            ("bitonic_4", 1.0, 1),
            ("adder_sync", 1.0, 1),
            ("bitonic_8", 1.0, 5),
            ("bitonic_8", 1.5, 5),
            ("bitonic_16", 1.0, 4),
        ]
        .iter()
        .map(|&(d, s, w)| {
            class(
                &format!("{d}@x{s}"),
                w,
                Op::Simulate,
                vec![variant(d, s, false)],
            )
        })
        .collect(),
        Workload::SimCold => {
            // Unique scales in [1.0, 2.0): a seeded offset inside each of
            // COLD_POOL equal steps.
            let u = draw(seed, workload.stream(), u64::MAX) as f64 / SEED_LIMIT as f64;
            [
                ("min_max", 4),
                ("race_tree", 4),
                ("adder_xsfq", 4),
                ("bitonic_4", 4),
                ("adder_sync", 4),
            ]
            .iter()
            .map(|&(d, w)| {
                let pool = (0..COLD_POOL)
                    .map(|k| variant(d, 1.0 + (k as f64 + u) / COLD_POOL as f64, false))
                    .collect();
                class(d, w, Op::Simulate, pool)
            })
            .collect()
        }
        Workload::MonteCarlo => {
            let mut out = vec![class(
                "shmoo/min_max",
                2,
                Op::Shmoo {
                    design: "min_max",
                    sigmas: &[0.0, 0.4],
                    scales: &[0.8, 1.2],
                    trials: 32,
                },
                Vec::new(),
            )];
            for (d, trials, w) in [
                ("race_tree", 400, 1),
                ("adder_sync", 400, 1),
                ("bitonic_4", 400, 4),
                ("bitonic_8", 200, 3),
            ] {
                for check in [false, true] {
                    out.push(class(
                        &format!("sweep{}/{d}", if check { "+check" } else { "" }),
                        w,
                        Op::Sweep {
                            trials,
                            std: 0.2,
                            check,
                        },
                        vec![variant(d, 1.0, check)],
                    ));
                }
            }
            out
        }
        Workload::Verify => [
            ("min_max", false, 3),
            ("min_max", true, 2),
            ("adder_xsfq", false, 3),
            ("adder_xsfq", true, 2),
            ("race_tree", false, 20),
            ("adder_sync", false, 8),
            ("bitonic_4", false, 2),
        ]
        .iter()
        .map(|&(d, q1, w)| {
            class(
                &format!("{}/{d}", if q1 { "q1+q2" } else { "q2" }),
                w,
                Op::ModelCheck {
                    max_states: 200_000,
                },
                vec![variant(d, 1.0, q1)],
            )
        })
        .collect(),
    }
}

/// One schedule period: each class's slots in one contiguous run, in
/// declaration order (classes are declared cheapest first). Runs keep a
/// heavy request from stalling a light neighbour behind it in the reorder
/// buffer except at class boundaries, so each class keeps a latency band
/// of its own and the shares place p50 and p90 inside a band.
fn grouped_schedule(weights: &[usize]) -> Vec<usize> {
    weights
        .iter()
        .enumerate()
        .flat_map(|(k, &w)| std::iter::repeat_n(k, w))
        .collect()
}

impl Generator {
    /// The stream of `workload` under `seed` (which must be below 2^53).
    pub fn new(workload: Workload, seed: u64) -> Generator {
        assert!(seed < SEED_LIMIT, "seed must be below 2^53");
        let classes = classes(workload, seed);
        let weights: Vec<usize> = classes.iter().map(|c| c.weight).collect();
        let schedule = grouped_schedule(&weights);
        let rank = (0..schedule.len())
            .map(|s| schedule[..s].iter().filter(|&&c| c == schedule[s]).count())
            .collect();
        let offset = draw(seed, workload.stream(), u64::MAX - 1) % schedule.len() as u64;
        Generator {
            workload,
            seed,
            classes,
            schedule,
            rank,
            offset,
        }
    }

    /// The workload this stream belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The request classes, in declaration order.
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// Each class's share of the stream, as (name, fraction).
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.schedule.len() as f64;
        self.classes
            .iter()
            .map(|c| (c.name.clone(), c.weight as f64 / total))
            .collect()
    }

    /// The `id` field of request `i`.
    pub fn id(&self, i: u64) -> String {
        format!("{}-s{}-{i}", self.workload.name(), self.seed)
    }

    /// The (class, variant) of request `i`, without rendering its line.
    pub fn slot(&self, i: u64) -> (usize, usize) {
        let pos = i + self.offset;
        let period = self.schedule.len() as u64;
        let slot = (pos % period) as usize;
        let class_idx = self.schedule[slot];
        let class = &self.classes[class_idx];
        // This request is the class's `occurrence`-th since the schedule
        // origin; successive occurrences cycle through its variants.
        let occurrence = (pos / period) as usize * class.weight + self.rank[slot];
        let variant = if class.variants.is_empty() {
            0
        } else {
            occurrence % class.variants.len()
        };
        (class_idx, variant)
    }

    /// Request `i` of the stream.
    pub fn request(&self, i: u64) -> Request {
        let (class, variant) = self.slot(i);
        let (line, seed) = self.compose(&self.id(i), class, variant, i);
        Request {
            class,
            variant,
            seed,
            line,
        }
    }

    /// The JSON line of one request of `class_idx` over its `variant`,
    /// with engine seeds drawn for stream position `i`.
    fn compose(&self, id: &str, class_idx: usize, variant: usize, i: u64) -> (String, Option<u64>) {
        let class = &self.classes[class_idx];
        let mut line =
            String::with_capacity(class.variants.get(variant).map_or(0, String::len) + 160);
        let _ = write!(line, "{{\"id\":\"{id}\",\"kind\":\"{}\"", class.op.kind());
        let mut seed = None;
        match &class.op {
            Op::Simulate => {}
            Op::Sweep { trials, std, check } => {
                let s = draw(self.seed, self.workload.stream(), i);
                seed = Some(s);
                let _ = write!(
                    line,
                    ",\"trials\":{trials},\"seed\":{s},\
                     \"variability\":{{\"kind\":\"gaussian\",\"std\":{std}}}"
                );
                if *check {
                    line.push_str(",\"check\":true");
                }
            }
            Op::Shmoo {
                design,
                sigmas,
                scales,
                trials,
            } => {
                let s = draw(self.seed, self.workload.stream(), i);
                seed = Some(s);
                let list = |xs: &[f64]| {
                    xs.iter()
                        .map(|x| format!("{x:?}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = write!(
                    line,
                    ",\"design\":\"{design}\",\"sigmas\":[{}],\"scales\":[{}],\
                     \"trials\":{trials},\"seed\":{s}",
                    list(sigmas),
                    list(scales)
                );
            }
            Op::ModelCheck { max_states } => {
                let _ = write!(line, ",\"max_states\":{max_states}");
            }
        }
        if let Some(v) = class.variants.get(variant) {
            line.push_str(",\"ir\":");
            line.push_str(v);
        }
        line.push('}');
        (line, seed)
    }

    /// The warm-up lines: one `simulate` of every circuit the measured
    /// phase repeats, which compiles it into the cache, and one request of
    /// every class that carries no circuit. `sim_cold` instead warms up on
    /// one period of fresh circuits at scales in [2.0, 3.0), outside its
    /// pool, so the measured phase still never hits. Model checks are left
    /// out: the allocator keeps what a large check held, and the peak RSS
    /// would then depend on which thread ran it.
    pub fn warmup_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let simulate = |n: usize, ir: &str| {
            format!("{{\"id\":\"warm-{n}\",\"kind\":\"simulate\",\"ir\":{ir}}}")
        };
        for (c, class) in self.classes.iter().enumerate() {
            if self.workload == Workload::SimCold {
                for k in 0..class.weight {
                    let ir = variant(&class.name, 2.0 + k as f64 / 16.0, false);
                    lines.push(simulate(lines.len(), &ir));
                }
            } else if class.variants.is_empty() {
                let id = format!("warm-{}", lines.len());
                lines.push(self.compose(&id, c, 0, u64::MAX - lines.len() as u64).0);
            } else {
                for ir in &class.variants {
                    lines.push(simulate(lines.len(), ir));
                }
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_and_different_seeds_differ() {
        for w in Workload::ALL {
            let a = Generator::new(w, DEFAULT_SEED);
            let b = Generator::new(w, DEFAULT_SEED);
            let c = Generator::new(w, HELD_OUT_SEED);
            for i in 0..60 {
                assert_eq!(a.request(i).line, b.request(i).line, "{} #{i}", w.name());
                assert_ne!(a.request(i).line, c.request(i).line, "{} #{i}", w.name());
            }
            assert_eq!(a.warmup_lines(), b.warmup_lines());
        }
    }

    #[test]
    fn every_period_holds_each_class_share_exactly() {
        for w in Workload::ALL {
            let g = Generator::new(w, 99);
            let period = g.schedule.len() as u64;
            for start in [0, 3, 17] {
                let mut seen = vec![0usize; g.classes().len()];
                for i in start..start + period {
                    seen[g.request(i).class] += 1;
                }
                let want: Vec<usize> = g.classes().iter().map(|c| c.weight).collect();
                assert_eq!(seen, want, "{}", w.name());
            }
        }
    }

    #[test]
    fn seeds_and_numbers_stay_below_2_pow_53() {
        let g = Generator::new(Workload::MonteCarlo, SEED_LIMIT - 1);
        for i in 0..200 {
            if let Some(s) = g.request(i).seed {
                assert!(s < SEED_LIMIT);
                let line = g.request(i).line;
                let at = line.find("\"seed\":").expect("seed field") + 7;
                let digits: String = line[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                assert_eq!(digits, s.to_string());
            }
        }
    }

    #[test]
    fn cold_requests_cycle_through_distinct_circuits() {
        let g = Generator::new(Workload::SimCold, DEFAULT_SEED);
        let n = (COLD_POOL * g.schedule.len()) as u64;
        let mut irs = std::collections::HashSet::new();
        for i in 0..n {
            let r = g.request(i);
            irs.insert((r.class, r.variant));
        }
        assert_eq!(irs.len(), COLD_POOL * g.classes().len());
        assert!(irs.len() >= 20 * COLD_CACHE_CAP);
    }
}
