//! Criterion benches for the netlist-IR service path: what one IR-bearing
//! request costs cold (decode + rebuild + compile) versus warm (decode +
//! rebuild + cache hit), and the IR plumbing itself (canonical hashing,
//! JSON round-trips). The cold/warm gap is the whole point of the
//! `CompiledCache` — repeated requests skip compilation entirely.
//!
//! Both paths decode a `simulate` request line the way `rlse-serve` does:
//! one `JsonValue::parse` of the whole line, then `Ir::from_value` on its
//! `ir` member.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rlse_core::ir::json::JsonValue;
use rlse_core::ir::{CompiledCache, Ir};
use rlse_core::sim::Simulation;
use rlse_designs::design_ir;

/// Decode a request line's `ir` member as the server does: parse once.
fn decode_request(line: &str) -> Ir {
    let req = JsonValue::parse(line).unwrap();
    Ir::from_value(req.get("ir").unwrap()).unwrap()
}

fn cache_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("ir_cache");
    for name in ["min_max", "bitonic_8"] {
        let line = format!(
            "{{\"kind\":\"simulate\",\"ir\":{}}}",
            design_ir(name, 1.0).to_value().to_compact()
        );
        group.bench_function(format!("{name}_cold"), |b| {
            b.iter_batched(
                CompiledCache::new,
                |cache| cache.get_or_compile(&decode_request(&line)).unwrap(),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("{name}_warm"), |b| {
            let cache = CompiledCache::new();
            cache.get_or_compile(&decode_request(&line)).unwrap();
            b.iter(|| {
                let outcome = cache.get_or_compile(&decode_request(&line)).unwrap();
                assert!(outcome.hit);
                outcome
            })
        });
        group.bench_function(format!("{name}_warm_simulate"), |b| {
            // The full warm request: cache lookup plus one simulation over
            // the shared compiled tables.
            let cache = CompiledCache::new();
            cache.get_or_compile(&decode_request(&line)).unwrap();
            b.iter(|| {
                let outcome = cache.get_or_compile(&decode_request(&line)).unwrap();
                Simulation::with_compiled(outcome.circuit, outcome.compiled)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn ir_plumbing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ir_plumbing");
    let ir = design_ir("bitonic_8", 1.0);
    let json = ir.to_json();
    group.bench_function("bitonic_8_hash", |b| b.iter(|| ir.content_hash()));
    group.bench_function("bitonic_8_to_json", |b| b.iter(|| ir.to_json()));
    group.bench_function("bitonic_8_from_json", |b| {
        b.iter(|| Ir::from_json(&json).unwrap())
    });
    group.finish();
}

criterion_group!(benches, cache_paths, ir_plumbing);
criterion_main!(benches);
