//! A persistent compiled-artifact cache keyed on [`Ir::content_hash`].
//!
//! The expensive per-circuit artifact — the flat dispatch tables of
//! [`CompiledCircuit`] — is memoized across requests. Entries store the
//! full canonical byte encoding and compare it exactly on lookup, so a
//! 64-bit hash collision can never alias two different circuits.
//!
//! The cache is built for concurrent callers (the `rlse-serve` worker pool
//! hits one shared instance from every request worker):
//!
//! * **One lock** — the entry map and the flight map sit behind a single
//!   mutex. A lookup holds it for a bucket scan and a canonical-byte
//!   compare (a few microseconds at most; DESIGN.md §16 has the numbers),
//!   never for a compile.
//! * **Single-flight compilation** — when N requests for the same hash
//!   arrive while no entry exists yet, exactly one caller compiles; the
//!   rest block on the in-flight marker, then look again and are served the
//!   finished entry (counted in
//!   [`singleflight_waits`](CompiledCache::singleflight_waits) and the
//!   `ir_cache.singleflight_waits` telemetry counter). At most one compile
//!   per hash is in flight, so a caller whose canonical bytes merely share
//!   the hash waits too, then compiles its own entry. If the compiling
//!   caller panics, waiters wake and retry — one of them becomes the new
//!   leader — so a poisoned flight can never strand the queue.
//! * **LRU cap** — with [`with_max_entries`](CompiledCache::with_max_entries)
//!   the insert that overflows the cap evicts the least-recently-used entry
//!   in the same critical section.

use super::{Ir, IrError};
use crate::circuit::Circuit;
use crate::compiled::CompiledCircuit;
use crate::telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The result of a cache lookup: the rebuilt circuit plus the (possibly
/// memoized) compiled form.
#[derive(Debug)]
pub struct CacheOutcome {
    /// The IR's content hash — the cache key.
    pub hash: u64,
    /// True if the compiled circuit was served from the cache (including
    /// after waiting on another caller's in-flight compilation).
    pub hit: bool,
    /// A fresh circuit rebuilt from the IR (cheap; every caller needs one).
    pub circuit: Circuit,
    /// The compiled dispatch tables, shared with the cache.
    pub compiled: Arc<CompiledCircuit>,
}

struct Entry {
    canon: Vec<u8>,
    compiled: Arc<CompiledCircuit>,
    /// Tick of the insert or lookup that last touched this entry (LRU
    /// eviction key).
    last_used: u64,
}

/// An in-flight compilation: waiters block on the condvar until the leader
/// marks it done (or abandons it by unwinding).
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    /// Block until the leader finishes (successfully or not).
    fn wait(&self) {
        let mut done = self.done.lock().expect("flight poisoned");
        while !*done {
            done = self.cv.wait(done).expect("flight poisoned");
        }
    }
}

/// Removes the leader's flight marker and wakes waiters on drop, so a
/// panicking compile can never strand the waiters — they retry and one
/// becomes the new leader. The drop runs while a panicking compile unwinds,
/// so it must not panic itself: a poisoned cache keeps the marker (every
/// later lookup fails on the poisoned lock anyway), and the `done` flag is
/// a plain bool that is valid whatever poisoned its lock.
struct FlightGuard<'a> {
    cache: &'a CompiledCache,
    hash: u64,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut state) = self.cache.state.lock() {
            state.flights.remove(&self.hash);
        }
        *self
            .flight
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.flight.cv.notify_all();
    }
}

/// Everything the cache lock guards.
#[derive(Default)]
struct State {
    /// Hash buckets; a bucket holds more than one entry only on a 64-bit
    /// hash collision.
    entries: HashMap<u64, Vec<Entry>>,
    /// At most one in-flight compile per hash.
    flights: HashMap<u64, Arc<Flight>>,
    /// Monotone counter stamping `Entry::last_used`.
    tick: u64,
}

impl State {
    fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// The entry for `canon`, stamped as just used.
    fn touch(&mut self, hash: u64, canon: &[u8]) -> Option<Arc<CompiledCircuit>> {
        self.tick += 1;
        let stamp = self.tick;
        let entry = self
            .entries
            .get_mut(&hash)?
            .iter_mut()
            .find(|e| e.canon == canon)?;
        entry.last_used = stamp;
        Some(Arc::clone(&entry.compiled))
    }

    /// Remove the least-recently-used entry.
    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .flat_map(|(&h, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.last_used, h, i))
            })
            .min();
        let Some((_, h, i)) = victim else { return };
        let bucket = self.entries.get_mut(&h).expect("victim bucket exists");
        bucket.remove(i);
        if bucket.is_empty() {
            self.entries.remove(&h);
        }
    }
}

/// A thread-safe memo of compiled circuits keyed on IR content. One lock,
/// single-flight — see the module docs for the concurrency design.
///
/// By default the cache is **unbounded**: every distinct circuit compiled
/// through it stays resident until [`clear`](CompiledCache::clear) or drop.
/// That is the right trade for batch runs over a fixed request corpus; a
/// long-lived embedder fed many distinct IRs should cap it with
/// [`with_max_entries`](CompiledCache::with_max_entries), which evicts the
/// least-recently-used entry on overflow.
///
/// ```
/// use rlse_core::circuit::Circuit;
/// use rlse_core::ir::{CompiledCache, Ir};
/// # use rlse_core::machine::{EdgeDef, Machine};
/// # let jtl = Machine::new("JTL", &["a"], &["q"], 5.7, 2, &[EdgeDef {
/// #     src: "idle", trigger: "a", dst: "idle", firing: "q", ..Default::default()
/// # }]).unwrap();
/// let mut c = Circuit::new();
/// let a = c.inp_at(&[10.0], "A");
/// let q = c.add_machine(&jtl, &[a]).unwrap()[0];
/// c.inspect(q, "Q");
/// let ir = Ir::from_circuit(&c).unwrap();
///
/// let cache = CompiledCache::new();
/// let first = cache.get_or_compile(&ir).unwrap();
/// let second = cache.get_or_compile(&ir).unwrap();
/// assert!(!first.hit && second.hit);
/// assert!(std::sync::Arc::ptr_eq(&first.compiled, &second.compiled));
/// ```
pub struct CompiledCache {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    singleflight_waits: AtomicU64,
    /// Entry cap; `None` means unbounded (the default).
    max_entries: Option<usize>,
    telemetry: Telemetry,
    /// Test hook run by the compile leader between claiming the flight and
    /// compiling; lets tests hold the compile open deterministically.
    #[cfg(test)]
    compile_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for CompiledCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("singleflight_waits", &self.singleflight_waits())
            .finish()
    }
}

impl Default for CompiledCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CompiledCache {
    /// An empty, unbounded cache with no telemetry attached.
    pub fn new() -> Self {
        CompiledCache {
            state: Mutex::new(State::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
            max_entries: None,
            telemetry: Telemetry::disabled(),
            #[cfg(test)]
            compile_hook: Mutex::new(None),
        }
    }

    /// Bound the cache to at most `max` compiled circuits (clamped to at
    /// least 1). Inserting past the bound evicts the least-recently-used
    /// entry; evictions count `ir_cache.evictions` on the attached
    /// telemetry.
    #[must_use]
    pub fn with_max_entries(mut self, max: usize) -> Self {
        self.max_entries = Some(max.max(1));
        self
    }

    /// Attach a telemetry handle; lookups count `ir_cache.hits` /
    /// `ir_cache.misses` / `ir_cache.singleflight_waits` on it.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.telemetry = tel.clone();
        self
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("compiled cache poisoned")
    }

    /// Rebuild the IR's circuit and return its compiled form, compiling at
    /// most once per distinct canonical content — even under contention:
    /// concurrent callers for the same content wait for the one in-flight
    /// compilation instead of duplicating it, and are served as hits.
    ///
    /// The circuit is re-validated **before** the IR is hashed, on every
    /// call: [`Ir::to_circuit`] rejects dangling machine indices (among
    /// other malformations) that [`Ir::canonical_bytes`] would panic on, so
    /// an untrusted document can never panic the cache.
    ///
    /// # Errors
    ///
    /// Any [`IrError`] from [`Ir::to_circuit`].
    pub fn get_or_compile(&self, ir: &Ir) -> Result<CacheOutcome, IrError> {
        let circuit = ir.to_circuit()?;
        let canon = ir.canonical_bytes();
        let hash = super::fnv1a(&canon);
        Ok(self.lookup(hash, canon, circuit))
    }

    /// The cache proper, with the hash passed in so tests can force a
    /// collision.
    fn lookup(&self, hash: u64, canon: Vec<u8>, circuit: Circuit) -> CacheOutcome {
        let guard = loop {
            let flight = {
                let mut state = self.state();
                if let Some(compiled) = state.touch(hash, &canon) {
                    drop(state);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.add("ir_cache.hits", 1);
                    return CacheOutcome {
                        hash,
                        hit: true,
                        circuit,
                        compiled,
                    };
                }
                match state.flights.get(&hash) {
                    Some(f) => Arc::clone(f),
                    None => {
                        let flight = Arc::new(Flight::default());
                        state.flights.insert(hash, Arc::clone(&flight));
                        break FlightGuard {
                            cache: self,
                            hash,
                            flight,
                        };
                    }
                }
            };
            // Someone is compiling under this hash. Once they finish (or
            // unwind), look again: their entry may be ours, or we may be
            // the next leader.
            self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
            self.telemetry.add("ir_cache.singleflight_waits", 1);
            flight.wait();
        };

        // We are the compile leader; the guard wakes waiters even if the
        // compile panics.
        #[cfg(test)]
        if let Some(hook) = &*self.compile_hook.lock().expect("hook poisoned") {
            hook();
        }
        let compiled = Arc::new(CompiledCircuit::compile(&circuit));
        let mut evictions = 0;
        {
            let mut state = self.state();
            state.tick += 1;
            let last_used = state.tick;
            state.entries.entry(hash).or_default().push(Entry {
                canon,
                compiled: Arc::clone(&compiled),
                last_used,
            });
            if let Some(cap) = self.max_entries {
                while state.len() > cap {
                    state.evict_lru();
                    evictions += 1;
                }
            }
        }
        drop(guard);
        if evictions > 0 {
            self.telemetry.add("ir_cache.evictions", evictions);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add("ir_cache.misses", 1);
        CacheOutcome {
            hash,
            hit: false,
            circuit,
            compiled,
        }
    }

    /// Number of distinct compiled circuits held.
    pub fn len(&self) -> usize {
        self.state().len()
    }

    /// True if no compiled circuits are held.
    pub fn is_empty(&self) -> bool {
        self.state().entries.is_empty()
    }

    /// Total cache hits since construction (including single-flight waiters
    /// served the leader's entry).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total cache misses (compilations) since construction. Under
    /// single-flight, concurrent requests for the same content cost one
    /// miss total.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times a caller blocked on another caller's in-flight compilation
    /// under the same hash instead of compiling it again.
    pub fn singleflight_waits(&self) -> u64 {
        self.singleflight_waits.load(Ordering::Relaxed)
    }

    /// Install a function the compile leader runs before compiling (tests
    /// hold the compile open to force single-flight waits).
    #[cfg(test)]
    fn set_compile_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.compile_hook.lock().expect("hook poisoned") = Some(hook);
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.state().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::small_jtl_ir;
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn hit_after_miss_shares_the_compiled_tables() {
        let tel = Telemetry::new();
        let cache = CompiledCache::new().with_telemetry(&tel);
        let ir = small_jtl_ir();
        let a = cache.get_or_compile(&ir).unwrap();
        let b = cache.get_or_compile(&ir).unwrap();
        assert!(!a.hit);
        assert!(b.hit);
        assert_eq!(a.hash, b.hash);
        assert!(Arc::ptr_eq(&a.compiled, &b.compiled));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.singleflight_waits(), 0);
        let report = tel.report();
        assert_eq!(report.counter("ir_cache.hits"), 1);
        assert_eq!(report.counter("ir_cache.misses"), 1);
    }

    #[test]
    fn different_content_occupies_different_entries() {
        let cache = CompiledCache::new();
        let ir = small_jtl_ir();
        let mut stretched = ir.clone();
        if let super::super::IrNode::Source { pulses } = &mut stretched.nodes[0] {
            for t in pulses.iter_mut() {
                *t += 1.0;
            }
        }
        cache.get_or_compile(&ir).unwrap();
        cache.get_or_compile(&stretched).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn malformed_ir_is_an_error_not_a_panic() {
        // REVIEW regression: a dangling machine index must surface as the
        // `to_circuit` validation error — previously `canonical_bytes` ran
        // first and panicked on the unchecked index.
        let mut ir = small_jtl_ir();
        if let super::super::IrNode::Instance { machine, .. } = &mut ir.nodes[1] {
            *machine = 99;
        }
        let cache = CompiledCache::new();
        assert!(matches!(
            cache.get_or_compile(&ir),
            Err(IrError::Malformed(_))
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn max_entries_evicts_least_recently_used() {
        let tel = Telemetry::new();
        let cache = CompiledCache::new().with_max_entries(2).with_telemetry(&tel);
        let base = small_jtl_ir();
        let variant = |shift: f64| {
            let mut ir = base.clone();
            if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                for t in pulses.iter_mut() {
                    *t += shift;
                }
            }
            ir
        };
        let (a, b, c) = (variant(0.0), variant(1.0), variant(2.0));
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        // Touch `a` so `b` is the LRU entry, then overflow with `c`.
        assert!(cache.get_or_compile(&a).unwrap().hit);
        cache.get_or_compile(&c).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get_or_compile(&a).unwrap().hit, "a survived");
        assert!(cache.get_or_compile(&c).unwrap().hit, "c survived");
        assert!(!cache.get_or_compile(&b).unwrap().hit, "b was evicted");
        assert!(tel.report().counter("ir_cache.evictions") >= 2);
    }

    #[test]
    fn single_flight_compiles_once_under_contention() {
        // The compile hook holds the leader inside the compile until every
        // other thread has reached the cache, so all N-1 of them MUST find
        // the in-flight marker and wait — making the wait count exact, not
        // timing-dependent.
        const THREADS: usize = 4;
        let tel = Telemetry::new();
        let cache = Arc::new(CompiledCache::new().with_telemetry(&tel));
        let in_compile = Arc::new(Barrier::new(THREADS));
        {
            let in_compile = Arc::clone(&in_compile);
            cache.set_compile_hook(Box::new(move || {
                in_compile.wait();
                // Give the waiters time to move from the barrier into the
                // flight wait (they hold no lock the leader needs).
                std::thread::sleep(std::time::Duration::from_millis(50));
            }));
        }
        let ir = small_jtl_ir();
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let cache = Arc::clone(&cache);
                    let ir = ir.clone();
                    let in_compile = Arc::clone(&in_compile);
                    s.spawn(move || {
                        if i != 0 {
                            // Wait until the leader is provably mid-compile.
                            in_compile.wait();
                        }
                        cache.get_or_compile(&ir).unwrap().hit
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "compile ran exactly once");
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert_eq!(cache.singleflight_waits(), THREADS as u64 - 1);
        assert_eq!(outcomes.iter().filter(|hit| !**hit).count(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            tel.report().counter("ir_cache.singleflight_waits"),
            THREADS as u64 - 1
        );
    }

    #[test]
    fn concurrent_distinct_compiles_respect_the_entry_cap() {
        const THREADS: usize = 8;
        const CAP: usize = 3;
        let cache = Arc::new(CompiledCache::new().with_max_entries(CAP));
        let base = small_jtl_ir();
        let start = Arc::new(Barrier::new(THREADS));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let start = Arc::clone(&start);
                let mut ir = base.clone();
                if let super::super::IrNode::Source { pulses } = &mut ir.nodes[0] {
                    for p in pulses.iter_mut() {
                        *p += t as f64;
                    }
                }
                s.spawn(move || {
                    start.wait();
                    for _ in 0..3 {
                        let got = cache.get_or_compile(&ir).unwrap();
                        assert_eq!(got.hash, ir.content_hash());
                    }
                });
            }
        });
        assert!(cache.len() <= CAP, "cap holds after concurrent churn");
        assert!(cache.misses() >= THREADS as u64, "each distinct IR compiled");
    }

    #[test]
    fn concurrent_same_hash_waiters_all_get_working_artifacts() {
        // No hook: rely on a barrier for best-effort contention and assert
        // the invariants that must hold at ANY interleaving — one entry,
        // hits + misses == calls, every outcome shares the same tables.
        const THREADS: usize = 8;
        let cache = Arc::new(CompiledCache::new());
        let ir = small_jtl_ir();
        let start = Arc::new(Barrier::new(THREADS));
        let compiled: Vec<Arc<CompiledCircuit>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let ir = ir.clone();
                    let start = Arc::clone(&start);
                    s.spawn(move || {
                        start.wait();
                        cache.get_or_compile(&ir).unwrap().compiled
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), THREADS as u64);
        assert_eq!(cache.misses(), 1, "single-flight deduped the compile");
        for c in &compiled {
            assert!(Arc::ptr_eq(c, &compiled[0]), "all callers share one artifact");
        }
    }

    /// Two IRs with different content.
    fn two_distinct_irs() -> (Ir, Ir) {
        let a = small_jtl_ir();
        let mut b = a.clone();
        if let super::super::IrNode::Source { pulses } = &mut b.nodes[0] {
            pulses[0] += 1.0;
        }
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        (a, b)
    }

    /// `get_or_compile`, but filed under `hash` instead of the IR's own.
    fn lookup_as(cache: &CompiledCache, hash: u64, ir: &Ir) -> CacheOutcome {
        cache.lookup(hash, ir.canonical_bytes(), ir.to_circuit().unwrap())
    }

    #[test]
    fn colliding_hashes_keep_their_own_entries() {
        const HASH: u64 = 0x5eed;
        let cache = CompiledCache::new();
        let (ir_a, ir_b) = two_distinct_irs();
        let a = lookup_as(&cache, HASH, &ir_a);
        let b = lookup_as(&cache, HASH, &ir_b);
        assert!(!a.hit && !b.hit);
        assert_eq!((cache.misses(), cache.len()), (2, 2));
        assert!(!Arc::ptr_eq(&a.compiled, &b.compiled));
        let a2 = lookup_as(&cache, HASH, &ir_a);
        let b2 = lookup_as(&cache, HASH, &ir_b);
        assert!(a2.hit && b2.hit);
        assert!(
            Arc::ptr_eq(&a2.compiled, &a.compiled),
            "a gets its own tables"
        );
        assert!(
            Arc::ptr_eq(&b2.compiled, &b.compiled),
            "b gets its own tables"
        );
        assert_eq!(
            (cache.hits(), cache.misses(), cache.singleflight_waits()),
            (2, 2, 0)
        );
    }

    #[test]
    fn a_colliding_caller_waits_on_the_flight_then_compiles_its_own() {
        // Whichever caller claims the flight first holds its compile open
        // in the hook until the other has registered a wait on it (bounded,
        // so a missing wait fails the assertions instead of hanging). The
        // waiter then compiles its own entry; the hook lets that through.
        const HASH: u64 = 0x5eed;
        let cache = Arc::new(CompiledCache::new());
        {
            let cache_ref = Arc::downgrade(&cache);
            let first = std::sync::atomic::AtomicBool::new(true);
            cache.set_compile_hook(Box::new(move || {
                if first.swap(false, Ordering::SeqCst) {
                    let cache = cache_ref.upgrade().expect("cache outlives its hook");
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while cache.singleflight_waits() == 0 && std::time::Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let (ir_a, ir_b) = two_distinct_irs();
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| lookup_as(&cache, HASH, &ir_a));
            let b = s.spawn(|| lookup_as(&cache, HASH, &ir_b));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(!a.hit && !b.hit, "the waiter compiles its own entry");
        assert_eq!(cache.singleflight_waits(), 1);
        assert_eq!((cache.misses(), cache.len()), (2, 2));
        assert!(Arc::ptr_eq(
            &lookup_as(&cache, HASH, &ir_a).compiled,
            &a.compiled
        ));
        assert!(Arc::ptr_eq(
            &lookup_as(&cache, HASH, &ir_b).compiled,
            &b.compiled
        ));
    }
}
