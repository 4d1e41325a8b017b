//! Microbenchmarks of the safety substrate itself: splay-tree lookups
//! (the cost unit behind every bounds check) and metapool operations.
//! This is the ablation behind the paper's §7.1.3 "fat pointers instead of
//! splay lookups" optimization discussion.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sva_kernel::harness::{boot_user, boot_user_paused, make_vm_cfg, pack_arg, USER_HEAP_BASE};
use sva_rt::{MetaPool, SplayTree};
use sva_trace::{
    EventClass, FlightRecorder, LookupLayer, NullTracer, RingTracer, TraceEvent, Tracer,
};
use sva_vm::{KernelKind, VmConfig};

fn splay(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt/splay");
    // Hot lookup: repeated hits on the same object (the common pattern the
    // splay tree optimizes for).
    g.bench_function("lookup_hot", |b| {
        let mut t = SplayTree::new();
        for i in 0..1024u64 {
            t.insert(i * 64, 64);
        }
        b.iter(|| t.lookup(512 * 64 + 8));
    });
    // Cold lookups: uniformly spread accesses.
    g.bench_function("lookup_spread", |b| {
        let mut t = SplayTree::new();
        for i in 0..1024u64 {
            t.insert(i * 64, 64);
        }
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.lookup((x % 1024) * 64 + 8)
        });
    });
    g.bench_function("insert_remove", |b| {
        b.iter_batched(
            SplayTree::new,
            |mut t| {
                for i in 0..256u64 {
                    t.insert(i * 32, 32);
                }
                for i in 0..256u64 {
                    t.remove(i * 32);
                }
                t
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();

    let mut g = c.benchmark_group("rt/metapool");
    g.bench_function("bounds_check_hit", |b| {
        let mut p = MetaPool::new("bench", true, true, Some(64));
        p.reg_obj(0x1000, 4096).unwrap();
        b.iter(|| p.bounds_check(0x1800, 0x1801));
    });
    g.bench_function("ls_check_hit", |b| {
        let mut p = MetaPool::new("bench", false, true, None);
        p.reg_obj(0x1000, 4096).unwrap();
        b.iter(|| p.ls_check(0x1800));
    });
    g.finish();
}

/// Builds a pool with `n` registered 64-byte objects, 256 bytes apart.
fn pool_with_objects(n: u64) -> MetaPool {
    let mut p = MetaPool::new("bench", false, true, None);
    for i in 0..n {
        p.reg_obj(0x1_0000 + i * 0x100, 64).unwrap();
    }
    p
}

/// The layered lookup on the two workload shapes that matter: repeated
/// access to the same few hot objects (the paper's locality argument —
/// served by the MRU cache) and a pseudo-random spread over many objects
/// (MRU misses, answered by the splay tree). The splay-only cost of both
/// shapes is `rt/splay/lookup_*`.
fn fastpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt/fastpath");
    g.bench_function("repeat_fast", |b| {
        let mut p = pool_with_objects(1024);
        let mut i = 0u64;
        b.iter(|| {
            // Two hot objects, alternating: fits the 2-entry MRU.
            i = i.wrapping_add(1);
            let addr = 0x1_0000 + (i & 1) * 0x100 + 8;
            p.ls_check(addr)
        });
    });
    g.bench_function("spread_fast", |b| {
        let mut p = pool_with_objects(1024);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = 0x1_0000 + (x % 1024) * 0x100 + 8;
            p.ls_check(addr)
        });
    });
    g.finish();

    // One-shot layer breakdown on a mixed workload, so the bench output
    // documents where lookups resolve (singleton / cache / tree).
    let mut p = pool_with_objects(1024);
    let mut x = 0u64;
    for i in 0..100_000u64 {
        // 75% hot-pair traffic, 25% spread.
        let addr = if i % 4 != 0 {
            0x1_0000 + (i & 1) * 0x100 + 8
        } else {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            0x1_0000 + (x % 1024) * 0x100 + 8
        };
        let _ = p.ls_check(addr);
    }
    let s = *p.stats();
    println!(
        "rt/fastpath breakdown (100k mixed lookups): singleton_hits {} ({:.1}%), \
         cache_hits {} ({:.1}%), tree_walks {} ({:.1}%)",
        s.singleton_hits,
        100.0 * s.singleton_hits as f64 / s.lookups() as f64,
        s.cache_hits,
        100.0 * s.cache_hits as f64 / s.lookups() as f64,
        s.tree_walks,
        100.0 * s.tree_walks as f64 / s.lookups() as f64,
    );
}

/// The singleton-pool elision (DESIGN.md §4.4): a pool holding exactly one
/// live object answers every lookup with a two-compare bounds test, ahead
/// of the MRU cache. `repeat_singleton` vs `repeat_mru` isolates what the
/// elision saves over the MRU cache on the same one-object pool; the
/// nightly gate watches both repeat-hit medians.
fn singleton(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt/singleton");
    for (label, on) in [("repeat_singleton", true), ("repeat_mru", false)] {
        g.bench_function(label, |b| {
            let mut p = pool_with_objects(1);
            p.set_singleton_path(on);
            let mut i = 0u64;
            b.iter(|| {
                // Walk offsets inside the lone 64-byte object.
                i = i.wrapping_add(1);
                p.ls_check(0x1_0000 + (i & 0x38))
            });
        });
    }
    g.finish();
}

/// One iteration of a traced repeat-hit check site, mirroring the VM's
/// `pchk.lscheck` dispatch: the check itself and a recording block behind
/// `T::wants(EventClass::Check)`. The `wants` test is a constant per
/// monomorphization, so the compiler deletes the whole block for tracers
/// whose `WANTED` mask excludes the `Check` class.
#[inline(always)]
fn traced_check_step<T: Tracer>(p: &mut MetaPool, tracer: &mut T, i: &mut u64) -> bool {
    *i = i.wrapping_add(1);
    let addr = 0x1_0000 + (*i & 1) * 0x100 + 8;
    let r = p.ls_check(addr);
    if T::wants(EventClass::Check) {
        tracer.record(
            *i * 16,
            TraceEvent::Check {
                check: "pchk.lscheck",
                pool: 0,
                layer: LookupLayer::Cache,
                passed: r.is_ok(),
                cost: 16,
            },
        );
    }
    r.is_ok()
}

/// Times one slice of the traced site; returns ns per iteration.
fn flight_slice<T: Tracer>(p: &mut MetaPool, tracer: &mut T, i: &mut u64, iters: u64) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        criterion::black_box(traced_check_step(p, tracer, i));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Appends a result line in the criterion shim's JSON format, so
/// `bench_gate` can read hand-measured ids alongside shim-measured ones.
fn emit_result(id: &str, ns: &mut [f64], iters: u64) {
    ns.sort_by(|a, b| a.total_cmp(b));
    let (lo, median, hi) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1]);
    println!("{id:<44} time: [{lo:.2} ns {median:.2} ns {hi:.2} ns]");
    let dir = std::env::var("SVA_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            let mut cur = std::env::var("CARGO_MANIFEST_DIR")
                .map(std::path::PathBuf::from)
                .or_else(|_| std::env::current_dir())
                .unwrap_or_else(|_| std::path::PathBuf::from("."));
            loop {
                if cur.join("Cargo.lock").exists() {
                    break cur.join("target").join("sva-bench");
                }
                if !cur.pop() {
                    break std::path::PathBuf::from("target/sva-bench");
                }
            }
        });
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("checks_micro.json"))
    {
        let _ = writeln!(
            f,
            "{{\"bench\":\"checks_micro\",\"id\":\"{id}\",\"ns_low\":{lo:.1},\"ns_median\":{median:.1},\
             \"ns_high\":{hi:.1},\"iters_per_sample\":{iters},\"samples\":{}}}",
            ns.len()
        );
    }
}

/// The always-on flight recorder's tax on the repeat-hit check path
/// (DESIGN.md §4.7). `FlightRecorder` excludes the `Check` class from its
/// `WANTED` mask, so `repeat_flight` must price the same as `repeat_null`
/// — `bench_gate` pairs the two at ≤5%. A 5% bar on a ~7 ns site is far
/// below this runner's noise floor if the two sides differ in *anything*
/// but the tracer: separately allocated pools can land on unlucky
/// cache-aliasing addresses and one side then pays ~2x for the whole
/// process. So both sides drive the *same* pool and counter in
/// alternating slices within one harness — layout luck and machine-speed
/// drift apply to both equally and cancel. `repeat_ring` (the
/// full-firehose tracer on the identical site) stays on the shim as an
/// ungated contrast number.
fn flight(c: &mut Criterion) {
    const SLICE_ITERS: u64 = 200_000;
    const SAMPLES: usize = 61;
    let mut pool = pool_with_objects(1024);
    let mut null_tracer = NullTracer;
    let mut flight_tracer = FlightRecorder::default();
    let mut i = 0u64;
    // Warmup, alternating like the measurement will.
    for _ in 0..3 {
        flight_slice(&mut pool, &mut null_tracer, &mut i, SLICE_ITERS);
        flight_slice(&mut pool, &mut flight_tracer, &mut i, SLICE_ITERS);
    }
    let mut null_ns = Vec::with_capacity(SAMPLES);
    let mut flight_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        null_ns.push(flight_slice(
            &mut pool,
            &mut null_tracer,
            &mut i,
            SLICE_ITERS,
        ));
        flight_ns.push(flight_slice(
            &mut pool,
            &mut flight_tracer,
            &mut i,
            SLICE_ITERS,
        ));
    }
    emit_result("rt/flight/repeat_null", &mut null_ns, SLICE_ITERS);
    emit_result("rt/flight/repeat_flight", &mut flight_ns, SLICE_ITERS);

    let mut g = c.benchmark_group("rt/flight");
    g.bench_function("repeat_ring", |b| {
        let mut p = pool_with_objects(1024);
        let mut t = RingTracer::default();
        let mut i = 0u64;
        b.iter(|| traced_check_step(&mut p, &mut t, &mut i));
    });
    g.finish();
}

/// The fused checked-load path on the real kernel (DESIGN.md §4.4): the
/// same pool-checked syscall (`sys_getrusage` dereferences user memory
/// through a metapool check) on the sva-safe kernel with the optimizing
/// tier off vs on. At opt 2 the hot checked loads dispatch as
/// `FusedGepChkLoad` triples; the delta is the dispatch overhead fusion
/// deletes. Reported for context — the cycle-exact accounting is gated
/// by `opt_equiv` and the nightly `--opt-compare` artifact.
fn fused_checked_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm/fusion");
    for (label, opt) in [("getrusage_unfused", 0u8), ("getrusage_fused", 2)] {
        g.bench_function(label, |b| {
            let mut vm = make_vm_cfg(VmConfig {
                kind: KernelKind::SvaSafe,
                opt_level: opt,
                ..Default::default()
            });
            boot_user(&mut vm, "user_hello", 0).unwrap();
            assert_eq!(vm.fused_chk_sites() > 0, opt == 2);
            b.iter(|| vm.call("sys_getrusage", &[USER_HEAP_BASE]));
        });
    }
    g.finish();
}

/// Host ns per guest instruction of one fixed checked transfer under
/// each kernel configuration (opt 2, the hostbench setting), and the
/// host cost of one run-time check derived from them: (sva-safe −
/// sva-llvm run time) / sva-safe checks. Each round runs the four
/// kernels back to back on fresh machines, timing only the post-boot
/// run and keeping each kernel's fastest of `TRIES` runs (the transfer
/// is deterministic, so the fastest run is the one the host disturbed
/// least), so machine-speed drift hits every kernel alike; the ids
/// report medians over the rounds. Context for the interpreter work of
/// DESIGN.md §4.4, not gated.
fn interp(_c: &mut Criterion) {
    const ROUNDS: usize = 9;
    const TRIES: usize = 3;
    let job = ("user_fileread_bw", pack_arg(2, 16 << 10, 0));
    let run = |kind: KernelKind| {
        let mut vm = make_vm_cfg(VmConfig {
            kind,
            opt_level: 2,
            ..Default::default()
        });
        assert!(matches!(boot_user_paused(&mut vm, job.0, job.1), Ok(None)));
        let (insts, checks) = (
            vm.stats().instructions,
            vm.pools.total_stats().total_checks(),
        );
        let t = std::time::Instant::now();
        criterion::black_box(vm.run()).expect("transfer runs");
        let ns = t.elapsed().as_nanos() as f64;
        (
            ns,
            vm.stats().instructions - insts,
            vm.pools.total_stats().total_checks() - checks,
        )
    };
    let mut per_inst: [Vec<f64>; 4] = Default::default();
    let mut check_ns = Vec::with_capacity(ROUNDS);
    let mut insts = [0u64; 4];
    for round in 0..=ROUNDS {
        let mut ns = [0.0; 4];
        let mut safe_checks = 0;
        for (i, kind) in KernelKind::ALL.into_iter().enumerate() {
            let (t, n, checks) = (0..TRIES)
                .map(|_| run(kind))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("TRIES > 0");
            (ns[i], insts[i]) = (t, n);
            if kind.checks() {
                safe_checks = checks;
            }
        }
        // Round 0 warms caches and the module cache; it is not recorded.
        if round == 0 {
            continue;
        }
        for i in 0..4 {
            per_inst[i].push(ns[i] / insts[i].max(1) as f64);
        }
        check_ns.push((ns[3] - ns[2]) / safe_checks.max(1) as f64);
    }
    for (i, kind) in KernelKind::ALL.into_iter().enumerate() {
        emit_result(
            &format!("vm/interp/{}", kind.label()),
            &mut per_inst[i],
            insts[i],
        );
    }
    emit_result("vm/interp/check_ns", &mut check_ns, 1);
}

criterion_group!(
    benches,
    splay,
    fastpath,
    singleton,
    flight,
    fused_checked_load,
    interp
);
criterion_main!(benches);
