//! Host-time benchmark of the SVA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <syscall_smp|bulk_io|live_upgrade> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client over a pool of ops
//! generated from `--seed`. With `--trace 0` the last line of stdout is
//! one JSON object carrying the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics, and the spans are written to
//! `target/hostbench/`. See `README.md` next to this package for what
//! each workload and metric is for.

mod bulk;
mod calib;
mod gen;
mod kernel;
mod smp;
mod span;
mod upgrade;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sva_rt::CheckStats;
use sva_vm::VmStats;

/// Seed reserved for confirming a claimed gain: not used while tuning a
/// change, so a claim must also hold on it.
const HELD_OUT_SEED: u64 = 9973;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Guest work done by one op, summed over every machine the op ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub instructions: u64,
    pub cycles: u64,
    pub traps: u64,
    /// Payload bytes the guest programs moved (read, written or piped).
    pub payload: u64,
    pub fused: u64,
    pub checks: u64,
    pub registrations: u64,
    pub drops: u64,
    pub singleton: u64,
    pub mru: u64,
    pub page: u64,
    pub tree: u64,
    pub unwinds: u64,
    pub domains: u64,
    pub injected: u64,
}

impl Work {
    pub fn of(s: &VmStats, c: &CheckStats) -> Work {
        Work {
            instructions: s.instructions,
            cycles: s.cycles,
            traps: s.traps,
            payload: 0,
            fused: s.fused_execs,
            checks: c.total_checks(),
            registrations: c.registrations,
            drops: c.drops,
            singleton: s.singleton_hits,
            mru: s.cache_hits,
            page: s.page_hits,
            tree: s.tree_walks,
            unwinds: s.violations_recovered + s.watchdog_unwinds,
            domains: s.domains_pushed,
            injected: 0,
        }
    }

    fn zip(&self, o: &Work, f: impl Fn(u64, u64) -> u64) -> Work {
        Work {
            instructions: f(self.instructions, o.instructions),
            cycles: f(self.cycles, o.cycles),
            traps: f(self.traps, o.traps),
            payload: f(self.payload, o.payload),
            fused: f(self.fused, o.fused),
            checks: f(self.checks, o.checks),
            registrations: f(self.registrations, o.registrations),
            drops: f(self.drops, o.drops),
            singleton: f(self.singleton, o.singleton),
            mru: f(self.mru, o.mru),
            page: f(self.page, o.page),
            tree: f(self.tree, o.tree),
            unwinds: f(self.unwinds, o.unwinds),
            domains: f(self.domains, o.domains),
            injected: f(self.injected, o.injected),
        }
    }

    pub fn plus(&self, o: &Work) -> Work {
        self.zip(o, |a, b| a + b)
    }

    /// Work done between two counter readings of one machine.
    pub fn since(&self, earlier: &Work) -> Work {
        self.zip(earlier, u64::saturating_sub)
    }
}

/// Scheduler counters of one `SmpMachine::run`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmpOp {
    pub jobs: u64,
    pub steals: u64,
    pub parks: u64,
    pub epochs: u64,
}

/// One measured op.
#[derive(Clone, Debug, Default)]
pub struct Op {
    /// Pool entry the op ran.
    pub entry: usize,
    /// Host time of the system's part of the op (oracle work excluded).
    pub wall_ns: u64,
    /// The calibration loop's time, taken by the client right after the
    /// op.
    pub calib_ns: u64,
    /// Why the oracle rejected the op, if it did.
    pub failure: Option<String>,
    pub work: Work,
    /// The sva-safe cycles `safe_overhead_pct` compares with the native
    /// kernel's cycles for the same jobs.
    pub safe_cycles: u64,
    /// Instruction and cycle counts every repeat of the pool entry must
    /// reproduce: one pair per job on `syscall_smp`, one per op elsewhere.
    pub counts: Vec<(u64, u64)>,
    pub smp: Option<SmpOp>,
}

/// A workload: a set-up, a seeded pool of ops, and the layer probes the
/// traced run adds.
pub trait Workload: Sized {
    /// Everything that must happen before the first op is timed: kernel
    /// images, machines, golden images and a warm-up op.
    fn setup(seed: u64) -> Result<Self, String>;
    fn pool_len(&self) -> usize;
    /// Runs pool entry `i` once, timing only the system's part, then
    /// checks its outputs.
    fn op(&mut self, i: usize) -> Op;
    /// Native reference cycles of pool entry `i`, comparable with its
    /// ops' `safe_cycles` (known once it ran).
    fn native_cycles(&self, i: usize) -> u64;
    /// Traced run only: per-layer figures that need extra runs.
    fn probes(&mut self, ops: &[Op], layer: &mut Layer) -> Result<(), String>;
}

/// Times `f` as the system's part of an op, inside the op's root span.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = span::span("bench.op", f);
    (r, t.elapsed().as_nanos() as u64)
}

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Per-layer metrics in `BENCHMARK.json` order, with units. A figure
/// that does not arise on a workload (SMP counters on a single-vCPU
/// workload, snapshot cost where nothing is snapshotted) reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sva_kernel.build_ms", "ms"),
    ("sva_analysis.analyze_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("sva_ir.encode_ms", "ms"),
    ("sva_ir.decode_ms", "ms"),
    ("sva_ir.bytecode_kb", "KiB"),
    ("sva_vm.vm_new_ms", "ms"),
    ("sva_vm.fork_ms", "ms"),
    ("sva_vm.boot_ms", "ms"),
    ("sva_vm.smp.machine_new_ms", "ms"),
    ("sva_vm.smp.batch_ms", "ms"),
    ("sva_vm.smp.steals_per_batch", "count"),
    ("sva_vm.smp.parks_per_batch", "count"),
    ("sva_vm.smp.plane_epochs_per_job", "count"),
    ("sva_vm.smp.parallel_eff", "ratio"),
    ("sva_vm.interp_ns_per_inst.native", "ns"),
    ("sva_vm.interp_ns_per_inst.sva-gcc", "ns"),
    ("sva_vm.interp_ns_per_inst.sva-llvm", "ns"),
    ("sva_vm.interp_ns_per_inst.sva-safe", "ns"),
    ("sva_vm.fused_frac", "ratio"),
    ("sva_vm.snapshot_ms", "ms"),
    ("sva_vm.snapshot_kb", "KiB"),
    ("sva_vm.restore_ms", "ms"),
    ("sva_vm.reencode_ms", "ms"),
    ("sva_vm.restore_migrated_ms", "ms"),
    ("sva_vm.recovery.unwinds_per_op", "count"),
    ("sva_vm.recovery.domains_per_op", "count"),
    ("sva_inject.faults_per_op", "count"),
    ("sva_rt.checks_per_op", "count"),
    ("sva_rt.registrations_per_op", "count"),
    ("sva_rt.drops_per_op", "count"),
    ("sva_rt.singleton_frac", "ratio"),
    ("sva_rt.mru_frac", "ratio"),
    ("sva_rt.page_frac", "ratio"),
    ("sva_rt.tree_frac", "ratio"),
    ("sva_rt.check_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.span_coverage_min", "ratio"),
    ("bench.span_coverage_p50", "ratio"),
    ("self_ms_per_op.bench", "ms"),
    ("self_ms_per_op.sva_kernel", "ms"),
    ("self_ms_per_op.sva_analysis", "ms"),
    ("self_ms_per_op.core", "ms"),
    ("self_ms_per_op.sva_ir", "ms"),
    ("self_ms_per_op.sva_vm", "ms"),
    ("self_ms_per_op.sva_inject", "ms"),
];

/// Span names whose median duration is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("sva_kernel.build_ms", "sva_kernel.build_kernel"),
    ("sva_analysis.analyze_ms", "sva_analysis.analyze"),
    ("core.compile_ms", "core.compile"),
    ("core.verify_ms", "core.verify_and_insert_checks"),
    ("sva_ir.encode_ms", "sva_ir.encode_module"),
    ("sva_ir.decode_ms", "sva_ir.decode_module"),
    ("sva_vm.vm_new_ms", "sva_vm.vm_new"),
    ("sva_vm.fork_ms", "sva_vm.fork_for_cpu"),
    ("sva_vm.boot_ms", "sva_vm.boot_to_user"),
    ("sva_vm.smp.machine_new_ms", "sva_vm.smp.new"),
    ("sva_vm.smp.batch_ms", "sva_vm.smp.run"),
    ("sva_vm.snapshot_ms", "sva_vm.snapshot_midflight"),
    ("sva_vm.restore_ms", "sva_vm.restore"),
    ("sva_vm.reencode_ms", "sva_vm.reencode_at"),
    ("sva_vm.restore_migrated_ms", "sva_vm.restore_migrated"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "syscall_smp" => run::<smp::SyscallSmp>(&args),
        "bulk_io" => run::<bulk::BulkIo>(&args),
        "live_upgrade" => run::<upgrade::LiveUpgrade>(&args),
        other => Err(format!(
            "unknown workload {other} (syscall_smp, bulk_io, live_upgrade)"
        )),
    };
    if let Err(e) = result {
        eprintln!("hostbench: {e}");
        std::process::exit(1);
    }
}

/// The closed loop's one client: the pool cursor, which entries ran, and
/// each entry's first passing op, against which every repeat is checked.
struct Client<W> {
    w: W,
    next: usize,
    attempted: Vec<bool>,
    first: Vec<Option<Op>>,
    ops_run: u64,
}

impl<W: Workload> Client<W> {
    fn new(w: W) -> Client<W> {
        let n = w.pool_len();
        Client {
            w,
            next: 0,
            attempted: vec![false; n],
            first: vec![None; n],
            ops_run: 0,
        }
    }

    /// Runs ops back to back for `dur`, and past it until every pool
    /// entry ran at least once (passing or not).
    fn run_for(&mut self, dur: Duration, traced: bool) -> Vec<Op> {
        let deadline = Instant::now() + dur;
        let mut ops = Vec::new();
        while Instant::now() < deadline || self.attempted.contains(&false) {
            let i = self.next;
            self.next = (self.next + 1) % self.first.len();
            if traced {
                span::set_op(Some(self.ops_run));
            }
            let w = &mut self.w;
            let mut op = catch_unwind(AssertUnwindSafe(|| w.op(i))).unwrap_or_else(|p| Op {
                entry: i,
                failure: Some(format!("op panicked: {}", panic_text(&p))),
                ..Op::default()
            });
            span::set_op(None);
            op.calib_ns = calib::chunk_ns();
            self.ops_run += 1;
            self.attempted[i] = true;
            if op.failure.is_none() {
                match &self.first[i] {
                    None => self.first[i] = Some(op.clone()),
                    Some(f) if f.counts != op.counts => {
                        op.failure = Some(format!(
                            "entry {i}: counts {:?} differ from the first run's {:?}",
                            op.counts, f.counts
                        ));
                    }
                    Some(_) => {}
                }
            }
            if let Some(why) = &op.failure {
                eprintln!(
                    "hostbench: op {} (entry {i}) failed: {why}",
                    self.ops_run - 1
                );
            }
            ops.push(op);
        }
        ops
    }

    /// `vcycles_per_op` and `safe_overhead_pct`: merged virtual cycles
    /// over one pass of the pool, against the native kernel's cycles for
    /// the same jobs. Both depend on the seed alone. `None` unless every
    /// pool entry passed at least once.
    fn pins(&self) -> Option<(f64, f64)> {
        let first: Vec<&Op> = self
            .first
            .iter()
            .map(Option::as_ref)
            .collect::<Option<_>>()?;
        let merged: u64 = first.iter().map(|o| o.work.cycles).sum();
        let safe: u64 = first.iter().map(|o| o.safe_cycles).sum();
        let native: u64 = (0..first.len()).map(|i| self.w.native_cycles(i)).sum();
        Some((
            merged as f64 / first.len() as f64,
            100.0 * (safe as f64 - native as f64) / native.max(1) as f64,
        ))
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Linear-interpolated percentile, `q` in `[0, 1]`.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

fn peak_rss_mb() -> f64 {
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

fn vcpus_used() -> u32 {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get() as u32)
        .min(2)
}

/// Sums op walls and work.
fn totals(ops: &[Op]) -> (f64, Work) {
    let secs = ops.iter().map(|o| o.wall_ns).sum::<u64>() as f64 / 1e9;
    let work = ops.iter().fold(Work::default(), |acc, o| acc.plus(&o.work));
    (secs, work)
}

/// The host-time end-to-end figures.
#[derive(Clone, Copy, Debug, Default)]
struct HostTimes {
    ops_per_s: f64,
    op_ms_p50: f64,
    op_ms_p90: f64,
    syscalls_per_s: f64,
    minst_per_s: f64,
    mb_per_s: f64,
}

/// Host-time figures over the full passes of the pool (a trailing
/// partial pass is dropped, so every entry weighs the same). Throughputs
/// are medians over passes. With `calibrated`, each pass's op times are
/// scaled to the reference host by the median calibration time of that
/// pass (see [`calib`]).
fn host_times(ops: &[Op], pool_len: usize, calibrated: bool) -> HostTimes {
    let mut walls_ms = Vec::new();
    let mut rates: Vec<[f64; 4]> = Vec::new();
    for pass in ops.chunks_exact(pool_len) {
        let scale = if calibrated {
            let c: Vec<f64> = pass.iter().map(|o| o.calib_ns as f64).collect();
            calib::REF_NS / median(&c)
        } else {
            1.0
        };
        walls_ms.extend(pass.iter().map(|o| o.wall_ns as f64 * scale / 1e6));
        let (secs, w) = totals(pass);
        let secs = secs * scale;
        rates.push([
            pass.len() as f64 / secs,
            w.traps as f64 / secs,
            w.instructions as f64 / secs / 1e6,
            w.payload as f64 / secs / 1e6,
        ]);
    }
    let med = |k: usize| median(&rates.iter().map(|r| r[k]).collect::<Vec<_>>());
    HostTimes {
        ops_per_s: med(0),
        op_ms_p50: median(&walls_ms),
        op_ms_p90: percentile(&walls_ms, 0.9),
        syscalls_per_s: med(1),
        minst_per_s: med(2),
        mb_per_s: med(3),
    }
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"host\":{{\"nproc\":{nproc},\"vcpus\":{},\"toolchain\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"trace\":{}}}}}",
        vcpus_used(),
        env!("HOSTBENCH_RUSTC"),
        args.workload,
        args.seed,
        args.trace
    );
    if args.trace {
        span::start();
    }
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_calib = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_calib.push(calib::chunk_ns() as f64);
    }
    let mut d = Client::new(w.expect("at least one set-up ran"));
    let secs = Duration::from_secs(args.seconds);

    let (metrics, ops): (Vec<(&str, f64, &str)>, Vec<Op>) = if !args.trace {
        let ops = d.run_for(secs, false);
        let pool = d.first.len();
        let raw = host_times(&ops, pool, false);
        let cal = host_times(&ops, pool, true);
        let setup_raw = median(&setup_s);
        let setup_cal = setup_raw * calib::REF_NS / median(&setup_calib);
        let calib_ms: Vec<f64> = ops.iter().map(|o| o.calib_ns as f64 / 1e6).collect();
        println!(
            "{{\"raw\":{{\"setup_s\":{setup_raw},\"ops_per_s\":{},\"op_ms_p50\":{},\"op_ms_p90\":{},\"guest_syscalls_per_s\":{},\"guest_minst_per_s\":{},\"guest_mb_per_s\":{},\"calib_ms\":{}}}}}",
            raw.ops_per_s,
            raw.op_ms_p50,
            raw.op_ms_p90,
            raw.syscalls_per_s,
            raw.minst_per_s,
            raw.mb_per_s,
            median(&calib_ms)
        );
        let failed = ops.iter().filter(|o| o.failure.is_some()).count();
        let (vcycles, overhead) = d.pins().unwrap_or((f64::NAN, f64::NAN));
        let m = vec![
            ("setup_s", setup_cal, "s"),
            ("ops_per_s", cal.ops_per_s, "1/s"),
            ("op_ms_p50", cal.op_ms_p50, "ms"),
            ("op_ms_p90", cal.op_ms_p90, "ms"),
            ("guest_syscalls_per_s", cal.syscalls_per_s, "1/s"),
            ("guest_minst_per_s", cal.minst_per_s, "Minst/s"),
            ("guest_mb_per_s", cal.mb_per_s, "MB/s"),
            ("vcycles_per_op", vcycles, "cycles"),
            ("safe_overhead_pct", overhead, "%"),
            (
                "ok_op_frac",
                (ops.len() - failed) as f64 / ops.len() as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        (m, ops)
    } else {
        // Untraced half first, then the traced half: the ratio of their
        // throughputs is the tracing overhead.
        span::set_recording(false);
        let plain = d.run_for(secs / 2, false);
        span::set_recording(true);
        let traced = d.run_for(secs / 2, true);
        let mut layer: Layer = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        d.w.probes(&traced, &mut layer)?;
        let spans = span::finish();
        layer_from_ops(&traced, &mut layer);
        layer_from_spans(&spans, traced.len(), &mut layer);
        let pool = d.first.len();
        layer.insert(
            "bench.trace_overhead_frac",
            host_times(&plain, pool, true).ops_per_s / host_times(&traced, pool, true).ops_per_s
                - 1.0,
        );
        let path = std::path::PathBuf::from(format!(
            "target/hostbench/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = span::write_jsonl(&path, &spans) {
            eprintln!("hostbench: cannot write {}: {e}", path.display());
        }
        let m = PER_LAYER.iter().map(|&(n, u)| (n, layer[n], u)).collect();
        let mut ops = plain;
        ops.extend(traced);
        (m, ops)
    };

    match d.pins() {
        Some((vcycles, overhead)) => println!(
            "{{\"pins\":{{\"vcycles_per_op\":{vcycles},\"safe_overhead_pct\":{overhead},\"pool\":{}}}}}",
            d.first.len()
        ),
        // Some pool entry never passed: the pins would cover a partial pass.
        None => println!("{{\"pins\":null}}"),
    }
    let failed = ops.iter().filter(|o| o.failure.is_some()).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        ops.len(),
        body.join(",")
    );
    Ok(())
}

/// Per-op guest counters of the traced ops.
fn layer_from_ops(ops: &[Op], layer: &mut Layer) {
    if ops.is_empty() {
        return;
    }
    let (_, w) = totals(ops);
    let n = ops.len() as f64;
    layer.insert("sva_rt.checks_per_op", w.checks as f64 / n);
    layer.insert("sva_rt.registrations_per_op", w.registrations as f64 / n);
    layer.insert("sva_rt.drops_per_op", w.drops as f64 / n);
    let lookups = (w.singleton + w.mru + w.page + w.tree).max(1) as f64;
    layer.insert("sva_rt.singleton_frac", w.singleton as f64 / lookups);
    layer.insert("sva_rt.mru_frac", w.mru as f64 / lookups);
    layer.insert("sva_rt.page_frac", w.page as f64 / lookups);
    layer.insert("sva_rt.tree_frac", w.tree as f64 / lookups);
    layer.insert("sva_vm.recovery.unwinds_per_op", w.unwinds as f64 / n);
    layer.insert("sva_vm.recovery.domains_per_op", w.domains as f64 / n);
    layer.insert("sva_inject.faults_per_op", w.injected as f64 / n);
    let smp: Vec<SmpOp> = ops.iter().filter_map(|o| o.smp).collect();
    if !smp.is_empty() {
        let b = smp.len() as f64;
        let jobs = smp.iter().map(|s| s.jobs).sum::<u64>().max(1) as f64;
        layer.insert(
            "sva_vm.smp.steals_per_batch",
            smp.iter().map(|s| s.steals).sum::<u64>() as f64 / b,
        );
        layer.insert(
            "sva_vm.smp.parks_per_batch",
            smp.iter().map(|s| s.parks).sum::<u64>() as f64 / b,
        );
        layer.insert(
            "sva_vm.smp.plane_epochs_per_job",
            smp.iter().map(|s| s.epochs).sum::<u64>() as f64 / jobs,
        );
    }
}

/// Span-derived figures: median call durations, self time per layer and
/// how much of each op the spans cover.
fn layer_from_spans(spans: &[span::Span], ops: usize, layer: &mut Layer) {
    for &(metric, name) in SPAN_METRICS {
        let d = span::durations_ms(spans, name);
        if !d.is_empty() {
            layer.insert(metric, median(&d));
        }
    }
    let cov = span::coverage(spans, "bench.op");
    layer.insert(
        "bench.span_coverage_min",
        cov.iter().copied().fold(f64::INFINITY, f64::min),
    );
    layer.insert("bench.span_coverage_p50", median(&cov));
    let mut by_crate: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in span::self_ns_by_layer(spans) {
        let krate = name.split('.').next().unwrap_or(name);
        *by_crate.entry(krate).or_insert(0) += ns;
    }
    for (krate, ns) in by_crate {
        let key = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_prefix("self_ms_per_op.") == Some(krate));
        if let Some(key) = key {
            layer.insert(key, ns as f64 / 1e6 / ops.max(1) as f64);
        }
    }
}
