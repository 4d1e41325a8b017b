//! `bulk_io`: one Table 8 / Table 5 transfer per op, each on a fresh
//! classic single-vCPU machine.
//!
//! Guest runs are long, so the interpreter loop and per-byte checked
//! copies dominate and `Vm::new` is a small share. `user_scp` is the only
//! program whose lookups go past the singleton layer.

use sva_ir::Module;
use sva_kernel::harness::{boot_user_paused, pack_arg};
use sva_kernel::KernelOptions;
use sva_vm::{KernelKind, VmError, VmExit, VmStats};

use crate::gen::Rng;
use crate::kernel::{self, Natives};
use crate::span::span;
use crate::{timed, Layer, Op, Work, Workload};

/// Pool entries per program; buffer sizes are stratified across them.
const STRATA: usize = 8;

const MIN_SIZE: u64 = 4 << 10;

/// Program, largest buffer size and bytes moved per op. `user_thttpd`
/// stops at 85 KiB, its Table 5 size: its source and destination buffers
/// are 32 KiB apart below the user heap, and above about 96 KiB its own
/// verify fails on every kernel, native included. `user_scp` stops at
/// 24 KiB: its first copy grows the destination file chunk by chunk and
/// costs guest instructions quadratic in the size (0.45 M at 4 KiB,
/// 11 M at 32 KiB), so a wider range would let a few large draws set
/// each seed's figures. The volumes keep most ops between 1 and 7
/// million guest instructions.
const KINDS: [(&str, u64, u64); 5] = [
    ("user_pipe_bw", 128 << 10, 96 << 10),
    ("user_fileread_bw", 128 << 10, 192 << 10),
    ("user_write_loop", 128 << 10, 192 << 10),
    ("user_thttpd", 85 << 10, 48 << 10),
    ("user_scp", 24 << 10, 32 << 10),
];

/// How many pool entries the per-kernel probe runs (one per program).
const PROBE_ENTRIES: usize = KINDS.len();

struct Entry {
    prog: &'static str,
    arg: u64,
    payload: u64,
}

pub struct BulkIo {
    safe: Module,
    bytecode_bytes: usize,
    pool: Vec<Entry>,
    natives: Natives,
}

fn pool(seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed);
    let mut entries = Vec::new();
    for &(prog, max, volume) in &KINDS {
        for size in rng.stratified(STRATA, MIN_SIZE, max) {
            let size = size & !0xff;
            let iters = ((volume + size / 2) / size).max(1);
            entries.push(Entry {
                prog,
                arg: pack_arg(iters, size, 0),
                payload: iters * size,
            });
        }
    }
    // Seeded order, but the first KINDS.len() entries cover every
    // program once so the probe sees the whole mix.
    let mut order = Vec::new();
    for stratum in rng.permutation(STRATA) {
        for k in rng.permutation(KINDS.len()) {
            order.push(k * STRATA + stratum);
        }
    }
    let mut slots: Vec<Option<Entry>> = entries.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each entry placed once"))
        .collect()
}

/// What the oracle needs from a finished machine.
struct Run {
    exit: Result<VmExit, VmError>,
    console: Vec<u8>,
    stats: VmStats,
    checks: sva_rt::CheckStats,
}

impl BulkIo {
    /// The system's part of an op: a fresh machine, boot, transfer,
    /// teardown.
    fn transfer(&self, e: &Entry) -> Result<Run, String> {
        let module = span("sva_ir.module_clone", || self.safe.clone());
        let mut vm = kernel::new_vm(module, kernel::cfg(KernelKind::SvaSafe))?;
        let exit = match span("sva_vm.boot_to_user", || {
            boot_user_paused(&mut vm, e.prog, e.arg)
        }) {
            Ok(None) => span("sva_vm.run", || vm.run()),
            Ok(Some(exit)) => Ok(exit),
            Err(e) => Err(e),
        };
        let run = Run {
            exit,
            console: std::mem::take(&mut vm.console),
            stats: vm.stats(),
            checks: vm.pools.total_stats(),
        };
        span("sva_vm.drop", || drop(vm));
        Ok(run)
    }
}

impl Workload for BulkIo {
    fn setup(seed: u64) -> Result<Self, String> {
        let image = kernel::load(&KernelOptions::default(), true)?;
        let pool = pool(seed);
        let w = BulkIo {
            safe: image.module,
            bytecode_bytes: image.bytecode_bytes,
            pool,
            natives: Natives::new(KernelOptions::default()),
        };
        // Warm-up: one small transfer, the same for every seed, so the
        // allocator's first touches land in set-up.
        w.transfer(&Entry {
            prog: "user_write_loop",
            arg: pack_arg(1, MIN_SIZE, 0),
            payload: MIN_SIZE,
        })?;
        Ok(w)
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn op(&mut self, i: usize) -> Op {
        let (run, wall_ns) = timed(|| self.transfer(&self.pool[i]));
        let run = match run {
            Ok(r) => r,
            Err(why) => {
                return Op {
                    entry: i,
                    wall_ns,
                    failure: Some(why),
                    ..Op::default()
                }
            }
        };
        let e = &self.pool[i];
        let mut work = Work::of(&run.stats, &run.checks);
        work.payload = e.payload;
        Op {
            entry: i,
            wall_ns,
            failure: self.natives.check(e.prog, e.arg, &run.exit, &run.console),
            safe_cycles: work.cycles,
            counts: vec![(work.instructions, work.cycles)],
            work,
            smp: None,
            ..Op::default()
        }
    }

    fn native_cycles(&self, i: usize) -> u64 {
        let e = &self.pool[i];
        self.natives.get(e.prog, e.arg).map_or(0, |r| r.cycles)
    }

    fn probes(&mut self, _ops: &[Op], layer: &mut Layer) -> Result<(), String> {
        layer.insert("sva_ir.bytecode_kb", self.bytecode_bytes as f64 / 1024.0);
        let raw = self.natives.module()?.clone();
        let jobs: Vec<(&'static str, u64)> = self.pool[..PROBE_ENTRIES]
            .iter()
            .map(|e| (e.prog, e.arg))
            .collect();
        kernel::kind_metrics(&raw, &self.safe, &jobs, layer)
    }
}
