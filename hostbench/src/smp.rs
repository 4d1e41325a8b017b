//! `syscall_smp`: batches of short Table 7 syscall jobs on one
//! `SmpMachine`.
//!
//! Each job forks the template machine's full state before it boots, so
//! per-job machine instantiation, plane publishes and the work-stealing
//! scheduler dominate, and the interpreter barely shows.

use std::time::Instant;

use sva_ir::Module;
use sva_kernel::KernelOptions;
use sva_vm::{KernelKind, SmpJob, SmpMachine, VmConfig};

use crate::gen::Rng;
use crate::kernel::{self, Natives};
use crate::span::span;
use crate::{timed, vcpus_used, Layer, Op, SmpOp, Work, Workload};

/// Batches in the pool.
const BATCHES: usize = 8;

/// The Table 7 rows: program, iteration range and the buffer size the
/// program moves per iteration (0 for pure syscalls).
const KINDS: [(&str, u64, u64, u64); 10] = [
    ("user_getpid_loop", 100, 400, 0),
    ("user_getrusage_loop", 100, 400, 0),
    ("user_gettimeofday_loop", 100, 400, 0),
    ("user_openclose_loop", 30, 120, 0),
    ("user_sbrk_loop", 100, 400, 0),
    ("user_sigaction_loop", 100, 400, 0),
    ("user_write_loop", 30, 120, 64),
    ("user_pipe_loop", 20, 80, 64),
    ("user_fork_loop", 4, 16, 0),
    ("user_forkexec_loop", 4, 16, 0),
];

/// Batches whose jobs are also timed one by one for `parallel_eff`.
const EFF_BATCHES: usize = 2;

type Job = (&'static str, u64);

pub struct SyscallSmp {
    safe: Module,
    bytecode_bytes: usize,
    smp: SmpMachine,
    vcpus: u32,
    /// Each batch: one job of every Table 7 row, in seeded order.
    pool: Vec<Vec<Job>>,
    jobs: Vec<Vec<SmpJob>>,
    payload: Vec<u64>,
    natives: Natives,
}

fn pool(seed: u64) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed);
    let iters: Vec<Vec<u64>> = KINDS
        .iter()
        .map(|&(_, lo, hi, _)| rng.stratified(BATCHES, lo, hi))
        .collect();
    (0..BATCHES)
        .map(|b| {
            rng.permutation(KINDS.len())
                .into_iter()
                .map(|k| {
                    let (prog, _, _, size) = KINDS[k];
                    (prog, sva_kernel::harness::pack_arg(iters[k][b], size, 0))
                })
                .collect()
        })
        .collect()
}

/// Bytes a job moves: iterations × buffer size, unpacked from its
/// `pack_arg` word.
fn payload(job: &Job) -> u64 {
    let (iters, size) = (job.1 & 0xff_ffff, (job.1 >> 24) & 0xff_ffff);
    iters * size
}

impl SyscallSmp {
    /// Every job must pass against the native kernel.
    fn check(&mut self, i: usize, report: &sva_vm::SmpReport) -> Option<String> {
        report.jobs.iter().enumerate().find_map(|(n, j)| {
            let (prog, arg) = self.pool[i][n];
            self.natives.check(prog, arg, &j.exit, &j.console)
        })
    }
}

impl Workload for SyscallSmp {
    fn setup(seed: u64) -> Result<Self, String> {
        let vcpus = vcpus_used();
        let image = kernel::load(&KernelOptions::default(), true)?;
        let safe = image.module;
        let template = kernel::new_vm(
            safe.clone(),
            VmConfig {
                vcpus,
                ..kernel::cfg(KernelKind::SvaSafe)
            },
        )?;
        let mut smp = span("sva_vm.smp.new", || SmpMachine::new(template));
        let pool = pool(seed);
        let jobs = pool
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&(prog, arg)| {
                        let addr = smp
                            .template()
                            .func_address(prog)
                            .ok_or_else(|| format!("no user program @{prog}"))?;
                        Ok(SmpJob::boot_user(prog, addr, arg))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Warm-up: one batch, so the first timed op pays no first-touch
        // cost the later ones do not.
        span("sva_vm.smp.run", || smp.run(jobs[0].clone()));
        let payload = pool.iter().map(|b| b.iter().map(payload).sum()).collect();
        Ok(SyscallSmp {
            safe,
            bytecode_bytes: image.bytecode_bytes,
            smp,
            vcpus,
            pool,
            jobs,
            payload,
            natives: Natives::new(KernelOptions::default()),
        })
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn op(&mut self, i: usize) -> Op {
        let jobs = self.jobs[i].clone();
        let epoch0 = self.smp.plane().map_or(0, |p| p.epoch());
        let smp = &mut self.smp;
        let (report, wall_ns) = timed(|| span("sva_vm.smp.run", || smp.run(jobs)));
        let mut work = report.jobs.iter().fold(Work::default(), |acc, j| {
            acc.plus(&Work::of(&j.stats, &j.checks))
        });
        work.payload = self.payload[i];
        let smp_op = SmpOp {
            jobs: report.jobs.len() as u64,
            steals: report.cpus.iter().map(|c| c.steals).sum(),
            parks: report.cpus.iter().map(|c| c.parks).sum(),
            epochs: report.final_epoch - epoch0,
        };
        Op {
            entry: i,
            wall_ns,
            failure: self.check(i, &report),
            safe_cycles: work.cycles,
            work,
            counts: report
                .jobs
                .iter()
                .map(|j| (j.stats.instructions, j.stats.cycles))
                .collect(),
            smp: Some(smp_op),
            ..Op::default()
        }
    }

    fn native_cycles(&self, i: usize) -> u64 {
        self.pool[i]
            .iter()
            .map(|&(prog, arg)| self.natives.get(prog, arg).map_or(0, |r| r.cycles))
            .sum()
    }

    fn probes(&mut self, ops: &[Op], layer: &mut Layer) -> Result<(), String> {
        layer.insert("sva_ir.bytecode_kb", self.bytecode_bytes as f64 / 1024.0);
        for cpu in 0..5 {
            let fork = span("sva_vm.fork_for_cpu", || {
                self.smp.template().fork_for_cpu(cpu % self.vcpus)
            });
            drop(fork);
        }
        // parallel_eff: the batch's jobs run one at a time on a 1-vCPU
        // machine, against vCPUs × the batch's wall time in the loop.
        let mut solo = SmpMachine::new(kernel::new_vm(
            self.safe.clone(),
            kernel::cfg(KernelKind::SvaSafe),
        )?);
        let mut effs = Vec::new();
        for b in 0..EFF_BATCHES.min(self.pool.len()) {
            let mut t1 = 0.0;
            for job in &self.jobs[b] {
                let t = Instant::now();
                solo.run(vec![job.clone()]);
                t1 += t.elapsed().as_secs_f64();
            }
            let walls: Vec<f64> = ops
                .iter()
                .filter(|o| o.entry == b)
                .map(|o| o.wall_ns as f64 / 1e9)
                .collect();
            if !walls.is_empty() {
                effs.push(t1 / (self.vcpus as f64 * crate::median(&walls)));
            }
        }
        layer.insert("sva_vm.smp.parallel_eff", crate::median(&effs));
        let raw = self.natives.module()?.clone();
        kernel::kind_metrics(&raw, &self.safe, &self.pool[0], layer)
    }
}
