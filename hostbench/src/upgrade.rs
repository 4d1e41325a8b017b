//! `live_upgrade`: mid-flight snapshot, migration and resume on the
//! nested-recovery sva-safe kernel.
//!
//! One op restores a golden post-boot image, arms a fault plan (or none),
//! runs to a boundary, captures a mid-flight snapshot and resumes it in a
//! twin: by plain `restore`, through format v3 and `restore_migrated`, or
//! on a kernel rebuilt from scratch with a patch salt. Original and twin
//! then run to terminal state and must agree. Capture is a write and
//! restore/migrate are reads on the same layer, and the rebuild is the
//! only timed use of the compile pipeline.

use std::sync::Arc;

use sva_inject::{DropRecorder, FaultClass, FaultPlan, PROBE_DEFER};
use sva_ir::Module;
use sva_kernel::harness::{boot_user_paused, pack_arg};
use sva_kernel::KernelOptions;
use sva_vm::{KernelKind, Vm, VmConfig, VmError, VmExit, VmStats};

use crate::gen::Rng;
use crate::kernel::{self, Natives, Outcome};
use crate::span::span;
use crate::{timed, Layer, Op, Work, Workload};

/// Golden programs: name, iterations, buffer size (the Table 7 loops at
/// the fault campaign's sizes). Each ignores its syscalls' results, so a
/// fault the kernel recovers from (the call fails with `-EFAULT`) still
/// ends in exit 0 — except `user_write_loop`, which checks every write
/// and so only gets plans that fail no call.
const GOLDENS: [(&str, u64, u64); 5] = [
    ("user_getpid_loop", 200, 0),
    ("user_openclose_loop", 60, 0),
    ("user_gettimeofday_loop", 200, 0),
    ("user_sigaction_loop", 200, 0),
    ("user_write_loop", 80, 128),
];

/// Index of the golden that may only get plans failing no syscall.
const CHECKED_GOLDEN: usize = 4;

/// The plans each golden's pool entries get, one entry per plan, in
/// seeded order. `WildPtr` is not drawn: it rewrites syscall arguments,
/// exit's status included, so a recovered run can still exit with the
/// injected pointer as its status. Nor is `GepSkew`: it skews pointers
/// into unmapped memory, a hardware fault no recovery domain catches.
/// Both end ops the oracle must reject.
const PLANS: [Option<FaultClass>; 5] = [
    None,
    Some(FaultClass::StaleUse),
    Some(FaultClass::PoolMetaCorrupt),
    Some(FaultClass::AllocFail),
    Some(FaultClass::IrqStorm),
];

/// Plans of the checked golden: no fault, or timer storms.
const CHECKED_PLANS: [Option<FaultClass>; 5] = [
    None,
    Some(FaultClass::IrqStorm),
    None,
    Some(FaultClass::IrqStorm),
    None,
];

/// How each golden's entries resume, in seeded order: one in five on a
/// rebuilt kernel, so a fifth of all ops pay the compile pipeline.
const RESUMES: [Resume; 5] = [
    Resume::Plain,
    Resume::Plain,
    Resume::ViaV3,
    Resume::ViaV3,
    Resume::Rebuild,
];

/// Inject on every fourth trap.
const PERIOD: u64 = 4;

/// Instruction budget of every machine (guards against a wedged guest).
const FUEL: u64 = 3_000_000;

/// Violations a metapool absorbs per recovery scope before poisoning.
const BUDGET: u32 = 3;

#[derive(Clone, Copy, Debug)]
enum Resume {
    Plain,
    ViaV3,
    /// Rebuild the kernel with the entry's patch salt and adopt the image.
    Rebuild,
}

#[derive(Clone, Copy, Debug)]
struct Plan {
    class: FaultClass,
    seed: u64,
}

impl Plan {
    fn build(&self, targets: &[u32]) -> Arc<FaultPlan> {
        span("sva_inject.plan_new", || {
            Arc::new(
                FaultPlan::new(self.class, self.seed, PERIOD, targets.to_vec())
                    .with_defer(PROBE_DEFER),
            )
        })
    }
}

struct Entry {
    golden: usize,
    plan: Option<Plan>,
    /// Instruction boundary of the capture, from the golden's start.
    cut: u64,
    resume: Resume,
    /// Patch salt of the rebuilt kernel (nonzero).
    salt: u64,
}

struct Golden {
    prog: &'static str,
    arg: u64,
    /// Bytes the program writes.
    payload: u64,
    image: Vec<u8>,
    /// Pool drops during boot, replayed into each plan.
    drops: Vec<(u32, u64)>,
    /// Cycles of the fault-free run from the image to exit.
    clean_cycles: u64,
}

/// Terminal fingerprint of one leg; twin and original must match.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    outcome: Outcome,
    stats: VmStats,
    resume_code: u64,
    injected: u64,
}

pub struct LiveUpgrade {
    opts: KernelOptions,
    safe: Module,
    bytecode_bytes: usize,
    cfg: VmConfig,
    orig: Vm,
    twin: Vm,
    targets: Vec<u32>,
    goldens: Vec<Golden>,
    pool: Vec<Entry>,
    natives: Natives,
    snapshot_bytes: Vec<usize>,
}

fn nested() -> KernelOptions {
    KernelOptions {
        recovery: true,
        nested: true,
        ..Default::default()
    }
}

/// The seeded pool: every golden gets one entry per plan, with seeded
/// plan seeds, stratified cut points and a seeded resume order.
/// `clean_steps[g]` is golden `g`'s fault-free run length in instruction
/// boundaries; cuts land between a tenth and nine tenths of the way
/// through it.
fn pool(rng: &mut Rng, clean_steps: &[u64]) -> Vec<Entry> {
    let mut entries = Vec::new();
    for (g, &steps) in clean_steps.iter().enumerate() {
        let plans = if g == CHECKED_GOLDEN {
            CHECKED_PLANS
        } else {
            PLANS
        };
        let fracs = rng.stratified(plans.len(), 100, 900);
        let resumes = rng.permutation(RESUMES.len());
        for (j, class) in plans.into_iter().enumerate() {
            entries.push(Entry {
                golden: g,
                plan: class.map(|class| Plan {
                    class,
                    seed: rng.next_u64() % 1000,
                }),
                cut: (steps * fracs[j] / 1000).max(1),
                resume: RESUMES[resumes[j]],
                salt: 1 + rng.next_u64() % 0xffff,
            });
        }
    }
    let order = rng.permutation(entries.len());
    let mut slots: Vec<Option<Entry>> = entries.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each entry placed once"))
        .collect()
}

fn fingerprint(vm: &mut Vm, exit: &Result<VmExit, VmError>, injected: u64) -> Fingerprint {
    Fingerprint {
        outcome: Outcome::of(exit, &vm.console),
        stats: vm.stats().equivalence_key(),
        resume_code: span("sva_vm.read_global_u64", || {
            vm.read_global_u64("recov_last_code").unwrap_or(0)
        }),
        injected,
    }
}

fn counters(vm: &Vm) -> Work {
    Work::of(&vm.stats(), &vm.pools.total_stats())
}

/// Everything one op produced, for the oracle.
struct Legs {
    orig: Fingerprint,
    twin: Fingerprint,
    /// Guest work of the original (golden to terminal).
    orig_work: Work,
    /// Guest work of the twin (cut to terminal).
    twin_work: Work,
    snapshot_bytes: usize,
    orig_exit: Result<VmExit, VmError>,
}

impl LiveUpgrade {
    /// The system's part of an op.
    fn legs(&mut self, i: usize) -> Result<Legs, String> {
        let e = &self.pool[i];
        let g = &self.goldens[e.golden];
        let orig = &mut self.orig;
        orig.disarm_faults();
        span("sva_vm.restore", || orig.restore(&g.image)).map_err(|e| e.to_string())?;
        let plan = e.plan.map(|p| p.build(&self.targets));
        if let Some(p) = &plan {
            span("sva_vm.arm_faults", || orig.arm_faults(p.clone()));
            span("sva_inject.replay_drops", || p.replay_drops(&g.drops));
        }
        let orig_start = counters(orig);
        match span("sva_vm.run_steps", || orig.run_steps(e.cut)) {
            Ok(None) => {}
            other => return Err(format!("terminal before the cut at {}: {other:?}", e.cut)),
        }
        let image = span("sva_vm.snapshot_midflight", || orig.snapshot_midflight());
        let plan_state = plan
            .as_ref()
            .map(|p| span("sva_inject.state_image", || p.state_image()));

        let mut rebuilt = None;
        let twin = match e.resume {
            Resume::Plain => {
                let twin = &mut self.twin;
                twin.disarm_faults();
                span("sva_vm.restore", || twin.restore(&image)).map_err(|e| e.to_string())?;
                twin
            }
            Resume::ViaV3 => {
                let twin = &mut self.twin;
                twin.disarm_faults();
                let v3 = span("sva_vm.reencode_at", || sva_vm::reencode_at(&image, 3))
                    .map_err(|e| format!("reencode to v3: {e}"))?;
                span("sva_vm.restore_migrated", || twin.restore_migrated(&v3))
                    .map_err(|e| format!("migrate from v3: {e}"))?;
                twin
            }
            Resume::Rebuild => {
                let opts = KernelOptions {
                    patch_salt: e.salt,
                    ..self.opts.clone()
                };
                let module = kernel::load(&opts, true)?.module;
                let twin = rebuilt.insert(kernel::new_vm(module, self.cfg.clone())?);
                span("sva_vm.restore_migrated", || twin.restore_migrated(&image))
                    .map_err(|e| format!("adopt on rebuilt kernel: {e}"))?;
                twin
            }
        };
        let twin_start = counters(twin);
        let twin_plan = e.plan.map(|p| p.build(&self.targets));
        if let (Some(p), Some(state)) = (&twin_plan, plan_state) {
            span("sva_inject.restore_state", || p.restore_state(state));
            span("sva_vm.arm_faults", || twin.arm_faults(p.clone()));
        }

        let orig_exit = span("sva_vm.run", || self.orig.run());
        let twin_exit = span("sva_vm.run", || twin.run());
        let injected = |p: &Option<Arc<FaultPlan>>| p.as_ref().map_or(0, |p| p.injected());
        let mut orig_work = counters(&self.orig).since(&orig_start);
        orig_work.injected = injected(&plan);
        orig_work.payload = g.payload;
        let legs = Legs {
            orig: fingerprint(&mut self.orig, &orig_exit, injected(&plan)),
            twin: fingerprint(twin, &twin_exit, injected(&twin_plan)),
            orig_work,
            twin_work: counters(twin).since(&twin_start),
            snapshot_bytes: image.len(),
            orig_exit,
        };
        if let Some(vm) = rebuilt {
            span("sva_vm.drop", || drop(vm));
        }
        Ok(legs)
    }

    /// The original must pass against the native kernel, and the twin
    /// must end exactly as the original did.
    fn check(&mut self, i: usize, legs: &Legs) -> Option<String> {
        let g = &self.goldens[self.pool[i].golden];
        let console = &legs.orig.outcome.console;
        if let Some(why) = self.natives.check(g.prog, g.arg, &legs.orig_exit, console) {
            return Some(why);
        }
        (legs.twin != legs.orig).then(|| {
            format!(
                "{}: twin {:?} differs from original {:?}",
                g.prog, legs.twin, legs.orig
            )
        })
    }
}

impl Workload for LiveUpgrade {
    fn setup(seed: u64) -> Result<Self, String> {
        let opts = nested();
        let image = kernel::load(&opts, true)?;
        let cfg = VmConfig {
            fuel: FUEL,
            violation_budget: BUDGET,
            ..kernel::cfg(KernelKind::SvaSafe)
        };
        let mut orig = kernel::new_vm(image.module.clone(), cfg.clone())?;
        let twin = kernel::new_vm(image.module.clone(), cfg.clone())?;
        let targets: Vec<u32> = (0..orig.pools.len() as u32)
            .filter(|&i| orig.pools.pool(sva_rt::MetaPoolId(i)).complete)
            .collect();
        let pristine = span("sva_vm.snapshot", || orig.snapshot());

        // Golden post-boot images, plus one fault-free run of each to
        // learn its length and cycles.
        let mut goldens = Vec::new();
        let mut clean_steps = Vec::new();
        for (prog, iters, size) in GOLDENS {
            let arg = pack_arg(iters, size, 0);
            orig.disarm_faults();
            span("sva_vm.restore", || orig.restore(&pristine)).map_err(|e| e.to_string())?;
            let rec = Arc::new(DropRecorder::new());
            orig.arm_faults(rec.clone());
            match span("sva_vm.boot_to_user", || {
                boot_user_paused(&mut orig, prog, arg)
            }) {
                Ok(None) => {}
                other => return Err(format!("{prog} never reached user mode: {other:?}")),
            }
            let golden = span("sva_vm.snapshot", || orig.snapshot());
            orig.disarm_faults();
            let (fuel, cycles) = (orig.fuel(), orig.stats().cycles);
            let exit = span("sva_vm.run", || orig.run());
            if let Some(why) = kernel::exit_failure(&exit) {
                return Err(format!("golden {prog}: {why}"));
            }
            clean_steps.push(fuel - orig.fuel());
            goldens.push(Golden {
                prog,
                arg,
                payload: iters * size,
                image: golden,
                drops: rec.drops(),
                clean_cycles: orig.stats().cycles - cycles,
            });
        }
        let pool = pool(&mut Rng::new(seed), &clean_steps);
        let mut w = LiveUpgrade {
            natives: Natives::new(opts.clone()),
            opts,
            safe: image.module,
            bytecode_bytes: image.bytecode_bytes,
            cfg,
            orig,
            twin,
            targets,
            goldens,
            pool,
            snapshot_bytes: Vec::new(),
        };
        // Warm-up: the first op that resumes by plain restore, so the
        // first-touch capture lands in set-up at a similar cost for every
        // seed.
        let plain = (0..w.pool.len())
            .find(|&i| matches!(w.pool[i].resume, Resume::Plain))
            .expect("every golden has plain resumes");
        w.legs(plain)?;
        Ok(w)
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn op(&mut self, i: usize) -> Op {
        let (legs, wall_ns) = timed(|| self.legs(i));
        let legs = match legs {
            Ok(l) => l,
            Err(why) => {
                return Op {
                    entry: i,
                    wall_ns,
                    failure: Some(why),
                    ..Op::default()
                }
            }
        };
        self.snapshot_bytes.push(legs.snapshot_bytes);
        let work = legs.orig_work.plus(&legs.twin_work);
        Op {
            entry: i,
            wall_ns,
            failure: self.check(i, &legs),
            work,
            // The paper's overhead compares fault-free runs, so the
            // faulted original leg is not what is set against native.
            safe_cycles: self.goldens[self.pool[i].golden].clean_cycles,
            counts: vec![(work.instructions, work.cycles)],
            smp: None,
            ..Op::default()
        }
    }

    fn native_cycles(&self, i: usize) -> u64 {
        let g = &self.goldens[self.pool[i].golden];
        self.natives.get(g.prog, g.arg).map_or(0, |r| r.run_cycles)
    }

    fn probes(&mut self, _ops: &[Op], layer: &mut Layer) -> Result<(), String> {
        layer.insert("sva_ir.bytecode_kb", self.bytecode_bytes as f64 / 1024.0);
        let kb: Vec<f64> = self
            .snapshot_bytes
            .iter()
            .map(|&b| b as f64 / 1024.0)
            .collect();
        layer.insert("sva_vm.snapshot_kb", crate::median(&kb));
        let raw = self.natives.module()?.clone();
        let jobs: Vec<(&'static str, u64)> = self.goldens.iter().map(|g| (g.prog, g.arg)).collect();
        kernel::kind_metrics(&raw, &self.safe, &jobs, layer)
    }
}
