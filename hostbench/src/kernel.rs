//! Kernel images, reference runs and the per-kernel interpreter probe.

use std::collections::HashMap;
use std::time::Instant;

use sva_analysis::{analyze, AnalysisConfig};
use sva_core::compile::{compile, CompileOptions};
use sva_core::verifier::verify_and_insert_checks;
use sva_ir::bytecode::{decode_module, encode_module};
use sva_ir::Module;
use sva_kernel::harness::boot_user_paused;
use sva_kernel::{build_kernel, KernelOptions, AS_TESTED_EXCLUSIONS};
use sva_vm::{KernelKind, Vm, VmConfig, VmError, VmExit};

use crate::span::{self, span};
use crate::Layer;

/// Every machine in the benchmark runs the optimizing tier, the
/// configuration the paper's overhead story is measured on.
pub const OPT_LEVEL: u8 = 2;

/// A loaded kernel: the module a machine is built from plus the size of
/// the bytecode it was shipped as.
pub struct Image {
    pub module: Module,
    pub bytecode_bytes: usize,
}

/// The load pipeline every workload's set-up runs: build the kernel IR,
/// safety-compile it with the paper's "as tested" exclusions, verify and
/// insert checks, then ship it through the bytecode format. With
/// `checks == false` the raw module is shipped instead (the native,
/// sva-gcc and sva-llvm configurations run uninstrumented code).
///
/// `compile` runs the points-to analysis internally; while spans are
/// being recorded outside an op, a standalone `analyze` of the same
/// module runs first so the analysis shows as its own layer.
pub fn load(opts: &KernelOptions, checks: bool) -> Result<Image, String> {
    let m = span("sva_kernel.build_kernel", || build_kernel(opts));
    let m = if checks {
        let cfg = AnalysisConfig::kernel_excluding(AS_TESTED_EXCLUSIONS);
        if span::recording_outside_ops() {
            span("sva_analysis.analyze", || {
                std::hint::black_box(analyze(&m, &cfg));
            });
        }
        let c = span("core.compile", || {
            compile(m, &cfg, &CompileOptions::default())
        });
        span("core.verify_and_insert_checks", || {
            verify_and_insert_checks(c.module)
        })
        .map_err(|e| format!("kernel fails metapool verification: {} errors", e.len()))?
        .module
    } else {
        m
    };
    let bytes = span("sva_ir.encode_module", || encode_module(&m));
    let module = span("sva_ir.decode_module", || decode_module(&bytes))
        .map_err(|e| format!("bytecode does not decode: {e:?}"))?;
    Ok(Image {
        module,
        bytecode_bytes: bytes.len(),
    })
}

/// Builds a machine from `module`.
pub fn new_vm(module: Module, cfg: VmConfig) -> Result<Vm, String> {
    span("sva_vm.vm_new", || Vm::new(module, cfg)).map_err(|e| format!("kernel loads: {e}"))
}

/// A terminal state compared across machines: exit (or error) and
/// console bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub exit: String,
    pub console: Vec<u8>,
}

impl Outcome {
    pub fn of(exit: &Result<VmExit, VmError>, console: &[u8]) -> Outcome {
        Outcome {
            exit: format!("{exit:?}"),
            console: console.to_vec(),
        }
    }
}

/// Why an exit fails the oracle, if it does: a `VmError`, a nonzero
/// status, or the recovery handler's halt codes 41/42 (the machine died).
pub fn exit_failure(exit: &Result<VmExit, VmError>) -> Option<String> {
    match exit {
        Ok(VmExit::Halted(0) | VmExit::Returned(0)) => None,
        Ok(VmExit::Halted(c @ (41 | 42))) => Some(format!("machine died: halted {c}")),
        Ok(VmExit::Halted(c) | VmExit::Returned(c)) => Some(format!("guest exited {c}")),
        Err(e) => Some(format!("vm error: {e}")),
    }
}

/// The native kernel's run of one `(program, arg)`: the independent
/// reference every op's console and exit are compared with, and the
/// denominator of `safe_overhead_pct`.
#[derive(Clone, Debug)]
pub struct Reference {
    pub outcome: Outcome,
    /// Cycles from power-on to halt.
    pub cycles: u64,
    /// Cycles after the first user instruction (the part a post-boot
    /// golden image replays).
    pub run_cycles: u64,
}

/// The oracle's native kernel and its reference runs, one per distinct
/// job. The kernel is built on first use, after set-up, so it never
/// counts in `setup_s`.
pub struct Natives {
    opts: KernelOptions,
    raw: Option<Module>,
    refs: HashMap<(&'static str, u64), Reference>,
}

impl Natives {
    /// References run on a raw kernel built with `opts`, the same build
    /// options as the sva-safe kernel under test.
    pub fn new(opts: KernelOptions) -> Natives {
        Natives {
            opts,
            raw: None,
            refs: HashMap::new(),
        }
    }

    pub fn module(&mut self) -> Result<&Module, String> {
        if self.raw.is_none() {
            self.raw = Some(load(&self.opts, false)?.module);
        }
        Ok(self.raw.as_ref().expect("built above"))
    }

    /// A reference already run.
    pub fn get(&self, prog: &'static str, arg: u64) -> Option<&Reference> {
        self.refs.get(&(prog, arg))
    }

    /// Checks a sva-safe run of `prog(arg)`: its exit must pass and its
    /// exit and console must equal the native kernel's.
    pub fn check(
        &mut self,
        prog: &'static str,
        arg: u64,
        exit: &Result<VmExit, VmError>,
        console: &[u8],
    ) -> Option<String> {
        if let Some(why) = exit_failure(exit) {
            return Some(format!("{prog}: {why}"));
        }
        if !self.refs.contains_key(&(prog, arg)) {
            let r = self
                .module()
                .and_then(|raw| native_reference(raw, prog, arg));
            match r {
                Ok(r) => self.refs.insert((prog, arg), r),
                Err(why) => return Some(why),
            };
        }
        let want = &self.refs[&(prog, arg)].outcome;
        let got = Outcome::of(exit, console);
        (got != *want).then(|| format!("{prog}: {got:?} but native gives {want:?}"))
    }
}

fn native_reference(raw: &Module, prog: &str, arg: u64) -> Result<Reference, String> {
    let mut vm = Vm::new(raw.clone(), cfg(KernelKind::Native)).map_err(|e| e.to_string())?;
    let paused = boot_user_paused(&mut vm, prog, arg);
    let boot_cycles = vm.stats().cycles;
    let exit = match paused {
        Ok(None) => vm.run(),
        Ok(Some(exit)) => Ok(exit),
        Err(e) => Err(e),
    };
    if let Some(why) = exit_failure(&exit) {
        return Err(format!("native {prog}: {why}"));
    }
    let cycles = vm.stats().cycles;
    Ok(Reference {
        outcome: Outcome::of(&exit, &vm.console),
        cycles,
        run_cycles: cycles - boot_cycles,
    })
}

/// Machine configuration of `kind` at the benchmark's opt level.
pub fn cfg(kind: KernelKind) -> VmConfig {
    VmConfig {
        kind,
        opt_level: OPT_LEVEL,
        ..Default::default()
    }
}

/// Host time and guest work of the post-boot phase of a set of jobs
/// under one kernel configuration.
#[derive(Clone, Copy, Debug, Default)]
struct KindRun {
    run_ns: u64,
    instructions: u64,
    fused_execs: u64,
    checks: u64,
}

/// Runs every `(program, arg)` once under each of the four kernel
/// configurations (classic machine, one per job): boot to the first user
/// instruction, then time the rest. The same job list under every kernel
/// gives the per-kernel interpreter cost and, by difference, the host
/// cost of a run-time check.
fn kind_probe(
    raw: &Module,
    safe: &Module,
    jobs: &[(&'static str, u64)],
) -> Result<[(KernelKind, KindRun); 4], String> {
    let mut out = KernelKind::ALL.map(|k| (k, KindRun::default()));
    for (kind, acc) in out.iter_mut() {
        for &(prog, arg) in jobs {
            let module = if kind.checks() { safe } else { raw };
            let mut vm = new_vm(module.clone(), cfg(*kind))?;
            span("sva_vm.boot_to_user", || {
                boot_user_paused(&mut vm, prog, arg)
            })
            .map_err(|e| e.to_string())?;
            let before = vm.stats();
            let checks_before = vm.pools.total_stats().total_checks();
            let t = Instant::now();
            let exit = span("sva_vm.run", || vm.run());
            acc.run_ns += t.elapsed().as_nanos() as u64;
            if let Some(why) = exit_failure(&exit) {
                return Err(format!("{} {prog}: {why}", kind.label()));
            }
            let after = vm.stats();
            acc.instructions += after.instructions - before.instructions;
            acc.fused_execs += after.fused_execs - before.fused_execs;
            acc.checks += vm.pools.total_stats().total_checks() - checks_before;
        }
    }
    Ok(out)
}

/// Fills the interpreter and check-cost metrics from a [`kind_probe`]:
/// host ns per post-boot instruction under each kernel, the share of
/// sva-safe instructions retired inside fused pairs, and the host cost of
/// one run-time check (sva-safe minus sva-llvm time over sva-safe checks).
pub fn kind_metrics(
    raw: &Module,
    safe: &Module,
    jobs: &[(&'static str, u64)],
    layer: &mut Layer,
) -> Result<(), String> {
    let runs = kind_probe(raw, safe, jobs)?;
    for (kind, r) in &runs {
        let key = match kind {
            KernelKind::Native => "sva_vm.interp_ns_per_inst.native",
            KernelKind::SvaGcc => "sva_vm.interp_ns_per_inst.sva-gcc",
            KernelKind::SvaLlvm => "sva_vm.interp_ns_per_inst.sva-llvm",
            KernelKind::SvaSafe => "sva_vm.interp_ns_per_inst.sva-safe",
        };
        layer.insert(key, r.run_ns as f64 / r.instructions.max(1) as f64);
    }
    let [_, _, (_, llvm_run), (_, safe_run)] = runs;
    layer.insert(
        "sva_vm.fused_frac",
        2.0 * safe_run.fused_execs as f64 / safe_run.instructions.max(1) as f64,
    );
    layer.insert(
        "sva_rt.check_ns",
        (safe_run.run_ns as f64 - llvm_run.run_ns as f64) / safe_run.checks.max(1) as f64,
    );
    Ok(())
}
