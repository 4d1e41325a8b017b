//! Interpreter-loop contracts (DESIGN.md §4.4):
//!
//! * the attention flag never changes what a run does: a machine
//!   re-entering the loop at every boundary and one running straight
//!   through end byte-identical, whatever rare event arrives on the way;
//! * the end of a `run_steps` slice is an ordinary pause, never a crash;
//! * a run-time check emits the same SVA-OS and check events whether it
//!   runs as a flat check op or swallowed by a fused gep+pchk+load.

use std::collections::BTreeMap;
use std::sync::Arc;

use sva::inject::{FaultClass, FaultPlan, PROBE_DEFER};
use sva::kernel::harness::{
    boot_user, boot_user_paused, make_vm_cfg, make_vm_recovering, pack_arg, safe_kernel_module,
};
use sva::kernel::AS_TESTED_EXCLUSIONS;
use sva::rt::MetaPoolId;
use sva::vm::{CrashReason, RingTracer, Vm, VmConfig, VmError, VmExit, VmStats};

/// Metapool ids with complete points-to info: the pools whose checks
/// reject unknown addresses, so fault probes against them trip.
fn complete_pools(vm: &Vm) -> Vec<u32> {
    (0..vm.pools.len() as u32)
        .filter(|&i| vm.pools.pool(MetaPoolId(i)).complete)
        .collect()
}

// --- the attention flag ----------------------------------------------------

/// A rare event delivered at instruction boundary `k` of a user program.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// `raise_interrupt(0)`.
    Irq,
    /// `request_snapshot_at(0)`: the latch fires at this very boundary.
    /// (A countdown counts loop visits, and a slice end is a visit, so
    /// only a zero countdown lands on the same boundary both ways.)
    Snapshot,
    /// A stale-use plan whose probes fire inside the handler body.
    DeferredProbe,
    /// No event: the machine runs under a finite `domain_fuel`, so the
    /// recovering kernel's boot domain ticks its watchdog and fires.
    DomainFuel,
}

const PROG: &str = "user_openclose_loop";
const FUEL: u64 = 400_000;

/// What a run leaves behind.
struct Outcome {
    exit: String,
    key: VmStats,
    console: String,
    latched: Option<Vec<u8>>,
    image: Vec<u8>,
}

fn machine(recovering: bool, ev: Event) -> Vm {
    let cfg = VmConfig {
        fuel: FUEL,
        domain_fuel: match ev {
            Event::DomainFuel => 3_000,
            _ => u64::MAX,
        },
        ..Default::default()
    };
    if recovering {
        make_vm_recovering(cfg)
    } else {
        make_vm_cfg(cfg)
    }
}

/// Boots `PROG` to its first user instruction, steps `k` boundaries,
/// delivers `ev` and runs to the end. `stepwise` drives every boundary
/// with its own `run_steps(1)` (one loop entry each); otherwise the
/// machine runs `run_steps(k)` and then `run()`.
fn drive(recovering: bool, ev: Event, k: u64, stepwise: bool) -> Outcome {
    let mut vm = machine(recovering, ev);
    let targets = complete_pools(&vm);
    assert!(
        matches!(
            boot_user_paused(&mut vm, PROG, pack_arg(20, 0, 0)),
            Ok(None)
        ),
        "boot must pause at user mode"
    );
    let slices = if stepwise { k } else { 1 };
    for _ in 0..slices {
        let r = vm.run_steps(k / slices);
        assert!(
            matches!(r, Ok(None)),
            "boundary {k} lies past the end: {r:?}"
        );
    }
    match ev {
        Event::Irq => vm.raise_interrupt(0),
        Event::Snapshot => vm.request_snapshot_at(0),
        Event::DeferredProbe => vm.arm_faults(Arc::new(
            FaultPlan::new(FaultClass::StaleUse, 7, 2, targets).with_defer(PROBE_DEFER),
        )),
        Event::DomainFuel => {}
    }
    let r = if stepwise {
        loop {
            match vm.run_steps(1) {
                Ok(None) => {}
                Ok(Some(exit)) => break Ok(exit),
                Err(e) => break Err(e),
            }
        }
    } else {
        vm.run()
    };
    Outcome {
        exit: format!("{r:?}"),
        key: vm.stats().equivalence_key(),
        console: vm.console_string(),
        latched: vm.take_pending_snapshot(),
        image: vm.snapshot(),
    }
}

#[test]
fn attention_flag_is_invisible_to_the_machine() {
    for recovering in [false, true] {
        for ev in [
            Event::Irq,
            Event::Snapshot,
            Event::DeferredProbe,
            Event::DomainFuel,
        ] {
            for k in [1u64, 700, 2500] {
                let tag = format!("recovering={recovering} {ev:?} k={k}");
                let a = drive(recovering, ev, k, true);
                let b = drive(recovering, ev, k, false);
                assert_eq!(a.exit, b.exit, "{tag}: exit");
                assert_eq!(a.key, b.key, "{tag}: equivalence key");
                assert_eq!(a.console, b.console, "{tag}: console");
                assert!(a.latched == b.latched, "{tag}: latched image differs");
                assert!(a.image == b.image, "{tag}: final snapshot differs");
                // The event must really have fired.
                let fired = match ev {
                    Event::Irq => b.key.interrupts > 0,
                    Event::Snapshot => b.latched.is_some(),
                    Event::DeferredProbe if recovering => b.key.violations_recovered > 0,
                    Event::DeferredProbe => b.exit.contains("Safety"),
                    Event::DomainFuel => !recovering || b.key.watchdog_unwinds > 0,
                };
                assert!(fired, "{tag}: the event never fired ({})", b.exit);
            }
        }
    }
}

// --- run_steps slices --------------------------------------------------------

#[test]
fn run_steps_slice_end_captures_no_crash_bundle() {
    let targets = complete_pools(&make_vm_recovering(VmConfig::default()));
    let plan = || Arc::new(FaultPlan::new(FaultClass::AllocFail, 3, 2, targets.clone()));
    let arg = pack_arg(20, 0, 0);

    // A run cut into slices under an armed plan: no slice end captures,
    // and the run ends where one straight run does.
    let mut vm = make_vm_recovering(VmConfig {
        fault_hook: Some(plan()),
        ..Default::default()
    });
    vm.enable_crash_capture(None, "slices");
    assert!(matches!(
        boot_user_paused(&mut vm, "user_getpid_loop", arg),
        Ok(None)
    ));
    let mut slices = 0;
    let exit = loop {
        match vm.run_steps(100).expect("slice") {
            Some(exit) => break exit,
            None => {
                slices += 1;
                assert!(
                    vm.last_crash_bundle().is_none(),
                    "slice end {slices} captured a crash bundle"
                );
            }
        }
    };
    assert!(slices > 0, "the run must span several slices");
    let mut straight = make_vm_recovering(VmConfig {
        fault_hook: Some(plan()),
        ..Default::default()
    });
    let want = boot_user(&mut straight, "user_getpid_loop", arg).expect("straight run");
    assert_eq!(exit, want);
    assert_eq!(vm.stats(), straight.stats());

    // A machine whose own fuel budget runs out under a plan still
    // captures exactly one bundle, at the exhaustion boundary, also when
    // it is driven in slices.
    let mut probe = make_vm_recovering(VmConfig::default());
    assert!(matches!(
        boot_user_paused(&mut probe, "user_getpid_loop", pack_arg(1000, 0, 0)),
        Ok(None)
    ));
    let fuel = probe.stats().instructions + 5_000;
    let mut vm = make_vm_recovering(VmConfig {
        fuel,
        fault_hook: Some(plan()),
        ..Default::default()
    });
    vm.enable_crash_capture(None, "fuel");
    assert!(matches!(
        boot_user_paused(&mut vm, "user_getpid_loop", pack_arg(1000, 0, 0)),
        Ok(None)
    ));
    let err = loop {
        match vm.run_steps(100) {
            Ok(None) => assert!(vm.last_crash_bundle().is_none()),
            Ok(Some(exit)) => panic!("{exit:?}: the fuel budget must run out first"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, VmError::OutOfFuel), "{err:?}");
    let bundle = vm
        .take_crash_bundle()
        .expect("real exhaustion under a plan must capture a bundle");
    assert_eq!(bundle.reason, CrashReason::FuelExhausted);
    assert_eq!(
        bundle.stats,
        vm.stats(),
        "captured at the exhaustion boundary"
    );
    assert_eq!(bundle.stats.instructions, fuel);
}

// --- check trace parity ------------------------------------------------------

/// Per-name `(OsExit count, Check count)` of every `pchk.*` operation in
/// a traced checked transfer at `opt_level`.
fn check_events(opt_level: u8, prog: &str, arg: u64) -> BTreeMap<&'static str, (u64, u64)> {
    let mut vm = Vm::with_tracer(
        safe_kernel_module(AS_TESTED_EXCLUSIONS),
        VmConfig {
            opt_level,
            ..Default::default()
        },
        RingTracer::default(),
    )
    .unwrap();
    let exit = boot_user(&mut vm, prog, arg).expect("checked transfer");
    assert!(matches!(exit, VmExit::Halted(0) | VmExit::Returned(0)));
    if opt_level > 0 {
        assert!(vm.fused_chk_sites() > 0, "no gep+pchk+load triple fused");
        assert!(vm.stats().fused_execs > 0);
    }
    let profile = vm.tracer().profile();
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (&op, c) in &profile.per_os {
        if op.starts_with("pchk.") {
            out.entry(op).or_default().0 = c.count;
        }
    }
    for (&check, c) in &profile.per_check {
        if check.starts_with("pchk.") {
            out.entry(check).or_default().1 = c.count;
        }
    }
    out
}

#[test]
fn checks_emit_the_same_events_fused_or_not() {
    for (prog, arg) in [
        ("user_pipe_bw", pack_arg(1, 2048, 0)),
        ("user_scp", pack_arg(1, 1024, 0)),
    ] {
        let opt0 = check_events(0, prog, arg);
        let opt2 = check_events(2, prog, arg);
        assert_eq!(opt0, opt2, "{prog}: pchk.* OsExit/Check counts differ");
        for check in ["pchk.bounds", "pchk.lscheck"] {
            let (os, chk) = opt0.get(check).copied().unwrap_or_default();
            assert!(chk > 0, "{prog}: no {check} executed");
            assert_eq!(os, chk, "{prog}: {check} OsExit vs Check events");
        }
    }
}
