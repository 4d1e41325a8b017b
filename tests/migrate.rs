//! Integration gates for live-upgrade snapshot migration (DESIGN.md
//! §4.10).
//!
//! The contract under test: a machine image written in either supported
//! snapshot format — this build's v4 or the previous build's v3 —
//! restores into the current build **through the upcaster chain** and
//! then behaves as if the machine had never been serialized at all; every
//! image migration cannot carry forward fails closed with a structured
//! error naming the first lost field, and every format outside the
//! window is refused by version. Five angles:
//!
//! * **composition** — proptest over generated programs: migrating the
//!   v3 downcast of an image reproduces the original v4 bytes, and
//!   migrating a current-format image is the byte-exact identity;
//! * **previous-format kernel images** — real kernel snapshots
//!   re-encoded at v3 restore via migration and finish bit-identically
//!   to an uninterrupted boot;
//! * **compatible rebuilds** — a kernel rebuilt with an appended
//!   never-called function (different `code_id`, identical surface
//!   prefix) adopts a mid-boot image across the code change;
//! * **fail-closed** — a changed *live* function body, a snapshot or
//!   bundle version outside the window (retired v1/v2 or a future one)
//!   and a bundle with trailing bytes are each refused with a structured
//!   error, never a panic or a half-decoded artifact;
//! * **bundles** — a crash bundle embedding a previous-format snapshot
//!   migrates as a unit and the migrated bundle is a fixed point.

use proptest::prelude::*;

use sva::ir::parse::parse_module;
use sva::kernel::harness::{
    boot_user, make_vm, make_vm_cfg, make_vm_nested, make_vm_nested_patched, pack_arg,
};
use sva::vm::{
    migrate, migrate_bundle, plan, reencode_at, CrashBundle, CrashReason, KernelKind, MigrateError,
    SnapshotError, Vm, VmConfig, VmError, OLDEST_SUPPORTED, UPCASTERS,
};

// --- toy machines ---------------------------------------------------------

/// The counted-loop shape `tests/snapshot.rs` uses, so the cut lands
/// inside a live frame of `@work`.
fn loop_prog(trip: u64, mul: u64, add: u64, xor: u64) -> String {
    format!(
        r#"
module "m"
func public @work(%n0: i64) : i64 {{
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, body: %i2]
  %acc:i64 = phi i64 [entry: %n0, body: %acc3]
  %done:i1 = icmp uge %i, {trip}:i64
  condbr %done, out, body
body:
  %t:i64 = mul %acc, {mul}:i64
  %acc2:i64 = add %t, {add}:i64
  %acc3:i64 = xor %acc2, {xor}:i64
  %i2:i64 = add %i, 1:i64
  br loop
out:
  ret %acc
}}
"#
    )
}

fn toy_vm(src: &str, opt_level: u8, fuel: u64) -> Vm {
    Vm::new(
        parse_module(src).unwrap(),
        VmConfig {
            kind: KernelKind::SvaLlvm,
            opt_level,
            fuel,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Runs `@work(arg)` to completion for the reference result, then again
/// cut mid-run by a narrowed fuel tank, and returns the cut machine's
/// image plus the reference `(exit, stats)`.
fn cut_image(src: &str, opt_level: u8, arg: u64, cut: u64) -> (Vec<u8>, String, sva::vm::VmStats) {
    let mut base = toy_vm(src, opt_level, u64::MAX);
    let exit = format!("{:?}", base.call("work", &[arg]));
    let consumed = u64::MAX - base.fuel();
    let cut = cut % consumed.max(1);
    let mut vm = toy_vm(src, opt_level, cut);
    match vm.call("work", &[arg]) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut {cut} did not interrupt: {r:?}"),
    }
    (vm.snapshot(), exit, base.stats())
}

// --- composition ----------------------------------------------------------

/// The upcaster chain is a right inverse of the downcast to the
/// previous format, and migration at the current version is the
/// byte-exact identity. (Body of [`upcaster_chain_composes`]; plain
/// asserts keep the proptest macro expansion shallow.)
fn check_chain_composition(trip: u64, mul: u64, add: u64, arg: u64, cut: u64, opt: u8) {
    let src = loop_prog(trip, mul, add, 0xf00d);
    let (img, exit, stats) = cut_image(&src, opt, arg, cut);
    let target = toy_vm(&src, opt, u64::MAX);

    // Idempotence: already-current images pass through byte-exact.
    let (out, rep) = migrate(&target, &img).unwrap();
    assert_eq!(out, img);
    assert!(rep.steps.is_empty() && !rep.code_migrated);

    // v4 → v3 → v4 is byte-exact, and re-encoding at v3 is idempotent.
    let v3 = reencode_at(&img, 3).unwrap();
    assert_eq!(reencode_at(&v3, 3).unwrap(), v3);
    let (out, rep) = migrate(&target, &v3).unwrap();
    assert_eq!(out, img);
    assert_eq!(rep.steps, vec!["v3→v4"]);
    assert!(!rep.code_migrated);

    // And a migrated previous-format image resumes to the reference
    // result.
    let mut vm = toy_vm(&src, opt, 1);
    vm.restore_migrated(&v3).unwrap();
    vm.set_fuel(u64::MAX);
    assert_eq!(format!("{:?}", vm.run()), exit);
    assert_eq!(vm.stats(), stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn upcaster_chain_composes(
        trip in 1u64..48,
        mul in 1u64..1_000_000,
        add in any::<u32>(),
        arg in any::<u64>(),
        cut in any::<u64>(),
        opt in prop::sample::select(vec![0u8, 2]),
    ) {
        check_chain_composition(trip, mul, add as u64, arg, cut, opt);
    }
}

/// The registry itself is a contiguous chain from the oldest supported
/// version to the current one — the invariant `migrate` walks by.
#[test]
fn upcaster_registry_is_contiguous() {
    for (i, u) in UPCASTERS.iter().enumerate() {
        assert_eq!(
            u.from,
            OLDEST_SUPPORTED + i as u32,
            "registry out of order at {}",
            u.name
        );
        assert_eq!(u.to, u.from + 1, "upcaster {} skips a version", u.name);
    }
    assert_eq!(
        UPCASTERS.last().unwrap().to,
        plan(&cut_image(&loop_prog(4, 3, 5, 7), 0, 9, 10).0)
            .unwrap()
            .target,
        "registry does not reach the current snapshot version"
    );
}

// --- fail-closed ----------------------------------------------------------

/// A rebuild that *changes the body of a live function* must be refused
/// by name — the suspended frame would resume into different code.
#[test]
fn changed_live_function_fails_closed() {
    let src_a = loop_prog(40, 3, 5, 7);
    let src_b = loop_prog(40, 3, 6, 7); // same surface, different body
    let (img, _, _) = cut_image(&src_a, 0, 9, 50);
    let target = toy_vm(&src_b, 0, u64::MAX);
    match migrate(&target, &img) {
        Err(MigrateError::Incompatible {
            field: "live_function",
            ..
        }) => {}
        r => panic!("expected live_function refusal, got {r:?}"),
    }
}

/// A synthetic crash bundle around `snapshot`, as the bundle tests use.
fn synthetic_bundle(snapshot: Vec<u8>) -> CrashBundle {
    CrashBundle {
        reason: CrashReason::Halt,
        halt_code: 41,
        resume_code_raw: 0,
        detail: "synthetic".to_string(),
        cpu: 0,
        config_words: [0; 10],
        code_id: plan(&snapshot).unwrap().code_id,
        stats: Default::default(),
        console: b"hello".to_vec(),
        domains: Vec::new(),
        pools: Vec::new(),
        health: Vec::new(),
        flight: Vec::new(),
        snapshot,
    }
}

/// Versions outside the support window — the retired v1/v2 and a future
/// one — are refused with `UnsupportedVersion` by every entry point, for
/// snapshots and bundles alike. The header version word is outside the
/// payload checksum, so each relabelled artifact is otherwise well formed
/// and only the version check can refuse it. Upcasting to the current
/// version without a target machine is refused with the field that needs
/// one (the code manifest).
#[test]
fn unknown_versions_fail_closed() {
    let (img, _, _) = cut_image(&loop_prog(8, 3, 5, 7), 0, 9, 20);
    let target = toy_vm(&loop_prog(8, 3, 5, 7), 0, u64::MAX);
    let bundle = synthetic_bundle(img.clone()).to_bytes();
    let refused = |r: Result<(), MigrateError>, v: u32, what: &str| match r {
        Err(MigrateError::UnsupportedVersion { found, .. }) if found == v => {}
        r => panic!("{what} v{v}: expected UnsupportedVersion, got {r:?}"),
    };
    for v in [1u32, 2, 99] {
        let mut relabelled = img.clone();
        relabelled[4..8].copy_from_slice(&v.to_le_bytes());
        refused(migrate(&target, &relabelled).map(drop), v, "migrate");
        refused(reencode_at(&relabelled, 3).map(drop), v, "reencode_at");
        refused(plan(&relabelled).map(drop), v, "plan");
        let mut relabelled = bundle.clone();
        relabelled[4..8].copy_from_slice(&v.to_le_bytes());
        refused(
            migrate_bundle(&target, &relabelled).map(drop),
            v,
            "migrate_bundle",
        );
        refused(plan(&relabelled).map(drop), v, "bundle plan");
    }
    for v in [1u32, 2, 5] {
        refused(reencode_at(&img, v).map(drop), v, "reencode_at target");
    }
    let v3 = reencode_at(&img, 3).unwrap();
    match reencode_at(&v3, 4) {
        Err(MigrateError::Incompatible {
            field: "code_manifest",
            ..
        }) => {}
        r => panic!(
            "expected code_manifest refusal, got {:?}",
            r.map(|v| v.len())
        ),
    }
}

/// A valid bundle followed by one stray byte is refused by
/// `migrate_bundle`, exactly as `CrashBundle::from_bytes` (and so
/// `svadbg`) refuses it — the migration path has no more lenient
/// decoder of its own.
#[test]
fn bundle_with_trailing_byte_fails_closed() {
    let src = loop_prog(24, 3, 5, 7);
    let (img, _, _) = cut_image(&src, 0, 9, 40);
    let target = toy_vm(&src, 0, u64::MAX);
    let mut bytes = synthetic_bundle(img).to_bytes();
    assert!(migrate_bundle(&target, &bytes).is_ok());
    bytes.push(0);
    assert!(CrashBundle::from_bytes(&bytes).is_err());
    match migrate_bundle(&target, &bytes) {
        Err(MigrateError::Bundle(_)) => {}
        r => panic!(
            "expected a bundle refusal, got {:?}",
            r.map(|(b, _)| b.len())
        ),
    }
}

// --- compatible rebuilds --------------------------------------------------

/// A module extended with an appended never-called function is a
/// different `code_id` with an identical surface prefix: migration must
/// adopt the image and the resumed run must match the original build's.
#[test]
fn appended_function_rebuild_adopts_toy_image() {
    let src_a = loop_prog(40, 3, 5, 7);
    let src_b = format!(
        "{}\nfunc public @live_patch_pad() : i64 {{\nentry:\n  ret 7:i64\n}}\n",
        src_a.trim_end()
    );
    let (img, exit, stats) = cut_image(&src_a, 0, 9, 50);
    let mut patched = toy_vm(&src_b, 0, 1);
    let report = patched.restore_migrated(&img).unwrap();
    assert!(report.code_migrated, "adoption not reported");
    patched.set_fuel(u64::MAX);
    assert_eq!(format!("{:?}", patched.run()), exit);
    assert_eq!(patched.stats(), stats);

    // The reverse direction fails closed: an image from the *extended*
    // build names a function the original build does not have.
    let (img_b, _, _) = cut_image(&src_b, 0, 9, 50);
    let original = toy_vm(&src_a, 0, u64::MAX);
    match migrate(&original, &img_b) {
        Err(MigrateError::Incompatible {
            field: "function_count",
            ..
        }) => {}
        r => panic!("expected function_count refusal, got {r:?}"),
    }
}

/// The same adoption on the real kernel: `make_vm_nested_patched` is the
/// nested recovery kernel plus one pad function (a modelled compatible
/// rebuild), and it must resume a mid-boot image of the stock build to
/// the same end state.
#[test]
fn patched_kernel_adopts_mid_boot_image() {
    let arg = pack_arg(40, 0, 0);
    let mut base = make_vm_nested(VmConfig::default());
    let r = boot_user(&mut base, "user_getpid_loop", arg);
    let want = (
        format!("{r:?}"),
        base.stats().equivalence_key(),
        base.console.clone(),
    );
    let cut = (u64::MAX - base.fuel()) / 2;

    let mut vm = make_vm_nested(VmConfig {
        fuel: cut,
        ..Default::default()
    });
    match boot_user(&mut vm, "user_getpid_loop", arg) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut at {cut} did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();

    // The stock build refuses the patched build's identity outright...
    let mut patched = make_vm_nested_patched(VmConfig::default(), 0x5eed);
    assert!(matches!(
        patched.restore(&img),
        Err(SnapshotError::CodeMismatch { .. })
    ));
    // ...but migration recognises the compatible surface and adopts.
    let report = patched.restore_migrated(&img).unwrap();
    assert!(report.code_migrated, "kernel adoption not reported");
    assert!(report.steps.is_empty(), "same-format image took upcasters");
    patched.set_fuel(u64::MAX);
    let r = patched.run();
    let got = (
        format!("{r:?}"),
        patched.stats().equivalence_key(),
        patched.console.clone(),
    );
    assert_eq!(got, want, "adopted image diverged from the stock build");
}

// --- legacy kernel images -------------------------------------------------

/// A real kernel snapshot re-encoded at the previous format (v3)
/// restores through the chain and finishes identically to an
/// uninterrupted boot — the nightly `--resume` cross-check in miniature.
#[test]
fn legacy_kernel_images_restore_via_migration() {
    let arg = pack_arg(30, 0, 0);
    let mut base = make_vm(KernelKind::SvaSafe);
    let r = boot_user(&mut base, "user_getpid_loop", arg);
    let want = (
        format!("{r:?}"),
        base.stats().equivalence_key(),
        base.console.clone(),
    );
    let cut = (u64::MAX - base.fuel()) / 2;

    let mut vm = make_vm_cfg(VmConfig {
        kind: KernelKind::SvaSafe,
        fuel: cut,
        ..Default::default()
    });
    match boot_user(&mut vm, "user_getpid_loop", arg) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("cut at {cut} did not interrupt: {r:?}"),
    }
    let img = vm.snapshot();

    let old = reencode_at(&img, 3).unwrap();
    let mut fresh = make_vm(KernelKind::SvaSafe);
    // The strict path must refuse the old format by version...
    assert!(matches!(
        fresh.restore(&old),
        Err(SnapshotError::BadVersion { .. })
    ));
    // ...and the migration path must walk the remaining chain.
    let report = fresh.restore_migrated(&old).unwrap();
    assert_eq!(report.from_version, 3);
    assert_eq!(report.steps, vec!["v3→v4"]);
    fresh.set_fuel(u64::MAX);
    let r = fresh.run();
    let got = (
        format!("{r:?}"),
        fresh.stats().equivalence_key(),
        fresh.console.clone(),
    );
    assert_eq!(got, want, "v3 image diverged after migration");
}

// --- bundles --------------------------------------------------------------

/// A crash bundle embedding a previous-format snapshot migrates as one
/// unit: the embedded image is upcast, the bundle re-encoded, and the
/// result is a fixed point of `migrate_bundle`.
#[test]
fn bundle_with_legacy_snapshot_migrates_and_is_fixed_point() {
    let src = loop_prog(24, 3, 5, 7);
    let (img, _, _) = cut_image(&src, 0, 9, 40);
    let target = toy_vm(&src, 0, u64::MAX);
    let bytes = synthetic_bundle(reencode_at(&img, 3).unwrap()).to_bytes();

    let p = plan(&bytes).unwrap();
    assert_eq!(p.kind, "bundle");
    assert_eq!(p.steps.len(), 1, "expected exactly the v3→v4 step");

    let (migrated, report) = migrate_bundle(&target, &bytes).unwrap();
    assert_eq!(report.steps, vec!["v3→v4"]);
    let out = CrashBundle::from_bytes(&migrated).unwrap();
    assert_eq!(out.console, b"hello");
    assert_eq!(out.halt_code, 41);
    // The migrated embedded snapshot is the original current-format one.
    assert_eq!(out.snapshot, img);

    // Fixed point: migrating the migrated bundle is the identity, and
    // its plan has no steps left.
    let (again, report) = migrate_bundle(&target, &migrated).unwrap();
    assert_eq!(again, migrated);
    assert!(report.steps.is_empty() && !report.code_migrated);
    assert!(plan(&migrated).unwrap().steps.is_empty());
}
