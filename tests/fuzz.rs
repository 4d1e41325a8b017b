//! Fuzz smoke: the bytecode decoder, verifier, a fueled VM and the
//! snapshot-migration layer must never panic the host, no matter what
//! bytes they are fed. Structured errors are fine — `unwrap`-style
//! crashes are not (proptest turns any panic into a test failure and
//! shrinks the input). Nor may they over-allocate: every case runs under
//! a fixed heap cap (see `capped`), so a count that slips past a decoder
//! guard fails deterministically instead of exhausting the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use sva::ir::build::FunctionBuilder;
use sva::ir::bytecode::{decode_module, encode_module};
use sva::ir::parse::parse_module;
use sva::ir::{Linkage, Module, Operand};
use sva::vm::{
    migrate_bundle, plan, reencode_at, CrashBundle, CrashReason, KernelKind, Vm, VmConfig, VmError,
};

// --- allocation cap ---------------------------------------------------------

/// Most heap one case may hold live at once. A case builds machines that
/// each calloc a 32 MiB kernel region (and every restore swaps in another),
/// so a legitimate case peaks at about 65 MiB; a runaway count asks for
/// far more.
const CASE_ALLOC_CAP: isize = 256 << 20;

/// Heap use of the case running on this thread.
#[derive(Clone, Copy)]
struct CaseHeap {
    armed: bool,
    /// Bytes allocated minus bytes freed since the case started.
    live: isize,
    peak: isize,
    /// An allocation was refused for crossing the cap.
    refused: bool,
}

thread_local! {
    static CASE_HEAP: Cell<CaseHeap> = const {
        Cell::new(CaseHeap { armed: false, live: 0, peak: 0, refused: false })
    };
}

/// The system allocator with per-thread accounting while a case is armed
/// (tests run on parallel threads, so the count is per thread). A request
/// that would lift the case's live bytes past [`CASE_ALLOC_CAP`] is
/// refused: the host never sees it, and the case fails on any machine.
struct CappedAlloc;

impl CappedAlloc {
    /// Accounts `delta` bytes; `false` refuses the allocation.
    fn charge(delta: isize) -> bool {
        CASE_HEAP
            .try_with(|c| {
                let mut h = c.get();
                if !h.armed {
                    return true;
                }
                if delta > 0 && h.live + delta > CASE_ALLOC_CAP {
                    h.refused = true;
                    c.set(h);
                    return false;
                }
                h.live += delta;
                h.peak = h.peak.max(h.live);
                c.set(h);
                true
            })
            .unwrap_or(true)
    }
}

// SAFETY: every method passes its arguments unchanged to `System` or
// returns null, which `GlobalAlloc` allows as an allocation failure. The
// accounting only reads and writes a const-initialized thread-local
// `Cell`, which never allocates and never unwinds.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Self::charge(layout.size() as isize) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Self::charge(layout.size() as isize) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::charge(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Self::charge(new_size as isize - layout.size() as isize) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CappedAlloc = CappedAlloc;

/// Runs one fuzz case under the heap cap and fails it if any of its
/// allocations was refused. A refused request usually ends the process at
/// once (`handle_alloc_error` aborts); fallible reserves survive it and
/// fail here instead.
fn capped(case: impl FnOnce()) {
    let idle = CaseHeap {
        armed: false,
        live: 0,
        peak: 0,
        refused: false,
    };
    CASE_HEAP.with(|c| {
        c.set(CaseHeap {
            armed: true,
            ..idle
        })
    });
    case();
    let h = CASE_HEAP.with(|c| c.replace(idle));
    assert!(
        !h.refused,
        "case asked for more than {CASE_ALLOC_CAP} live heap bytes (peak {} before that)",
        h.peak
    );
}

/// Decode → verify → load → run, swallowing every structured error. The
/// verifier gates execution exactly like the production loader does
/// (unverifiable bytecode is rejected, never run), but decoding and
/// verification themselves must survive arbitrary input.
fn exercise(bytes: &[u8]) {
    let Ok(m) = decode_module(bytes) else { return };
    if !sva::ir::verify::verify_module(&m).is_empty() {
        return;
    }
    let names: Vec<String> = m.funcs.iter().map(|f| f.name.clone()).take(4).collect();
    for kind in [KernelKind::SvaGcc, KernelKind::SvaLlvm] {
        let Ok(mut vm) = Vm::new(
            m.clone(),
            VmConfig {
                kind,
                fuel: 20_000,
                ..Default::default()
            },
        ) else {
            continue;
        };
        for name in &names {
            let _ = vm.call(name, &[1, 0x4000]);
        }
    }
}

/// A tiny but well-formed module whose encoding the mutation tests start
/// from — flipped bytes then explore the decoder's deep paths.
fn seed_module(k: u64) -> Module {
    let mut m = Module::new("fuzz_seed");
    let i64t = m.types.i64();
    let fnty = m.types.func(i64t, vec![i64t], false);
    let f = m.add_function("seed", fnty, Linkage::Public);
    m.intern_address_types();
    let mut b = FunctionBuilder::new(&mut m, f);
    let p = b.param(0);
    let c = Operand::ConstInt(k as i64, i64t);
    let t = b.add(p, c);
    let t2 = b.mul(t, p);
    b.ret(Some(t2));
    m
}

// --- snapshot / bundle migration (DESIGN.md §4.10) ------------------------

/// A mid-run machine image at the given opt level and snapshot format
/// (v4, or its v3 re-encoding) — the well-formed SVA1 artifact the
/// mutation tests corrupt. The guest is a counted loop so the cut lands
/// inside a live frame.
fn migration_seed(opt_level: u8, version: u32) -> (Vm, Vec<u8>) {
    let src = r#"
module "m"
func public @work(%n0: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, body: %i2]
  %acc:i64 = phi i64 [entry: %n0, body: %acc3]
  %done:i1 = icmp uge %i, 40:i64
  condbr %done, out, body
body:
  %t:i64 = mul %acc, 3:i64
  %acc2:i64 = add %t, 5:i64
  %acc3:i64 = xor %acc2, 7:i64
  %i2:i64 = add %i, 1:i64
  br loop
out:
  ret %acc
}
"#;
    let cfg = |fuel| VmConfig {
        kind: KernelKind::SvaLlvm,
        opt_level,
        fuel,
        ..Default::default()
    };
    let mut vm = Vm::new(parse_module(src).unwrap(), cfg(120)).unwrap();
    match vm.call("work", &[9]) {
        Err(VmError::OutOfFuel) => {}
        r => panic!("seed cut did not interrupt: {r:?}"),
    }
    let img = reencode_at(&vm.snapshot(), version).unwrap();
    (
        Vm::new(parse_module(src).unwrap(), cfg(u64::MAX)).unwrap(),
        img,
    )
}

/// Feed damaged bytes through every migration entry point. Each call
/// must return a structured error (or, by luck, succeed) — never panic.
fn exercise_migration(target: &mut Vm, bytes: &[u8]) {
    let _ = plan(bytes);
    let _ = reencode_at(bytes, 3);
    let _ = target.restore_migrated(bytes);
    let _ = migrate_bundle(target, bytes);
}

/// Mutates a well-formed artifact: bit flips, then optional truncation
/// (a distinct failure mode from corruption).
fn damage(bytes: &mut Vec<u8>, flips: &[usize], cut: bool, k: u64) {
    for &bit in flips {
        let pos = bit % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
    }
    if cut && bytes.len() > 8 {
        let keep = 8 + k as usize % (bytes.len() - 8);
        bytes.truncate(keep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decoder_and_vm_survive_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        capped(|| exercise(&bytes));
    }

    #[test]
    fn decoder_and_vm_survive_mutated_modules(
        k in any::<u64>(),
        flips in prop::collection::vec(0usize..4096, 1..12),
        cut in any::<bool>(),
    ) {
        let mut bytes = encode_module(&seed_module(k));
        for bit in flips {
            let pos = bit % (bytes.len() * 8);
            bytes[pos / 8] ^= 1 << (pos % 8);
        }
        if cut && bytes.len() > 8 {
            // Truncation is a distinct failure mode from corruption.
            let keep = 8 + k as usize % (bytes.len() - 8);
            bytes.truncate(keep);
        }
        capped(|| exercise(&bytes));
    }
}

/// Body of `migration_survives_mutated_snapshots`: a damaged SVA1
/// machine image (v4 or v3) through the whole migration surface — plan,
/// the v3 downcast, `restore_migrated` — at the given translation tier.
/// A v3 seed drives the previous-format decoder and the v3→v4 upcaster
/// directly; mutating the version byte steers other cases out of the
/// support window, where they must be refused by version.
fn check_mutated_snapshot(opt: u8, version: u32, flips: &[usize], cut: bool, k: u64) {
    let (mut target, img) = migration_seed(opt, version);
    let mut bytes = img;
    damage(&mut bytes, flips, cut, k);
    exercise_migration(&mut target, &bytes);
}

/// Body of `migration_survives_mutated_bundles`: the same sweep over an
/// SVAB crash bundle wrapping a valid snapshot (v4 or v3) — the strict
/// bundle decoder and the embedded-snapshot migration must both survive
/// arbitrary damage.
fn check_mutated_bundle(opt: u8, version: u32, flips: &[usize], cut: bool, k: u64) {
    let (mut target, img) = migration_seed(opt, version);
    let code_id = plan(&img).unwrap().code_id;
    let bundle = CrashBundle {
        reason: CrashReason::Halt,
        halt_code: 41,
        resume_code_raw: 0,
        detail: "fuzz seed".to_string(),
        cpu: 0,
        config_words: [0; 10],
        code_id,
        stats: Default::default(),
        console: b"fuzz".to_vec(),
        domains: Vec::new(),
        pools: Vec::new(),
        health: Vec::new(),
        flight: Vec::new(),
        snapshot: img,
    };
    let mut bytes = bundle.to_bytes();
    damage(&mut bytes, flips, cut, k);
    exercise_migration(&mut target, &bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn migration_survives_mutated_snapshots(
        opt in prop::sample::select(vec![0u8, 2]),
        version in prop::sample::select(vec![3u32, 4]),
        flips in prop::collection::vec(0usize..320_000, 1..12),
        cut in any::<bool>(),
        k in any::<u64>(),
    ) {
        capped(|| check_mutated_snapshot(opt, version, &flips, cut, k));
    }

    #[test]
    fn migration_survives_mutated_bundles(
        opt in prop::sample::select(vec![0u8, 2]),
        version in prop::sample::select(vec![3u32, 4]),
        flips in prop::collection::vec(0usize..400_000, 1..12),
        cut in any::<bool>(),
        k in any::<u64>(),
    ) {
        capped(|| check_mutated_bundle(opt, version, &flips, cut, k));
    }
}
