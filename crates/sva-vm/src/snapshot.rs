//! Machine snapshot / checkpoint-restore (DESIGN.md §4.6).
//!
//! Because the whole commodity-OS state is mediated by the virtual
//! architecture (paper §3), the *entire* machine — physical memory,
//! register frames, metapool registries, interrupt contexts, the
//! recovery-domain stack — is an ordinary serializable object. This
//! module turns a live [`Vm`] into a versioned, checksummed binary image
//! and restores it bit-exactly, so that `snapshot → restore → run` is
//! indistinguishable from an uninterrupted `run` on
//! [`VmStats::equivalence_key`] (and in fact on the full stats block,
//! console bytes and exit).
//!
//! ## Image layout
//!
//! ```text
//! header (40 bytes):
//!   magic       4  b"SVA1"
//!   version     4  u32 LE, SNAPSHOT_VERSION
//!   config_fp   8  FNV-1a over the fingerprint block
//!   code_id     8  FNV-1a over the sealed module bytes
//!   payload_len 8  u64 LE
//!   checksum    8  FNV-1a over the payload
//! payload:
//!   fingerprint block  (one u64 per config field, see below)
//!   memory, thread, icontexts, saved states, dispatch tables,
//!   metapool images, console, stats, fuel/halt/irq/recovery/fault state,
//!   capture origin (checkpoint vs mid-flight), code manifest
//! ```
//!
//! ## Serialized vs rebuilt
//!
//! Everything observable is serialized. Three things are deliberately
//! *rebuilt* on restore instead:
//!
//! * the translated-function cache — deterministic from the module and
//!   config, which the header's `code_id`/`config_fp` pin;
//! * the metapool splay trees — rebuilt from the sorted live-range lists
//!   ([`sva_rt::PoolImage`]); tree shape is observationally irrelevant
//!   because ranges are disjoint (the round-trip gates in
//!   `tests/snapshot.rs` prove it);
//! * the fault hook — a host-side `Arc<dyn FaultHook>` that cannot be
//!   serialized; the image carries its schedule cursor (`trap_count`),
//!   so reattaching an identical plan resumes the identical schedule.
//!
//! ## Version policy
//!
//! Any change to the payload layout bumps [`SNAPSHOT_VERSION`]; restore
//! hard-rejects other versions ([`SnapshotError::BadVersion`]) rather
//! than guessing. Images are likewise rejected when the restoring
//! machine's config fingerprint or code identity differs — a snapshot is
//! a *state* capture, not a code capture.
//!
//! This module is the only reader of `SVA1` images. [`read_header`]
//! checks magic, version window, length and checksum for every entry
//! point, [`Vm::restore`] and the migration paths in [`crate::migrate`]
//! alike, and [`Header::parse`] decodes the payload for all of them.

use std::collections::HashMap;

use sva_ir::bytecode::SignedModule;
use sva_rt::{CheckStats, PoolImage};
use sva_trace::Tracer;

use crate::mem::{Mode, UserSpace, PAGE_SIZE};
use crate::vm::{
    Frame, IContext, KernelKind, RecoveryCtx, SavedState, Thread, Vm, VmConfig, VmStats,
};

/// Image magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SVA1";
/// Current image format version. Bump on any payload-layout change.
/// v3: `vcpus` joined the config fingerprint and the payload gained the
/// machine's vCPU identity (`cpu_id`) — an image taken on vCPU 2 of a
/// 4-CPU machine restores as vCPU 2 (DESIGN.md §4.9).
/// v4: the payload gained a capture-origin byte (checkpoint vs
/// mid-flight safe point) and a code manifest — the module's surface
/// fingerprint plus per-function body hashes — so [`crate::migrate`]
/// can judge whether a *rebuilt* kernel may adopt the image
/// (DESIGN.md §4.10). [`Vm::restore`] takes only this version;
/// `migrate` also reads the previous one (v3, see
/// [`crate::migrate::OLDEST_SUPPORTED`]) and refuses anything older. The
/// next bump retires v3 and moves that window up by one.
pub const SNAPSHOT_VERSION: u32 = 4;
/// Capture origin: a deliberate checkpoint ([`Vm::snapshot`]), e.g. at
/// the boot pause point.
pub const ORIGIN_CHECKPOINT: u8 = 0;
/// Capture origin: a latched safe-point capture taken at an instruction
/// boundary while the machine was running ([`Vm::request_snapshot`],
/// [`Vm::snapshot_midflight`], `SmpMachine::quiesce`).
pub const ORIGIN_MIDFLIGHT: u8 = 1;
/// Header size in bytes.
const HEADER_LEN: usize = 40;

/// Why an image could not be restored. Restore never partially applies:
/// on any error the machine is untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image ends before the advertised content.
    Truncated {
        /// Bytes the parser needed.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// The image was written by a different format version.
    BadVersion {
        /// Version in the image header.
        found: u32,
        /// Version this build restores.
        expected: u32,
    },
    /// One configuration field differs between the image and the machine.
    ConfigMismatch {
        /// Which fingerprint field mismatched.
        field: &'static str,
        /// The image's value (widened to u64).
        image: u64,
        /// The restoring machine's value.
        machine: u64,
    },
    /// The image was taken from a machine running different code.
    CodeMismatch {
        /// Code identity in the image header.
        image: u64,
        /// The restoring machine's code identity.
        machine: u64,
    },
    /// The payload checksum does not match (bit rot / tampering).
    Corrupt {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload parsed but described an impossible machine.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "truncated image: need {need} bytes, have {have}")
            }
            SnapshotError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not an SVA image)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(
                    f,
                    "image format version {found}, this build restores {expected}"
                )
            }
            SnapshotError::ConfigMismatch {
                field,
                image,
                machine,
            } => write!(
                f,
                "config mismatch on {field}: image {image:#x}, machine {machine:#x}"
            ),
            SnapshotError::CodeMismatch { image, machine } => write!(
                f,
                "code identity mismatch: image {image:#x}, machine {machine:#x}"
            ),
            SnapshotError::Corrupt { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            SnapshotError::Malformed(s) => write!(f, "malformed image: {s}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit (the repo's standing content-hash; no dependencies).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn kind_code(k: KernelKind) -> u64 {
    match k {
        KernelKind::Native => 0,
        KernelKind::SvaGcc => 1,
        KernelKind::SvaLlvm => 2,
        KernelKind::SvaSafe => 3,
    }
}

/// The config fields a snapshot is only valid under, each widened to u64.
/// Order is part of the format.
pub(crate) const FP_FIELDS: [&str; 10] = [
    "kind",
    "sign_key",
    "opt_level",
    "fast_path",
    "singleton_path",
    "violation_budget",
    "domain_fuel",
    "fused_sites",
    "hot_profile",
    "vcpus",
];

pub(crate) fn fingerprint_words(cfg: &VmConfig, fused_sites: u32) -> [u64; FP_FIELDS.len()] {
    let profile_hash = cfg
        .hot_profile
        .as_ref()
        .map(|p| fnv64(p.to_text().as_bytes()))
        .unwrap_or(0);
    [
        kind_code(cfg.kind),
        cfg.sign_key,
        cfg.opt_level as u64,
        // Retired `fast_path` toggle: the layered lookup is always on.
        1,
        cfg.singleton_path as u64,
        cfg.violation_budget as u64,
        cfg.domain_fuel,
        fused_sites as u64,
        profile_hash,
        cfg.vcpus.max(1) as u64,
    ]
}

// ---------------------------------------------------------------------------
// Little-endian writer / reader.
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct W {
    pub(crate) buf: Vec<u8>,
}

impl W {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    pub(crate) fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u32(x);
            }
            None => self.bool(false),
        }
    }
    /// Zero-dominated byte region as a page-granular nonzero-page list.
    /// Only the `candidates` pages (ascending indices) are visited, so they
    /// must include every nonzero page of `data`: the kernel region passes
    /// its touched pages, a user space its full range. Each candidate still
    /// gets the zero test, so the image depends on the bytes alone, never
    /// on which candidates were offered. The kernel region is 32 MiB and
    /// mostly zeros; post-boot images shrink ~50× under this encoding.
    pub(crate) fn sparse(&mut self, data: &[u8], candidates: impl Iterator<Item = usize>) {
        self.u64(data.len() as u64);
        let page = PAGE_SIZE as usize;
        let chunk = |i: usize| &data[i * page..((i + 1) * page).min(data.len())];
        let nonzero: Vec<usize> = candidates.filter(|&i| !all_zero(chunk(i))).collect();
        self.u64(nonzero.len() as u64);
        for i in nonzero {
            self.u64(i as u64);
            self.buf.extend_from_slice(chunk(i));
        }
    }
}

/// Word-at-a-time zero test over one candidate page of the sparse codec.
fn all_zero(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    if words.any(|c| u64::from_ne_bytes(c.try_into().unwrap()) != 0) {
        return false;
    }
    words.remainder().iter().all(|&b| b == 0)
}

pub(crate) struct R<'a> {
    b: &'a [u8],
    pub(crate) pos: usize,
}

pub(crate) type RResult<T> = Result<T, SnapshotError>;

impl<'a> R<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        R { b, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> RResult<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return Err(SnapshotError::Truncated {
                need: self.pos + n,
                have: self.b.len(),
            });
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> RResult<u8> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn bool(&mut self) -> RResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapshotError::Malformed(format!("bad bool byte {v}"))),
        }
    }
    pub(crate) fn u32(&mut self) -> RResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> RResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> RResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads an element count. Guards against absurd counts before any
    /// allocation: every element encodes to at least `min_elem_bytes`, so
    /// a count can never exceed `remaining / min_elem_bytes`.
    pub(crate) fn len(&mut self, what: &str, min_elem_bytes: usize) -> RResult<usize> {
        let n = self.u64()?;
        let remaining = (self.b.len() - self.pos) as u64;
        if n > remaining / min_elem_bytes as u64 {
            return Err(SnapshotError::Malformed(format!(
                "{what} count {n} exceeds {remaining} remaining bytes \
                 ({min_elem_bytes} bytes each at least)"
            )));
        }
        Ok(n as usize)
    }
    pub(crate) fn bytes(&mut self) -> RResult<Vec<u8>> {
        let n = self.len("byte section", 1)?;
        Ok(self.take(n)?.to_vec())
    }
    pub(crate) fn str(&mut self) -> RResult<String> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
    }
    pub(crate) fn opt_u32(&mut self) -> RResult<Option<u32>> {
        Ok(if self.bool()? {
            Some(self.u32()?)
        } else {
            None
        })
    }
    pub(crate) fn sparse(&mut self) -> RResult<SparseRegion<'a>> {
        // The decoded region may legitimately exceed the (compressed)
        // payload size, so `len`'s remaining-bytes guard does not apply;
        // cap it at well above the largest real region (32 MiB kernel).
        const MAX_REGION: u64 = 1 << 28;
        let total = self.u64()?;
        if total > MAX_REGION {
            return Err(SnapshotError::Malformed(format!(
                "sparse region of {total} bytes"
            )));
        }
        let total = total as usize;
        let page = PAGE_SIZE as usize;
        let npages = self.u64()?;
        if npages as usize > total / page + 1 {
            return Err(SnapshotError::Malformed(format!(
                "{npages} sparse pages in a {total}-byte region"
            )));
        }
        let mut pages = Vec::with_capacity(npages as usize);
        for _ in 0..npages {
            let i = self.u64()? as usize;
            let start = i.checked_mul(page).filter(|&s| s < total).ok_or_else(|| {
                SnapshotError::Malformed(format!("sparse page {i} outside region"))
            })?;
            let end = (start + page).min(total);
            pages.push((start, self.take(end - start)?));
        }
        Ok(SparseRegion { total, pages })
    }
}

/// A decoded sparse region: nonzero pages borrowed straight from the
/// image. Restore never materializes the big (32 MiB, zero-dominated)
/// kernel region as a dense temporary — snapshot-forked campaigns
/// restore hundreds of times per run, and a dense copy per fork would
/// cost more than the re-boot the fork replaces.
pub(crate) struct SparseRegion<'a> {
    total: usize,
    /// `(byte offset, page bytes)`, offsets validated `< total`.
    pages: Vec<(usize, &'a [u8])>,
}

impl SparseRegion<'_> {
    /// Indices of the pages the image carries, in image order.
    fn pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages
            .iter()
            .map(|&(start, _)| start / PAGE_SIZE as usize)
    }

    /// Decodes into a fresh zero-filled buffer. `vec![0; n]` is a calloc:
    /// the buffer stays zero-page-backed until written, so this touches
    /// only the image's nonzero pages no matter how large the region is.
    fn materialize(&self) -> Vec<u8> {
        let mut data = vec![0u8; self.total];
        for &(start, bytes) in &self.pages {
            data[start..start + bytes.len()].copy_from_slice(bytes);
        }
        data
    }
}

// ---------------------------------------------------------------------------
// Section codecs.
// ---------------------------------------------------------------------------

fn mode_code(m: Mode) -> u8 {
    match m {
        Mode::Kernel => 0,
        Mode::User => 1,
    }
}

fn mode_from(c: u8) -> RResult<Mode> {
    match c {
        0 => Ok(Mode::Kernel),
        1 => Ok(Mode::User),
        v => Err(SnapshotError::Malformed(format!("bad mode byte {v}"))),
    }
}

// Minimum encoded sizes of the variable-length records, for `R::len`:
// every vector empty, every option `None`.
/// [`write_frame`]: five u32 cursors, regs count, `ret_dst` tag, mode,
/// `sp_saved`, stack-regs count.
const FRAME_MIN: usize = 5 * 4 + 8 + 1 + 1 + 8 + 8;
/// [`write_icontext`]: frames count, usp, asid, privileged, `result_dst`
/// tag, `result_frame`, live, `trace_sys` tag.
const ICONTEXT_MIN: usize = 8 + 8 + 4 + 1 + 1 + 8 + 1 + 1;
/// [`write_saved_state`]: frames count, icid tag, asid, ksp, kstack
/// length, `save_dst` tag.
const SAVED_STATE_MIN: usize = 8 + 1 + 4 + 8 + 8 + 1;
/// [`write_recovery`]: frames count, icid tag, asid, ksp, usp, kstack
/// length, dst tag, subsys, fuel, quarantined-pools count.
const RECOVERY_MIN: usize = 8 + 1 + 4 + 8 + 8 + 8 + 1 + 8 + 8 + 8;
/// [`write_pool_image`]: name length, ranges count, stats words, the
/// `fast_path`/`singleton_path` bytes, two MRU tags, `quiet_lookups`,
/// `last_layer`, quarantined, poisoned, violations, scope violations,
/// forced failures, `poisoned_by`, repairs.
const POOL_IMAGE_MIN: usize = 8 + 8 + CheckStats::WORDS * 8 + 2 + 2 + 4 + 1 + 2 + 4 + 4 + 4 + 8 + 4;
/// One [`ManifestFunc`]: name length, `sig_fp`, `body_hash`.
const MANIFEST_FUNC_MIN: usize = 8 + 8 + 8;
/// One address space: live byte plus an empty sparse region (total and
/// page count).
const SPACE_MIN: usize = 1 + 8 + 8;

pub(crate) fn write_frame(w: &mut W, fr: &Frame) {
    w.u32(fr.func);
    w.u32(fr.pc);
    w.u32(fr.block);
    w.u32(fr.idx);
    w.u32(fr.prev_block);
    w.u64(fr.regs.len() as u64);
    for &r in &fr.regs {
        w.u64(r);
    }
    w.opt_u32(fr.ret_dst);
    w.u8(mode_code(fr.mode));
    w.u64(fr.sp_saved);
    w.u64(fr.stack_regs.len() as u64);
    for &(mp, addr, len) in &fr.stack_regs {
        w.u32(mp);
        w.u64(addr);
        w.u64(len);
    }
}

fn read_frame(r: &mut R<'_>) -> RResult<Frame> {
    let func = r.u32()?;
    let pc = r.u32()?;
    let block = r.u32()?;
    let idx = r.u32()?;
    let prev_block = r.u32()?;
    let nregs = r.len("frame regs", 8)?;
    let mut regs = Vec::with_capacity(nregs);
    for _ in 0..nregs {
        regs.push(r.u64()?);
    }
    let ret_dst = r.opt_u32()?;
    let mode = mode_from(r.u8()?)?;
    let sp_saved = r.u64()?;
    let nstack = r.len("stack regs", 4 + 8 + 8)?;
    let mut stack_regs = Vec::with_capacity(nstack);
    for _ in 0..nstack {
        stack_regs.push((r.u32()?, r.u64()?, r.u64()?));
    }
    Ok(Frame {
        func,
        pc,
        block,
        idx,
        prev_block,
        regs,
        ret_dst,
        mode,
        sp_saved,
        stack_regs,
    })
}

pub(crate) fn write_frames(w: &mut W, frames: &[Frame]) {
    w.u64(frames.len() as u64);
    for fr in frames {
        write_frame(w, fr);
    }
}

fn read_frames(r: &mut R<'_>) -> RResult<Vec<Frame>> {
    let n = r.len("frame stack", FRAME_MIN)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(read_frame(r)?);
    }
    Ok(v)
}

pub(crate) fn write_icontext(w: &mut W, ic: &IContext) {
    write_frames(w, &ic.frames);
    w.u64(ic.usp);
    w.u32(ic.asid);
    w.bool(ic.privileged);
    w.opt_u32(ic.result_dst);
    w.u64(ic.result_frame as u64);
    w.bool(ic.live);
    match ic.trace_sys {
        Some((nr, at)) => {
            w.bool(true);
            w.i64(nr);
            w.u64(at);
        }
        None => w.bool(false),
    }
}

fn read_icontext(r: &mut R<'_>) -> RResult<IContext> {
    Ok(IContext {
        frames: read_frames(r)?,
        usp: r.u64()?,
        asid: r.u32()?,
        privileged: r.bool()?,
        result_dst: r.opt_u32()?,
        result_frame: r.u64()? as usize,
        live: r.bool()?,
        trace_sys: if r.bool()? {
            Some((r.i64()?, r.u64()?))
        } else {
            None
        },
    })
}

pub(crate) fn write_saved_state(w: &mut W, s: &SavedState) {
    write_frames(w, &s.frames);
    w.opt_u32(s.icid);
    w.u32(s.asid);
    w.u64(s.ksp);
    w.bytes(&s.kstack);
    w.opt_u32(s.save_dst);
}

fn read_saved_state(r: &mut R<'_>) -> RResult<SavedState> {
    Ok(SavedState {
        frames: read_frames(r)?,
        icid: r.opt_u32()?,
        asid: r.u32()?,
        ksp: r.u64()?,
        kstack: r.bytes()?,
        save_dst: r.opt_u32()?,
    })
}

pub(crate) fn write_recovery(w: &mut W, rc: &RecoveryCtx) {
    write_frames(w, &rc.frames);
    w.opt_u32(rc.icid);
    w.u32(rc.asid);
    w.u64(rc.ksp);
    w.u64(rc.usp);
    w.bytes(&rc.kstack);
    w.opt_u32(rc.dst);
    w.u64(rc.subsys);
    w.u64(rc.fuel);
    w.u64(rc.quarantined_pools.len() as u64);
    for &p in &rc.quarantined_pools {
        w.u32(p);
    }
}

fn read_recovery(r: &mut R<'_>) -> RResult<RecoveryCtx> {
    let frames = read_frames(r)?;
    let icid = r.opt_u32()?;
    let asid = r.u32()?;
    let ksp = r.u64()?;
    let usp = r.u64()?;
    let kstack = r.bytes()?;
    let dst = r.opt_u32()?;
    let subsys = r.u64()?;
    let fuel = r.u64()?;
    let n = r.len("quarantined pools", 4)?;
    let mut quarantined_pools = Vec::with_capacity(n);
    for _ in 0..n {
        quarantined_pools.push(r.u32()?);
    }
    Ok(RecoveryCtx {
        frames,
        icid,
        asid,
        ksp,
        usp,
        kstack,
        dst,
        subsys,
        fuel,
        quarantined_pools,
    })
}

pub(crate) fn write_pool_image(w: &mut W, img: &PoolImage) {
    w.str(&img.name);
    w.u64(img.ranges.len() as u64);
    for &(s, e) in &img.ranges {
        w.u64(s);
        w.u64(e);
    }
    for &word in &img.stats {
        w.u64(word);
    }
    // Retired `fast_path` toggle: always on.
    w.bool(true);
    w.bool(img.singleton_path);
    for slot in img.mru {
        match slot {
            Some((s, e)) => {
                w.bool(true);
                w.u64(s);
                w.u64(e);
            }
            None => w.bool(false),
        }
    }
    // Retired read-mostly counter (`quiet_lookups`): always 0.
    w.u32(0);
    w.u8(img.last_layer);
    w.bool(img.quarantined);
    w.bool(img.poisoned);
    w.u32(img.violations);
    w.u32(img.scope_violations);
    w.u32(img.forced_reg_failures);
    w.u64(img.poisoned_by);
    w.u32(img.repairs);
}

fn read_pool_image(r: &mut R<'_>) -> RResult<PoolImage> {
    let name = r.str()?;
    let n = r.len("pool ranges", 16)?;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        ranges.push((r.u64()?, r.u64()?));
    }
    let mut stats = [0u64; CheckStats::WORDS];
    for word in &mut stats {
        *word = r.u64()?;
    }
    // The retired `fast_path` toggle: the layered lookup is always on,
    // so an image taken with it off is refused rather than misread.
    let fast_path = r.u8()?;
    if fast_path != 1 {
        return Err(SnapshotError::ConfigMismatch {
            field: "fast_path",
            image: fast_path as u64,
            machine: 1,
        });
    }
    let singleton_path = r.bool()?;
    let mut mru = [None; 2];
    for slot in &mut mru {
        if r.bool()? {
            *slot = Some((r.u64()?, r.u64()?));
        }
    }
    // The retired read-mostly counter (`quiet_lookups`) was only a
    // tree-shape hint; discard it.
    r.u32()?;
    Ok(PoolImage {
        name,
        ranges,
        stats,
        singleton_path,
        mru,
        last_layer: r.u8()?,
        quarantined: r.bool()?,
        poisoned: r.bool()?,
        violations: r.u32()?,
        scope_violations: r.u32()?,
        forced_reg_failures: r.u32()?,
        poisoned_by: r.u64()?,
        repairs: r.u32()?,
    })
}

pub(crate) fn stats_words(s: &VmStats) -> [u64; 22] {
    [
        s.instructions,
        s.cycles,
        s.traps,
        s.range_checks,
        s.context_switches,
        s.interrupts,
        s.cache_hits,
        s.page_hits,
        s.tree_walks,
        s.singleton_hits,
        s.violations_recovered,
        s.pools_quarantined,
        s.pools_poisoned,
        s.domains_pushed,
        s.domains_popped,
        s.watchdog_unwinds,
        s.fused_execs,
        s.repairs,
        s.pools_repaired,
        s.probation_passed,
        s.probation_failed,
        s.subsys_retired,
    ]
}

pub(crate) fn stats_from_words(w: [u64; 22]) -> VmStats {
    VmStats {
        instructions: w[0],
        cycles: w[1],
        traps: w[2],
        range_checks: w[3],
        context_switches: w[4],
        interrupts: w[5],
        cache_hits: w[6],
        page_hits: w[7],
        tree_walks: w[8],
        singleton_hits: w[9],
        violations_recovered: w[10],
        pools_quarantined: w[11],
        pools_poisoned: w[12],
        domains_pushed: w[13],
        domains_popped: w[14],
        watchdog_unwinds: w[15],
        fused_execs: w[16],
        repairs: w[17],
        pools_repaired: w[18],
        probation_passed: w[19],
        probation_failed: w[20],
        subsys_retired: w[21],
    }
}

// ---------------------------------------------------------------------------
// Code manifest (v4).
// ---------------------------------------------------------------------------

/// One function's identity in a [`CodeManifest`]: its name, a signature
/// fingerprint (linkage + full function type) and a hash of its printed
/// body. Order in the manifest is module order, which is also dispatch /
/// frame-index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ManifestFunc {
    pub name: String,
    pub sig_fp: u64,
    pub body_hash: u64,
}

/// The code identity a v4 image carries alongside the opaque `code_id`
/// hash: enough structure for [`crate::migrate`] to decide whether a
/// *different* build may adopt the image (same surface ⇒ same function
/// indices, global addresses and dispatch-table meanings) and which
/// function bodies changed (a function with a live frame must be
/// byte-compatible; a cold one may differ — that is the live-patch case).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct CodeManifest {
    /// FNV over `globals_fp` + each function's `(name, sig_fp)`.
    pub surface_fp: u64,
    /// FNV over the printed module header (structs, globals, externs,
    /// allocators, entry) — everything memory layout is derived from.
    pub globals_fp: u64,
    /// Per function, in module order.
    pub funcs: Vec<ManifestFunc>,
}

/// Computes the manifest for a module. Deterministic: built on the IR
/// printer, whose output is a pure function of the module.
pub(crate) fn compute_manifest(m: &sva_ir::Module) -> CodeManifest {
    let globals_fp = fnv64(sva_ir::print::print_module_header(m).as_bytes());
    let funcs: Vec<ManifestFunc> = m
        .funcs
        .iter()
        .map(|f| {
            let linkage = match f.linkage {
                sva_ir::Linkage::Public => "public",
                sva_ir::Linkage::Internal => "internal",
            };
            let sig = format!("{} {}", linkage, m.types.display(f.ty));
            ManifestFunc {
                name: f.name.clone(),
                sig_fp: fnv64(sig.as_bytes()),
                body_hash: fnv64(sva_ir::print::print_function_text(m, f).as_bytes()),
            }
        })
        .collect();
    CodeManifest {
        surface_fp: surface_fp_of(globals_fp, &funcs),
        globals_fp,
        funcs,
    }
}

/// The surface fingerprint over a header hash and a function list —
/// shared by [`compute_manifest`] and the migration prefix check.
pub(crate) fn surface_fp_of(globals_fp: u64, funcs: &[ManifestFunc]) -> u64 {
    let mut bytes = globals_fp.to_le_bytes().to_vec();
    for f in funcs {
        bytes.extend_from_slice(f.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&f.sig_fp.to_le_bytes());
    }
    fnv64(&bytes)
}

pub(crate) fn write_manifest(w: &mut W, m: &CodeManifest) {
    w.u64(m.surface_fp);
    w.u64(m.globals_fp);
    w.u64(m.funcs.len() as u64);
    for f in &m.funcs {
        w.str(&f.name);
        w.u64(f.sig_fp);
        w.u64(f.body_hash);
    }
}

fn read_manifest(r: &mut R<'_>) -> RResult<CodeManifest> {
    let surface_fp = r.u64()?;
    let globals_fp = r.u64()?;
    let n = r.len("manifest functions", MANIFEST_FUNC_MIN)?;
    let mut funcs = Vec::with_capacity(n);
    for _ in 0..n {
        funcs.push(ManifestFunc {
            name: r.str()?,
            sig_fp: r.u64()?,
            body_hash: r.u64()?,
        });
    }
    Ok(CodeManifest {
        surface_fp,
        globals_fp,
        funcs,
    })
}

fn read_origin(r: &mut R<'_>) -> RResult<u8> {
    match r.u8()? {
        o @ (ORIGIN_CHECKPOINT | ORIGIN_MIDFLIGHT) => Ok(o),
        v => Err(SnapshotError::Malformed(format!("bad origin byte {v}"))),
    }
}

/// Bytes of the fingerprint block that opens every payload.
const FP_BYTES: usize = FP_FIELDS.len() * 8;
/// Index of the `fused_sites` word in the fingerprint block. It is
/// code-derived, not config, so an image adopted onto a rebuilt kernel
/// takes the target's value.
pub(crate) const FP_FUSED_SITES: usize = 7;

/// An image whose header checked out ([`read_header`]): magic, a version
/// inside the caller's window, the advertised payload present and
/// matching its checksum, and the fingerprint block read.
pub(crate) struct Header<'a> {
    /// Format version.
    pub(crate) version: u32,
    /// Code identity of the build that wrote the image.
    pub(crate) code_id: u64,
    /// The payload's fingerprint block, one word per [`FP_FIELDS`] entry.
    pub(crate) fp: [u64; FP_FIELDS.len()],
    payload: &'a [u8],
}

/// The one header check of an `SVA1` image, shared by [`Vm::restore`]
/// (`oldest` = [`SNAPSHOT_VERSION`]) and every migration entry point
/// (`oldest` = [`crate::migrate::OLDEST_SUPPORTED`]). A version outside
/// `oldest..=SNAPSHOT_VERSION` is [`SnapshotError::BadVersion`].
pub(crate) fn read_header(image: &[u8], oldest: u32) -> RResult<Header<'_>> {
    if image.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            need: HEADER_LEN,
            have: image.len(),
        });
    }
    let magic: [u8; 4] = image[0..4].try_into().unwrap();
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(image[4..8].try_into().unwrap());
    if !(oldest..=SNAPSHOT_VERSION).contains(&version) {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let code_id = u64::from_le_bytes(image[16..24].try_into().unwrap());
    let payload_len = u64::from_le_bytes(image[24..32].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(image[32..40].try_into().unwrap());
    if image.len() < HEADER_LEN + payload_len {
        return Err(SnapshotError::Truncated {
            need: HEADER_LEN + payload_len,
            have: image.len(),
        });
    }
    let payload = &image[HEADER_LEN..HEADER_LEN + payload_len];
    let computed = fnv64(payload);
    if computed != checksum {
        return Err(SnapshotError::Corrupt {
            stored: checksum,
            computed,
        });
    }
    let mut r = R::new(payload);
    let mut fp = [0u64; FP_FIELDS.len()];
    for word in &mut fp {
        *word = r.u64()?;
    }
    Ok(Header {
        version,
        code_id,
        fp,
        payload,
    })
}

impl<'a> Header<'a> {
    /// Decodes the payload after the fingerprint block in full, trailing
    /// bytes included in the check.
    pub(crate) fn parse(&self) -> RResult<Parsed<'a>> {
        let mut r = R {
            b: self.payload,
            pos: FP_BYTES,
        };
        let parsed = parse_payload(&mut r, self.version)?;
        if r.pos != self.payload.len() {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing payload bytes",
                self.payload.len() - r.pos
            )));
        }
        Ok(parsed)
    }
}

/// Frames a payload (fingerprint block first) as an image: the header
/// [`Vm::snapshot`] writes and migration re-frames with.
pub(crate) fn frame_image(
    version: u32,
    fp: &[u64; FP_FIELDS.len()],
    code_id: u64,
    payload: &[u8],
) -> Vec<u8> {
    let fp_bytes: Vec<u8> = fp.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut image = Vec::with_capacity(HEADER_LEN + payload.len());
    image.extend_from_slice(&SNAPSHOT_MAGIC);
    image.extend_from_slice(&version.to_le_bytes());
    image.extend_from_slice(&fnv64(&fp_bytes).to_le_bytes());
    image.extend_from_slice(&code_id.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(&fnv64(payload).to_le_bytes());
    image.extend_from_slice(payload);
    image
}

/// Everything a payload decodes to, parsed in full before any of it is
/// committed to the machine (restore is atomic: error ⇒ untouched).
/// Memory regions stay borrowed from the image until commit.
pub(crate) struct Parsed<'a> {
    kernel: SparseRegion<'a>,
    spaces: Vec<(bool, SparseRegion<'a>)>,
    current_asid: u32,
    pub(crate) thread: Thread,
    pub(crate) icontexts: Vec<IContext>,
    pub(crate) int_state: HashMap<u64, SavedState>,
    pub(crate) user_state: HashMap<u64, IContext>,
    syscalls: HashMap<i64, u32>,
    interrupts: HashMap<i64, u32>,
    pool_images: Vec<PoolImage>,
    func_stats: [u64; CheckStats::WORDS],
    console: Vec<u8>,
    stats: VmStats,
    fuel: u64,
    halted: Option<u64>,
    pending_irq: Vec<i64>,
    pub(crate) recovery: Vec<RecoveryCtx>,
    gep_skew: Option<(u32, i64)>,
    pending_probe: Option<(u64, u32, u64)>,
    pending_skew: Option<(u64, u32, i64)>,
    call_floor: usize,
    trap_count: u64,
    cpu_id: u32,
    /// The payload bytes after the fingerprint block through `cpu_id`:
    /// identical in v3 and v4, so migration re-frames them verbatim.
    pub(crate) body: &'a [u8],
    /// v4 only: capture origin. Restore drops it.
    pub(crate) origin: Option<u8>,
    /// v4 only: code manifest. Restore drops it; migration judges
    /// cross-build adoption by it.
    pub(crate) manifest: Option<CodeManifest>,
}

fn parse_payload<'a>(r: &mut R<'a>, version: u32) -> RResult<Parsed<'a>> {
    let body_start = r.pos;
    let kernel = r.sparse()?;
    let nspaces = r.len("address spaces", SPACE_MIN)?;
    let mut spaces = Vec::with_capacity(nspaces);
    for _ in 0..nspaces {
        let live = r.bool()?;
        let data = r.sparse()?;
        spaces.push((live, data));
    }
    let current_asid = r.u32()?;
    let thread = Thread {
        frames: read_frames(r)?,
        asid: r.u32()?,
        icid: r.opt_u32()?,
        ksp: r.u64()?,
        usp: r.u64()?,
        fp_dirty: r.bool()?,
    };
    let nic = r.len("interrupt contexts", ICONTEXT_MIN)?;
    let mut icontexts = Vec::with_capacity(nic);
    for _ in 0..nic {
        icontexts.push(read_icontext(r)?);
    }
    let n = r.len("saved integer states", 8 + SAVED_STATE_MIN)?;
    let mut int_state = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.u64()?;
        int_state.insert(k, read_saved_state(r)?);
    }
    let n = r.len("saved user states", 8 + ICONTEXT_MIN)?;
    let mut user_state = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.u64()?;
        user_state.insert(k, read_icontext(r)?);
    }
    let n = r.len("syscall table", 8 + 4)?;
    let mut syscalls = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.i64()?;
        syscalls.insert(k, r.u32()?);
    }
    let n = r.len("interrupt table", 8 + 4)?;
    let mut interrupts = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.i64()?;
        interrupts.insert(k, r.u32()?);
    }
    let n = r.len("pool images", POOL_IMAGE_MIN)?;
    let mut pool_images = Vec::with_capacity(n);
    for _ in 0..n {
        pool_images.push(read_pool_image(r)?);
    }
    let mut func_stats = [0u64; CheckStats::WORDS];
    for word in &mut func_stats {
        *word = r.u64()?;
    }
    let console = r.bytes()?;
    let mut words = [0u64; 22];
    for word in &mut words {
        *word = r.u64()?;
    }
    let stats = stats_from_words(words);
    let fuel = r.u64()?;
    let halted = if r.bool()? { Some(r.u64()?) } else { None };
    let n = r.len("pending irqs", 8)?;
    let mut pending_irq = Vec::with_capacity(n);
    for _ in 0..n {
        pending_irq.push(r.i64()?);
    }
    let n = r.len("recovery stack", RECOVERY_MIN)?;
    let mut recovery = Vec::with_capacity(n);
    for _ in 0..n {
        recovery.push(read_recovery(r)?);
    }
    let gep_skew = if r.bool()? {
        Some((r.u32()?, r.i64()?))
    } else {
        None
    };
    let pending_probe = if r.bool()? {
        Some((r.u64()?, r.u32()?, r.u64()?))
    } else {
        None
    };
    let pending_skew = if r.bool()? {
        Some((r.u64()?, r.u32()?, r.i64()?))
    } else {
        None
    };
    let call_floor = r.u64()? as usize;
    let trap_count = r.u64()?;
    let cpu_id = r.u32()?;
    let body = &r.b[body_start..r.pos];
    // Origin and manifest are advisory (see `snapshot_with_origin`).
    let (origin, manifest) = if version >= 4 {
        (Some(read_origin(r)?), Some(read_manifest(r)?))
    } else {
        (None, None)
    };
    Ok(Parsed {
        kernel,
        spaces,
        current_asid,
        thread,
        icontexts,
        int_state,
        user_state,
        syscalls,
        interrupts,
        pool_images,
        func_stats,
        console,
        stats,
        fuel,
        halted,
        pending_irq,
        recovery,
        gep_skew,
        pending_probe,
        pending_skew,
        call_floor,
        trap_count,
        cpu_id,
        body,
        origin,
        manifest,
    })
}

impl<T: Tracer> Vm<T> {
    /// FNV identity of the machine's code: the sealed (signed) module
    /// bytes, exactly what the translation cache is a pure function of.
    pub(crate) fn code_identity(&self) -> u64 {
        fnv64(&SignedModule::seal(&self.code.module, self.cfg.sign_key).bytecode)
    }

    /// Serializes the complete machine state into a versioned,
    /// checksummed binary image. See the module docs for the layout and
    /// the serialized-vs-rebuilt split. The attached fault hook (if any)
    /// is *not* captured — only its schedule cursor is; reattach an
    /// identical plan after [`Vm::restore`] to resume the schedule.
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_with_origin(ORIGIN_CHECKPOINT)
    }

    /// [`Vm::snapshot`] tagged [`ORIGIN_MIDFLIGHT`]: the image a latched
    /// safe-point capture produces. Taking one by hand at a chosen
    /// instruction boundary (e.g. after [`Vm::run_steps`]) yields bytes
    /// identical to arming [`Vm::request_snapshot_at`] with the same
    /// boundary — the byte-identity gates in `tests/smp.rs` rely on it.
    pub fn snapshot_midflight(&self) -> Vec<u8> {
        self.snapshot_with_origin(ORIGIN_MIDFLIGHT)
    }

    pub(crate) fn snapshot_with_origin(&self, origin: u8) -> Vec<u8> {
        let mut w = W::default();
        // Fingerprint block: one word per config field so restore can
        // name the exact mismatching field.
        let fp = fingerprint_words(&self.cfg, self.fused_sites());
        for word in fp {
            w.u64(word);
        }
        // Memory.
        w.sparse(self.mem.kernel_bytes(), self.mem.touched_kernel_pages());
        let spaces = self.mem.all_spaces();
        w.u64(spaces.len() as u64);
        for s in spaces {
            w.bool(s.live);
            w.sparse(&s.data, 0..s.data.len().div_ceil(PAGE_SIZE as usize));
        }
        w.u32(self.mem.current_asid);
        // Thread.
        write_frames(&mut w, &self.thread.frames);
        w.u32(self.thread.asid);
        w.opt_u32(self.thread.icid);
        w.u64(self.thread.ksp);
        w.u64(self.thread.usp);
        w.bool(self.thread.fp_dirty);
        // Interrupt contexts.
        w.u64(self.icontexts.len() as u64);
        for ic in &self.icontexts {
            write_icontext(&mut w, ic);
        }
        // Saved processor state, sorted for a canonical image.
        let mut keys: Vec<u64> = self.int_state.keys().copied().collect();
        keys.sort_unstable();
        w.u64(keys.len() as u64);
        for k in keys {
            w.u64(k);
            write_saved_state(&mut w, &self.int_state[&k]);
        }
        let mut keys: Vec<u64> = self.user_state.keys().copied().collect();
        keys.sort_unstable();
        w.u64(keys.len() as u64);
        for k in keys {
            w.u64(k);
            write_icontext(&mut w, &self.user_state[&k]);
        }
        // Dispatch tables.
        let mut keys: Vec<i64> = self.syscalls.keys().copied().collect();
        keys.sort_unstable();
        w.u64(keys.len() as u64);
        for k in keys {
            w.i64(k);
            w.u32(self.syscalls[&k]);
        }
        let mut keys: Vec<i64> = self.interrupts.keys().copied().collect();
        keys.sort_unstable();
        w.u64(keys.len() as u64);
        for k in keys {
            w.i64(k);
            w.u32(self.interrupts[&k]);
        }
        // Metapools.
        let (pool_images, func_stats) = self.pools.export_images();
        w.u64(pool_images.len() as u64);
        for img in &pool_images {
            write_pool_image(&mut w, img);
        }
        for word in func_stats {
            w.u64(word);
        }
        // Console and counters.
        w.bytes(&self.console);
        for word in stats_words(&self.stats) {
            w.u64(word);
        }
        // Run-control and fault-injection state.
        w.u64(self.fuel + self.fuel_reserve);
        match self.halted {
            Some(c) => {
                w.bool(true);
                w.u64(c);
            }
            None => w.bool(false),
        }
        w.u64(self.pending_irq.len() as u64);
        for &v in &self.pending_irq {
            w.i64(v);
        }
        w.u64(self.recovery.len() as u64);
        for rc in &self.recovery {
            write_recovery(&mut w, rc);
        }
        match self.gep_skew {
            Some((count, delta)) => {
                w.bool(true);
                w.u32(count);
                w.i64(delta);
            }
            None => w.bool(false),
        }
        match self.pending_probe {
            Some((cnt, pool, addr)) => {
                w.bool(true);
                w.u64(cnt);
                w.u32(pool);
                w.u64(addr);
            }
            None => w.bool(false),
        }
        match self.pending_skew {
            Some((cnt, count, delta)) => {
                w.bool(true);
                w.u64(cnt);
                w.u32(count);
                w.i64(delta);
            }
            None => w.bool(false),
        }
        w.u64(self.call_floor as u64);
        w.u64(self.trap_count);
        w.u32(self.cpu_id);
        // v4: capture origin and the code manifest. Neither is machine
        // *state* — restore ignores them — but migration reads both:
        // the manifest to judge cross-build compatibility, the origin so
        // tooling can tell a boot-pause checkpoint from a mid-flight cut.
        w.u8(origin);
        write_manifest(&mut w, self.code.manifest());
        frame_image(SNAPSHOT_VERSION, &fp, self.code_identity(), &w.buf)
    }

    /// Replaces this machine's state with the image's. The machine must
    /// have been constructed from the same module under the same
    /// configuration (header `code_id`/`config_fp`; mismatches are
    /// rejected field-by-field with [`SnapshotError::ConfigMismatch`]).
    /// On any error the machine is untouched — the payload is parsed in
    /// full before the first field is committed.
    pub fn restore(&mut self, image: &[u8]) -> Result<(), SnapshotError> {
        let h = read_header(image, SNAPSHOT_VERSION)?;
        self.check_fingerprint(&h.fp, false)?;
        let machine_code = self.code_identity();
        if h.code_id != machine_code {
            return Err(SnapshotError::CodeMismatch {
                image: h.code_id,
                machine: machine_code,
            });
        }
        let parsed = h.parse()?;
        self.commit(parsed)
    }

    /// Compares an image's fingerprint block with this machine's config,
    /// field by field (a named field beats the opaque header hash in
    /// every error message). `adopting` exempts `fused_sites` for an
    /// image taken under a different build, which takes this build's.
    pub(crate) fn check_fingerprint(
        &self,
        fp: &[u64; FP_FIELDS.len()],
        adopting: bool,
    ) -> RResult<()> {
        let machine_fp = fingerprint_words(&self.cfg, self.fused_sites());
        for (i, field) in FP_FIELDS.iter().enumerate() {
            if fp[i] != machine_fp[i] && !(adopting && i == FP_FUSED_SITES) {
                return Err(SnapshotError::ConfigMismatch {
                    field,
                    image: fp[i],
                    machine: machine_fp[i],
                });
            }
        }
        Ok(())
    }

    pub(crate) fn commit(&mut self, p: Parsed<'_>) -> Result<(), SnapshotError> {
        if p.kernel.total != self.mem.kernel_bytes().len() {
            return Err(SnapshotError::Malformed(format!(
                "kernel region is {} bytes, image has {}",
                self.mem.kernel_bytes().len(),
                p.kernel.total
            )));
        }
        if p.spaces.is_empty() || p.current_asid as usize >= p.spaces.len() {
            return Err(SnapshotError::Malformed(format!(
                "current asid {} with {} spaces",
                p.current_asid,
                p.spaces.len()
            )));
        }
        // Metapool restore validates range lists and pool names; it runs
        // before any other field is committed so a malformed pool section
        // still leaves the machine consistent... except the pools it
        // already rebuilt. Validate dry-run first on a clone instead.
        let mut pools = self.pools.clone();
        pools
            .restore_images(&p.pool_images, p.func_stats)
            .map_err(SnapshotError::Malformed)?;
        self.pools = pools;
        self.mem
            .set_kernel(p.kernel.materialize(), p.kernel.pages());
        self.mem.set_spaces(
            p.spaces
                .into_iter()
                .map(|(live, data)| UserSpace {
                    data: data.materialize(),
                    live,
                })
                .collect(),
        );
        self.mem.current_asid = p.current_asid;
        self.thread = p.thread;
        self.icontexts = p.icontexts;
        self.int_state = p.int_state;
        self.user_state = p.user_state;
        self.syscalls = p.syscalls;
        self.interrupts = p.interrupts;
        self.console = p.console;
        self.stats = p.stats;
        self.fuel = p.fuel;
        self.halted = p.halted;
        self.pending_irq = p.pending_irq.into_iter().collect();
        self.recovery = p.recovery;
        self.gep_skew = p.gep_skew;
        self.pending_probe = p.pending_probe;
        self.pending_skew = p.pending_skew;
        self.call_floor = p.call_floor;
        self.trap_count = p.trap_count;
        self.cpu_id = p.cpu_id;
        self.argv_scratch.clear();
        self.refresh_attention();
        if T::ENABLED {
            let cycles = self.stats.cycles;
            self.tracer.on_restore(cycles);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{VmError, VmExit};
    use sva_ir::parse::parse_module;

    const PROG: &str = r#"
module "m"
func public @work(%n: i64) : i64 {
entry:
  br loop
loop:
  %i:i64 = phi i64 [entry: 0:i64, body: %i2]
  %acc:i64 = phi i64 [entry: %n, body: %acc2]
  %done:i1 = icmp uge %i, 40:i64
  condbr %done, out, body
body:
  %acc2:i64 = add %acc, 3:i64
  %i2:i64 = add %i, 1:i64
  br loop
out:
  ret %acc
}
"#;

    fn cfg() -> VmConfig {
        VmConfig {
            kind: KernelKind::SvaLlvm,
            ..Default::default()
        }
    }

    fn mk(c: VmConfig) -> Vm {
        Vm::new(parse_module(PROG).unwrap(), c).unwrap()
    }

    #[test]
    fn kernel_capture_matches_a_full_region_scan() {
        let mut vm = mk(cfg());
        vm.call("work", &[7]).unwrap();
        // A page written and then zeroed again stays marked; the zero test
        // still keeps it out of the image.
        let zeroed = crate::mem::KHEAP_BASE + 5 * PAGE_SIZE;
        vm.mem.write_uint(zeroed, 8, 5, Mode::Kernel).unwrap();
        vm.mem.write_uint(zeroed, 8, 0, Mode::Kernel).unwrap();
        vm.mem
            .write_uint(zeroed + PAGE_SIZE, 8, 6, Mode::Kernel)
            .unwrap();
        let kernel = vm.mem.kernel_bytes();
        let (mut touched, mut full) = (W::default(), W::default());
        touched.sparse(kernel, vm.mem.touched_kernel_pages());
        full.sparse(kernel, 0..kernel.len() / PAGE_SIZE as usize);
        assert_eq!(touched.buf, full.buf);
    }

    #[test]
    fn round_trip_mid_call_finishes_identically() {
        // Uninterrupted run.
        let mut base = mk(cfg());
        let exit = base.call("work", &[7]).unwrap();
        let base_stats = base.stats();

        // The same call interrupted mid-flight by a narrow fuel tank,
        // snapshotted at the boundary, restored into a *fresh* machine,
        // refuelled and run to completion.
        let mut vm = mk(VmConfig { fuel: 25, ..cfg() });
        assert!(matches!(vm.call("work", &[7]), Err(VmError::OutOfFuel)));
        let img = vm.snapshot();
        let mut fresh = mk(VmConfig { fuel: 25, ..cfg() });
        fresh.restore(&img).unwrap();
        assert_eq!(fresh.fuel(), 0);
        fresh.set_fuel(u64::MAX);
        let r = fresh.run().unwrap();
        assert_eq!(r, exit);
        assert_eq!(fresh.stats(), base_stats);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = mk(cfg()).snapshot();
        let b = mk(cfg()).snapshot();
        assert_eq!(a, b);
    }

    #[test]
    fn header_rejections() {
        let img = mk(cfg()).snapshot();

        let mut fresh = mk(cfg());
        // Bad magic.
        let mut bad = img.clone();
        bad[0] ^= 0x40;
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::BadMagic(_))
        ));
        // Future version.
        let mut bad = img.clone();
        bad[4] = bad[4].wrapping_add(1);
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::BadVersion { .. })
        ));
        // Flipped payload bit.
        let mut bad = img.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::Corrupt { .. })
        ));
        // Truncated body.
        assert!(matches!(
            fresh.restore(&img[..img.len() - 9]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            fresh.restore(&img[..16]),
            Err(SnapshotError::Truncated { .. })
        ));
        // The machine still runs after every rejected restore.
        assert_eq!(fresh.call("work", &[0]).unwrap(), VmExit::Returned(120));
    }

    #[test]
    fn config_mismatch_names_the_field() {
        let img = mk(cfg()).snapshot();
        let mut other = mk(VmConfig {
            violation_budget: 7,
            ..cfg()
        });
        match other.restore(&img) {
            Err(SnapshotError::ConfigMismatch { field, .. }) => {
                assert_eq!(field, "violation_budget")
            }
            r => panic!("expected ConfigMismatch, got {r:?}"),
        }
        let mut other = mk(VmConfig {
            opt_level: 2,
            ..cfg()
        });
        assert!(matches!(
            other.restore(&img),
            Err(SnapshotError::ConfigMismatch {
                field: "opt_level",
                ..
            })
        ));
    }

    #[test]
    fn code_mismatch_rejected() {
        let img = mk(cfg()).snapshot();
        let other_src = PROG.replace("add %acc, 3:i64", "add %acc, 4:i64");
        let mut other = Vm::new(parse_module(&other_src).unwrap(), cfg()).unwrap();
        assert!(matches!(
            other.restore(&img),
            Err(SnapshotError::CodeMismatch { .. })
        ));
    }

    #[test]
    fn pool_record_with_fast_path_off_is_refused() {
        let mut pool = sva_rt::MetaPool::new("MP0", false, true, None);
        pool.reg_obj(0x1000, 64).unwrap();
        let img = pool.export_image();
        let mut w = W::default();
        write_pool_image(&mut w, &img);
        assert_eq!(read_pool_image(&mut R::new(&w.buf)).unwrap(), img);
        // The fast_path byte follows the name, one range and the stats.
        let at = 8 + img.name.len() + 8 + 16 + CheckStats::WORDS * 8;
        assert_eq!(w.buf[at], 1);
        w.buf[at] = 0;
        assert_eq!(
            read_pool_image(&mut R::new(&w.buf)),
            Err(SnapshotError::ConfigMismatch {
                field: "fast_path",
                image: 0,
                machine: 1,
            })
        );
    }

    #[test]
    fn pool_record_range_count_is_bounded_before_allocating() {
        let filler = [0u8; 100];
        let record = |count: u64| {
            let mut w = W::default();
            w.str("MP0");
            w.u64(count);
            w.buf.extend_from_slice(&filler);
            w.buf
        };
        // One range more than the remaining bytes can hold at 16 bytes
        // each is rejected by the count check itself, not by a truncated
        // read after the allocation.
        let over = record(filler.len() as u64 / 16 + 1);
        match read_pool_image(&mut R::new(&over)) {
            Err(SnapshotError::Malformed(m)) => assert!(m.contains("pool ranges"), "{m}"),
            r => panic!("expected Malformed, got {r:?}"),
        }
        // The largest count that fits passes the check.
        let fits = record(filler.len() as u64 / 16);
        let mut r = R::new(&fits);
        r.str().unwrap();
        assert_eq!(r.len("pool ranges", 16).unwrap(), filler.len() / 16);
    }

    #[test]
    fn migration_bounds_counts_like_restore() {
        // A previous-format image goes through the same parser as a
        // current one: an address-space count one more than the remaining
        // bytes can hold is refused by the count check itself.
        let v3 = crate::migrate::reencode_at(&mk(cfg()).snapshot(), 3).unwrap();
        let mut r = R {
            b: &v3[HEADER_LEN..],
            pos: FP_BYTES,
        };
        r.sparse().unwrap();
        let at = HEADER_LEN + r.pos;
        let remaining = v3.len() - at - 8;
        let mut img = v3.clone();
        let count = (remaining / SPACE_MIN + 1) as u64;
        img[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let checksum = fnv64(&img[HEADER_LEN..]);
        img[32..40].copy_from_slice(&checksum.to_le_bytes());
        match mk(cfg()).restore_migrated(&img) {
            Err(crate::migrate::MigrateError::Image(SnapshotError::Malformed(m))) => {
                assert!(m.contains("address spaces count"), "{m}")
            }
            r => panic!("expected Malformed, got {r:?}"),
        }
    }
}
