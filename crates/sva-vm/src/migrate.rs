//! Live-upgrade image migration (DESIGN.md §4.10).
//!
//! [`Vm::restore`] is deliberately strict: exact format version, exact
//! code identity. That is the right default for a *state* capture — but
//! the fleet story needs state to survive the software changing
//! underneath it: last night's golden snapshot must restore into
//! tonight's build, and a crash bundle captured by v(N) must replay on
//! v(N+1). This module is the deliberate, fail-closed bridge:
//!
//! * **A two-version window.** This build reads the snapshot format it
//!   writes (v4) and the one the previous build wrote (v3); bundles are
//!   read in the current format only. The single registered upcaster
//!   adds the capture origin and code manifest; [`reencode_at`] drops
//!   them again for the differential campaign's v3 twins. A step that
//!   cannot carry a field forward fails closed with
//!   [`MigrateError::Incompatible`] naming that field — it never invents
//!   data. Anything older is refused with
//!   [`MigrateError::UnsupportedVersion`].
//!
//! * **The `code_id` policy split.** A v4 image carries a
//!   [`crate::snapshot::CodeManifest`]: the module's surface fingerprint
//!   and per-function body hashes. A *rebuilt* kernel may adopt the
//!   image when its surface is identical (or a pure extension — new
//!   functions appended, nothing moved) **and** every function with a
//!   live frame in the image has a byte-identical body. Cold functions
//!   may differ — that is the live-patch case. Anything else (reordered
//!   functions, changed globals, a live function edited mid-flight)
//!   rejects with the first incompatible field named.
//!
//! * **Bundle migration.** An `SVAB` crash bundle is decoded by the
//!   strict [`CrashBundle::from_bytes`] and its embedded snapshot is
//!   migrated, so `svadbg --replay` works on bundles whose snapshot was
//!   written by the previous build.
//!
//! This module holds policy only; it reads no image bytes itself.
//! Every entry point goes through `snapshot.rs`'s one header check and
//! one payload parser — the same code [`Vm::restore`] runs — with the
//! version window opened to v3 (the mutation proptests in
//! `tests/fuzz.rs` drive bit-flipped and truncated images through it).
//! v3 and v4 share every payload byte from the fingerprint through
//! `cpu_id`; the parser hands that span back, and [`migrate`] and
//! [`reencode_at`] re-frame it verbatim. [`Vm::restore_migrated`]
//! commits the parsed image directly, so it parses each image once.

use std::collections::BTreeSet;

use sva_trace::Tracer;

use crate::bundle::{BundleError, CrashBundle, BUNDLE_MAGIC, BUNDLE_VERSION};
use crate::snapshot::{
    fingerprint_words, frame_image, read_header, surface_fp_of, write_manifest, CodeManifest,
    Header, Parsed, SnapshotError, FP_FIELDS, FP_FUSED_SITES, ORIGIN_CHECKPOINT, SNAPSHOT_VERSION,
    W,
};
use crate::vm::Vm;

/// The oldest snapshot format [`migrate`] can still read: the one the
/// previous build wrote. The next format bump retires it.
pub const OLDEST_SUPPORTED: u32 = 3;

/// Why an image could not be migrated. Migration never partially
/// applies and never invents state: any step that cannot carry a field
/// forward names it and stops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrateError {
    /// The image failed structural decoding (truncation, bad magic,
    /// checksum mismatch, malformed section).
    Image(SnapshotError),
    /// A crash bundle failed structural decoding.
    Bundle(BundleError),
    /// The image's format version is outside `[OLDEST_SUPPORTED,
    /// SNAPSHOT_VERSION]`, or a bundle's is not `BUNDLE_VERSION` —
    /// including artifacts from a *newer* build, which this build cannot
    /// interpret.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build writes.
        newest: u32,
    },
    /// One migration step cannot carry a field forward (or backward).
    Incompatible {
        /// Step source version.
        from: u32,
        /// Step target version.
        to: u32,
        /// The first field that cannot be carried.
        field: &'static str,
        /// Human-readable specifics (pool / function names, values).
        detail: String,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Image(e) => write!(f, "image rejected: {e}"),
            MigrateError::Bundle(e) => write!(f, "bundle rejected: {e}"),
            MigrateError::UnsupportedVersion { found, newest } => {
                write!(
                    f,
                    "format version {found} unsupported (this build migrates up to v{newest})"
                )
            }
            MigrateError::Incompatible {
                from,
                to,
                field,
                detail,
            } => write!(f, "cannot migrate v{from}→v{to}: field `{field}`: {detail}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<SnapshotError> for MigrateError {
    fn from(e: SnapshotError) -> MigrateError {
        MigrateError::Image(e)
    }
}

impl From<BundleError> for MigrateError {
    fn from(e: BundleError) -> MigrateError {
        match e {
            BundleError::BadVersion { found, expected } => MigrateError::UnsupportedVersion {
                found,
                newest: expected,
            },
            other => MigrateError::Bundle(other),
        }
    }
}

// ---------------------------------------------------------------------------
// Upcaster registry.
// ---------------------------------------------------------------------------

/// One registered upcaster: the version edge it rewrites and what it
/// does, for plan printing (`svadbg --migrate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upcaster {
    /// Source format version.
    pub from: u32,
    /// Target format version.
    pub to: u32,
    /// Short name (`"v3→v4"`).
    pub name: &'static str,
    /// What the step rewrites.
    pub summary: &'static str,
}

/// The registry, in chain order. `migrate` applies the suffix starting
/// at the image's version.
pub const UPCASTERS: [Upcaster; 1] = [Upcaster {
    from: 3,
    to: 4,
    name: "v3→v4",
    summary: "capture origin (checkpoint) and the code manifest; a v3 image \
              carries no manifest, so this step requires the restoring \
              build to run the exact code the image was taken under",
}];

/// What a given artifact would take to reach the current formats, from
/// the header alone (no target machine needed). `svadbg --migrate`
/// prints this.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// `"snapshot"` or `"bundle"`.
    pub kind: &'static str,
    /// Format version in the header.
    pub version: u32,
    /// Version this build writes.
    pub target: u32,
    /// Code identity recorded in the artifact (snapshot header, bundle
    /// payload).
    pub code_id: u64,
    /// Upcaster chain the snapshot (or embedded snapshot) would take.
    pub steps: Vec<Upcaster>,
}

/// What [`migrate`] actually did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Format version the image arrived at.
    pub from_version: u32,
    /// Names of the upcaster steps applied (empty when already current).
    pub steps: Vec<&'static str>,
    /// Whether the image was adopted across a `code_id` change
    /// (compatible-rebuild path).
    pub code_migrated: bool,
}

// ---------------------------------------------------------------------------
// Reading and re-framing, both through `snapshot.rs`.
// ---------------------------------------------------------------------------

/// [`read_header`] over the migration window: a version outside it is
/// [`MigrateError::UnsupportedVersion`].
fn read_window(image: &[u8]) -> Result<Header<'_>, MigrateError> {
    read_header(image, OLDEST_SUPPORTED).map_err(|e| match e {
        SnapshotError::BadVersion { found, expected } => MigrateError::UnsupportedVersion {
            found,
            newest: expected,
        },
        e => MigrateError::Image(e),
    })
}

/// Function indices with at least one live frame anywhere in the image
/// (thread, interrupt contexts, saved states, recovery stack).
fn live_funcs(p: &Parsed<'_>) -> BTreeSet<u32> {
    p.thread
        .frames
        .iter()
        .chain(p.icontexts.iter().flat_map(|ic| &ic.frames))
        .chain(p.int_state.values().flat_map(|s| &s.frames))
        .chain(p.user_state.values().flat_map(|ic| &ic.frames))
        .chain(p.recovery.iter().flat_map(|rc| &rc.frames))
        .map(|f| f.func)
        .collect()
}

/// Re-frames a parsed image at its (possibly stepped) version: the
/// fingerprint block, the verbatim v3/v4 body and, at v4, the origin and
/// manifest.
fn encode(h: &Header<'_>, p: &Parsed<'_>) -> Vec<u8> {
    let mut w = W::default();
    for &word in &h.fp {
        w.u64(word);
    }
    w.buf.extend_from_slice(p.body);
    if h.version >= 4 {
        w.u8(p.origin.unwrap_or(ORIGIN_CHECKPOINT));
        write_manifest(
            &mut w,
            p.manifest.as_ref().expect("v4 image has a manifest"),
        );
    }
    frame_image(h.version, &h.fp, h.code_id, &w.buf)
}

// ---------------------------------------------------------------------------
// Upcast steps over the in-memory image.
// ---------------------------------------------------------------------------

/// What `migrate` needs to know about the restoring build.
struct TargetInfo {
    code_id: u64,
    manifest: CodeManifest,
    fp: [u64; FP_FIELDS.len()],
}

fn upcast(
    h: &mut Header<'_>,
    p: &mut Parsed<'_>,
    step: &Upcaster,
    t: &TargetInfo,
) -> Result<(), MigrateError> {
    match (step.from, step.to) {
        (3, 4) => {
            // A v3 image has no manifest of its own code; the only sound
            // source is the restoring build — and only when it runs the
            // exact code the image was taken under. Cross-build adoption
            // of v3 images is therefore impossible by design.
            if h.code_id != t.code_id {
                return Err(MigrateError::Incompatible {
                    from: 3,
                    to: 4,
                    field: "code_id",
                    detail: format!(
                        "a v3 image carries no code manifest, so it can only cross \
                         format versions onto the same build (image {:#x}, target {:#x})",
                        h.code_id, t.code_id
                    ),
                });
            }
            p.origin = Some(ORIGIN_CHECKPOINT);
            p.manifest = Some(t.manifest.clone());
        }
        _ => unreachable!("unregistered upcast {}→{}", step.from, step.to),
    }
    h.version = step.to;
    Ok(())
}

/// Adopts the image onto a *different* build: sound only when the
/// rebuild kept the module surface (exactly, or extended it purely by
/// appending functions — indices, global addresses and dispatch tables
/// stay meaningful) and every function with a live frame kept its body.
fn adopt_code(h: &mut Header<'_>, p: &mut Parsed<'_>, t: &TargetInfo) -> Result<(), MigrateError> {
    let v = SNAPSHOT_VERSION;
    let m = p.manifest.as_ref().expect("v4 image has a manifest");
    if m.surface_fp != t.manifest.surface_fp {
        // Not the same surface: a pure append is still adoptable.
        if m.globals_fp != t.manifest.globals_fp {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "module_header",
                detail: format!(
                    "globals / struct layouts / allocators differ across builds \
                     (image {:#x}, target {:#x}); global addresses baked into the \
                     memory image would be wrong",
                    m.globals_fp, t.manifest.globals_fp
                ),
            });
        }
        if m.funcs.len() > t.manifest.funcs.len() {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "function_count",
                detail: format!(
                    "image build has {} functions, target only {} — functions were \
                     removed, which would dangle dispatch entries",
                    m.funcs.len(),
                    t.manifest.funcs.len()
                ),
            });
        }
        if let Some((i, (a, b))) = m
            .funcs
            .iter()
            .zip(&t.manifest.funcs)
            .enumerate()
            .find(|(_, (a, b))| a.name != b.name || a.sig_fp != b.sig_fp)
        {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "function_surface",
                detail: format!(
                    "function #{i} is `@{}` in the image build but `@{}` (or a \
                     different signature) in the target — indices baked into frames \
                     and dispatch tables would be remapped unsoundly",
                    a.name, b.name
                ),
            });
        }
        // Prefix holds: recompute what the image's surface would hash to
        // under the target's header, as a final consistency check.
        debug_assert_eq!(
            surface_fp_of(m.globals_fp, &m.funcs),
            m.surface_fp,
            "manifest surface_fp is self-consistent"
        );
    }
    // Live frames pin function bodies: a frame's pc/block indices only
    // mean anything in the body they were captured in.
    for idx in live_funcs(p) {
        let old = m
            .funcs
            .get(idx as usize)
            .ok_or_else(|| MigrateError::Incompatible {
                from: v,
                to: v,
                field: "live_function",
                detail: format!(
                    "a frame references function #{idx}, outside the image's {}-entry manifest",
                    m.funcs.len()
                ),
            })?;
        let new = &t.manifest.funcs[idx as usize];
        if old.body_hash != new.body_hash {
            return Err(MigrateError::Incompatible {
                from: v,
                to: v,
                field: "live_function",
                detail: format!(
                    "`@{}` has a live frame in the image but its body changed across \
                     builds; only cold functions may be patched",
                    old.name
                ),
            });
        }
    }
    h.code_id = t.code_id;
    p.manifest = Some(t.manifest.clone());
    // `fused_sites` is code-derived, not config: adopt the target's.
    h.fp[FP_FUSED_SITES] = t.fp[FP_FUSED_SITES];
    Ok(())
}

/// The whole migration policy over a parsed image: the upcaster chain
/// from the image's version, then — when the image was taken under a
/// different build — the compatible-rebuild adoption.
fn carry(
    h: &mut Header<'_>,
    p: &mut Parsed<'_>,
    t: &TargetInfo,
) -> Result<MigrationReport, MigrateError> {
    let mut report = MigrationReport {
        from_version: h.version,
        ..Default::default()
    };
    for step in UPCASTERS.iter().filter(|s| s.from >= report.from_version) {
        upcast(h, p, step, t)?;
        report.steps.push(step.name);
    }
    if h.code_id != t.code_id {
        adopt_code(h, p, t)?;
        report.code_migrated = true;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

impl<T: Tracer> Vm<T> {
    fn target_info(&self) -> TargetInfo {
        TargetInfo {
            code_id: self.code_identity(),
            manifest: self.code.manifest().clone(),
            fp: fingerprint_words(&self.cfg, self.fused_sites()),
        }
    }

    /// Restores an image of *any* supported version, migrating it to the
    /// current format (and across a compatible rebuild) first. The
    /// strictness split: [`Vm::restore`] takes exactly what this build
    /// wrote; `restore_migrated` is the deliberate upgrade path. It runs
    /// restore's own steps — header, fingerprint, parse, commit — with
    /// the migration policy applied between parse and commit.
    pub fn restore_migrated(&mut self, image: &[u8]) -> Result<MigrationReport, MigrateError> {
        let mut h = read_window(image)?;
        let t = self.target_info();
        self.check_fingerprint(&h.fp, h.code_id != t.code_id)?;
        let mut p = h.parse()?;
        let report = carry(&mut h, &mut p, &t)?;
        self.commit(p)?;
        Ok(report)
    }
}

/// Rewrites `image` (v3 or v4) into the current format for the `target`
/// machine, chaining [`UPCASTERS`] and — when the image was taken under
/// a different build — the compatible-rebuild adoption policy. Returns the rewritten image and a report of the
/// steps taken. Idempotent: an image already at the current version
/// under the same code is returned byte-identically.
pub fn migrate<T: Tracer>(
    target: &Vm<T>,
    image: &[u8],
) -> Result<(Vec<u8>, MigrationReport), MigrateError> {
    let mut h = read_window(image)?;
    let mut p = h.parse()?;
    let report = carry(&mut h, &mut p, &target.target_info())?;
    if report.steps.is_empty() && !report.code_migrated {
        return Ok((image.to_vec(), report));
    }
    Ok((encode(&h, &p), report))
}

/// Re-encodes a snapshot at format version `to` — the compat tool
/// behind the composition proptests and the differential campaign's
/// previous-version twins. Downcasting v4 → v3 drops the capture origin
/// and code manifest; upcasting to v4 needs a target build, so it is
/// refused here naming the field ([`migrate`] does it).
pub fn reencode_at(image: &[u8], to: u32) -> Result<Vec<u8>, MigrateError> {
    if !(OLDEST_SUPPORTED..=SNAPSHOT_VERSION).contains(&to) {
        return Err(MigrateError::UnsupportedVersion {
            found: to,
            newest: SNAPSHOT_VERSION,
        });
    }
    let mut h = read_window(image)?;
    let mut p = h.parse()?;
    if to > h.version {
        return Err(MigrateError::Incompatible {
            from: h.version,
            to,
            field: "code_manifest",
            detail: "upcasting to the current version requires a target build; \
                     use `migrate`"
                .into(),
        });
    }
    if to < h.version {
        p.origin = None;
        p.manifest = None;
        h.version = to;
    }
    Ok(encode(&h, &p))
}

/// Header-level migration plan for a snapshot or bundle file — what
/// `svadbg --migrate` prints. Validates magic, version and checksum;
/// bundles are decoded in full to reach the embedded snapshot's header.
pub fn plan(bytes: &[u8]) -> Result<MigrationPlan, MigrateError> {
    let bundle = if bytes.starts_with(&BUNDLE_MAGIC) {
        Some(CrashBundle::from_bytes(bytes)?)
    } else {
        None
    };
    let snapshot = bundle.as_ref().map_or(bytes, |b| &b.snapshot[..]);
    let h = read_window(snapshot)?;
    let (kind, version, target) = match bundle {
        Some(_) => ("bundle", BUNDLE_VERSION, BUNDLE_VERSION),
        None => ("snapshot", h.version, SNAPSHOT_VERSION),
    };
    Ok(MigrationPlan {
        kind,
        version,
        target,
        code_id: h.code_id,
        steps: UPCASTERS
            .iter()
            .filter(|s| s.from >= h.version)
            .copied()
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// Bundle migration.
// ---------------------------------------------------------------------------

/// Rewrites an `SVAB` crash bundle for the `target` build, migrating
/// the embedded snapshot (so `svadbg --replay` works on bundles whose
/// snapshot the previous build wrote). The bundle itself is decoded by
/// the strict [`CrashBundle::from_bytes`]. Idempotent like [`migrate`].
pub fn migrate_bundle<T: Tracer>(
    target: &Vm<T>,
    bytes: &[u8],
) -> Result<(Vec<u8>, MigrationReport), MigrateError> {
    let mut bundle = CrashBundle::from_bytes(bytes)?;
    let (snap, report) = migrate(target, &bundle.snapshot)?;
    if report.steps.is_empty() && !report.code_migrated {
        return Ok((bytes.to_vec(), report));
    }
    bundle.snapshot = snap;
    if report.code_migrated {
        bundle.code_id = target.code_identity();
        // `fused_sites` is code-derived (same rewrite the snapshot took).
        bundle.config_words[FP_FUSED_SITES] =
            fingerprint_words(&target.cfg, target.fused_sites())[FP_FUSED_SITES];
    }
    Ok((bundle.to_bytes(), report))
}
