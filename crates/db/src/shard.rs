//! Journal sharding: splitting one problem's history across shard files
//! with a manifest for cross-shard query and merge.
//!
//! A long-lived archive accumulates every evaluation of a problem in one
//! JSONL journal; at serving scale that file becomes both large and hot
//! (the serve backend re-reads it on warm starts while tuner runs append
//! to it). Sharding freezes the accumulated history into immutable
//! archive shards — compressed binary v2 files ([`crate::journal_v2`]) —
//! and leaves the live JSONL journal as a small write head:
//!
//! ```text
//! <root>/
//!   <problem>-<sig>.jsonl              live write head (v1, appendable)
//!   <problem>-<sig>.manifest.json      shard manifest
//!   <problem>-<sig>.shard000.gdb2      immutable archive shard (v2)
//!   <problem>-<sig>.shard001.gdb2
//! ```
//!
//! Two split policies: **by task** (one shard per distinct task value —
//! the task-range layout, so a warm start for one task touches one shard)
//! and **window** (append-order windows of fixed entry count — the
//! time-window layout for chronological archival). Run summaries always
//! land in the first shard of a by-task split.
//!
//! Readers go through [`load_all`], which folds manifest shards and the
//! live journal into one deduplicated view — so every crash window of
//! [`split`] (shards written but no manifest; manifest written but the
//! live journal not yet truncated) degrades to duplicates that
//! deduplication removes, never to data loss. Shards in the manifest may
//! be v1 (JSONL) or v2; `db_tool migrate-v2` upgrades v1 shards in place.
//!
//! `load_all` is the all-kinds case of the masked scan `scan_all`:
//! `Db::failures`, `Db::query` and `Db::run_summaries` pass their one
//! record kind, so v2 shards decode only those records.

use crate::db::sanitize;
use crate::fsio;
use crate::journal::{self, RecoveryReport};
use crate::journal_v2;
use crate::json::{self, Json};
use crate::lock::{FileLock, LockOptions};
use crate::record::{dedup, DbEntry, DedupKey, Kinds};
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

/// How [`split`] partitions entries into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One shard per distinct task value (task-range sharding). Run
    /// summaries go to the first shard.
    ByTask,
    /// Append-order windows of at most `n` entries (time-window
    /// sharding).
    Window(usize),
}

impl ShardPolicy {
    fn as_str(&self) -> &'static str {
        match self {
            ShardPolicy::ByTask => "by-task",
            ShardPolicy::Window(_) => "window",
        }
    }
}

/// Storage format of one shard file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFormat {
    /// JSONL (journal format v1) — the migration path.
    Jsonl,
    /// Compressed binary journal format v2.
    V2,
}

impl ShardFormat {
    fn as_str(&self) -> &'static str {
        match self {
            ShardFormat::Jsonl => "jsonl",
            ShardFormat::V2 => "v2",
        }
    }

    fn parse(s: &str) -> Option<ShardFormat> {
        match s {
            "jsonl" => Some(ShardFormat::Jsonl),
            "v2" => Some(ShardFormat::V2),
            _ => None,
        }
    }
}

/// One shard listed in a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// File name relative to the archive root.
    pub file: String,
    /// Storage format.
    pub format: ShardFormat,
    /// Entry count at write time (informational; readers re-count).
    pub n_entries: usize,
    /// Human-readable partition label (`task:<key>` or `window:<k>`).
    pub label: String,
}

/// The shard manifest of one problem signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Problem name.
    pub problem: String,
    /// Problem signature.
    pub sig: u64,
    /// Policy used by the most recent split.
    pub policy: String,
    /// Shards in partition order.
    pub shards: Vec<ShardInfo>,
}

/// Manifest path for a problem signature.
pub fn manifest_path(root: &Path, problem: &str, sig: u64) -> PathBuf {
    root.join(format!("{}-{sig:016x}.manifest.json", sanitize(problem)))
}

/// Path of shard `idx` for a problem signature.
pub fn shard_path(root: &Path, problem: &str, sig: u64, idx: usize) -> PathBuf {
    root.join(shard_file(problem, sig, idx))
}

fn shard_file(problem: &str, sig: u64, idx: usize) -> String {
    format!("{}-{sig:016x}.shard{idx:03}.gdb2", sanitize(problem))
}

/// Path of the live JSONL write head for a problem signature. Public so
/// archive writers outside this crate (the serve session store) append
/// to the same file `load_all` folds in.
pub fn live_journal_path(root: &Path, problem: &str, sig: u64) -> PathBuf {
    root.join(format!("{}-{sig:016x}.jsonl", sanitize(problem)))
}

impl ShardManifest {
    /// Loads the manifest for `(problem, sig)`; `Ok(None)` when the
    /// problem is unsharded.
    pub fn load(root: &Path, problem: &str, sig: u64) -> io::Result<Option<ShardManifest>> {
        let path = manifest_path(root, problem, sig);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let bad = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard manifest {}: {msg}", path.display()),
            )
        };
        let j = json::parse(&text).map_err(|e| bad(&e.to_string()))?;
        let problem = j
            .get("problem")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing problem"))?
            .to_string();
        let sig = j
            .get("sig")
            .and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("missing sig"))?;
        let policy = j
            .get("policy")
            .and_then(Json::as_str)
            .unwrap_or("window")
            .to_string();
        let mut shards = Vec::new();
        for s in j.get("shards").and_then(Json::as_arr).unwrap_or(&[]) {
            let file = s
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("shard missing file"))?
                .to_string();
            let format = s
                .get("format")
                .and_then(Json::as_str)
                .and_then(ShardFormat::parse)
                .ok_or_else(|| bad("shard missing format"))?;
            let n_entries = s
                .get("n_entries")
                .and_then(Json::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(0);
            let label = s
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            shards.push(ShardInfo {
                file,
                format,
                n_entries,
                label,
            });
        }
        Ok(Some(ShardManifest {
            problem,
            sig,
            policy,
            shards,
        }))
    }

    /// Writes the manifest atomically.
    pub fn save(&self, root: &Path) -> io::Result<()> {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("file".into(), Json::Str(s.file.clone())),
                    ("format".into(), Json::Str(s.format.as_str().into())),
                    ("n_entries".into(), Json::Int(s.n_entries as i64)),
                    ("label".into(), Json::Str(s.label.clone())),
                ])
            })
            .collect();
        let j = Json::Obj(vec![
            ("v".into(), Json::Int(1)),
            ("kind".into(), Json::Str("shard-manifest".into())),
            ("problem".into(), Json::Str(self.problem.clone())),
            ("sig".into(), Json::Str(format!("{:016x}", self.sig))),
            ("policy".into(), Json::Str(self.policy.clone())),
            ("shards".into(), Json::Arr(shards)),
        ]);
        let mut text = j.to_string();
        text.push('\n');
        fsio::atomic_write(
            &manifest_path(root, &self.problem, self.sig),
            text.as_bytes(),
        )
    }
}

/// Loads one shard file according to its manifest format. Per-record
/// drop errors come back stamped with the shard's file name.
pub fn load_shard(root: &Path, info: &ShardInfo) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    scan_shard(root, info, Kinds::ALL)
}

/// [`load_shard`] narrowed to `kinds`: a v2 shard steps over other kinds'
/// records undecoded ([`journal_v2::scan`]); a JSONL shard is parsed in
/// full, since a line's kind is known only once it is parsed, and then
/// filtered.
fn scan_shard(
    root: &Path,
    info: &ShardInfo,
    kinds: Kinds,
) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    let path = root.join(&info.file);
    let (entries, mut report) = match info.format {
        ShardFormat::Jsonl => load_jsonl(&path, kinds)?,
        ShardFormat::V2 => journal_v2::scan(&path, kinds)?,
    };
    stamp_file(&mut report, &info.file);
    Ok((entries, report))
}

/// A JSONL journal's entries of `kinds`.
fn load_jsonl(path: &Path, kinds: Kinds) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    let (mut entries, report) = journal::load(path)?;
    entries.retain(|e| kinds.admits(e));
    Ok((entries, report))
}

/// Fills in the source-file name on errors the format readers left blank.
fn stamp_file(report: &mut RecoveryReport, file: &str) {
    for err in &mut report.errors {
        if err.file.is_empty() {
            err.file = file.to_string();
        }
    }
}

/// The complete deduplicated history of `(problem, sig)`: manifest
/// shards (in manifest order) followed by the live journal, with exact
/// duplicates (same [`DbEntry::dedup_key`]) dropped. The recovery
/// report aggregates all files read. This is the all-kinds case of
/// `scan_all`.
pub fn load_all(
    root: &Path,
    problem: &str,
    sig: u64,
) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    scan_all(root, problem, sig, Kinds::ALL)
}

/// [`load_all`] narrowed to `kinds`, filtered before deduplication. Dedup
/// keys of different kinds never collide, so the entries equal
/// `load_all`'s filtered to `kinds`, in the same order. The report covers
/// only what was decoded: v2 records of other kinds are not counted.
pub(crate) fn scan_all(
    root: &Path,
    problem: &str,
    sig: u64,
    kinds: Kinds,
) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    let mut entries = Vec::new();
    let mut report = RecoveryReport::default();
    if let Some(manifest) = ShardManifest::load(root, problem, sig)? {
        for info in &manifest.shards {
            let (es, r) = scan_shard(root, info, kinds)?;
            absorb(&mut report, &r);
            entries.extend(es);
        }
    }
    let live_path = live_journal_path(root, problem, sig);
    let (live, mut r) = load_jsonl(&live_path, kinds)?;
    stamp_file(
        &mut r,
        &live_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
    );
    absorb(&mut report, &r);
    entries.extend(live);
    dedup(&mut entries);
    report.n_loaded = entries.len();
    Ok((entries, report))
}

fn absorb(into: &mut RecoveryReport, from: &RecoveryReport) {
    into.n_loaded += from.n_loaded;
    into.n_unknown_kind += from.n_unknown_kind;
    into.n_corrupt_interior += from.n_corrupt_interior;
    into.dropped_torn_tail |= from.dropped_torn_tail;
    into.errors.extend(from.errors.iter().cloned());
}

/// Splits the accumulated history of `(problem, sig)` into v2 archive
/// shards under `policy`, writes the manifest, and truncates the live
/// journal. Pre-existing shards are folded in (re-sharding is
/// idempotent). Returns the new manifest.
///
/// Crash safety: shards are written first, then the manifest (atomic),
/// then the live journal is emptied — every intermediate state re-loads
/// to the same deduplicated history via [`load_all`].
pub fn split(
    root: &Path,
    problem: &str,
    sig: u64,
    policy: ShardPolicy,
    lock: &LockOptions,
) -> io::Result<ShardManifest> {
    let live_path = live_journal_path(root, problem, sig);
    let _guard = FileLock::acquire(&live_path, lock)?;
    let (entries, _) = load_all(root, problem, sig)?;

    // Partition into (label, entries) groups, preserving append order
    // inside each group.
    let mut groups: Vec<(String, Vec<DbEntry>)> = Vec::new();
    match policy {
        ShardPolicy::ByTask => {
            for e in entries {
                let label = match &e {
                    DbEntry::Eval(r) => format!("task:{}", task_key(&r.task)),
                    DbEntry::Fail(r) => format!("task:{}", task_key(&r.task)),
                    // Run summaries are not task-scoped; a by-task split
                    // parks them in the first group so they stay reachable
                    // from the manifest.
                    DbEntry::Run(_) => "runs".to_string(),
                };
                match groups.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, g)) => g.push(e),
                    None => groups.push((label, vec![e])),
                }
            }
        }
        ShardPolicy::Window(n) => {
            let n = n.max(1);
            for e in entries {
                let needs_new = groups.last().is_none_or(|(_, g)| g.len() >= n);
                if needs_new {
                    groups.push((format!("window:{}", groups.len()), Vec::new()));
                }
                if let Some((_, g)) = groups.last_mut() {
                    g.push(e);
                }
            }
        }
    }

    let mut shards = Vec::new();
    for (idx, (label, group)) in groups.iter().enumerate() {
        let file = shard_file(problem, sig, idx);
        journal_v2::write(&root.join(&file), problem, sig, group)?;
        shards.push(ShardInfo {
            file,
            format: ShardFormat::V2,
            n_entries: group.len(),
            label: label.clone(),
        });
    }
    // Remove stale shard files beyond the new count (a re-split can
    // shrink the shard set).
    for idx in groups.len().. {
        let stale = shard_path(root, problem, sig, idx);
        match std::fs::remove_file(&stale) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => break,
            Err(e) => return Err(e),
        }
    }
    let manifest = ShardManifest {
        problem: problem.to_string(),
        sig,
        policy: policy.as_str().to_string(),
        shards,
    };
    manifest.save(root)?;
    // Truncate the write head: its entries now live in shards.
    fsio::atomic_write(&live_path, b"")?;
    Ok(manifest)
}

/// Drops live-journal entries that already exist in archive shards (and
/// interior duplicates), rewriting the live journal atomically. Returns
/// `(kept, dropped)`.
pub fn compact_live(
    root: &Path,
    problem: &str,
    sig: u64,
    lock: &LockOptions,
) -> io::Result<(usize, usize)> {
    let live_path = live_journal_path(root, problem, sig);
    let _guard = FileLock::acquire(&live_path, lock)?;
    let mut archived = Vec::new();
    if let Some(manifest) = ShardManifest::load(root, problem, sig)? {
        for info in &manifest.shards {
            archived.extend(load_shard(root, info)?.0);
        }
    }
    let (live, _) = journal::load(&live_path)?;
    let n_before = live.len();
    let mut seen: HashSet<DedupKey> = archived.iter().map(DedupKey).collect();
    let kept: Vec<&DbEntry> = live.iter().filter(|e| seen.insert(DedupKey(e))).collect();
    let mut text = String::new();
    for e in &kept {
        text.push_str(&e.to_line());
        text.push('\n');
    }
    fsio::atomic_write(&live_path, text.as_bytes())?;
    Ok((kept.len(), n_before - kept.len()))
}

/// Canonical task label used for by-task shard names.
fn task_key(task: &[crate::record::DbValue]) -> String {
    use crate::record::DbValue;
    task.iter()
        .map(|v| match v {
            DbValue::Real(x) => format!("r{x}"),
            DbValue::Int(i) => format!("i{i}"),
            DbValue::Cat(c) => format!("c{c}"),
        })
        .collect::<Vec<_>>()
        .join("_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DbRecord, DbValue, Provenance};

    fn tmp_root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gptune_db_shard_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(task: i64, cfg: i64, y: f64) -> DbEntry {
        DbEntry::Eval(DbRecord {
            problem: "toy".into(),
            sig: 0xfeed,
            task: vec![DbValue::Int(task)],
            config: vec![DbValue::Int(cfg)],
            outputs: vec![y],
            prov: Provenance {
                seed: 1,
                run: "r".into(),
                machine: None,
            },
        })
    }

    fn seed_journal(root: &Path, entries: &[DbEntry]) {
        journal::append(
            &live_journal_path(root, "toy", 0xfeed),
            entries,
            &LockOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn split_by_task_and_reload() {
        let root = tmp_root("bytask");
        let entries: Vec<DbEntry> = (0..12).map(|i| rec(i % 3, i, i as f64)).collect();
        seed_journal(&root, &entries);
        let m = split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::ByTask,
            &LockOptions::default(),
        )
        .unwrap();
        assert_eq!(m.shards.len(), 3);
        assert!(m.shards.iter().all(|s| s.format == ShardFormat::V2));
        assert_eq!(m.shards.iter().map(|s| s.n_entries).sum::<usize>(), 12);
        // Live journal is now an empty write head.
        let (live, _) = journal::load(&live_journal_path(&root, "toy", 0xfeed)).unwrap();
        assert!(live.is_empty());
        // Cross-shard load returns the full deduplicated history.
        let (all, report) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 12);
        assert!(report.is_clean());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn split_window_bounds_shard_size() {
        let root = tmp_root("window");
        let entries: Vec<DbEntry> = (0..10).map(|i| rec(0, i, i as f64)).collect();
        seed_journal(&root, &entries);
        let m = split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::Window(4),
            &LockOptions::default(),
        )
        .unwrap();
        assert_eq!(
            m.shards.iter().map(|s| s.n_entries).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        let (all, _) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 10);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn appends_after_split_are_visible_and_resplit_folds_them() {
        let root = tmp_root("resplit");
        seed_journal(
            &root,
            &(0..6).map(|i| rec(i % 2, i, i as f64)).collect::<Vec<_>>(),
        );
        split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::ByTask,
            &LockOptions::default(),
        )
        .unwrap();
        // New evaluations land in the live journal...
        seed_journal(&root, &[rec(0, 100, 1.0), rec(2, 101, 2.0)]);
        let (all, _) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 8);
        // ...and a re-split folds them into shards (new task ⇒ new shard).
        let m = split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::ByTask,
            &LockOptions::default(),
        )
        .unwrap();
        assert_eq!(m.shards.len(), 3);
        let (all, _) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 8);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resplit_removes_stale_shards() {
        let root = tmp_root("stale");
        seed_journal(
            &root,
            &(0..9).map(|i| rec(0, i, i as f64)).collect::<Vec<_>>(),
        );
        let m = split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::Window(2),
            &LockOptions::default(),
        )
        .unwrap();
        assert_eq!(m.shards.len(), 5);
        let m = split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::Window(100),
            &LockOptions::default(),
        )
        .unwrap();
        assert_eq!(m.shards.len(), 1);
        assert!(!shard_path(&root, "toy", 0xfeed, 1).exists());
        let (all, _) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 9);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_between_shard_and_live_is_deduplicated() {
        let root = tmp_root("dup");
        let e = rec(0, 7, 7.0);
        seed_journal(&root, &[e.clone(), rec(0, 8, 8.0)]);
        split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::ByTask,
            &LockOptions::default(),
        )
        .unwrap();
        // Simulate the crash window where the live journal was not yet
        // truncated / a replayed report: the same entry appends again.
        seed_journal(&root, &[e]);
        let (all, _) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 2);
        // compact_live drops the duplicate from the write head.
        let (kept, dropped) = compact_live(&root, "toy", 0xfeed, &LockOptions::default()).unwrap();
        assert_eq!((kept, dropped), (0, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_shard_record_is_reported_with_file_context() {
        let root = tmp_root("crcctx");
        seed_journal(
            &root,
            &(0..4).map(|i| rec(0, i, i as f64)).collect::<Vec<_>>(),
        );
        let m = split(
            &root,
            "toy",
            0xfeed,
            ShardPolicy::Window(100),
            &LockOptions::default(),
        )
        .unwrap();
        // Flip a payload byte deep inside the single v2 shard.
        let shard = root.join(&m.shards[0].file);
        let mut bytes = std::fs::read(&shard).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0x10;
        std::fs::write(&shard, &bytes).unwrap();
        let (all, report) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 3, "one record dropped");
        assert_eq!(report.n_corrupt_interior, 1);
        assert_eq!(report.errors.len(), 1);
        let err = &report.errors[0];
        assert_eq!(err.file, m.shards[0].file, "shard name attached");
        assert!(err.offset > 0);
        assert!(matches!(
            err.kind,
            crate::journal::RecordErrorKind::CrcMismatch { .. }
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_roundtrip() {
        let root = tmp_root("manifest");
        let m = ShardManifest {
            problem: "toy".into(),
            sig: 0xfeed,
            policy: "by-task".into(),
            shards: vec![ShardInfo {
                file: "toy-000000000000feed.shard000.gdb2".into(),
                format: ShardFormat::V2,
                n_entries: 3,
                label: "task:i0".into(),
            }],
        };
        m.save(&root).unwrap();
        assert_eq!(ShardManifest::load(&root, "toy", 0xfeed).unwrap(), Some(m));
        assert_eq!(ShardManifest::load(&root, "other", 1).unwrap(), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unsharded_problem_loads_plain_journal() {
        let root = tmp_root("plain");
        seed_journal(&root, &[rec(0, 1, 1.0)]);
        let (all, report) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 1);
        assert!(report.is_clean());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn jsonl_shard_format_still_readable() {
        // A manifest may reference v1 shards (pre-migration archives).
        let root = tmp_root("v1shard");
        let entries = vec![rec(0, 1, 1.0), rec(0, 2, 2.0)];
        let file = "toy-000000000000feed.shard000.jsonl".to_string();
        journal::append(&root.join(&file), &entries, &LockOptions::default()).unwrap();
        ShardManifest {
            problem: "toy".into(),
            sig: 0xfeed,
            policy: "window".into(),
            shards: vec![ShardInfo {
                file,
                format: ShardFormat::Jsonl,
                n_entries: 2,
                label: "window:0".into(),
            }],
        }
        .save(&root)
        .unwrap();
        let (all, _) = load_all(&root, "toy", 0xfeed).unwrap();
        assert_eq!(all.len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
