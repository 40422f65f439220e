//! Append-only JSONL journal with tolerant recovery.
//!
//! Writers hold the advisory lock, append whole lines, and fsync before
//! releasing — so a reader that takes the lock sees only complete records
//! from live writers. Crash tolerance comes from the read side: a process
//! killed mid-append can leave one torn final line, which [`load`] drops
//! instead of erroring. Corrupt *interior* lines (bit rot, partial manual
//! edits) are skipped and counted, never fatal — losing one record must
//! not orphan the thousands after it.

use crate::fsio;
use crate::lock::{FileLock, LockOptions};
use crate::record::{dedup, DbEntry, DedupKey};
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;

/// Why one record was dropped during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordErrorKind {
    /// A v1 JSONL line that did not parse.
    CorruptLine,
    /// A v2 binary record whose stored CRC32 does not match its payload.
    CrcMismatch {
        /// The checksum stored alongside the record.
        stored: u32,
        /// The checksum computed from the payload actually on disk.
        computed: u32,
    },
    /// An incomplete final record (killed writer), dropped by design.
    TornTail,
}

impl std::fmt::Display for RecordErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordErrorKind::CorruptLine => write!(f, "corrupt line"),
            RecordErrorKind::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            RecordErrorKind::TornTail => write!(f, "torn tail"),
        }
    }
}

/// One dropped record, with enough context to find it on disk: the file
/// it lives in (stamped by the shard reader; empty for direct
/// [`load`]/`journal_v2::load` calls), and its position — a 1-based line
/// number for v1 journals, a byte offset for v2 shards.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordError {
    /// Source file name (shard or live journal), when known.
    pub file: String,
    /// Line number (v1) or byte offset (v2) of the bad record.
    pub offset: u64,
    /// What was wrong with it.
    pub kind: RecordErrorKind,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.file.is_empty() {
            write!(f, "record at {}: {}", self.offset, self.kind)
        } else {
            write!(f, "{} at {}: {}", self.file, self.offset, self.kind)
        }
    }
}

/// What recovery had to tolerate while loading a journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Complete, parsed entries.
    pub n_loaded: usize,
    /// Valid lines of unknown kind (newer writer), skipped.
    pub n_unknown_kind: usize,
    /// Corrupt lines *before* the final line, skipped.
    pub n_corrupt_interior: usize,
    /// `true` when the final line was torn (no trailing newline or
    /// unparseable) and was dropped.
    pub dropped_torn_tail: bool,
    /// Per-record drop details (one entry per corrupt interior record or
    /// torn tail), with file/offset context for operators.
    pub errors: Vec<RecordError>,
}

impl RecoveryReport {
    /// `true` when the journal was fully clean.
    pub fn is_clean(&self) -> bool {
        self.n_unknown_kind == 0 && self.n_corrupt_interior == 0 && !self.dropped_torn_tail
    }
}

/// Loads every recoverable entry of a journal file. A missing file is an
/// empty journal. Never fails on content — only on I/O errors.
pub fn load(path: &Path) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), RecoveryReport::default()))
        }
        Err(e) => return Err(e),
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut entries = Vec::new();
    let mut report = RecoveryReport::default();

    // A well-formed journal ends with '\n'; content after the last '\n' is
    // by definition a torn tail. split keeps that tail as the last piece.
    let pieces: Vec<&str> = text.split('\n').collect();
    let n = pieces.len();
    for (i, raw) in pieces.iter().enumerate() {
        let line = raw.trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        let is_last = i + 1 == n;
        match DbEntry::from_line(line) {
            // A parseable final line without its trailing '\n' is intact
            // content — kept like any other entry.
            Ok(Some(e)) => {
                entries.push(e);
                report.n_loaded += 1;
            }
            Ok(None) => report.n_unknown_kind += 1,
            Err(_) if is_last => {
                report.dropped_torn_tail = true;
                report.errors.push(RecordError {
                    file: String::new(),
                    offset: (i + 1) as u64,
                    kind: RecordErrorKind::TornTail,
                });
            }
            Err(_) => {
                report.n_corrupt_interior += 1;
                report.errors.push(RecordError {
                    file: String::new(),
                    offset: (i + 1) as u64,
                    kind: RecordErrorKind::CorruptLine,
                });
            }
        }
    }
    Ok((entries, report))
}

/// Appends entries to a journal under its advisory lock, fsyncing once
/// after the batch. Returns the number of entries written.
pub fn append(path: &Path, entries: &[DbEntry], lock: &LockOptions) -> io::Result<usize> {
    if entries.is_empty() {
        return Ok(0);
    }
    let _guard = FileLock::acquire(path, lock)?;
    let mut buf = String::new();
    // A previous writer may have died mid-line (torn tail). Terminate the
    // torn line first so the new records stay parseable on their own lines
    // — recovery then drops the tear alone, never a fresh record.
    if !ends_with_newline(path)? {
        buf.push('\n');
    }
    for e in entries {
        buf.push_str(&e.to_line());
        buf.push('\n');
    }
    let mut f = fsio::open_append(path)?;
    fsio::append_durable(&mut f, buf.as_bytes())?;
    Ok(entries.len())
}

/// `true` when `path` is missing, empty, or ends with `\n`.
fn ends_with_newline(path: &Path) -> io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(true),
        Err(e) => return Err(e),
    };
    if f.seek(SeekFrom::End(0))? == 0 {
        return Ok(true);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last == [b'\n'])
}

/// Rewrites a journal keeping the first occurrence of each entry (by
/// [`DbEntry::dedup_key`]), dropping corrupt lines for good. Runs under the
/// journal lock; the rewrite is atomic (temp + rename). Returns
/// `(entries_kept, entries_dropped)`.
pub fn compact(path: &Path, lock: &LockOptions) -> io::Result<(usize, usize)> {
    let _guard = FileLock::acquire(path, lock)?;
    let (mut kept, report) = load(path)?;
    let n_loaded = kept.len();
    dedup(&mut kept);
    let mut buf = String::new();
    for e in &kept {
        buf.push_str(&e.to_line());
        buf.push('\n');
    }
    fsio::atomic_write(path, buf.as_bytes())?;
    let dropped = n_loaded - kept.len()
        + report.n_corrupt_interior
        + report.n_unknown_kind
        + usize::from(report.dropped_torn_tail);
    Ok((kept.len(), dropped))
}

/// Merges entries from `src` into `dst` (append-only): every entry of
/// `src` whose dedup key is not already in `dst` is appended. Returns the
/// number of newly added entries.
pub fn merge(dst: &Path, src: &Path, lock: &LockOptions) -> io::Result<usize> {
    let (incoming, _) = load(src)?;
    let _guard = FileLock::acquire(dst, lock)?;
    let (existing, _) = load(dst)?;
    let mut seen: HashSet<DedupKey> = existing.iter().map(DedupKey).collect();
    let mut buf = String::new();
    let mut added = 0usize;
    for e in &incoming {
        if seen.insert(DedupKey(e)) {
            buf.push_str(&e.to_line());
            buf.push('\n');
            added += 1;
        }
    }
    if added > 0 {
        let mut f = fsio::open_append(dst)?;
        fsio::append_durable(&mut f, buf.as_bytes())?;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DbRecord, DbValue, Provenance};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("gptune_db_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(i: i64, y: f64) -> DbEntry {
        DbEntry::Eval(DbRecord {
            problem: "toy".into(),
            sig: 0xabc,
            task: vec![DbValue::Int(1)],
            config: vec![DbValue::Int(i)],
            outputs: vec![y],
            prov: Provenance {
                seed: 3,
                run: "r1".into(),
                machine: None,
            },
        })
    }

    #[test]
    fn append_then_load_roundtrip() {
        let d = tmpdir("roundtrip");
        let p = d.join("j.jsonl");
        let lock = LockOptions::default();
        append(&p, &[rec(1, 1.0), rec(2, 2.0)], &lock).unwrap();
        append(&p, &[rec(3, 3.0)], &lock).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(report.is_clean());
        assert_eq!(entries[2], rec(3, 3.0));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn append_after_torn_tail_keeps_new_records_parseable() {
        let d = tmpdir("torn_append");
        let p = d.join("j.jsonl");
        let lock = LockOptions::default();
        append(&p, &[rec(1, 1.0), rec(2, 2.0)], &lock).unwrap();
        // Tear the final line mid-record, as a killed writer would.
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 7]).unwrap();
        // A later writer appends: the fresh record must not be glued onto
        // the torn line.
        append(&p, &[rec(3, 3.0)], &lock).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2, "{report:?}");
        assert_eq!(entries[0], rec(1, 1.0));
        assert_eq!(entries[1], rec(3, 3.0));
        assert_eq!(report.n_corrupt_interior, 1);
        assert!(!report.dropped_torn_tail);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_file_is_empty_journal() {
        let d = tmpdir("missing");
        let (entries, report) = load(&d.join("nope.jsonl")).unwrap();
        assert!(entries.is_empty());
        assert!(report.is_clean());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_file_is_empty_journal() {
        let d = tmpdir("empty");
        let p = d.join("j.jsonl");
        fs::write(&p, "").unwrap();
        let (entries, report) = load(&p).unwrap();
        assert!(entries.is_empty());
        assert!(report.is_clean());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_final_line_dropped_rest_kept() {
        let d = tmpdir("torn");
        let p = d.join("j.jsonl");
        let lock = LockOptions::default();
        append(&p, &[rec(1, 1.0), rec(2, 2.0)], &lock).unwrap();
        // Simulate a crash mid-append: half of a third record, no newline.
        let torn = rec(3, 3.0).to_line();
        let mut bytes = fs::read(&p).unwrap();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        fs::write(&p, &bytes).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2, "intact records must survive");
        assert!(report.dropped_torn_tail);
        assert_eq!(report.n_corrupt_interior, 0);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn unterminated_but_complete_final_line_kept() {
        let d = tmpdir("noeol");
        let p = d.join("j.jsonl");
        // Complete JSON, missing only the trailing newline.
        fs::write(&p, rec(1, 1.0).to_line()).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(!report.dropped_torn_tail);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_interior_line_skipped() {
        let d = tmpdir("interior");
        let p = d.join("j.jsonl");
        let text = format!(
            "{}\nNOT JSON AT ALL\n{}\n",
            rec(1, 1.0).to_line(),
            rec(2, 2.0).to_line()
        );
        fs::write(&p, text).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(report.n_corrupt_interior, 1);
        assert!(!report.dropped_torn_tail);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn drop_details_carry_line_numbers() {
        let d = tmpdir("details");
        let p = d.join("j.jsonl");
        let torn = rec(9, 9.0).to_line();
        let text = format!(
            "{}\nGARBAGE\n{}\n{}",
            rec(1, 1.0).to_line(),
            rec(2, 2.0).to_line(),
            &torn[..torn.len() / 2]
        );
        fs::write(&p, text).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.errors[0].offset, 2, "1-based line of the garbage");
        assert_eq!(report.errors[0].kind, RecordErrorKind::CorruptLine);
        assert_eq!(report.errors[1].offset, 4);
        assert_eq!(report.errors[1].kind, RecordErrorKind::TornTail);
        // Display is operator-friendly even without a file name.
        assert!(report.errors[0].to_string().contains("corrupt line"));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn mixed_version_journal_loads_known_entries() {
        let d = tmpdir("mixed");
        let p = d.join("j.jsonl");
        let future = r#"{"v":9,"kind":"shard","problem":"toy","sig":"0000000000000abc"}"#;
        let v2_eval =
            rec(5, 5.0)
                .to_line()
                .replacen("\"v\":1", "\"v\":2,\"extra\":{\"nested\":[true]}", 1);
        let text = format!("{}\n{future}\n{v2_eval}\n", rec(1, 1.0).to_line());
        fs::write(&p, text).unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2, "v1 + v2 eval records must both load");
        assert_eq!(report.n_unknown_kind, 1);
        assert_eq!(entries[1], rec(5, 5.0));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crlf_lines_tolerated() {
        let d = tmpdir("crlf");
        let p = d.join("j.jsonl");
        fs::write(
            &p,
            format!("{}\r\n{}\r\n", rec(1, 1.0).to_line(), rec(2, 2.0).to_line()),
        )
        .unwrap();
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(report.is_clean());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn compact_dedups_and_heals() {
        let d = tmpdir("compact");
        let p = d.join("j.jsonl");
        let lock = LockOptions::default();
        append(&p, &[rec(1, 1.0), rec(2, 2.0), rec(1, 1.0)], &lock).unwrap();
        // Torn tail to be healed away.
        let torn = rec(9, 9.0).to_line();
        let mut bytes = fs::read(&p).unwrap();
        bytes.extend_from_slice(&torn.as_bytes()[..10]);
        fs::write(&p, &bytes).unwrap();
        let (kept, dropped) = compact(&p, &lock).unwrap();
        assert_eq!(kept, 2);
        assert_eq!(dropped, 2); // 1 duplicate + 1 torn tail
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(report.is_clean());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn merge_adds_only_new_entries() {
        let d = tmpdir("merge");
        let a = d.join("a.jsonl");
        let b = d.join("b.jsonl");
        let lock = LockOptions::default();
        append(&a, &[rec(1, 1.0), rec(2, 2.0)], &lock).unwrap();
        append(&b, &[rec(2, 2.0), rec(3, 3.0), rec(3, 3.0)], &lock).unwrap();
        let added = merge(&a, &b, &lock).unwrap();
        assert_eq!(added, 1);
        let (entries, _) = load(&a).unwrap();
        assert_eq!(entries.len(), 3);
        // Merging again is a no-op.
        assert_eq!(merge(&a, &b, &lock).unwrap(), 0);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn concurrent_appenders_lose_nothing() {
        let d = tmpdir("concurrent");
        let p = std::sync::Arc::new(d.join("j.jsonl"));
        let mut handles = Vec::new();
        for writer in 0..4i64 {
            let p = std::sync::Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                let lock = LockOptions::default();
                for i in 0..25 {
                    append(&p, &[rec(writer * 1000 + i, i as f64)], &lock).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (entries, report) = load(&p).unwrap();
        assert_eq!(entries.len(), 100, "lost records under concurrency");
        assert!(report.is_clean());
        // Every record distinct → all 100 dedup keys present.
        let keys: std::collections::HashSet<String> =
            entries.iter().map(|e| e.dedup_key()).collect();
        assert_eq!(keys.len(), 100);
        let _ = fs::remove_dir_all(&d);
    }
}
