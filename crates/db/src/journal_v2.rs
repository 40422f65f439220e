//! Journal format v2: a compressed binary snapshot for archives.
//!
//! JSONL journals (format v1) are the live write head: append-only,
//! line-oriented, recoverable after torn writes. Archived shards do not
//! need appendability — they are written once by `shard::split`,
//! `db_tool migrate-v2`, or compaction — so v2 trades line-oriented
//! repairability for size:
//!
//! * the problem name and signature are stored once in the header instead
//!   of on every record;
//! * machine identifiers are interned in a header string table and
//!   referenced by index;
//! * integers travel as LEB128 varints (seeds, attempts, categorical
//!   indices) or zigzag varints (tuning integers), floats as 8 LE bytes;
//! * every record payload carries a CRC32 so interior corruption is
//!   detected and skipped, and a truncated tail is dropped — the same
//!   recovery contract as [`crate::journal::load`]. Every record a read
//!   returns is CRC-verified.
//!
//! Reads are one scan with a kind mask: [`load`] is the all-kinds case,
//! and a kind-filtered read steps over other kinds' records by their
//! length prefix, reading only the payload's tag byte.
//!
//! v2 files are written atomically ([`crate::fsio::atomic_write`]) and are
//! never appended to. The JSONL reader stays the migration path: `load`
//! returns the same `(Vec<DbEntry>, RecoveryReport)` shape, so shard-aware
//! readers and `db_tool merge` treat both formats uniformly.

use crate::fsio;
use crate::journal::{RecordError, RecordErrorKind, RecoveryReport};
use crate::record::{
    DbEntry, DbRecord, DbValue, FailKind, FailRecord, Kinds, Provenance, RunStats, RunSummary,
};
use std::fs;
use std::io;
use std::path::Path;

/// Leading bytes of every v2 journal file.
pub const MAGIC: &[u8; 8] = b"GPTNDB2\n";

/// Format version byte following the magic.
pub const VERSION: u8 = 2;

/// Hard cap on a single record payload (defends length decoding against
/// corrupt headers before allocating).
const MAX_PAYLOAD: u64 = 1 << 28;

// Record tags. Unknown tags are counted and skipped (forward compat).
const TAG_EVAL: u8 = 0;
const TAG_RUN: u8 = 1;
const TAG_FAIL: u8 = 2;

// Value tags inside task/config vectors.
const VAL_REAL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_CAT: u8 = 2;

/// `true` when the file starts with the v2 magic. A missing or short file
/// is not v2.
pub fn is_v2(path: &Path) -> bool {
    use std::io::Read as _;
    let mut head = [0u8; 8];
    match fs::File::open(path) {
        Ok(mut f) => f.read_exact(&mut head).is_ok() && &head == MAGIC,
        Err(_) => false,
    }
}

/// Writes `entries` as a v2 archive at `path` (atomic snapshot). Every
/// entry must belong to `(problem, sig)` — a mismatched entry is an
/// `InvalidInput` error, mirroring the per-journal invariant of the
/// JSONL layout (file name embeds problem + signature).
pub fn write(path: &Path, problem: &str, sig: u64, entries: &[DbEntry]) -> io::Result<()> {
    let mut machines: Vec<String> = Vec::new();
    for e in entries {
        let (p, s, m) = entry_parts(e);
        if p != problem || s != sig {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal_v2::write: entry for {p}/{s:016x} does not belong to {problem}/{sig:016x}"),
            ));
        }
        if let Some(m) = m {
            if !machines.iter().any(|x| x == m) {
                machines.push(m.to_string());
            }
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_str(&mut out, problem);
    out.extend_from_slice(&sig.to_le_bytes());
    put_varint(&mut out, machines.len() as u64);
    for m in &machines {
        put_str(&mut out, m);
    }
    for e in entries {
        let payload = encode_entry(e, &machines);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
    }
    fsio::atomic_write(path, &out)
}

/// Loads every recoverable entry of a v2 archive. A missing file is an
/// empty archive; a corrupt record is skipped (CRC mismatch / bad tag →
/// `n_corrupt_interior` / `n_unknown_kind`); a truncated tail is dropped
/// (`dropped_torn_tail`). Only I/O errors and a bad header fail. This is
/// the all-kinds case of `scan`.
pub fn load(path: &Path) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    scan(path, Kinds::ALL)
}

/// [`load`] narrowed to the records of `kinds`. A record of another kind
/// is stepped over by its length prefix, without CRC check or decode, and
/// is neither returned nor counted in the report. Every returned record is
/// CRC-verified, and the entries equal [`load`]'s filtered to `kinds`.
pub(crate) fn scan(path: &Path, kinds: Kinds) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    match fs::read(path) {
        Ok(bytes) => scan_bytes(&bytes, kinds),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Ok((Vec::new(), RecoveryReport::default()))
        }
        Err(e) => Err(e),
    }
}

/// [`scan`] over the bytes of a v2 file.
fn scan_bytes(bytes: &[u8], kinds: Kinds) -> io::Result<(Vec<DbEntry>, RecoveryReport)> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("journal_v2: {msg}"));
    if r.take(MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(bad("bad magic"));
    }
    match r.u8() {
        Some(VERSION) => {}
        _ => return Err(bad("unsupported version")),
    }
    let problem = r.str().ok_or_else(|| bad("truncated header (problem)"))?;
    let sig = r
        .take(8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| bad("truncated header (sig)"))?;
    let n_machines = r
        .varint()
        .ok_or_else(|| bad("truncated header (machines)"))?;
    if n_machines > MAX_PAYLOAD {
        return Err(bad("implausible machine table"));
    }
    let mut machines = Vec::new();
    for _ in 0..n_machines {
        machines.push(r.str().ok_or_else(|| bad("truncated machine table"))?);
    }

    let mut entries = Vec::new();
    let mut report = RecoveryReport::default();
    while r.pos < r.buf.len() {
        // Byte offset of the record about to be decoded — reported with
        // any drop so operators can find the damage on disk.
        let record_at = r.pos as u64;
        let torn = |report: &mut RecoveryReport| {
            report.dropped_torn_tail = true;
            report.errors.push(RecordError {
                file: String::new(),
                offset: record_at,
                kind: RecordErrorKind::TornTail,
            });
        };
        let Some(len) = r.varint().filter(|&l| l <= MAX_PAYLOAD) else {
            torn(&mut report);
            break;
        };
        let Some(payload) = r.take(len as usize) else {
            torn(&mut report);
            break;
        };
        let Some(stored_crc) = r.take(4).and_then(|b| <[u8; 4]>::try_from(b).ok()) else {
            torn(&mut report);
            break;
        };
        if !kinds.contains(tag_kinds(payload.first())) {
            continue;
        }
        let stored = u32::from_le_bytes(stored_crc);
        let computed = crc32(payload);
        if computed != stored {
            report.n_corrupt_interior += 1;
            report.errors.push(RecordError {
                file: String::new(),
                offset: record_at,
                kind: RecordErrorKind::CrcMismatch { stored, computed },
            });
            continue;
        }
        match decode_entry(payload, &problem, sig, &machines) {
            Some(e) => {
                report.n_loaded += 1;
                entries.push(e);
            }
            None => report.n_unknown_kind += 1,
        }
    }
    Ok((entries, report))
}

/// The kind a payload's tag byte announces: [`Kinds::OTHER`] for an
/// unknown tag or an empty payload.
fn tag_kinds(tag: Option<&u8>) -> Kinds {
    match tag {
        Some(&TAG_EVAL) => Kinds::EVAL,
        Some(&TAG_RUN) => Kinds::RUN,
        Some(&TAG_FAIL) => Kinds::FAIL,
        _ => Kinds::OTHER,
    }
}

/// `(problem, sig, machine)` of any entry.
fn entry_parts(e: &DbEntry) -> (&str, u64, Option<&str>) {
    match e {
        DbEntry::Eval(r) => (&r.problem, r.sig, r.prov.machine.as_deref()),
        DbEntry::Run(r) => (&r.problem, r.sig, r.prov.machine.as_deref()),
        DbEntry::Fail(r) => (&r.problem, r.sig, r.prov.machine.as_deref()),
    }
}

fn encode_entry(e: &DbEntry, machines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    match e {
        DbEntry::Eval(rec) => {
            out.push(TAG_EVAL);
            put_prov(&mut out, &rec.prov, machines);
            put_values(&mut out, &rec.task);
            put_values(&mut out, &rec.config);
            put_varint(&mut out, rec.outputs.len() as u64);
            for y in &rec.outputs {
                out.extend_from_slice(&y.to_le_bytes());
            }
        }
        DbEntry::Run(rec) => {
            out.push(TAG_RUN);
            put_prov(&mut out, &rec.prov, machines);
            put_stats(&mut out, &rec.stats);
        }
        DbEntry::Fail(rec) => {
            out.push(TAG_FAIL);
            put_prov(&mut out, &rec.prov, machines);
            put_values(&mut out, &rec.task);
            put_values(&mut out, &rec.config);
            out.push(match rec.kind {
                FailKind::Crashed => 0,
                FailKind::TimedOut => 1,
                FailKind::Invalid => 2,
                FailKind::Transient => 3,
            });
            put_varint(&mut out, rec.attempts);
            out.extend_from_slice(&rec.elapsed_secs.to_le_bytes());
        }
    }
    out
}

fn decode_entry(payload: &[u8], problem: &str, sig: u64, machines: &[String]) -> Option<DbEntry> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let tag = r.u8()?;
    let prov = get_prov(&mut r, machines)?;
    let e = match tag {
        TAG_EVAL => {
            let task = get_values(&mut r)?;
            let config = get_values(&mut r)?;
            let n = r.varint()?;
            if n > MAX_PAYLOAD {
                return None;
            }
            let mut outputs = Vec::new();
            for _ in 0..n {
                outputs.push(r.f64()?);
            }
            DbEntry::Eval(DbRecord {
                problem: problem.to_string(),
                sig,
                task,
                config,
                outputs,
                prov,
            })
        }
        TAG_RUN => DbEntry::Run(RunSummary {
            problem: problem.to_string(),
            sig,
            prov,
            stats: get_stats(&mut r)?,
        }),
        TAG_FAIL => {
            let task = get_values(&mut r)?;
            let config = get_values(&mut r)?;
            let kind = match r.u8()? {
                0 => FailKind::Crashed,
                1 => FailKind::TimedOut,
                2 => FailKind::Invalid,
                3 => FailKind::Transient,
                _ => return None,
            };
            DbEntry::Fail(FailRecord {
                problem: problem.to_string(),
                sig,
                task,
                config,
                kind,
                attempts: r.varint()?,
                elapsed_secs: r.f64()?,
                prov,
            })
        }
        _ => return None,
    };
    // Trailing bytes mean a writer newer than this reader extended the
    // record; treat as unknown rather than silently truncating fields.
    if r.pos != payload.len() {
        return None;
    }
    Some(e)
}

fn put_prov(out: &mut Vec<u8>, prov: &Provenance, machines: &[String]) {
    put_varint(out, prov.seed);
    put_str(out, &prov.run);
    let idx = prov
        .machine
        .as_deref()
        .and_then(|m| machines.iter().position(|x| x == m))
        .map(|i| i as u64 + 1)
        .unwrap_or(0);
    put_varint(out, idx);
}

fn get_prov(r: &mut Reader<'_>, machines: &[String]) -> Option<Provenance> {
    let seed = r.varint()?;
    let run = r.str()?;
    let idx = r.varint()?;
    let machine = if idx == 0 {
        None
    } else {
        Some(machines.get(idx as usize - 1)?.clone())
    };
    Some(Provenance { seed, run, machine })
}

fn put_values(out: &mut Vec<u8>, vs: &[DbValue]) {
    put_varint(out, vs.len() as u64);
    for v in vs {
        match v {
            DbValue::Real(x) => {
                out.push(VAL_REAL);
                out.extend_from_slice(&x.to_le_bytes());
            }
            DbValue::Int(i) => {
                out.push(VAL_INT);
                put_varint(out, zigzag(*i));
            }
            DbValue::Cat(c) => {
                out.push(VAL_CAT);
                put_varint(out, *c as u64);
            }
        }
    }
}

fn get_values(r: &mut Reader<'_>) -> Option<Vec<DbValue>> {
    let n = r.varint()?;
    if n > MAX_PAYLOAD {
        return None;
    }
    let mut vs = Vec::new();
    for _ in 0..n {
        vs.push(match r.u8()? {
            VAL_REAL => DbValue::Real(r.f64()?),
            VAL_INT => DbValue::Int(unzigzag(r.varint()?)),
            VAL_CAT => DbValue::Cat(usize::try_from(r.varint()?).ok()?),
            _ => return None,
        });
    }
    Some(vs)
}

fn put_stats(out: &mut Vec<u8>, s: &RunStats) {
    for x in [
        s.objective_virtual_secs,
        s.objective_wall_secs,
        s.modeling_wall_secs,
        s.search_wall_secs,
    ] {
        out.extend_from_slice(&x.to_le_bytes());
    }
    for n in [
        s.n_evals,
        s.n_crashed,
        s.n_timed_out,
        s.n_invalid,
        s.n_transient,
        s.n_retries,
    ] {
        put_varint(out, n);
    }
}

fn get_stats(r: &mut Reader<'_>) -> Option<RunStats> {
    Some(RunStats {
        objective_virtual_secs: r.f64()?,
        objective_wall_secs: r.f64()?,
        modeling_wall_secs: r.f64()?,
        search_wall_secs: r.f64()?,
        n_evals: r.varint()?,
        n_crashed: r.varint()?,
        n_timed_out: r.varint()?,
        n_invalid: r.varint()?,
        n_transient: r.varint()?,
        n_retries: r.varint()?,
    })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = self.buf.get(self.pos).copied()?;
        self.pos += 1;
        Some(b)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut x: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(x);
            }
        }
        None
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map(f64::from_le_bytes)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.varint()?;
        if n > MAX_PAYLOAD {
            return None;
        }
        let b = self.take(n as usize)?;
        std::str::from_utf8(b).ok().map(str::to_string)
    }
}

fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Slice-by-8 lookup tables of the reflected CRC-32 polynomial:
/// `CRC_TABLES[0][b]` is the CRC of the byte `b`, and `CRC_TABLES[k][b]`
/// that byte followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

// PANIC-SAFETY: evaluated at compile time (an out-of-range index would
// fail the build); every index is a loop counter below its array's length
// or a byte masked with 0xff.
#[allow(clippy::indexing_slicing)]
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, eight bytes per step.
// PANIC-SAFETY: table indices are single bytes into 256-entry tables, and
// each `w` from `chunks_exact(8)` holds exactly eight bytes.
#[allow(clippy::indexing_slicing)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xff) as usize;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DbRecord, FailRecord, Provenance, RunStats, RunSummary};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gptune-v2-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_entries(problem: &str, sig: u64) -> Vec<DbEntry> {
        let prov = |m: Option<&str>| Provenance {
            seed: u64::MAX - 7,
            run: "seed42-eps8-d2".into(),
            machine: m.map(str::to_string),
        };
        vec![
            DbEntry::Eval(DbRecord {
                problem: problem.into(),
                sig,
                task: vec![DbValue::Int(-40), DbValue::Cat(3)],
                config: vec![DbValue::Real(0.125), DbValue::Int(i64::MIN + 1)],
                outputs: vec![1.5, f64::INFINITY, f64::NEG_INFINITY],
                prov: prov(Some("machA")),
            }),
            DbEntry::Run(RunSummary {
                problem: problem.into(),
                sig,
                prov: prov(None),
                stats: RunStats {
                    objective_virtual_secs: 1.0,
                    objective_wall_secs: 2.5,
                    modeling_wall_secs: 0.25,
                    search_wall_secs: 0.125,
                    n_evals: 8,
                    n_crashed: 1,
                    n_timed_out: 0,
                    n_invalid: 2,
                    n_transient: 0,
                    n_retries: 3,
                },
            }),
            DbEntry::Fail(FailRecord {
                problem: problem.into(),
                sig,
                task: vec![DbValue::Int(7)],
                config: vec![DbValue::Real(0.5)],
                kind: FailKind::TimedOut,
                attempts: 2,
                elapsed_secs: 3.25,
                prov: prov(Some("machA")),
            }),
        ]
    }

    #[test]
    fn roundtrip_identity() {
        let d = tmpdir("roundtrip");
        let path = d.join("a.gdb2");
        let entries = sample_entries("p", 0xdead_beef_cafe_f00d);
        write(&path, "p", 0xdead_beef_cafe_f00d, &entries).unwrap();
        let (back, report) = load(&path).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(back, entries);
        assert!(is_v2(&path));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn nan_outputs_roundtrip_bitwise() {
        let d = tmpdir("nan");
        let path = d.join("a.gdb2");
        let mut entries = sample_entries("p", 1);
        if let Some(DbEntry::Eval(r)) = entries.first_mut() {
            r.outputs = vec![f64::NAN, -0.0];
        }
        write(&path, "p", 1, &entries).unwrap();
        let (back, _) = load(&path).unwrap();
        let Some(DbEntry::Eval(r)) = back.first() else {
            panic!("missing eval")
        };
        assert_eq!(
            r.outputs.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
            [f64::NAN.to_bits(), (-0.0f64).to_bits()]
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_file_is_empty() {
        let d = tmpdir("missing");
        let (entries, report) = load(&d.join("nope.gdb2")).unwrap();
        assert!(entries.is_empty() && report.is_clean());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn mismatched_entry_rejected() {
        let d = tmpdir("mismatch");
        let entries = sample_entries("other", 2);
        let err = write(&d.join("a.gdb2"), "p", 1, &entries).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn truncated_tail_dropped() {
        let d = tmpdir("torn");
        let path = d.join("a.gdb2");
        let entries = sample_entries("p", 1);
        write(&path, "p", 1, &entries).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (back, report) = load(&path).unwrap();
        assert_eq!(back.len(), entries.len() - 1);
        assert!(report.dropped_torn_tail);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_interior_skipped() {
        let d = tmpdir("corrupt");
        let path = d.join("a.gdb2");
        let entries = sample_entries("p", 1);
        write(&path, "p", 1, &entries).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the first record's payload (header is
        // magic+version+problem+sig+machine table; first payload starts
        // right after its varint length).
        let header_len = MAGIC.len() + 1 + (1 + 1) + 8 + (1 + 1 + 5);
        bytes[header_len + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (back, report) = load(&path).unwrap();
        assert_eq!(back.len(), entries.len() - 1);
        assert_eq!(report.n_corrupt_interior, 1);
        assert!(!report.dropped_torn_tail);
        // The drop is typed, with the record's byte offset and both CRCs.
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].offset, header_len as u64);
        match report.errors[0].kind {
            RecordErrorKind::CrcMismatch { stored, computed } => assert_ne!(stored, computed),
            ref k => panic!("expected CrcMismatch, got {k:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unknown_record_tag_skipped() {
        let d = tmpdir("unknown");
        let path = d.join("a.gdb2");
        write(&path, "p", 1, &sample_entries("p", 1)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = vec![99u8, 0, 0];
        bytes.push(payload.len() as u8);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (back, report) = load(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(report.n_unknown_kind, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bad_magic_is_invalid_data() {
        let d = tmpdir("magic");
        let path = d.join("a.gdb2");
        std::fs::write(&path, b"not a v2 file at all").unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_v2(&path));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn v2_smaller_than_jsonl() {
        let d = tmpdir("size");
        let sig = 42u64;
        let mut entries = Vec::new();
        for i in 0..64 {
            entries.push(DbEntry::Eval(DbRecord {
                problem: "p".into(),
                sig,
                task: vec![DbValue::Int(i)],
                config: vec![DbValue::Real(i as f64 / 64.0), DbValue::Cat(2)],
                outputs: vec![i as f64],
                prov: Provenance {
                    seed: 42,
                    run: "seed42-eps64-d1".into(),
                    machine: Some("long-machine-identifier".into()),
                },
            }));
        }
        let v1: usize = entries.iter().map(|e| e.to_line().len() + 1).sum();
        let path = d.join("a.gdb2");
        write(&path, "p", sig, &entries).unwrap();
        let v2 = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            v2 * 2 < v1,
            "v2 ({v2}B) should be well under half of JSONL ({v1}B)"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// SplitMix64, the generator of the fuzz below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A v2 file of every record kind, two machines, NaN payloads, ±0.0
    /// and infinities, and the entries it holds.
    fn fuzz_shard(d: &Path) -> (Vec<u8>, Vec<DbEntry>) {
        let odd_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let mut entries = Vec::new();
        for i in 0..24i64 {
            let prov = Provenance {
                seed: i as u64,
                run: format!("run{}", i % 3),
                machine: [None, Some("machA".to_string()), Some("machB".into())][i as usize % 3]
                    .clone(),
            };
            let task = vec![DbValue::Int(i % 4), DbValue::Cat(i as usize % 2)];
            let config = vec![
                DbValue::Real([0.0, -0.0, odd_nan, 0.25][i as usize % 4]),
                DbValue::Int(-i),
            ];
            entries.push(match i % 4 {
                0 | 1 => DbEntry::Eval(DbRecord {
                    problem: "p".into(),
                    sig: 9,
                    task,
                    config,
                    outputs: vec![[1.5, f64::NAN, -f64::NAN, f64::INFINITY][i as usize % 4]],
                    prov,
                }),
                2 => DbEntry::Run(RunSummary {
                    problem: "p".into(),
                    sig: 9,
                    prov,
                    stats: RunStats {
                        n_evals: i as u64,
                        search_wall_secs: -0.0,
                        ..RunStats::default()
                    },
                }),
                _ => DbEntry::Fail(FailRecord {
                    problem: "p".into(),
                    sig: 9,
                    task,
                    config,
                    kind: [FailKind::Crashed, FailKind::Transient][i as usize % 8 / 4],
                    attempts: 1 + i as u64,
                    elapsed_secs: odd_nan,
                    prov,
                }),
            });
        }
        let path = d.join("fuzz.gdb2");
        write(&path, "p", 9, &entries).unwrap();
        (std::fs::read(&path).unwrap(), entries)
    }

    /// `(start, payload_start, end)` of every record frame of a valid file.
    fn frames(bytes: &[u8]) -> Vec<(usize, usize, usize)> {
        let mut r = Reader { buf: bytes, pos: 0 };
        r.take(MAGIC.len() + 1).unwrap();
        r.str().unwrap();
        r.take(8).unwrap();
        for _ in 0..r.varint().unwrap() {
            r.str().unwrap();
        }
        let mut out = Vec::new();
        while r.pos < bytes.len() {
            let start = r.pos;
            let len = r.varint().unwrap() as usize;
            let payload_start = r.pos;
            r.take(len + 4).unwrap();
            out.push((start, payload_start, r.pos));
        }
        out
    }

    /// Bit-exact identity of an entry: its text (strings, machine) and its
    /// payload bytes (float bits, NaN payloads included).
    fn exact(es: &[DbEntry]) -> Vec<(String, Vec<u8>)> {
        es.iter()
            .map(|e| (format!("{e:?}"), encode_entry(e, &[])))
            .collect()
    }

    /// Scans `bytes` with every mask and checks the invariants that hold
    /// for any input: no panic, and each masked scan returns the all-kinds
    /// entries of its kind. With the header intact, every entry returned
    /// must also be one written (a rewritten header renames them all).
    /// Returns the all-kinds entries, or `None` for a rejected header.
    fn check(bytes: &[u8], written: &[DbEntry], header_intact: bool) -> Option<Vec<DbEntry>> {
        let all = scan_bytes(bytes, Kinds::ALL);
        for kinds in [Kinds::EVAL, Kinds::RUN, Kinds::FAIL] {
            match (&all, scan_bytes(bytes, kinds)) {
                (Ok((a, _)), Ok((m, report))) => {
                    let want: Vec<DbEntry> =
                        a.iter().filter(|e| kinds.admits(e)).cloned().collect();
                    assert_eq!(exact(&m), exact(&want), "{kinds:?}");
                    assert_eq!(report.n_loaded, m.len());
                }
                (Err(_), Err(_)) => {}
                (a, m) => panic!("header verdicts differ: {:?} vs {:?}", a.is_ok(), m.is_ok()),
            }
        }
        let (all, _) = all.ok()?;
        let known = exact(written);
        for e in exact(&all).into_iter().filter(|_| header_intact) {
            assert!(known.contains(&e), "returned an entry never written: {e:?}");
        }
        Some(all)
    }

    #[test]
    fn fuzzed_shards_scan_alike_and_never_return_bad_crcs() {
        let d = tmpdir("fuzz");
        let (bytes, entries) = fuzz_shard(&d);
        let frames = frames(&bytes);
        assert_eq!(frames.len(), entries.len());
        let without = |i: usize| -> Vec<DbEntry> {
            let mut es = entries.clone();
            es.remove(i);
            es
        };
        let header_end = frames[0].0;

        // Truncation at every record boundary keeps exactly the records
        // before it; a cut inside a record also reports a torn tail.
        for (k, &(start, _, end)) in frames.iter().enumerate() {
            let kept = check(&bytes[..start], &entries, true).unwrap();
            assert_eq!(exact(&kept), exact(&entries[..k]));
            for cut in start + 1..end {
                let (kept, report) = scan_bytes(&bytes[..cut], Kinds::ALL).unwrap();
                assert_eq!(exact(&kept), exact(&entries[..k]));
                assert!(report.dropped_torn_tail);
            }
        }

        let mut rng = Mix(0x7632_f022_5eed);
        for case in 0..4000 {
            let mut b = bytes.clone();
            let i = rng.below(frames.len());
            let (start, payload_start, end) = frames[i];
            // The all-kinds result the mutation must give, when it is known.
            let expected = match case % 4 {
                // One flipped bit in a payload or its CRC drops that record.
                0 => {
                    b[payload_start + rng.below(end - payload_start)] ^= 1 << rng.below(8);
                    Some(without(i))
                }
                // A rewritten tag byte fails the CRC too, whatever tag it names.
                1 => {
                    let tag = usize::from(b[payload_start]);
                    b[payload_start] = ((tag + 1 + rng.below(255)) % 256) as u8;
                    Some(without(i))
                }
                // A corrupted length prefix reframes the rest of the file.
                2 => {
                    let n = 1 + rng.below(3);
                    let junk: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                    b.splice(start..payload_start, junk);
                    None
                }
                // Random bytes anywhere, header included.
                _ => {
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(b.len());
                        b[at] = rng.next() as u8;
                    }
                    None
                }
            };
            let got = check(&b, &entries, b[..header_end] == bytes[..header_end]);
            if let Some(want) = expected {
                assert_eq!(exact(&got.unwrap()), exact(&want), "case {case}");
            }
        }
        let (all, report) = scan_bytes(&bytes, Kinds::ALL).unwrap();
        assert!(report.is_clean());
        assert_eq!(exact(&all), exact(&entries));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn masked_scan_skips_other_kinds_unchecked() {
        // A corrupt record of another kind is stepped over, not counted.
        let d = tmpdir("masked");
        let (mut bytes, entries) = fuzz_shard(&d);
        let (_, payload_start, _) = frames(&bytes)[2]; // a run summary
        bytes[payload_start + 1] ^= 0x01;
        let (evals, report) = scan_bytes(&bytes, Kinds::EVAL).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let want: Vec<DbEntry> = entries
            .iter()
            .filter(|e| matches!(e, DbEntry::Eval(_)))
            .cloned()
            .collect();
        assert_eq!(exact(&evals), exact(&want));
        let (_, report) = scan_bytes(&bytes, Kinds::RUN).unwrap();
        assert_eq!(report.n_corrupt_interior, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn varint_extremes() {
        let mut buf = Vec::new();
        for x in [0u64, 1, 127, 128, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, x);
            let mut r = Reader { buf: &buf, pos: 0 };
            assert_eq!(r.varint(), Some(x));
        }
        for i in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }
}
