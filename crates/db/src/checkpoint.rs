//! Checkpoint files: the full in-flight state of an MLA run.
//!
//! A checkpoint captures everything the tuner loop needs to continue
//! mid-budget: the evaluation archive so far (points + outputs), the
//! iteration counters, and the accumulated phase statistics. All later
//! randomness in the MLA loop is derived deterministically from
//! `(seed, iteration, task)` — no raw RNG state needs to be serialized —
//! so a resumed run replays the remaining iterations exactly as the
//! uninterrupted run would have executed them.
//!
//! Checkpoints are snapshots: written atomically (temp + rename), loaded
//! strictly (a checkpoint that fails to parse is reported, not silently
//! truncated — unlike journals, half a checkpoint is useless).
//!
//! A warm-started run's checkpoint is mostly its preloaded archive rows
//! and is rewritten after every iteration, so both directions skip the
//! [`Json`] tree for the bulk of the document. The writer appends
//! straight into one presized `String` (only the small `stats` object
//! goes through a tree); the reader pulls `points` and `outputs` through
//! a `json::Cursor` and parses the other top-level keys as small
//! `Json` values. The bytes on disk and the accepted documents are those
//! of the whole-tree codec: keys in any order, unknown keys ignored, the
//! first of duplicated keys wins, `r` beats `i` beats `c` in a value
//! object. `tests/codec_equivalence.rs` pins both directions to tree
//! oracles, with a seeded differential fuzz for the reader.

use crate::fsio;
use crate::json::{self, Cursor, Json, ParseError};
use crate::record::{
    write_f64s, write_values, DbValue, FailKind, RunStats, FORMAT_VERSION, VALUE_BYTES,
};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Which tuner loop wrote the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Single-objective MLA (Algorithm 1).
    Mla,
    /// Multi-objective MLA (Algorithm 2).
    MlaMo,
    /// Transfer tuning (TLA-2, `transfer_tune`).
    Tla,
}

impl CheckpointKind {
    fn as_str(&self) -> &'static str {
        match self {
            CheckpointKind::Mla => "mla",
            CheckpointKind::MlaMo => "mla_mo",
            CheckpointKind::Tla => "tla",
        }
    }

    fn parse(s: &str) -> Option<CheckpointKind> {
        match s {
            "mla" => Some(CheckpointKind::Mla),
            "mla_mo" => Some(CheckpointKind::MlaMo),
            "tla" => Some(CheckpointKind::Tla),
            _ => None,
        }
    }
}

/// Serialized in-flight MLA state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which loop wrote this.
    pub kind: CheckpointKind,
    /// Problem signature the state belongs to.
    pub sig: u64,
    /// Base RNG seed of the run (resume requires an exact match).
    pub seed: u64,
    /// Total evaluation budget `ε_tot` of the run.
    pub eps_total: usize,
    /// Completed MLA iterations.
    pub iteration: usize,
    /// Per-task evaluations consumed so far (`ε`).
    pub eps: usize,
    /// Archived records preloaded before the run's own sampling (warm
    /// start / TLA); excluded from results on resume exactly as they were
    /// in the original run.
    pub n_preloaded: usize,
    /// `(task_idx, config)` of every evaluation, in order.
    pub points: Vec<(usize, Vec<DbValue>)>,
    /// Objective vectors aligned with `points`.
    pub outputs: Vec<Vec<f64>>,
    /// Classified failures among `points` (indices into `points`), so a
    /// resumed run carries its failure set forward and archives it on
    /// completion without re-evaluating known-failing configurations.
    pub fails: Vec<CkptFail>,
    /// Accumulated phase statistics at checkpoint time.
    pub stats: RunStats,
}

/// One classified failure recorded in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptFail {
    /// Index into [`Checkpoint::points`].
    pub index: usize,
    /// Failure classification.
    pub kind: FailKind,
    /// Number of execution attempts.
    pub attempts: u64,
    /// Wall-clock seconds from first dispatch to final failure.
    pub elapsed_secs: f64,
}

impl Checkpoint {
    /// Serializes to pretty-stable single-line JSON.
    pub fn to_json_string(&self) -> String {
        let values: usize = self.points.iter().map(|(_, cfg)| cfg.len() + 1).sum();
        let outputs: usize = self.outputs.iter().map(|o| o.len() + 1).sum();
        let mut out =
            String::with_capacity(512 + VALUE_BYTES * (values + outputs + 2 * self.fails.len()));
        let _ = write!(
            out,
            "{{\"v\":{},\"kind\":\"{}\",\"sig\":\"{:016x}\",\"seed\":\"{}\",\"eps_total\":{},\
             \"iteration\":{},\"eps\":{},\"n_preloaded\":{},\"points\":[",
            FORMAT_VERSION,
            self.kind.as_str(),
            self.sig,
            self.seed,
            self.eps_total as i64,
            self.iteration as i64,
            self.eps as i64,
            self.n_preloaded as i64,
        );
        for (k, (t, cfg)) in self.points.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_i64(*t as i64, &mut out);
            out.push(',');
            write_values(cfg, &mut out);
            out.push(']');
        }
        out.push_str("],\"outputs\":[");
        for (k, o) in self.outputs.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_f64s(o, &mut out);
        }
        out.push_str("],\"fails\":[");
        for (k, f) in self.fails.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},\"{}\",\"{}\",",
                f.index as i64,
                f.kind.as_str(),
                f.attempts
            );
            json::write_f64(f.elapsed_secs, &mut out);
            out.push(']');
        }
        out.push_str("],\"stats\":");
        self.stats.to_json().write(&mut out);
        out.push('}');
        out
    }

    /// Parses a checkpoint document.
    pub fn from_json_str(s: &str) -> Result<Checkpoint, String> {
        let text = |e: ParseError| e.to_string();
        let mut cur = Cursor::new(s);
        let (mut points, mut outputs, mut rest) = (None, None, Vec::new());
        cur.begin_object().map_err(text)?;
        let mut started = false;
        while let Some(key) = cur.next_key(&mut started).map_err(text)? {
            // `points` and `outputs` are read in place, the rest as small
            // trees; as with `Json::get`, the first of duplicated keys wins.
            match &*key {
                "points" if points.is_none() => {
                    let p = cur.array_of(read_point).map_err(text)?;
                    points = Some(p.ok_or("bad 'points'")?);
                }
                "outputs" if outputs.is_none() => {
                    let o = cur
                        .array_of(|row| row.array_of(|x| Ok(x.value()?.as_f64())))
                        .map_err(text)?;
                    outputs = Some(o.ok_or("bad 'outputs'")?);
                }
                _ => rest.push((key.into_owned(), cur.value().map_err(text)?)),
            }
        }
        cur.end().map_err(text)?;
        let j = Json::Obj(rest);
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .and_then(CheckpointKind::parse)
            .ok_or("bad 'kind'")?;
        let sig = j
            .get("sig")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("bad 'sig'")?;
        let seed = j.get("seed").and_then(Json::as_u64).ok_or("bad 'seed'")?;
        let usize_field = |k: &str| -> Result<usize, String> {
            j.get(k)
                .and_then(Json::as_i64)
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| format!("bad '{k}'"))
        };
        let eps_total = usize_field("eps_total")?;
        let iteration = usize_field("iteration")?;
        let eps = usize_field("eps")?;
        let n_preloaded = usize_field("n_preloaded")?;
        let points = points.ok_or("bad 'points'")?;
        let outputs = outputs.ok_or("bad 'outputs'")?;
        if points.len() != outputs.len() {
            return Err("points/outputs length mismatch".into());
        }
        // Preloaded rows come first among the points; more of them than
        // points would underflow the resumed run's own evaluation count.
        if n_preloaded > points.len() {
            return Err("n_preloaded out of range".into());
        }
        // Absent in checkpoints written before the fault-tolerant
        // runtime: default to no recorded failures.
        let fails = match j.get("fails") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("bad 'fails'")?
                .iter()
                .map(|f| {
                    let parts = f.as_arr()?;
                    if parts.len() != 4 {
                        return None;
                    }
                    Some(CkptFail {
                        index: usize::try_from(parts.first()?.as_i64()?).ok()?,
                        kind: FailKind::parse(parts.get(1)?.as_str()?)?,
                        attempts: parts.get(2)?.as_u64()?,
                        elapsed_secs: parts.get(3)?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("bad 'fails'")?,
        };
        if fails.iter().any(|f| f.index >= points.len()) {
            return Err("fail index out of range".into());
        }
        let stats = j.get("stats").map(RunStats::from_json).unwrap_or_default();
        Ok(Checkpoint {
            kind,
            sig,
            seed,
            eps_total,
            iteration,
            eps,
            n_preloaded,
            points,
            outputs,
            fails,
            stats,
        })
    }

    /// Atomically writes the checkpoint to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut doc = self.to_json_string();
        doc.push('\n');
        fsio::atomic_write(path, doc.as_bytes())
    }

    /// Loads a checkpoint. `Ok(None)` when the file does not exist;
    /// `Err` when it exists but cannot be parsed (corrupt snapshot —
    /// surfaced to the caller, who decides whether to start fresh).
    pub fn load(path: &Path) -> io::Result<Option<Checkpoint>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Checkpoint::from_json_str(&text)
            .map(Some)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    /// Removes the checkpoint file (run completed). Missing is fine.
    pub fn remove(path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Reads one `[task, [value, ...]]` point in place: an exact pair with a
/// non-negative integer task. `Ok(None)` as in `Cursor::array_of`.
fn read_point(cur: &mut Cursor) -> Result<Option<(usize, Vec<DbValue>)>, ParseError> {
    if cur.peek() != Some(b'[') {
        return Ok(None);
    }
    cur.begin_array()?;
    let mut started = false;
    if !cur.next_item(&mut started)? {
        return Ok(None);
    }
    let Some(t) = cur.value()?.as_i64().and_then(|t| usize::try_from(t).ok()) else {
        return Ok(None);
    };
    if !cur.next_item(&mut started)? {
        return Ok(None);
    }
    let Some(cfg) = cur.array_of(DbValue::read_json)? else {
        return Ok(None);
    };
    if cur.next_item(&mut started)? {
        return Ok(None);
    }
    Ok(Some((t, cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gptune_db_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            kind: CheckpointKind::Mla,
            sig: 0x1234_5678_9abc_def0,
            seed: 3,
            eps_total: 20,
            iteration: 4,
            eps: 14,
            n_preloaded: 2,
            points: vec![
                (0, vec![DbValue::Real(0.25), DbValue::Int(32)]),
                (1, vec![DbValue::Real(0.75), DbValue::Int(64)]),
                (0, vec![DbValue::Cat(1), DbValue::Int(16)]),
            ],
            outputs: vec![vec![1.5], vec![f64::INFINITY], vec![2.25]],
            fails: vec![CkptFail {
                index: 1,
                kind: FailKind::Crashed,
                attempts: 2,
                elapsed_secs: 0.5,
            }],
            stats: RunStats {
                objective_virtual_secs: 55.5,
                objective_wall_secs: 0.25,
                modeling_wall_secs: 1.5,
                search_wall_secs: 0.75,
                n_evals: 14,
                n_crashed: 1,
                ..RunStats::default()
            },
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        let c = sample();
        let back = Checkpoint::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back.kind, c.kind);
        assert_eq!(back.sig, c.sig);
        assert_eq!(back.points, c.points);
        assert_eq!(back.outputs[0], c.outputs[0]);
        assert_eq!(back.outputs[1], c.outputs[1]);
        assert_eq!(back.stats, c.stats);
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_on_disk_and_remove() {
        let d = tmpdir("disk");
        let p = d.join("ckpt.json");
        assert_eq!(Checkpoint::load(&p).unwrap(), None);
        let c = sample();
        c.save(&p).unwrap();
        assert_eq!(Checkpoint::load(&p).unwrap(), Some(c.clone()));
        // Overwrite is atomic and replaces fully.
        let mut c2 = c.clone();
        c2.iteration = 5;
        c2.save(&p).unwrap();
        assert_eq!(Checkpoint::load(&p).unwrap().unwrap().iteration, 5);
        Checkpoint::remove(&p).unwrap();
        assert_eq!(Checkpoint::load(&p).unwrap(), None);
        Checkpoint::remove(&p).unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_checkpoint_is_loud() {
        let d = tmpdir("corrupt");
        let p = d.join("ckpt.json");
        std::fs::write(&p, "{\"kind\":\"mla\",\"sig\":").unwrap();
        let e = Checkpoint::load(&p).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut c = sample();
        c.outputs.pop();
        assert!(Checkpoint::from_json_str(&c.to_json_string()).is_err());
    }

    #[test]
    fn fails_roundtrip_and_validate() {
        let c = sample();
        let back = Checkpoint::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back.fails, c.fails);
        // A failure index past the archive is a corrupt snapshot.
        let mut bad = sample();
        bad.fails[0].index = bad.points.len();
        assert!(Checkpoint::from_json_str(&bad.to_json_string()).is_err());
    }

    #[test]
    fn n_preloaded_beyond_points_rejected() {
        let mut c = sample();
        c.n_preloaded = c.points.len();
        assert!(Checkpoint::from_json_str(&c.to_json_string()).is_ok());
        // More preloaded rows than points: a resumed run would subtract
        // past zero when counting its own evaluations.
        c.n_preloaded = c.points.len() + 1;
        assert_eq!(
            Checkpoint::from_json_str(&c.to_json_string()),
            Err("n_preloaded out of range".to_string())
        );
        let d = tmpdir("preloaded");
        let p = d.join("ckpt.json");
        c.save(&p).unwrap();
        let e = Checkpoint::load(&p).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn checkpoint_without_fails_field_parses_empty() {
        // Snapshots written before the fault-tolerant runtime have no
        // "fails" key; they must load with an empty failure set.
        let mut c = sample();
        c.fails.clear();
        let doc = c.to_json_string().replace(",\"fails\":[]", "");
        assert!(!doc.contains("fails"));
        let back = Checkpoint::from_json_str(&doc).unwrap();
        assert_eq!(back.fails, Vec::new());
        assert_eq!(back.points, c.points);
    }

    #[test]
    fn mo_kind_roundtrips() {
        let mut c = sample();
        c.kind = CheckpointKind::MlaMo;
        let back = Checkpoint::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back.kind, CheckpointKind::MlaMo);
    }
}
