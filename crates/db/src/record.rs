//! Journal record types and their JSONL encoding.
//!
//! A journal line is a single JSON object with a `"kind"` discriminator:
//!
//! * `"eval"` — one archived objective evaluation: problem identity
//!   (name + signature), task values, tuning-configuration values,
//!   objective outputs, and provenance (seed, run id, machine);
//! * `"run"` — a run summary carrying the `stats:` phase breakdown of one
//!   tuner execution, so archived runs render side-by-side like GPTune
//!   runlogs;
//! * `"fail"` — one classified evaluation failure (crash, deadline
//!   expiry, invalid measurement, exhausted transient retries) with its
//!   attempt count and elapsed time, so resumed and warm-started runs
//!   know which configurations are known to fail.
//!
//! Unknown kinds and unknown fields are skipped by readers, which is the
//! forward-compatibility contract: a v2 writer must only *add* fields or
//! kinds.

use crate::json::{self, Cursor, Json, ParseError};
use std::fmt::Write as _;

/// Current journal format version stamped on every line.
pub const FORMAT_VERSION: i64 = 1;

/// A typed parameter value, mirroring `gptune_space::Value` without the
/// dependency (the core crate converts at the boundary).
#[derive(Debug, Clone, PartialEq)]
pub enum DbValue {
    /// Real-valued parameter.
    Real(f64),
    /// Integer parameter.
    Int(i64),
    /// Categorical parameter (index into the choice list).
    Cat(usize),
}

impl DbValue {
    /// Appends the value object: `{"r":x}` (spelled by
    /// [`json::write_f64`]), `{"i":n}` or `{"c":k}`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            DbValue::Real(x) => {
                out.push_str("{\"r\":");
                json::write_f64(*x, out);
            }
            DbValue::Int(x) => {
                out.push_str("{\"i\":");
                json::write_i64(*x, out);
            }
            DbValue::Cat(i) => {
                out.push_str("{\"c\":");
                json::write_i64(*i as i64, out);
            }
        }
        out.push('}');
    }

    fn from_json(j: &Json) -> Option<DbValue> {
        DbValue::from_tags(j.get("r"), j.get("i"), j.get("c"))
    }

    /// Reads one value object in place, by the rule of
    /// [`DbValue::from_json`]; `Ok(None)` when the next value is not one.
    pub(crate) fn read_json(cur: &mut Cursor) -> Result<Option<DbValue>, ParseError> {
        if cur.peek() != Some(b'{') {
            return Ok(None);
        }
        cur.begin_object()?;
        let (mut r, mut i, mut c) = (None, None, None);
        let mut started = false;
        while let Some(key) = cur.next_key(&mut started)? {
            let v = cur.value()?;
            let slot = match &*key {
                "r" => &mut r,
                "i" => &mut i,
                "c" => &mut c,
                _ => continue,
            };
            slot.get_or_insert(v);
        }
        Ok(DbValue::from_tags(r.as_ref(), i.as_ref(), c.as_ref()))
    }

    /// The first present tag decides, in the order `r`, `i`, `c`; a tag
    /// whose value has the wrong type is an error, not a fall-through.
    fn from_tags(r: Option<&Json>, i: Option<&Json>, c: Option<&Json>) -> Option<DbValue> {
        if let Some(r) = r {
            return Some(DbValue::Real(r.as_f64()?));
        }
        if let Some(i) = i {
            return Some(DbValue::Int(i.as_i64()?));
        }
        let idx = c?.as_i64()?;
        usize::try_from(idx).ok().map(DbValue::Cat)
    }

    /// Numeric view (matches `Value::as_f64` semantics).
    pub fn as_f64(&self) -> f64 {
        match self {
            DbValue::Real(x) => *x,
            DbValue::Int(x) => *x as f64,
            DbValue::Cat(i) => *i as f64,
        }
    }
}

/// Appends `vs` as a JSON array of value objects.
pub(crate) fn write_values(vs: &[DbValue], out: &mut String) {
    out.push('[');
    for (k, v) in vs.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        v.write_json(out);
    }
    out.push(']');
}

/// Appends `xs` as a JSON array of [`json::write_f64`] numbers.
pub(crate) fn write_f64s(xs: &[f64], out: &mut String) {
    out.push('[');
    for (k, x) in xs.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        json::write_f64(*x, out);
    }
    out.push(']');
}

/// Generous byte estimate of one written value object.
pub(crate) const VALUE_BYTES: usize = 24;

fn values_from_json(j: &Json) -> Option<Vec<DbValue>> {
    j.as_arr()?.iter().map(DbValue::from_json).collect()
}

/// Where a record came from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// Base RNG seed of the producing run.
    pub seed: u64,
    /// Run identifier (stable for all records of one tuner execution).
    pub run: String,
    /// Machine/model identifier, when known.
    pub machine: Option<String>,
}

impl Provenance {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"seed\":\"{}\",\"run\":", self.seed);
        json::write_escaped(&self.run, out);
        if let Some(m) = &self.machine {
            out.push_str(",\"machine\":");
            json::write_escaped(m, out);
        }
        out.push('}');
    }

    fn from_json(j: &Json) -> Provenance {
        Provenance {
            seed: j.get("seed").and_then(Json::as_u64).unwrap_or(0),
            run: j
                .get("run")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            machine: j.get("machine").and_then(Json::as_str).map(str::to_string),
        }
    }
}

/// The `stats:` phase breakdown of one tuner run (mirrors
/// `gptune_runtime::PhaseStats` in plain numbers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Virtual seconds inside simulated application runs.
    pub objective_virtual_secs: f64,
    /// Wall-clock seconds dispatching the objective.
    pub objective_wall_secs: f64,
    /// Wall-clock seconds in the modeling phase.
    pub modeling_wall_secs: f64,
    /// Wall-clock seconds in the search phase.
    pub search_wall_secs: f64,
    /// Number of objective evaluations.
    pub n_evals: u64,
    /// Evaluations whose objective panicked.
    pub n_crashed: u64,
    /// Evaluations expired by the watchdog deadline.
    pub n_timed_out: u64,
    /// Evaluations completed with an unusable measurement.
    pub n_invalid: u64,
    /// Evaluations that exhausted their transient retries.
    pub n_transient: u64,
    /// Total retry executions across all evaluations.
    pub n_retries: u64,
}

impl RunStats {
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "objective_s".into(),
                Json::from_f64(self.objective_virtual_secs),
            ),
            (
                "objective_wall_s".into(),
                Json::from_f64(self.objective_wall_secs),
            ),
            ("modeling_s".into(), Json::from_f64(self.modeling_wall_secs)),
            ("search_s".into(), Json::from_f64(self.search_wall_secs)),
            ("n_evals".into(), Json::from_u64(self.n_evals)),
            ("n_crashed".into(), Json::from_u64(self.n_crashed)),
            ("n_timed_out".into(), Json::from_u64(self.n_timed_out)),
            ("n_invalid".into(), Json::from_u64(self.n_invalid)),
            ("n_transient".into(), Json::from_u64(self.n_transient)),
            ("n_retries".into(), Json::from_u64(self.n_retries)),
        ])
    }

    pub(crate) fn from_json(j: &Json) -> RunStats {
        let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        // Failure counters default to 0 for journals written before the
        // fault-tolerant runtime existed.
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        RunStats {
            objective_virtual_secs: f("objective_s"),
            objective_wall_secs: f("objective_wall_s"),
            modeling_wall_secs: f("modeling_s"),
            search_wall_secs: f("search_s"),
            n_evals: u("n_evals"),
            n_crashed: u("n_crashed"),
            n_timed_out: u("n_timed_out"),
            n_invalid: u("n_invalid"),
            n_transient: u("n_transient"),
            n_retries: u("n_retries"),
        }
    }

    /// Total tuner seconds (virtual objective + modeling + search), the
    /// "total" column of the paper's Table 3.
    pub fn total_secs(&self) -> f64 {
        self.objective_virtual_secs + self.modeling_wall_secs + self.search_wall_secs
    }

    /// One-line report in the GPTune runlog style (matches
    /// `gptune_runtime::PhaseStats::report`, including the failure
    /// profile when the run saw faults).
    pub fn report(&self) -> String {
        let mut line = format!(
            "stats: total {:.1}s | objective {:.1}s ({} evals) | modeling {:.3}s | search {:.3}s",
            self.total_secs(),
            self.objective_virtual_secs,
            self.n_evals,
            self.modeling_wall_secs,
            self.search_wall_secs
        );
        let faults = self.n_crashed + self.n_timed_out + self.n_invalid + self.n_transient;
        if faults + self.n_retries > 0 {
            line.push_str(&format!(
                " | faults: {} crashed, {} timed-out, {} invalid, {} transient, {} retries",
                self.n_crashed, self.n_timed_out, self.n_invalid, self.n_transient, self.n_retries
            ));
        }
        line
    }
}

/// Failure classification of a `"fail"` journal line — mirrors
/// `gptune_runtime::FailureKind` without the dependency (this crate is
/// deliberately dependency-free; the core crate converts at the
/// boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The objective panicked.
    Crashed,
    /// The objective exceeded the evaluation deadline.
    TimedOut,
    /// The objective completed with an unusable measurement.
    Invalid,
    /// The objective kept failing transiently.
    Transient,
}

impl FailKind {
    /// Stable lower-case code used on the journal line.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailKind::Crashed => "crashed",
            FailKind::TimedOut => "timed-out",
            FailKind::Invalid => "invalid",
            FailKind::Transient => "transient",
        }
    }

    /// Inverse of [`FailKind::as_str`].
    pub fn parse(s: &str) -> Option<FailKind> {
        match s {
            "crashed" => Some(FailKind::Crashed),
            "timed-out" => Some(FailKind::TimedOut),
            "invalid" => Some(FailKind::Invalid),
            "transient" => Some(FailKind::Transient),
            _ => None,
        }
    }
}

/// One classified evaluation failure, archived alongside the (censored)
/// evaluation record so later runs can tell *why* a configuration has
/// non-finite outputs and skip re-evaluating known crashers.
#[derive(Debug, Clone, PartialEq)]
pub struct FailRecord {
    /// Problem name.
    pub problem: String,
    /// Problem signature.
    pub sig: u64,
    /// Task parameter values.
    pub task: Vec<DbValue>,
    /// Tuning configuration values.
    pub config: Vec<DbValue>,
    /// Failure classification.
    pub kind: FailKind,
    /// Number of execution attempts (> 1 means transient retries ran).
    pub attempts: u64,
    /// Wall-clock seconds from first dispatch to final failure.
    pub elapsed_secs: f64,
    /// Provenance of the failing run.
    pub prov: Provenance,
}

/// One archived evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct DbRecord {
    /// Problem name.
    pub problem: String,
    /// Problem signature (hash of name, spaces, objective count).
    pub sig: u64,
    /// Task parameter values.
    pub task: Vec<DbValue>,
    /// Tuning configuration values.
    pub config: Vec<DbValue>,
    /// Objective outputs (may contain non-finite values for failed runs).
    pub outputs: Vec<f64>,
    /// Provenance of the evaluation.
    pub prov: Provenance,
}

/// A run summary line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Problem name.
    pub problem: String,
    /// Problem signature.
    pub sig: u64,
    /// Provenance (seed, run id, machine).
    pub prov: Provenance,
    /// Phase breakdown of the run.
    pub stats: RunStats,
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum DbEntry {
    /// An archived evaluation.
    Eval(DbRecord),
    /// A run summary.
    Run(RunSummary),
    /// A classified evaluation failure.
    Fail(FailRecord),
}

impl DbEntry {
    /// Problem signature of the entry.
    pub fn sig(&self) -> u64 {
        match self {
            DbEntry::Eval(r) => r.sig,
            DbEntry::Run(r) => r.sig,
            DbEntry::Fail(r) => r.sig,
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let (kind, problem, sig, n_values) = match self {
            DbEntry::Eval(r) => (
                "eval",
                &r.problem,
                r.sig,
                r.task.len() + r.config.len() + r.outputs.len(),
            ),
            // The ten numbers of `RunStats`.
            DbEntry::Run(r) => ("run", &r.problem, r.sig, 10),
            DbEntry::Fail(r) => ("fail", &r.problem, r.sig, r.task.len() + r.config.len()),
        };
        let mut out = String::with_capacity(192 + problem.len() + VALUE_BYTES * n_values);
        let _ = write!(
            out,
            "{{\"v\":{FORMAT_VERSION},\"kind\":\"{kind}\",\"problem\":"
        );
        json::write_escaped(problem, &mut out);
        let _ = write!(out, ",\"sig\":\"{sig:016x}\"");
        match self {
            DbEntry::Eval(r) => {
                out.push_str(",\"task\":");
                write_values(&r.task, &mut out);
                out.push_str(",\"config\":");
                write_values(&r.config, &mut out);
                out.push_str(",\"outputs\":");
                write_f64s(&r.outputs, &mut out);
                out.push_str(",\"prov\":");
                r.prov.write_json(&mut out);
            }
            DbEntry::Run(r) => {
                out.push_str(",\"prov\":");
                r.prov.write_json(&mut out);
                out.push_str(",\"stats\":");
                r.stats.to_json().write(&mut out);
            }
            DbEntry::Fail(r) => {
                out.push_str(",\"task\":");
                write_values(&r.task, &mut out);
                out.push_str(",\"config\":");
                write_values(&r.config, &mut out);
                let _ = write!(
                    out,
                    ",\"fail_kind\":\"{}\",\"attempts\":\"{}\",\"elapsed_s\":",
                    r.kind.as_str(),
                    r.attempts
                );
                json::write_f64(r.elapsed_secs, &mut out);
                out.push_str(",\"prov\":");
                r.prov.write_json(&mut out);
            }
        }
        out.push('}');
        out
    }

    /// Parses one journal line. `Ok(None)` means the line is valid JSON of
    /// an unknown kind (skipped for forward compatibility); `Err` means the
    /// line is torn or malformed.
    pub fn from_line(line: &str) -> Result<Option<DbEntry>, String> {
        let j = crate::json::parse(line).map_err(|e| e.to_string())?;
        let kind = j.get("kind").and_then(Json::as_str).unwrap_or("eval");
        let problem = j
            .get("problem")
            .and_then(Json::as_str)
            .ok_or("missing 'problem'")?
            .to_string();
        let sig = parse_sig(&j).ok_or("missing 'sig'")?;
        let prov = j.get("prov").map(Provenance::from_json).unwrap_or_default();
        match kind {
            "eval" => {
                let task =
                    values_from_json(j.get("task").ok_or("missing 'task'")?).ok_or("bad 'task'")?;
                let config = values_from_json(j.get("config").ok_or("missing 'config'")?)
                    .ok_or("bad 'config'")?;
                let outputs: Vec<f64> = j
                    .get("outputs")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'outputs'")?
                    .iter()
                    .map(|x| x.as_f64().ok_or("bad output"))
                    .collect::<Result<_, _>>()?;
                Ok(Some(DbEntry::Eval(DbRecord {
                    problem,
                    sig,
                    task,
                    config,
                    outputs,
                    prov,
                })))
            }
            "run" => {
                let stats = j.get("stats").map(RunStats::from_json).unwrap_or_default();
                Ok(Some(DbEntry::Run(RunSummary {
                    problem,
                    sig,
                    prov,
                    stats,
                })))
            }
            "fail" => {
                let task =
                    values_from_json(j.get("task").ok_or("missing 'task'")?).ok_or("bad 'task'")?;
                let config = values_from_json(j.get("config").ok_or("missing 'config'")?)
                    .ok_or("bad 'config'")?;
                let kind_str = j
                    .get("fail_kind")
                    .and_then(Json::as_str)
                    .ok_or("missing 'fail_kind'")?;
                // An unknown failure kind comes from a newer writer with a
                // richer classification: skip, same as an unknown line kind.
                let Some(kind) = FailKind::parse(kind_str) else {
                    return Ok(None);
                };
                Ok(Some(DbEntry::Fail(FailRecord {
                    problem,
                    sig,
                    task,
                    config,
                    kind,
                    attempts: j.get("attempts").and_then(Json::as_u64).unwrap_or(1),
                    elapsed_secs: j.get("elapsed_s").and_then(Json::as_f64).unwrap_or(0.0),
                    prov,
                })))
            }
            _ => Ok(None), // unknown kind from a newer writer: skip
        }
    }

    /// Deduplication key: evals collapse on (sig, task, config, outputs);
    /// run summaries on (sig, run id).
    pub fn dedup_key(&self) -> String {
        let with_capacity = |n: usize| String::with_capacity(32 + VALUE_BYTES * n);
        match self {
            DbEntry::Eval(r) => {
                let mut k = with_capacity(r.task.len() + r.config.len() + r.outputs.len());
                let _ = write!(k, "e:{:016x}", r.sig);
                for v in r.task.iter().chain(&r.config) {
                    k.push('|');
                    v.write_json(&mut k);
                }
                for o in &r.outputs {
                    k.push('|');
                    json::write_f64(*o, &mut k);
                }
                k
            }
            DbEntry::Run(r) => format!("r:{:016x}|{}", r.sig, r.prov.run),
            DbEntry::Fail(r) => {
                let mut k = with_capacity(r.task.len() + r.config.len());
                let _ = write!(k, "f:{:016x}|{}", r.sig, r.kind.as_str());
                for v in r.task.iter().chain(&r.config) {
                    k.push('|');
                    v.write_json(&mut k);
                }
                k
            }
        }
    }
}

fn parse_sig(j: &Json) -> Option<u64> {
    let s = j.get("sig")?;
    if let Some(text) = s.as_str() {
        u64::from_str_radix(text, 16).ok()
    } else {
        s.as_u64()
    }
}

/// FNV-1a hash of a byte stream — the problem-signature primitive. Stable
/// across platforms and versions (unlike `DefaultHasher`), so archives
/// written on one machine resolve on another.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> DbRecord {
        DbRecord {
            problem: "pdgeqrf".into(),
            sig: 0xdead_beef_0123_4567,
            task: vec![DbValue::Int(1000), DbValue::Int(1000)],
            config: vec![DbValue::Int(32), DbValue::Real(0.5), DbValue::Cat(2)],
            outputs: vec![1.5, f64::INFINITY],
            prov: Provenance {
                seed: u64::MAX - 1,
                run: "seed3-eps20".into(),
                machine: Some("cori-haswell-4".into()),
            },
        }
    }

    #[test]
    fn eval_roundtrip() {
        let e = DbEntry::Eval(sample_record());
        let line = e.to_line();
        assert!(!line.contains('\n'));
        let back = DbEntry::from_line(&line).unwrap().unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn run_summary_roundtrip() {
        let e = DbEntry::Run(RunSummary {
            problem: "superlu".into(),
            sig: 42,
            prov: Provenance {
                seed: 7,
                run: "seed7".into(),
                machine: None,
            },
            stats: RunStats {
                objective_virtual_secs: 120.5,
                objective_wall_secs: 0.8,
                modeling_wall_secs: 2.25,
                search_wall_secs: 1.125,
                n_evals: 60,
                n_crashed: 3,
                n_timed_out: 1,
                n_invalid: 0,
                n_transient: 2,
                n_retries: 5,
            },
        });
        let back = DbEntry::from_line(&e.to_line()).unwrap().unwrap();
        assert_eq!(back, e);
        if let DbEntry::Run(r) = &back {
            assert!((r.stats.total_secs() - 123.875).abs() < 1e-12);
            assert!(r.stats.report().contains("60 evals"));
            assert!(r
                .stats
                .report()
                .contains("faults: 3 crashed, 1 timed-out, 0 invalid, 2 transient, 5 retries"));
        }
    }

    #[test]
    fn run_summary_without_failure_counters_parses_as_zero() {
        // Journals written before the fault-tolerant runtime carry no
        // failure counters; they must read back as zeros, and the report
        // line must omit the failure profile.
        let line = r#"{"v":1,"kind":"run","problem":"old","sig":"000000000000002a","prov":{"seed":1,"run":"seed1"},"stats":{"objective_s":10.0,"n_evals":5}}"#;
        let back = DbEntry::from_line(line).unwrap().unwrap();
        if let DbEntry::Run(r) = back {
            assert_eq!(r.stats.n_evals, 5);
            assert_eq!(r.stats.n_crashed, 0);
            assert_eq!(r.stats.n_retries, 0);
            assert!(!r.stats.report().contains("faults:"));
        } else {
            panic!("wrong kind");
        }
    }

    fn sample_fail() -> FailRecord {
        FailRecord {
            problem: "pdgeqrf".into(),
            sig: 0xdead_beef_0123_4567,
            task: vec![DbValue::Int(1000), DbValue::Int(1000)],
            config: vec![DbValue::Int(32), DbValue::Real(0.5)],
            kind: FailKind::Crashed,
            attempts: 3,
            elapsed_secs: 1.25,
            prov: Provenance {
                seed: 9,
                run: "seed9-eps20".into(),
                machine: None,
            },
        }
    }

    #[test]
    fn fail_record_roundtrip() {
        for kind in [
            FailKind::Crashed,
            FailKind::TimedOut,
            FailKind::Invalid,
            FailKind::Transient,
        ] {
            let mut r = sample_fail();
            r.kind = kind;
            let e = DbEntry::Fail(r);
            let line = e.to_line();
            assert!(!line.contains('\n'));
            let back = DbEntry::from_line(&line).unwrap().unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn fail_kind_roundtrips_through_str() {
        for k in [
            FailKind::Crashed,
            FailKind::TimedOut,
            FailKind::Invalid,
            FailKind::Transient,
        ] {
            assert_eq!(FailKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FailKind::parse("oom"), None);
    }

    #[test]
    fn unknown_fail_kind_skipped_not_error() {
        // A newer writer with a richer classification must not break us.
        let line = DbEntry::Fail(sample_fail())
            .to_line()
            .replace("\"crashed\"", "\"oom-killed\"");
        assert_eq!(DbEntry::from_line(&line).unwrap(), None);
    }

    #[test]
    fn fail_dedup_key_separates_kind_and_config() {
        let a = DbEntry::Fail(sample_fail());
        let mut b = sample_fail();
        b.kind = FailKind::TimedOut;
        assert_ne!(a.dedup_key(), DbEntry::Fail(b).dedup_key());
        let mut c = sample_fail();
        c.config[0] = DbValue::Int(64);
        assert_ne!(a.dedup_key(), DbEntry::Fail(c).dedup_key());
        // Same failure seen by two runs merges to one record.
        let mut d = sample_fail();
        d.prov.run = "other".into();
        d.attempts = 1;
        assert_eq!(a.dedup_key(), DbEntry::Fail(d).dedup_key());
    }

    #[test]
    fn nonfinite_outputs_roundtrip() {
        let mut r = sample_record();
        r.outputs = vec![f64::NAN, f64::NEG_INFINITY, 3.0];
        let back = DbEntry::from_line(&DbEntry::Eval(r).to_line())
            .unwrap()
            .unwrap();
        if let DbEntry::Eval(b) = back {
            assert!(b.outputs[0].is_nan());
            assert_eq!(b.outputs[1], f64::NEG_INFINITY);
            assert_eq!(b.outputs[2], 3.0);
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn unknown_kind_skipped_not_error() {
        let line = r#"{"v":3,"kind":"shard-manifest","problem":"x","sig":"00000000000000ff"}"#;
        assert_eq!(DbEntry::from_line(line).unwrap(), None);
    }

    #[test]
    fn newer_version_with_extra_fields_still_parses() {
        let mut e = DbEntry::Eval(sample_record()).to_line();
        // Simulate a v2 writer adding fields.
        e.insert(1, ' ');
        let e = e.replacen("{ ", "{\"future_field\":[1,2,3],", 1);
        let e = e.replace("\"v\":1", "\"v\":2");
        let back = DbEntry::from_line(&e).unwrap().unwrap();
        assert_eq!(back, DbEntry::Eval(sample_record()));
    }

    #[test]
    fn torn_line_is_error() {
        let line = DbEntry::Eval(sample_record()).to_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(DbEntry::from_line(&line[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn dedup_key_separates_records() {
        let a = DbEntry::Eval(sample_record());
        let mut r2 = sample_record();
        r2.outputs = vec![1.5, 2.0];
        let b = DbEntry::Eval(r2);
        assert_ne!(a.dedup_key(), b.dedup_key());
        assert_eq!(a.dedup_key(), a.clone().dedup_key());
        // Provenance does NOT affect eval identity (same measurement from
        // two runs merges to one record).
        let mut r3 = sample_record();
        r3.prov.run = "other-run".into();
        assert_eq!(a.dedup_key(), DbEntry::Eval(r3).dedup_key());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
