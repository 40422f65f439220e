//! The archive's hot JSON paths against tree oracles.
//!
//! `Checkpoint::to_json_string`, `DbEntry::to_line` and
//! `DbEntry::dedup_key` write straight into a `String`, and
//! `Checkpoint::from_json_str` reads `points`/`outputs` in place. The
//! oracles below build and walk a whole `gptune_db::json::Json` tree
//! instead, using only the public API. The tests pin the fast forms to
//! them: byte-identical documents, lines and keys, equal decoded
//! checkpoints, and a seeded mutational fuzz in which both decoders must
//! agree on every input (equal values, or both `Err`).

use gptune_db::json::{self, Json};
use gptune_db::{
    Checkpoint, CheckpointKind, CkptFail, DbEntry, DbRecord, DbValue, FailKind, FailRecord,
    Provenance, RunStats, RunSummary,
};

// ---- tree oracles --------------------------------------------------------

fn tree_value(v: &DbValue) -> Json {
    match v {
        DbValue::Real(x) => Json::Obj(vec![("r".into(), Json::from_f64(*x))]),
        DbValue::Int(x) => Json::Obj(vec![("i".into(), Json::Int(*x))]),
        DbValue::Cat(i) => Json::Obj(vec![("c".into(), Json::Int(*i as i64))]),
    }
}

fn tree_values(vs: &[DbValue]) -> Json {
    Json::Arr(vs.iter().map(tree_value).collect())
}

fn tree_stats(s: &RunStats) -> Json {
    Json::Obj(vec![
        (
            "objective_s".into(),
            Json::from_f64(s.objective_virtual_secs),
        ),
        (
            "objective_wall_s".into(),
            Json::from_f64(s.objective_wall_secs),
        ),
        ("modeling_s".into(), Json::from_f64(s.modeling_wall_secs)),
        ("search_s".into(), Json::from_f64(s.search_wall_secs)),
        ("n_evals".into(), Json::from_u64(s.n_evals)),
        ("n_crashed".into(), Json::from_u64(s.n_crashed)),
        ("n_timed_out".into(), Json::from_u64(s.n_timed_out)),
        ("n_invalid".into(), Json::from_u64(s.n_invalid)),
        ("n_transient".into(), Json::from_u64(s.n_transient)),
        ("n_retries".into(), Json::from_u64(s.n_retries)),
    ])
}

fn tree_prov(p: &Provenance) -> Json {
    let mut pairs = vec![
        ("seed".to_string(), Json::from_u64(p.seed)),
        ("run".to_string(), Json::Str(p.run.clone())),
    ];
    if let Some(m) = &p.machine {
        pairs.push(("machine".to_string(), Json::Str(m.clone())));
    }
    Json::Obj(pairs)
}

fn tree_checkpoint(c: &Checkpoint) -> String {
    let points = c
        .points
        .iter()
        .map(|(t, cfg)| Json::Arr(vec![Json::Int(*t as i64), tree_values(cfg)]))
        .collect();
    let outputs = c
        .outputs
        .iter()
        .map(|o| Json::Arr(o.iter().map(|x| Json::from_f64(*x)).collect()))
        .collect();
    let fails = c
        .fails
        .iter()
        .map(|f| {
            Json::Arr(vec![
                Json::Int(f.index as i64),
                Json::Str(f.kind.as_str().into()),
                Json::from_u64(f.attempts),
                Json::from_f64(f.elapsed_secs),
            ])
        })
        .collect();
    let kind = match c.kind {
        CheckpointKind::Mla => "mla",
        CheckpointKind::MlaMo => "mla_mo",
        CheckpointKind::Tla => "tla",
    };
    Json::Obj(vec![
        ("v".into(), Json::Int(gptune_db::record::FORMAT_VERSION)),
        ("kind".into(), Json::Str(kind.into())),
        ("sig".into(), Json::Str(format!("{:016x}", c.sig))),
        ("seed".into(), Json::from_u64(c.seed)),
        ("eps_total".into(), Json::Int(c.eps_total as i64)),
        ("iteration".into(), Json::Int(c.iteration as i64)),
        ("eps".into(), Json::Int(c.eps as i64)),
        ("n_preloaded".into(), Json::Int(c.n_preloaded as i64)),
        ("points".into(), Json::Arr(points)),
        ("outputs".into(), Json::Arr(outputs)),
        ("fails".into(), Json::Arr(fails)),
        ("stats".into(), tree_stats(&c.stats)),
    ])
    .to_string()
}

fn tree_line(e: &DbEntry) -> String {
    let head = |kind: &str, problem: &str, sig: u64| -> Vec<(String, Json)> {
        vec![
            ("v".into(), Json::Int(gptune_db::record::FORMAT_VERSION)),
            ("kind".into(), Json::Str(kind.into())),
            ("problem".into(), Json::Str(problem.into())),
            ("sig".into(), Json::Str(format!("{sig:016x}"))),
        ]
    };
    let mut pairs;
    match e {
        DbEntry::Eval(r) => {
            pairs = head("eval", &r.problem, r.sig);
            pairs.push(("task".into(), tree_values(&r.task)));
            pairs.push(("config".into(), tree_values(&r.config)));
            pairs.push((
                "outputs".into(),
                Json::Arr(r.outputs.iter().map(|x| Json::from_f64(*x)).collect()),
            ));
            pairs.push(("prov".into(), tree_prov(&r.prov)));
        }
        DbEntry::Run(r) => {
            pairs = head("run", &r.problem, r.sig);
            pairs.push(("prov".into(), tree_prov(&r.prov)));
            pairs.push(("stats".into(), tree_stats(&r.stats)));
        }
        DbEntry::Fail(r) => {
            pairs = head("fail", &r.problem, r.sig);
            pairs.push(("task".into(), tree_values(&r.task)));
            pairs.push(("config".into(), tree_values(&r.config)));
            pairs.push(("fail_kind".into(), Json::Str(r.kind.as_str().into())));
            pairs.push(("attempts".into(), Json::from_u64(r.attempts)));
            pairs.push(("elapsed_s".into(), Json::from_f64(r.elapsed_secs)));
            pairs.push(("prov".into(), tree_prov(&r.prov)));
        }
    }
    Json::Obj(pairs).to_string()
}

fn tree_dedup_key(e: &DbEntry) -> String {
    match e {
        DbEntry::Eval(r) => {
            let mut k = format!("e:{:016x}", r.sig);
            for v in r.task.iter().chain(&r.config) {
                k.push_str(&format!("|{}", tree_value(v)));
            }
            for o in &r.outputs {
                k.push_str(&format!("|{}", Json::from_f64(*o)));
            }
            k
        }
        DbEntry::Run(r) => format!("r:{:016x}|{}", r.sig, r.prov.run),
        DbEntry::Fail(r) => {
            let mut k = format!("f:{:016x}|{}", r.sig, r.kind.as_str());
            for v in r.task.iter().chain(&r.config) {
                k.push_str(&format!("|{}", tree_value(v)));
            }
            k
        }
    }
}

fn tree_value_from(j: &Json) -> Option<DbValue> {
    if let Some(r) = j.get("r") {
        return Some(DbValue::Real(r.as_f64()?));
    }
    if let Some(i) = j.get("i") {
        return Some(DbValue::Int(i.as_i64()?));
    }
    if let Some(c) = j.get("c") {
        return usize::try_from(c.as_i64()?).ok().map(DbValue::Cat);
    }
    None
}

fn tree_stats_from(j: &Json) -> RunStats {
    let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
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

/// The whole-tree checkpoint decoder, including the rule that
/// `n_preloaded` may not exceed the number of points.
fn tree_decode(s: &str) -> Result<Checkpoint, String> {
    let j = json::parse(s).map_err(|e| e.to_string())?;
    let kind = match j.get("kind").and_then(Json::as_str) {
        Some("mla") => CheckpointKind::Mla,
        Some("mla_mo") => CheckpointKind::MlaMo,
        Some("tla") => CheckpointKind::Tla,
        _ => return Err("bad 'kind'".into()),
    };
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
    let points = j
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("bad 'points'")?
        .iter()
        .map(|p| {
            let pair = p.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let t = usize::try_from(pair.first()?.as_i64()?).ok()?;
            let cfg: Option<Vec<DbValue>> =
                pair.get(1)?.as_arr()?.iter().map(tree_value_from).collect();
            Some((t, cfg?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("bad 'points'")?;
    let outputs = j
        .get("outputs")
        .and_then(Json::as_arr)
        .ok_or("bad 'outputs'")?
        .iter()
        .map(|o| o.as_arr()?.iter().map(Json::as_f64).collect())
        .collect::<Option<Vec<Vec<f64>>>>()
        .ok_or("bad 'outputs'")?;
    if points.len() != outputs.len() {
        return Err("points/outputs length mismatch".into());
    }
    if n_preloaded > points.len() {
        return Err("n_preloaded out of range".into());
    }
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
    let stats = j.get("stats").map(tree_stats_from).unwrap_or_default();
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

/// Total equality: `Debug` spells every float exactly, so it also tells
/// `-0.0` from `0.0` and matches `NaN` with `NaN`.
fn same(a: &Checkpoint, b: &Checkpoint) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

// ---- sample values ---------------------------------------------------------

const AWKWARD_F64: [f64; 9] = [
    -0.0,
    5e-324,
    1e21,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    0.1,
    1.0 / 3.0,
    2.0,
];

const AWKWARD_STR: [&str; 5] = [
    "plain",
    "quote \" and backslash \\ inside",
    "control \u{1}\u{8}\u{c}\n\r\t\u{1f} chars",
    "non-ASCII: π, Ω, 東京, 🙂",
    "",
];

fn awkward_values() -> Vec<DbValue> {
    let mut vs: Vec<DbValue> = AWKWARD_F64.iter().map(|x| DbValue::Real(*x)).collect();
    vs.extend([
        DbValue::Int(i64::MIN),
        DbValue::Int(i64::MAX),
        DbValue::Int(0),
        DbValue::Int(-1),
        DbValue::Cat(0),
        DbValue::Cat(7),
    ]);
    vs
}

fn awkward_stats() -> RunStats {
    RunStats {
        objective_virtual_secs: 1e21,
        objective_wall_secs: -0.0,
        modeling_wall_secs: f64::NAN,
        search_wall_secs: 5e-324,
        n_evals: u64::MAX,
        n_crashed: 1,
        n_timed_out: 2,
        n_invalid: 3,
        n_transient: 4,
        n_retries: 5,
    }
}

fn checkpoints() -> Vec<Checkpoint> {
    let vals = awkward_values();
    let empty = Checkpoint {
        kind: CheckpointKind::Mla,
        sig: 0,
        seed: 0,
        eps_total: 0,
        iteration: 0,
        eps: 0,
        n_preloaded: 0,
        points: Vec::new(),
        outputs: Vec::new(),
        fails: Vec::new(),
        stats: RunStats::default(),
    };
    let mut single = Checkpoint {
        kind: CheckpointKind::Tla,
        sig: u64::MAX,
        seed: u64::MAX,
        eps_total: 20,
        iteration: 3,
        eps: 13,
        n_preloaded: 1,
        ..empty.clone()
    };
    for (k, x) in AWKWARD_F64.iter().enumerate() {
        single.points.push((k % 3, vals.clone()));
        single.outputs.push(vec![*x]);
    }
    single.fails = vec![
        CkptFail {
            index: 0,
            kind: FailKind::Crashed,
            attempts: u64::MAX,
            elapsed_secs: f64::NAN,
        },
        CkptFail {
            index: AWKWARD_F64.len() - 1,
            kind: FailKind::TimedOut,
            attempts: 1,
            elapsed_secs: -0.0,
        },
    ];
    single.stats = awkward_stats();
    let mut multi = Checkpoint {
        kind: CheckpointKind::MlaMo,
        sig: 0x0123_4567_89ab_cdef,
        seed: 7,
        eps_total: 10,
        iteration: 2,
        eps: 6,
        n_preloaded: 2,
        ..empty.clone()
    };
    for (k, v) in vals.iter().enumerate() {
        multi
            .points
            .push((0, vec![v.clone(), DbValue::Int(k as i64)]));
        multi
            .outputs
            .push(vec![AWKWARD_F64[k % AWKWARD_F64.len()], 1e21, -0.0]);
    }
    multi.fails.push(CkptFail {
        index: 3,
        kind: FailKind::Transient,
        attempts: 3,
        elapsed_secs: 1e21,
    });
    // An empty configuration and an empty output vector are legal shapes.
    let mut hollow = empty.clone();
    hollow.points.push((2, Vec::new()));
    hollow.outputs.push(Vec::new());
    vec![empty, single, multi, hollow]
}

fn provenances() -> Vec<Provenance> {
    let mut ps: Vec<Provenance> = AWKWARD_STR
        .iter()
        .map(|s| Provenance {
            seed: u64::MAX,
            run: (*s).to_string(),
            machine: Some(format!("m-{s}")),
        })
        .collect();
    ps.push(Provenance::default());
    ps
}

fn entries() -> Vec<DbEntry> {
    let vals = awkward_values();
    let mut es = Vec::new();
    for (k, prov) in provenances().into_iter().enumerate() {
        let problem = AWKWARD_STR[k % AWKWARD_STR.len()].to_string();
        let sig = 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(k as u64 + 1);
        es.push(DbEntry::Eval(DbRecord {
            problem: problem.clone(),
            sig,
            task: vec![DbValue::Int(i64::MIN), DbValue::Real(-0.0)],
            config: vals.clone(),
            outputs: AWKWARD_F64.to_vec(),
            prov: prov.clone(),
        }));
        es.push(DbEntry::Eval(DbRecord {
            problem: problem.clone(),
            sig,
            task: Vec::new(),
            config: Vec::new(),
            outputs: Vec::new(),
            prov: prov.clone(),
        }));
        es.push(DbEntry::Run(RunSummary {
            problem: problem.clone(),
            sig,
            prov: prov.clone(),
            stats: awkward_stats(),
        }));
        for kind in [
            FailKind::Crashed,
            FailKind::TimedOut,
            FailKind::Invalid,
            FailKind::Transient,
        ] {
            es.push(DbEntry::Fail(FailRecord {
                problem: problem.clone(),
                sig,
                task: vec![DbValue::Cat(3)],
                config: vals.clone(),
                kind,
                attempts: u64::MAX,
                elapsed_secs: AWKWARD_F64[k % AWKWARD_F64.len()],
                prov: prov.clone(),
            }));
        }
    }
    es
}

// ---- equivalence -----------------------------------------------------------

#[test]
fn checkpoint_documents_are_byte_identical() {
    for c in checkpoints() {
        assert_eq!(c.to_json_string(), tree_checkpoint(&c), "{c:?}");
    }
}

#[test]
fn journal_lines_are_byte_identical() {
    for e in entries() {
        assert_eq!(e.to_line(), tree_line(&e), "{e:?}");
    }
}

#[test]
fn dedup_keys_are_equal() {
    for e in entries() {
        assert_eq!(e.dedup_key(), tree_dedup_key(&e), "{e:?}");
    }
}

/// Bytes written by the tree encoders, pinned independently of the
/// oracles above: one checkpoint in full, and an FNV-1a digest over every
/// sample document, journal line and dedup key.
#[test]
fn encoded_bytes_match_the_pinned_format() {
    assert_eq!(
        fuzz_bases()[1].to_json_string(),
        concat!(
            r#"{"v":1,"kind":"mla_mo","sig":"00000000000000ff","seed":"3","eps_total":4,"#,
            r#""iteration":1,"eps":2,"n_preloaded":2,"points":[[0,[{"r":0.5},{"i":5},{"c":1}]],"#,
            r#"[1,[{"r":-0.0},{"i":-2},{"c":0}]],[0,[{"r":1000000000000000000000.0},{"i":7},"#,
            r#"{"c":2}]]],"outputs":[[1.0,"nan"],[2.0,3.0],[-1.0,0.25]],"fails":[],"stats":"#,
            r#"{"objective_s":1.5,"objective_wall_s":0.0,"modeling_s":0.0,"search_s":0.0,"#,
            r#""n_evals":"3","n_crashed":"0","n_timed_out":"0","n_invalid":"0","n_transient":"0","#,
            r#""n_retries":"0"}}"#,
        )
    );
    let mut all = String::new();
    for c in checkpoints() {
        all.push_str(&c.to_json_string());
        all.push('\n');
    }
    for e in entries() {
        all.push_str(&e.to_line());
        all.push('\n');
        all.push_str(&e.dedup_key());
        all.push('\n');
    }
    assert_eq!(gptune_db::fnv1a(all.as_bytes()), PINNED_DIGEST, "{all}");
}

/// Digest of the sample bytes as the tree encoders wrote them.
const PINNED_DIGEST: u64 = 0x73a1_b61e_93d5_40cf;

#[test]
fn decoded_checkpoints_are_equal() {
    for c in checkpoints() {
        let doc = c.to_json_string();
        let fast = Checkpoint::from_json_str(&doc).expect("fast decode");
        let tree = tree_decode(&doc).expect("tree decode");
        assert!(same(&fast, &tree), "{fast:?}\n{tree:?}");
        assert!(same(&fast, &c), "{fast:?}\n{c:?}");
    }
}

/// Documents that are not what the writer emits but that the decoder has
/// always accepted or rejected: reordered and unknown keys, duplicates
/// (first wins), value objects with several tags (`r` beats `i` beats
/// `c`), whitespace, and shapes that must fail.
#[test]
fn hand_written_documents_decode_alike() {
    let base = r#""kind":"mla","sig":"00000000000000ff","seed":"3","eps_total":4,"iteration":1,"eps":2,"n_preloaded":1"#;
    let docs = [
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{"outputs":[[1]],"points":[[0,[{{"c":3,"i":2,"r":0.5}}]]],{base}}}"#),
        format!(r#"{{{base},"points":[[0,[{{"c":3,"i":2}}]]],"outputs":[["inf"]],"x":[{{}}]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"c":3,"i":2,"i":"x"}}]]],"outputs":[["nan"]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"c":3}}]]],"points":7,"outputs":[[-0.0]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"z":1,"c":3}}]]],"outputs":[["\u0069nf"]]}}"#),
        format!(
            r#" {{ {base} , "points" : [ [ 0 , [ {{ "r" : 1e400 }} ] ] ] , "outputs" : [ [ 2 ] ] }} "#
        ),
        format!(
            r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[[1.5]],"stats":{{"n_evals":"9"}}}}"#
        ),
        format!(
            r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[[1.5]],"fails":[[0,"crashed","2",0.5]]}}"#
        ),
        format!(r#"{{{base},"points":[[0,[{{"i":2.0}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"r":"x","i":2}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"c":-1}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,[[]]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[1e0,[{{"i":2}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[-1,[{{"i":2}}]]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}],3]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,{{"i":2}}]],"outputs":[[1.5]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[[null]]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[1.5]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[]}}"#),
        format!(r#"{{{base},"points":[],"outputs":[]}}"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[[1.5]],"points":[}}"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]],"outputs":[[1.5]]}} x"#),
        format!(r#"{{{base},"points":[[0,[{{"i":2}}]]]}}"#),
        format!(r#"{{{base},"outputs":[[1.5]]}}"#),
        format!(r#"[{{{base},"points":[],"outputs":[]}}]"#),
    ];
    let mut accepted = 0;
    for doc in &docs {
        let fast = Checkpoint::from_json_str(doc);
        let tree = tree_decode(doc);
        match (&fast, &tree) {
            (Ok(a), Ok(b)) => {
                assert!(same(a, b), "{doc}\n{a:?}\n{b:?}");
                accepted += 1;
            }
            (Err(_), Err(_)) => {}
            _ => panic!("decoders disagree on {doc}:\n{fast:?}\n{tree:?}"),
        }
    }
    assert_eq!(accepted, 9, "documents the decoders accept");
}

// ---- differential fuzz -----------------------------------------------------

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

/// Splits a JSON document into tokens: structural bytes, whole strings
/// (escapes included) and runs of anything else (numbers, keywords).
fn tokens(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = doc.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' | '}' | '[' | ']' | ',' | ':' | ' ' => out.push(c.to_string()),
            '"' => {
                let mut s = String::from('"');
                while let Some(d) = chars.next() {
                    s.push(d);
                    if d == '\\' {
                        if let Some(e) = chars.next() {
                            s.push(e);
                        }
                    } else if d == '"' {
                        break;
                    }
                }
                out.push(s);
            }
            _ => {
                let mut s = c.to_string();
                while let Some(&d) = chars.peek() {
                    if "{}[],:\" ".contains(d) {
                        break;
                    }
                    s.push(d);
                    chars.next();
                }
                out.push(s);
            }
        }
    }
    out
}

/// Tokens the mutator draws from besides the document's own, by class:
/// a token replaced by one of its own class often leaves a document that
/// still parses, so the decoded values get compared too.
const SCALARS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "3",
    "99",
    "1.5",
    "-0.0",
    "1e0",
    "1e400",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "null",
    "true",
    "\"inf\"",
    "\"-inf\"",
    "\"nan\"",
    "\"\\u0069nf\"",
    "\"7\"",
    "\"x\"",
    "\"crashed\"",
    "\"mla_mo\"",
];
const KEYS: &[&str] = &[
    "\"r\"",
    "\"i\"",
    "\"c\"",
    "\"points\"",
    "\"outputs\"",
    "\"fails\"",
    "\"n_preloaded\"",
    "\"kind\"",
    "\"sig\"",
    "\"seed\"",
    "\"eps\"",
    "\"stats\"",
    "\"n_evals\"",
    "\"x\"",
];
const SHAPES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "[]",
    "{}",
    "{\"r\":1}",
    "{\"i\":1}",
    "[0,[]]",
    "[1.5]",
];

fn is_key(tok: &str) -> bool {
    tok.starts_with('"') && KEYS.contains(&tok)
}

/// Mutates `base` by 1–3 token insertions, deletions and replacements,
/// most of them by a token of the same class.
fn mutate(rng: &mut Mix, base: &[String]) -> String {
    let mut toks = base.to_vec();
    let any = |rng: &mut Mix| -> String {
        let pool = [SCALARS, KEYS, SHAPES][rng.below(3)];
        pool[rng.below(pool.len())].to_string()
    };
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(toks.len().max(1));
        match rng.below(8) {
            0 => {
                let t = if rng.below(2) == 0 {
                    base[rng.below(base.len())].clone()
                } else {
                    any(rng)
                };
                toks.insert(rng.below(toks.len() + 1), t);
            }
            1 if at < toks.len() => {
                toks.remove(at);
            }
            2 if at < toks.len() => toks[at] = any(rng),
            _ if at < toks.len() => {
                let t = &toks[at];
                let pool = if is_key(t) {
                    KEYS
                } else if SHAPES.contains(&t.as_str()) {
                    SHAPES
                } else {
                    SCALARS
                };
                toks[at] = pool[rng.below(pool.len())].to_string();
            }
            _ => {}
        }
    }
    toks.concat()
}

/// Small checkpoints with every field shape, as fuzz seeds.
fn fuzz_bases() -> Vec<Checkpoint> {
    let mut c = Checkpoint {
        kind: CheckpointKind::Mla,
        sig: 0xff,
        seed: 3,
        eps_total: 4,
        iteration: 1,
        eps: 2,
        n_preloaded: 2,
        points: vec![
            (
                0,
                vec![DbValue::Real(0.5), DbValue::Int(5), DbValue::Cat(1)],
            ),
            (
                1,
                vec![DbValue::Real(-0.0), DbValue::Int(-2), DbValue::Cat(0)],
            ),
            (
                0,
                vec![DbValue::Real(1e21), DbValue::Int(7), DbValue::Cat(2)],
            ),
        ],
        outputs: vec![vec![1.5], vec![f64::INFINITY], vec![2.0]],
        fails: vec![CkptFail {
            index: 1,
            kind: FailKind::Crashed,
            attempts: 2,
            elapsed_secs: 0.5,
        }],
        stats: RunStats {
            objective_virtual_secs: 1.5,
            n_evals: 3,
            ..RunStats::default()
        },
    };
    let mut mo = c.clone();
    mo.kind = CheckpointKind::MlaMo;
    mo.outputs = vec![vec![1.0, f64::NAN], vec![2.0, 3.0], vec![-1.0, 0.25]];
    mo.fails.clear();
    c.points.truncate(2);
    c.outputs.truncate(2);
    let mut empty = c.clone();
    empty.points.clear();
    empty.outputs.clear();
    empty.fails.clear();
    empty.n_preloaded = 0;
    vec![c, mo, empty]
}

#[test]
fn fuzzed_checkpoints_decode_alike() {
    // Release builds (the tier-1 gate) run ten times the debug count.
    let cases: usize = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };
    let bases: Vec<Vec<String>> = fuzz_bases()
        .iter()
        .map(|c| tokens(&c.to_json_string()))
        .collect();
    for (b, c) in bases.iter().zip(fuzz_bases()) {
        assert_eq!(b.concat(), c.to_json_string(), "tokens cover the document");
    }

    let mut rng = Mix(0x5eed_c0de_ca11_ab1e);
    let mut decoded = 0usize;
    for case in 0..cases {
        let base = &bases[rng.below(bases.len())];
        let doc = mutate(&mut rng, base);
        let fast = Checkpoint::from_json_str(&doc);
        let tree = tree_decode(&doc);
        match (&fast, &tree) {
            (Ok(a), Ok(b)) => {
                assert!(same(a, b), "case {case}: {doc}\n{a:?}\n{b:?}");
                decoded += 1;
            }
            (Err(_), Err(_)) => {}
            _ => panic!("case {case}: decoders disagree on {doc}:\n{fast:?}\n{tree:?}"),
        }
    }
    // Mutations that keep a document valid must be common enough for the
    // comparison of decoded values to mean something.
    assert!(decoded * 20 > cases, "only {decoded} of {cases} decoded");
}
