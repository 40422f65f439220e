//! The archive read path against its plain form.
//!
//! `Db::failures`, `Db::query` and `Db::run_summaries` read only their own
//! record kind from v2 shards, and every read deduplicates without
//! building `DbEntry::dedup_key` strings. The oracle here is the plain
//! form, using only the public API: load every shard and the live journal
//! in full, drop repeats of a `dedup_key` string (first occurrence wins),
//! then filter by kind. On generated archives (duplicates across shards and
//! the live head, corrupt and torn v2 records, a torn JSONL tail, NaN
//! payload variants, ±0.0, `Int(3)`/`Real(3.0)`/`Cat(3)`, and values that
//! move between task and config) every read must return exactly the
//! oracle's entries, bit for bit and in order. `journal_v2::crc32` is
//! pinned to a bit-at-a-time reference.

use gptune_db::journal_v2::{self, crc32};
use gptune_db::shard::{live_journal_path, load_shard, shard_path};
use gptune_db::{
    journal, Db, DbEntry, DbRecord, DbValue, FailKind, FailRecord, LockOptions, Provenance, Query,
    RunStats, RunSummary, ShardFormat, ShardInfo, ShardManifest,
};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

const PROBLEM: &str = "toy";
const SIG: u64 = 0xfeed;

/// SplitMix64, the generator of the archives below.
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

    fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())].clone()
    }
}

// ---- the plain read path -------------------------------------------------

/// The parent form of deduplication: keep the first entry of each
/// `dedup_key` string.
fn string_dedup(mut entries: Vec<DbEntry>) -> Vec<DbEntry> {
    let mut seen = HashSet::new();
    entries.retain(|e| seen.insert(e.dedup_key()));
    entries
}

/// Every shard in manifest order, then the live journal, each read in
/// full, deduplicated by key string.
fn oracle_all(root: &Path) -> Vec<DbEntry> {
    let mut entries = Vec::new();
    if let Some(manifest) = ShardManifest::load(root, PROBLEM, SIG).unwrap() {
        for info in &manifest.shards {
            entries.extend(load_shard(root, info).unwrap().0);
        }
    }
    entries.extend(
        journal::load(&live_journal_path(root, PROBLEM, SIG))
            .unwrap()
            .0,
    );
    string_dedup(entries)
}

/// An entry's text (strings, variants) and the bits of every float in it,
/// so NaN payloads and signed zeros count.
fn exact(e: &DbEntry) -> (String, Vec<u64>) {
    let values = |vs: &[DbValue]| -> Vec<u64> {
        vs.iter()
            .filter_map(|v| match v {
                DbValue::Real(x) => Some(x.to_bits()),
                _ => None,
            })
            .collect()
    };
    let bits = match e {
        DbEntry::Eval(r) => [values(&r.task), values(&r.config)]
            .concat()
            .into_iter()
            .chain(r.outputs.iter().map(|y| y.to_bits()))
            .collect(),
        DbEntry::Run(r) => [
            r.stats.objective_virtual_secs,
            r.stats.objective_wall_secs,
            r.stats.modeling_wall_secs,
            r.stats.search_wall_secs,
        ]
        .iter()
        .map(|x| x.to_bits())
        .collect(),
        DbEntry::Fail(r) => [values(&r.task), values(&r.config)]
            .concat()
            .into_iter()
            .chain([r.elapsed_secs.to_bits()])
            .collect(),
    };
    (format!("{e:?}"), bits)
}

fn exact_all(es: &[DbEntry]) -> Vec<(String, Vec<u64>)> {
    es.iter().map(exact).collect()
}

// ---- generated archives --------------------------------------------------

const ODD_NAN: u64 = 0x7ff8_0000_0000_0001;

fn value_pool() -> Vec<DbValue> {
    vec![
        DbValue::Int(3),
        DbValue::Real(3.0),
        DbValue::Cat(3),
        DbValue::Real(0.0),
        DbValue::Real(-0.0),
        DbValue::Real(f64::NAN),
        DbValue::Real(f64::from_bits(ODD_NAN)),
        DbValue::Real(-f64::NAN),
        DbValue::Int(-1),
        DbValue::Cat(0),
    ]
}

fn output_pool() -> Vec<f64> {
    vec![
        1.0,
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(ODD_NAN),
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

fn values(rng: &mut Mix, n: usize) -> Vec<DbValue> {
    let pool = value_pool();
    (0..n).map(|_| rng.pick(&pool)).collect()
}

/// A random entry from small pools, so exact and near duplicates are
/// common: task and config lengths 0–2 (a value can sit on either side of
/// the boundary), colliding run ids, every fail kind.
fn entry(rng: &mut Mix) -> DbEntry {
    let prov = Provenance {
        seed: rng.below(3) as u64,
        run: rng.pick(&["a", "b", "a|b"]).to_string(),
        machine: rng.pick(&[None, Some("m1".to_string()), Some("m2".to_string())]),
    };
    let (nt, nc) = (rng.below(3), rng.below(3));
    match rng.below(5) {
        0 | 1 => DbEntry::Eval(DbRecord {
            problem: PROBLEM.into(),
            sig: SIG,
            task: values(rng, nt),
            config: values(rng, nc),
            outputs: (0..rng.below(3))
                .map(|_| rng.pick(&output_pool()))
                .collect(),
            prov,
        }),
        2 => DbEntry::Run(RunSummary {
            problem: PROBLEM.into(),
            sig: SIG,
            prov,
            stats: RunStats {
                n_evals: rng.below(4) as u64,
                search_wall_secs: rng.pick(&output_pool()),
                ..RunStats::default()
            },
        }),
        _ => DbEntry::Fail(FailRecord {
            problem: PROBLEM.into(),
            sig: SIG,
            task: values(rng, nt),
            config: values(rng, nc),
            kind: rng.pick(&[
                FailKind::Crashed,
                FailKind::TimedOut,
                FailKind::Invalid,
                FailKind::Transient,
            ]),
            attempts: 1 + rng.below(3) as u64,
            elapsed_secs: rng.pick(&output_pool()),
            prov,
        }),
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gptune_db_read_path_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes `shards` as v2 shards under a manifest and `live` as the JSONL
/// write head.
fn write_archive(root: &Path, shards: &[Vec<DbEntry>], live: &[DbEntry]) {
    let mut infos = Vec::new();
    for (idx, group) in shards.iter().enumerate() {
        let path = shard_path(root, PROBLEM, SIG, idx);
        journal_v2::write(&path, PROBLEM, SIG, group).unwrap();
        infos.push(ShardInfo {
            file: path.file_name().unwrap().to_string_lossy().into_owned(),
            format: ShardFormat::V2,
            n_entries: group.len(),
            label: format!("window:{idx}"),
        });
    }
    if !infos.is_empty() {
        ShardManifest {
            problem: PROBLEM.into(),
            sig: SIG,
            policy: "window".into(),
            shards: infos,
        }
        .save(root)
        .unwrap();
    }
    journal::append(
        &live_journal_path(root, PROBLEM, SIG),
        live,
        &LockOptions::default(),
    )
    .unwrap();
}

/// A random archive: 1–3 v2 shards and a live head, with entries copied
/// across files, and (sometimes) a corrupted v2 byte, a torn v2 tail and
/// a torn JSONL tail.
fn random_archive(rng: &mut Mix, root: &Path) {
    let mut written: Vec<DbEntry> = Vec::new();
    let draw = |rng: &mut Mix, written: &mut Vec<DbEntry>| -> DbEntry {
        let e = if !written.is_empty() && rng.below(3) == 0 {
            rng.pick(written)
        } else {
            entry(rng)
        };
        written.push(e.clone());
        e
    };
    let shards: Vec<Vec<DbEntry>> = (0..1 + rng.below(3))
        .map(|_| {
            (0..rng.below(30))
                .map(|_| draw(rng, &mut written))
                .collect()
        })
        .collect();
    let live: Vec<DbEntry> = (0..rng.below(30))
        .map(|_| draw(rng, &mut written))
        .collect();
    write_archive(root, &shards, &live);

    let shard0 = shard_path(root, PROBLEM, SIG, 0);
    let mut bytes = std::fs::read(&shard0).unwrap();
    // Header: magic, version, problem, sig, machine table — at most ~40
    // bytes here; damage past it hits records, length prefixes and CRCs.
    if rng.below(2) == 0 && bytes.len() > 48 {
        let at = 40 + rng.below(bytes.len() - 40);
        bytes[at] ^= 1 << rng.below(8);
    }
    if rng.below(3) == 0 && bytes.len() > 48 {
        bytes.truncate(bytes.len() - 1 - rng.below(8));
    }
    std::fs::write(&shard0, &bytes).unwrap();
    if rng.below(3) == 0 {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(live_journal_path(root, PROBLEM, SIG))
            .unwrap();
        f.write_all(b"{\"v\":1,\"kind\":\"fail\",\"prob").unwrap();
    }
}

/// Every `Query` filter the archive's contents can tell apart.
fn queries(all: &[DbEntry]) -> Vec<Query> {
    let mut tasks: Vec<Option<Vec<DbValue>>> = vec![None, Some(vec![DbValue::Int(99)])];
    for e in all {
        if let DbEntry::Eval(r) = e {
            if !tasks.contains(&Some(r.task.clone())) {
                tasks.push(Some(r.task.clone()));
            }
        }
    }
    let mut out = Vec::new();
    for task in &tasks {
        for n_outputs in [None, Some(0), Some(1), Some(2)] {
            for finite_only in [false, true] {
                out.push(Query {
                    task: task.clone(),
                    n_outputs,
                    finite_only,
                });
            }
        }
    }
    out
}

fn oracle_query(all: &[DbEntry], q: &Query) -> Vec<DbEntry> {
    all.iter()
        .filter(|e| match e {
            DbEntry::Eval(r) => {
                q.task.as_ref().is_none_or(|t| &r.task == t)
                    && q.n_outputs.is_none_or(|n| r.outputs.len() == n)
                    && (!q.finite_only || r.outputs.iter().all(|x| x.is_finite()))
            }
            _ => false,
        })
        .cloned()
        .collect()
}

fn of_kind(all: &[DbEntry], kind: fn(&DbEntry) -> bool) -> Vec<DbEntry> {
    all.iter().filter(|e| kind(e)).cloned().collect()
}

#[test]
fn kind_reads_equal_filtered_string_dedup() {
    let mut rng = Mix(0x5ead_9a7b);
    // Cases that dropped a corrupt record, a torn tail, and a duplicate.
    let (mut corrupt, mut torn, mut dups) = (0, 0, 0);
    for case in 0..60 {
        let root = tmp_root(&format!("reads{case}"));
        random_archive(&mut rng, &root);
        let db = Db::open(&root).unwrap();
        let want = oracle_all(&root);

        let (all, report) = db.load(PROBLEM, SIG).unwrap();
        assert_eq!(exact_all(&all), exact_all(&want), "case {case}: load");
        corrupt += usize::from(report.n_corrupt_interior > 0);
        torn += usize::from(report.dropped_torn_tail);
        dups += usize::from(all.len() < read_in_full(&root));

        let fails: Vec<DbEntry> = db
            .failures(PROBLEM, SIG)
            .unwrap()
            .into_iter()
            .map(DbEntry::Fail)
            .collect();
        let want_fails = of_kind(&want, |e| matches!(e, DbEntry::Fail(_)));
        assert_eq!(
            exact_all(&fails),
            exact_all(&want_fails),
            "case {case}: failures"
        );

        let runs: Vec<DbEntry> = db
            .run_summaries(PROBLEM, SIG)
            .unwrap()
            .into_iter()
            .map(DbEntry::Run)
            .collect();
        let want_runs = of_kind(&want, |e| matches!(e, DbEntry::Run(_)));
        assert_eq!(exact_all(&runs), exact_all(&want_runs), "case {case}: runs");

        for q in queries(&want) {
            let got: Vec<DbEntry> = db
                .query(PROBLEM, SIG, &q)
                .unwrap()
                .into_iter()
                .map(DbEntry::Eval)
                .collect();
            assert_eq!(
                exact_all(&got),
                exact_all(&oracle_query(&want, &q)),
                "case {case}: query {q:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        corrupt > 5 && torn > 5 && dups > 30,
        "{corrupt} {torn} {dups}"
    );
}

/// Entries read from every file before deduplication.
fn read_in_full(root: &Path) -> usize {
    let shards = ShardManifest::load(root, PROBLEM, SIG).unwrap().unwrap();
    let in_shards: usize = shards
        .shards
        .iter()
        .map(|info| load_shard(root, info).unwrap().0.len())
        .sum();
    let live = journal::load(&live_journal_path(root, PROBLEM, SIG))
        .unwrap()
        .0;
    in_shards + live.len()
}

/// Keyless dedup (what `load_all` runs over one v2 shard) against
/// string-key dedup of the very same list.
fn keyless_dedup(root: &Path, list: &[DbEntry]) -> Vec<DbEntry> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).unwrap();
    write_archive(root, &[list.to_vec()], &[]);
    Db::open(root).unwrap().load(PROBLEM, SIG).unwrap().0
}

#[test]
fn keyless_dedup_equals_string_dedup_on_random_lists() {
    let mut rng = Mix(0x000d_eded_0001);
    let root = tmp_root("lists");
    for case in 0..300 {
        let mut list: Vec<DbEntry> = Vec::new();
        for _ in 0..rng.below(40) {
            let e = if !list.is_empty() && rng.below(4) == 0 {
                rng.pick(&list)
            } else {
                entry(&mut rng)
            };
            list.push(e);
        }
        assert_eq!(
            exact_all(&keyless_dedup(&root, &list)),
            exact_all(&string_dedup(list.clone())),
            "case {case}"
        );
        // merge_entries dedups the same way into an empty archive.
        let fresh = tmp_root("lists_merge");
        let added = Db::open(&fresh)
            .unwrap()
            .merge_entries(PROBLEM, SIG, &list)
            .unwrap();
        assert_eq!(added, string_dedup(list).len(), "case {case}: merge");
        let _ = std::fs::remove_dir_all(&fresh);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn keyless_dedup_pins_the_key_rules() {
    let eval = |task: Vec<DbValue>, config: Vec<DbValue>, outputs: Vec<f64>| {
        DbEntry::Eval(DbRecord {
            problem: PROBLEM.into(),
            sig: SIG,
            task,
            config,
            outputs,
            prov: Provenance::default(),
        })
    };
    let fail = |kind: FailKind, task: Vec<DbValue>, config: Vec<DbValue>| {
        DbEntry::Fail(FailRecord {
            problem: PROBLEM.into(),
            sig: SIG,
            task,
            config,
            kind,
            attempts: 1,
            elapsed_secs: 0.0,
            prov: Provenance::default(),
        })
    };
    let run = |run: &str, n_evals: u64| {
        DbEntry::Run(RunSummary {
            problem: PROBLEM.into(),
            sig: SIG,
            prov: Provenance {
                run: run.into(),
                ..Provenance::default()
            },
            stats: RunStats {
                n_evals,
                ..RunStats::default()
            },
        })
    };
    let (i3, r3, c3) = (DbValue::Int(3), DbValue::Real(3.0), DbValue::Cat(3));
    let odd = f64::from_bits(ODD_NAN);
    // (a, b, whether they are one entry)
    let pairs = [
        (
            eval(vec![i3.clone()], vec![], vec![]),
            eval(vec![r3.clone()], vec![], vec![]),
            false,
        ),
        (
            eval(vec![i3.clone()], vec![], vec![]),
            eval(vec![c3.clone()], vec![], vec![]),
            false,
        ),
        (
            eval(vec![r3.clone()], vec![], vec![]),
            eval(vec![c3.clone()], vec![], vec![]),
            false,
        ),
        (
            eval(vec![], vec![], vec![f64::NAN]),
            eval(vec![], vec![], vec![odd]),
            true,
        ),
        (
            eval(vec![], vec![], vec![-f64::NAN]),
            eval(vec![], vec![], vec![odd]),
            true,
        ),
        (
            eval(vec![DbValue::Real(odd)], vec![], vec![]),
            eval(vec![DbValue::Real(f64::NAN)], vec![], vec![]),
            true,
        ),
        (
            eval(vec![], vec![], vec![0.0]),
            eval(vec![], vec![], vec![-0.0]),
            false,
        ),
        (
            eval(vec![DbValue::Real(0.0)], vec![], vec![]),
            eval(vec![DbValue::Real(-0.0)], vec![], vec![]),
            false,
        ),
        (
            eval(vec![i3.clone()], vec![c3.clone()], vec![1.0]),
            eval(vec![i3.clone(), c3.clone()], vec![], vec![1.0]),
            true,
        ),
        (
            eval(vec![], vec![i3.clone(), c3.clone()], vec![1.0]),
            eval(vec![i3.clone(), c3.clone()], vec![], vec![1.0]),
            true,
        ),
        (
            eval(vec![i3.clone()], vec![], vec![1.0]),
            eval(vec![i3.clone()], vec![], vec![1.0, 1.0]),
            false,
        ),
        (
            fail(FailKind::Crashed, vec![i3.clone()], vec![c3.clone()]),
            fail(FailKind::Crashed, vec![i3.clone(), c3.clone()], vec![]),
            true,
        ),
        (
            fail(FailKind::Crashed, vec![i3.clone()], vec![]),
            fail(FailKind::TimedOut, vec![i3.clone()], vec![]),
            false,
        ),
        (
            fail(FailKind::Crashed, vec![i3.clone()], vec![]),
            eval(vec![i3.clone()], vec![], vec![]),
            false,
        ),
        (run("a", 1), run("a", 2), true),
        (run("a", 1), run("a|b", 1), false),
    ];
    let root = tmp_root("rules");
    for (k, (a, b, same)) in pairs.into_iter().enumerate() {
        assert_eq!(
            a.dedup_key() == b.dedup_key(),
            same,
            "pair {k}: key strings"
        );
        let kept = keyless_dedup(&root, &[a.clone(), b]);
        assert_eq!(kept.len(), if same { 1 } else { 2 }, "pair {k}: keyless");
        assert_eq!(
            exact(&kept[0]),
            exact(&a),
            "pair {k}: first occurrence wins"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---- CRC-32 --------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected), one bit at a time.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

#[test]
fn crc32_equals_bitwise_reference() {
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
    let mut rng = Mix(0x000c_3c32);
    let buf: Vec<u8> = (0..64 + 8).map(|_| rng.next() as u8).collect();
    for align in 0..8 {
        for len in 0..=64 {
            let s = &buf[align..align + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "align {align} len {len}");
        }
    }
    for case in 0..200 {
        let len = rng.below(4096);
        let s: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert_eq!(crc32(&s), crc32_bitwise(&s), "case {case} len {len}");
    }
}
