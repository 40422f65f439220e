//! Golden trajectories for the three batch drivers: `mla::tune`,
//! `mla_mo::tune_multiobjective` and `tla::transfer_tune`.
//!
//! Each test pins an FNV-1a digest of everything a run leaves behind:
//! every `(task, config, output bits)` sample, the iteration rows, the
//! evaluation and failure counters, and the archived journal records.
//! The digests were generated before the drivers were moved onto the
//! shared run lifecycle, so any drift in seeds, evaluation order,
//! censoring or archiving shows up here. On a mismatch the test prints
//! the digest text to diff against a run of the older code.

mod common;

use common::{crashy_mla, fast_opts, tla_family, tla_history, tmp_root, toy_mo, Digest};
use gptune_core::{mla, mla_mo, tla};

fn check(d: &Digest, expected: &str) {
    assert_eq!(d.hex(), expected, "digest text:\n{}", d.text());
}

/// δ = 2 with injected crashes: a first run archives its evaluations and
/// failures, then a warm-started, checkpointed run with another seed
/// preloads that archive and skips the journaled crashers.
#[test]
fn mla_crashes_and_warm_start_golden() {
    let root = tmp_root("golden_mla");
    let p = crashy_mla(2);
    let mut d = Digest::default();

    let first = fast_opts(8, 11).with_db(&root).checkpoint_every(2);
    let r = mla::tune(&p, &first);
    assert!(r.stats.n_crashed >= 1, "injected crashes must fire");
    d.mla(&r);

    let mut warm = fast_opts(8, 12).with_db(&root).checkpoint_every(1);
    warm.warm_start_from_db = true;
    d.mla(&mla::tune(&p, &warm));

    d.journal(&root, &p);
    let _ = std::fs::remove_dir_all(&root);
    check(&d, "ed2ac655575b740f");
}

#[test]
fn mla_mo_golden() {
    let root = tmp_root("golden_mo");
    let p = toy_mo(2);
    let mut o = fast_opts(10, 5).with_db(&root).checkpoint_every(1);
    o.n_initial = Some(4);
    o.k_per_iter = 2;
    let mut d = Digest::default();
    d.mo(&mla_mo::tune_multiobjective(&p, &o));
    d.journal(&root, &p);
    let _ = std::fs::remove_dir_all(&root);
    check(&d, "01d46d1c647b7ffd");
}

#[test]
fn tla_golden() {
    let root = tmp_root("golden_tla");
    let p = tla_family(4);
    let h = tla_history(&p, 2);
    let o = fast_opts(5, 3).with_db(&root).checkpoint_every(1);
    let (r, stats) = tla::transfer_tune(&p, &h, 2, &o);
    let mut d = Digest::default();
    d.task_result(&r);
    d.stats(&stats);
    d.journal(&root, &p);
    let _ = std::fs::remove_dir_all(&root);
    check(&d, "918f59a2766760ca");
}
