//! Resume at every prefix, plus the order of database calls.
//!
//! For each batch driver and every preemption point
//! `stop_after_iterations = k` in `0..=N`, a run that is preempted after
//! `k` iterations and then resumed from its checkpoint must reproduce
//! the uninterrupted run exactly: same samples, same counters, same
//! archived journal.
//!
//! Then a checkpointed, warm-started MLA run must open the archive, look
//! for a checkpoint, save one checkpoint after the initial design and one
//! per iteration, and append its archive last. The replay workload of the
//! repo benchmark (`tuner_archive`) models this sequence.
//!
//! One `#[test]` on purpose: the span check installs the process-global
//! ring tracer, which a concurrent test would pollute.

mod common;

use common::{crashy_mla, fast_opts, tla_family, tla_history, tmp_root, toy_mo, Digest};
use gptune_core::{mla, mla_mo, tla, History, MlaOptions, TuningProblem};
use std::path::Path;

/// The three drivers behind one call shape: run with `opts`, return the
/// digest of the result (the journal is digested by the caller).
#[derive(Clone, Copy, Debug)]
enum Driver {
    Mla,
    MlaMo,
    Tla,
}

struct Case {
    driver: Driver,
    problem: TuningProblem,
    opts: MlaOptions,
    /// Archived source records (TLA only).
    history: History,
    /// Iterations an uninterrupted run performs.
    n_iterations: usize,
}

fn run(case: &Case, opts: &MlaOptions) -> (bool, Digest) {
    let mut d = Digest::default();
    let completed = match case.driver {
        Driver::Mla => {
            let r = mla::tune(&case.problem, opts);
            // Per-iteration rows cover only this process's iterations, so
            // a resumed run's rows are a suffix: digest the samples only.
            for t in &r.per_task {
                d.task_result(t);
            }
            d.stats(&r.stats);
            r.completed
        }
        Driver::MlaMo => {
            let mut r = mla_mo::tune_multiobjective(&case.problem, opts);
            r.iterations.clear();
            d.mo(&r);
            r.completed
        }
        Driver::Tla => {
            let (r, stats) = tla::transfer_tune(&case.problem, &case.history, 1, opts);
            d.task_result(&r);
            d.stats(&stats);
            r.samples.len() == opts.eps_total
        }
    };
    (completed, d)
}

fn with_journal(mut d: Digest, root: &Path, p: &TuningProblem) -> String {
    d.journal(root, p);
    d.text().to_string()
}

fn resume_at_every_prefix(case: &Case) {
    let tag = format!("{:?}", case.driver).to_lowercase();

    let root = tmp_root(&format!("{tag}_full"));
    let full_opts = case.opts.clone().with_db(&root).checkpoint_every(1);
    let (done, d) = run(case, &full_opts);
    assert!(done);
    let full = with_journal(d, &root, &case.problem);
    let _ = std::fs::remove_dir_all(&root);

    for k in 0..=case.n_iterations {
        let root = tmp_root(&format!("{tag}_k{k}"));
        let mut first = case.opts.clone().with_db(&root).checkpoint_every(1);
        first.stop_after_iterations = Some(k);
        let (done, _) = run(case, &first);
        assert_eq!(
            done,
            k == case.n_iterations,
            "{tag}: preempted only when k < N (k = {k})"
        );
        let resume = case.opts.clone().with_db(&root).checkpoint_every(1);
        let (done, d) = run(case, &resume);
        assert!(done, "{tag}: resume after k = {k} completes");
        let resumed = with_journal(d, &root, &case.problem);
        assert!(
            resumed == full,
            "{tag}: resume after k = {k} diverged\n--- resumed\n{resumed}\n--- full\n{full}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

fn db_span_order() {
    let root = tmp_root("span_order");
    let p = crashy_mla(2);
    let seed_run = fast_opts(6, 21).with_db(&root);
    assert!(mla::tune(&p, &seed_run).completed);

    let prev = gptune_trace::install(gptune_trace::Tracer::ring(1 << 14));
    let mut o = fast_opts(6, 22).with_db(&root).checkpoint_every(1);
    o.n_initial = Some(3);
    o.warm_start_from_db = true;
    let r = mla::tune(&p, &o);
    let data = gptune_trace::global().drain();
    gptune_trace::install(prev);
    assert!(r.completed);
    assert_eq!(data.dropped, 0, "ring too small for the run");

    let db_spans: Vec<&str> = data
        .events
        .iter()
        .map(|e| e.name.as_ref())
        .filter(|n: &&str| n.starts_with("gptune.db."))
        .collect();
    let mut expected = vec!["gptune.db.recover", "gptune.db.checkpoint_load"];
    // Initial design plus one per iteration (budget 6, 3 initial).
    expected.extend(["gptune.db.checkpoint_save"; 4]);
    expected.push("gptune.db.append");
    assert_eq!(db_spans, expected);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_at_every_prefix_and_db_call_order() {
    let mut mla_opts = fast_opts(6, 9);
    mla_opts.n_initial = Some(3);
    let mut mo_opts = fast_opts(9, 4);
    mo_opts.n_initial = Some(3);
    mo_opts.k_per_iter = 2;
    let mut tla_opts = fast_opts(5, 6);
    tla_opts.n_initial = Some(2);
    let cases = [
        Case {
            driver: Driver::Mla,
            problem: crashy_mla(2),
            opts: mla_opts,
            history: History::new("golden-mla"),
            n_iterations: 3,
        },
        Case {
            driver: Driver::MlaMo,
            problem: toy_mo(1),
            opts: mo_opts,
            history: History::new("golden-mo"),
            n_iterations: 3,
        },
        Case {
            driver: Driver::Tla,
            history: tla_history(&tla_family(3), 1),
            problem: tla_family(3),
            opts: tla_opts,
            n_iterations: 3,
        },
    ];
    for case in &cases {
        resume_at_every_prefix(case);
    }
    db_span_order();
}
