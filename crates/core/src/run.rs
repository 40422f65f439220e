//! The run lifecycle shared by the batch drivers: [`crate::mla::tune`],
//! [`crate::mla_mo::tune_multiobjective`] and [`crate::tla::transfer_tune`].
//!
//! All three are the same sampling → modeling → search → evaluate loop
//! over different inputs. This module owns everything they do alike:
//!
//! 1. open the archive, compute the problem signature and load the
//!    journaled failures;
//! 2. adopt a checkpoint that describes this exact run, or else evaluate
//!    the driver's initial design and checkpoint it at once;
//! 3. iterate until `ε_tot` — each iteration asks the driver for a batch,
//!    evaluates it into the [`Evaluations`] archive and checkpoints every
//!    [`MlaOptions::checkpoint_every`] iterations — or until
//!    [`MlaOptions::stop_after_iterations`] preempts the run;
//! 4. archive a completed run and clear its checkpoint, or persist the
//!    preempted state for the resumer.
//!
//! A driver supplies only what differs, through [`Driver`]: its
//! checkpoint kind, its initial design, its propose step and its ε step.
//! All post-sampling randomness derives from `(seed, iteration)`, so a
//! resumed run replays the identical stream.

use crate::db_bridge;
use crate::mla::{evaluate_batch, incumbent_of, EvalFailure, Evaluations, IterationStat};
use crate::options::MlaOptions;
use crate::problem::TuningProblem;
use gptune_db::{Checkpoint, CheckpointKind, CkptFail, Db};
use gptune_runtime::{FailureKind, Phase, PhaseTimer};
use gptune_space::Config;
use std::time::Duration;

/// One iteration's new points plus its modeling and search walls.
pub(crate) type Proposal = (Vec<(usize, Config)>, Duration, Duration);

/// What a batch driver supplies to the shared lifecycle.
pub(crate) trait Driver {
    /// Checkpoint kind of the loop; also picks its iteration span.
    const KIND: CheckpointKind;

    /// The one task a transfer run tunes; `None` when every task is
    /// tuned. The initial design's ε is its fresh evaluations divided by
    /// the number of tuned tasks.
    fn target(&self) -> Option<usize> {
        None
    }

    /// ε consumed by one iteration.
    fn eps_step(&self) -> usize {
        1
    }

    /// The initial design of a run that did not resume. It may first
    /// preload free observations into `run.evals`, counted in
    /// `run.n_preloaded`.
    fn initial_design(&mut self, run: &mut Run<'_>) -> Vec<(usize, Config)>;

    /// The modeling and search phases of iteration `run.iteration`.
    fn propose(&mut self, run: &Run<'_>) -> Proposal;
}

/// The in-flight state of one batch run.
pub(crate) struct Run<'a> {
    pub problem: &'a TuningProblem,
    pub opts: &'a MlaOptions,
    pub timer: PhaseTimer,
    /// Every evaluation so far: preloads first, then this run's own.
    pub evals: Evaluations,
    /// Archived records preloaded ahead of this run's evaluations; they
    /// inform the surrogate but count against neither budget nor results.
    pub n_preloaded: usize,
    /// Iteration index; continues across a resume.
    pub iteration: usize,
    eps: usize,
    kind: CheckpointKind,
    db: Option<Db>,
    sig: u64,
    known_failed: Vec<(usize, Config, FailureKind)>,
}

/// What a finished (or preempted) run hands back for result assembly.
pub(crate) struct Outcome {
    pub evals: Evaluations,
    pub timer: PhaseTimer,
    pub n_preloaded: usize,
    /// Rows for the iterations run by this process.
    pub iterations: Vec<IterationStat>,
    /// `false` when [`MlaOptions::stop_after_iterations`] preempted it.
    pub completed: bool,
}

/// Runs `driver` through the whole lifecycle.
pub(crate) fn execute<D: Driver>(
    problem: &TuningProblem,
    opts: &MlaOptions,
    driver: &mut D,
) -> Outcome {
    let mut run = Run::open(problem, opts, D::KIND);
    if !run.adopt_checkpoint() {
        let batch = driver.initial_design(&mut run);
        run.evaluate(batch);
        let tuned = match driver.target() {
            Some(_) => 1,
            None => problem.n_tasks().max(1),
        };
        run.eps = (run.evals.points.len() - run.n_preloaded) / tuned;
        // Checkpoint the (expensive) initial design immediately: a run
        // killed in its first iteration resumes without re-evaluating.
        run.checkpoint();
    }

    let mut iterations = Vec::new();
    let mut completed = true;
    while run.eps < opts.eps_total {
        // `iterations` holds one row per iteration run by this process.
        if opts
            .stop_after_iterations
            .is_some_and(|n| iterations.len() >= n)
        {
            completed = false;
            break;
        }
        let tracer = run.timer.tracer();
        let span = match D::KIND {
            CheckpointKind::Mla => tracer.span("gptune.core.mla.iteration"),
            CheckpointKind::MlaMo => tracer.span("gptune.core.mla_mo.iteration"),
            CheckpointKind::Tla => tracer.span("gptune.core.tla.iteration"),
        }
        .with("iteration", run.iteration as u64);
        let span = match driver.target() {
            Some(t) => span.with("target", t as u64),
            None => span.with("eps", run.eps as u64),
        };
        let (batch, modeling_wall, search_wall) = driver.propose(&run);
        run.evaluate(batch);
        iterations.push(IterationStat {
            iteration: run.iteration,
            n_evals: run.evals.points.len() - run.n_preloaded,
            modeling_wall,
            search_wall,
            incumbent: incumbent_of(&run.evals, run.n_preloaded),
        });
        drop(span);
        run.eps += driver.eps_step();
        run.iteration += 1;
        if run.iteration.is_multiple_of(opts.checkpoint_every) {
            run.checkpoint();
        }
    }

    run.finish(completed);
    Outcome {
        evals: run.evals,
        timer: run.timer,
        n_preloaded: run.n_preloaded,
        iterations,
        completed,
    }
}

impl<'a> Run<'a> {
    fn open(problem: &'a TuningProblem, opts: &'a MlaOptions, kind: CheckpointKind) -> Run<'a> {
        let timer = PhaseTimer::new();
        let db = db_bridge::open_db(opts);
        let sig = db_bridge::problem_signature(problem);
        let known_failed = known_failures(&db, problem, sig, opts);
        Run {
            problem,
            opts,
            timer,
            evals: Evaluations::new(),
            n_preloaded: 0,
            iteration: 0,
            eps: 0,
            kind,
            db,
            sig,
            known_failed,
        }
    }

    /// Warm start: preloads the archived evaluations of this problem's
    /// tasks (free observations for the surrogate, excluded from budget
    /// and results) when [`MlaOptions::warm_start_from_db`] asks for it.
    // PANIC-SAFETY: an unreadable archive on an explicit warm-start request
    // is fatal by design.
    #[allow(clippy::panic)]
    pub(crate) fn warm_start(&mut self) {
        let (true, Some(db)) = (self.opts.warm_start_from_db, &self.db) else {
            return;
        };
        let pre = db_bridge::preload_from_db(db, self.problem, self.sig)
            .unwrap_or_else(|e| panic!("gptune-db: cannot read archive: {e}"));
        for (t, cfg, out) in pre {
            if !self.evals.contains(t, &cfg) {
                self.evals.points.push((t, cfg));
                self.evals.outputs.push(out);
            }
        }
        self.n_preloaded = self.evals.points.len();
    }

    /// Evaluates `batch` over the fault-tolerant worker group and appends
    /// its points, outputs and failures to the archive.
    fn evaluate(&mut self, batch: Vec<(usize, Config)>) {
        let offset = self.evals.points.len();
        let (outputs, fails) = self.timer.time(Phase::Objective, || {
            evaluate_batch(
                self.problem,
                batch.clone(),
                self.opts,
                &self.timer,
                offset,
                &self.known_failed,
            )
        });
        self.evals.points.extend(batch);
        self.evals.outputs.extend(outputs);
        self.evals.failures.extend(fails);
    }

    /// Loads the checkpoint keyed by `(signature, seed)` and adopts it when
    /// it describes this run: same loop kind, same budget, task indices in
    /// range. Returns whether the run resumed.
    fn adopt_checkpoint(&mut self) -> bool {
        let (true, Some(db)) = (self.opts.checkpointing(), &self.db) else {
            return false;
        };
        let loaded = {
            let mut span = gptune_trace::global().span("gptune.db.checkpoint_load");
            let r = db.load_checkpoint(self.sig, self.opts.seed);
            match &r {
                Ok(Some(c)) => {
                    span.add("hit", true);
                    span.add("iteration", c.iteration as u64);
                    span.add("points", c.points.len());
                }
                _ => span.add("hit", false),
            }
            r
        };
        match loaded {
            Ok(Some(ckpt)) => self.adopt(ckpt),
            Ok(None) => false,
            Err(e) => {
                eprintln!("gptune-db: ignoring unreadable checkpoint: {e}");
                false
            }
        }
    }

    fn adopt(&mut self, ckpt: Checkpoint) -> bool {
        let delta = self.problem.n_tasks();
        if ckpt.kind != self.kind
            || ckpt.eps_total != self.opts.eps_total
            || ckpt.points.len() != ckpt.outputs.len()
            || ckpt.points.iter().any(|(t, _)| *t >= delta)
        {
            return false;
        }
        self.evals = Evaluations {
            points: ckpt
                .points
                .iter()
                .map(|(t, c)| (*t, db_bridge::db_to_config(c)))
                .collect(),
            outputs: ckpt.outputs,
            failures: ckpt
                .fails
                .iter()
                .map(|f| EvalFailure {
                    index: f.index,
                    kind: db_bridge::db_to_failure_kind(f.kind),
                    attempts: f.attempts as u32,
                    elapsed_secs: f.elapsed_secs,
                })
                .collect(),
        };
        self.iteration = ckpt.iteration;
        self.eps = ckpt.eps;
        self.n_preloaded = ckpt.n_preloaded;
        self.timer.restore(db_bridge::stats_from_db(&ckpt.stats));
        true
    }

    fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            kind: self.kind,
            sig: self.sig,
            seed: self.opts.seed,
            eps_total: self.opts.eps_total,
            iteration: self.iteration,
            eps: self.eps,
            n_preloaded: self.n_preloaded,
            points: self
                .evals
                .points
                .iter()
                .map(|(t, c)| (*t, db_bridge::config_to_db(c)))
                .collect(),
            outputs: self.evals.outputs.clone(),
            stats: db_bridge::stats_to_db(&self.timer.snapshot()),
            fails: self
                .evals
                .failures
                .iter()
                .map(|f| CkptFail {
                    index: f.index,
                    kind: db_bridge::failure_kind_to_db(f.kind),
                    attempts: f.attempts as u64,
                    elapsed_secs: f.elapsed_secs,
                })
                .collect(),
        }
    }

    /// Atomically persists the in-flight state when checkpointing is on.
    // PANIC-SAFETY: losing the ability to checkpoint mid-run is fatal by
    // design — continuing would silently void the crash-resume guarantee.
    #[allow(clippy::panic)]
    fn checkpoint(&self) {
        let (true, Some(db)) = (self.opts.checkpointing(), &self.db) else {
            return;
        };
        let ckpt = self.to_checkpoint();
        let _span = gptune_trace::global()
            .span("gptune.db.checkpoint_save")
            .with("iteration", self.iteration as u64)
            .with("points", ckpt.points.len());
        db.save_checkpoint(&ckpt)
            .unwrap_or_else(|e| panic!("gptune-db: cannot write checkpoint: {e}"));
    }

    /// Archives a completed run and clears its checkpoint; a preempted
    /// run persists its final in-flight state for the resumer instead.
    // PANIC-SAFETY: losing the final archive write would silently discard
    // the run's results; fail loudly instead.
    #[allow(clippy::panic)]
    fn finish(&self, completed: bool) {
        let Some(db) = &self.db else {
            return;
        };
        if !completed {
            self.checkpoint();
            return;
        }
        let prov = db_bridge::provenance(self.opts, self.problem.n_tasks());
        db_bridge::archive_run(
            db,
            self.problem,
            self.sig,
            &self.evals,
            self.n_preloaded,
            &prov,
            &self.timer.snapshot(),
        )
        .unwrap_or_else(|e| panic!("gptune-db: cannot archive run: {e}"));
        if self.opts.checkpointing() {
            let _ = db.clear_checkpoint(self.sig, self.opts.seed);
        }
    }
}

/// Failure set persisted by earlier runs, loaded for runs that read from
/// the archive (warm starts and checkpointed runs) so known-crashing
/// configurations are never re-executed. Fresh runs without a database
/// skip nothing.
// PANIC-SAFETY: an unreadable archive on a run that was explicitly asked
// to use one is fatal by design (same policy as db_bridge::open_db).
#[allow(clippy::panic)]
fn known_failures(
    db: &Option<Db>,
    problem: &TuningProblem,
    sig: u64,
    opts: &MlaOptions,
) -> Vec<(usize, Config, FailureKind)> {
    match db {
        Some(db) if opts.warm_start_from_db || opts.checkpointing() => {
            db_bridge::known_failures(db, problem, sig)
                .unwrap_or_else(|e| panic!("gptune-db: cannot read failure records: {e}"))
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gptune_space::{Param, Space, Value};

    fn toy() -> TuningProblem {
        let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
        let ps = Space::builder()
            .param(Param::real("x", 0.0, 1.0))
            .param(Param::int("b", 1, 64))
            .build();
        TuningProblem::new(
            "run-toy",
            ts,
            ps,
            vec![vec![Value::Real(1.0)], vec![Value::Real(2.0)]],
            |_, x, _| vec![x[0].as_real()],
        )
    }

    #[test]
    fn checkpoint_roundtrips_and_rejects_other_runs() {
        let p = toy();
        let o = MlaOptions::default().with_seed(4).with_budget(10);
        let mut run = Run::open(&p, &o, CheckpointKind::Mla);
        run.evals = Evaluations {
            points: vec![
                (0, vec![Value::Real(0.5), Value::Int(8)]),
                (1, vec![Value::Real(0.75), Value::Int(16)]),
            ],
            outputs: vec![vec![1.0], vec![2.0]],
            failures: vec![EvalFailure {
                index: 1,
                kind: FailureKind::TimedOut,
                attempts: 2,
                elapsed_secs: 0.4,
            }],
        };
        run.iteration = 3;
        run.eps = 7;
        run.n_preloaded = 1;
        let ckpt = run.to_checkpoint();

        let mut back = Run::open(&p, &o, CheckpointKind::Mla);
        assert!(back.adopt(ckpt.clone()));
        assert_eq!(back.evals.points, run.evals.points);
        assert_eq!(back.evals.outputs, run.evals.outputs);
        assert_eq!(back.evals.failures, run.evals.failures);
        assert_eq!((back.iteration, back.eps, back.n_preloaded), (3, 7, 1));

        // Another loop kind, another budget, or too few tasks: not this run.
        assert!(!Run::open(&p, &o, CheckpointKind::MlaMo).adopt(ckpt.clone()));
        let other_budget = MlaOptions::default().with_seed(4).with_budget(12);
        assert!(!Run::open(&p, &other_budget, CheckpointKind::Mla).adopt(ckpt.clone()));
        let mut one_task = toy();
        one_task.tasks.truncate(1);
        assert!(!Run::open(&one_task, &o, CheckpointKind::Mla).adopt(ckpt));
    }
}
