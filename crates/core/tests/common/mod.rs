//! Shared fixtures for the driver trajectory tests: small problems for
//! each batch driver, fast options, and a text digest of everything a
//! run leaves behind (results, counters and archived journal records).
//! Wall-clock fields are left out so the digest is a pure function of
//! the seeds.

#![allow(dead_code)]

use gptune_core::{History, MlaResult, MoMlaResult, TaskResult, TuningProblem};
use gptune_db::{Db, DbEntry, DbValue, Provenance};
use gptune_runtime::PhaseStats;
use gptune_space::{Config, Param, Space, Value};
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// A fresh, empty scratch directory for one test run.
pub fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gptune_core_drv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Two-parameter single-objective family whose objective panics (an
/// injected application crash) for `x < 0.15`; the LHS sampling phase
/// always hits that stratum.
pub fn crashy_mla(delta: usize) -> TuningProblem {
    let ts = Space::builder().param(Param::real("t", 0.0, 4.0)).build();
    let ps = Space::builder()
        .param(Param::real("x", 0.0, 1.0))
        .param(Param::int("b", 1, 8))
        .build();
    let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
    TuningProblem::new("golden-mla", ts, ps, tasks, |t, x, _| {
        let xv = x[0].as_real();
        assert!(xv >= 0.15, "injected crash at x = {xv}");
        let b = x[1].as_int() as f64;
        vec![1.0 + (xv - 0.3 - 0.1 * t[0].as_real()).powi(2) + 0.01 * (b - 4.0).abs()]
    })
}

/// Bi-objective family (Pareto set `x ∈ [0.2, 0.8]`, shifted per task).
pub fn toy_mo(delta: usize) -> TuningProblem {
    let ts = Space::builder().param(Param::real("t", 0.0, 4.0)).build();
    let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
    let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
    TuningProblem::new("golden-mo", ts, ps, tasks, |t, x, _| {
        let shift = 0.02 * t[0].as_real();
        let xv = x[0].as_real();
        vec![
            1.0 + (xv - 0.2 - shift).powi(2),
            1.0 + (xv - 0.8 - shift).powi(2),
        ]
    })
    .with_objectives(2)
}

/// Family with optimum drifting linearly in the task: `x* = 0.2 + 0.05 t`.
pub fn tla_family(delta: usize) -> TuningProblem {
    let ts = Space::builder().param(Param::real("t", 0.0, 10.0)).build();
    let ps = Space::builder().param(Param::real("x", 0.0, 1.0)).build();
    let tasks: Vec<Config> = (0..delta).map(|i| vec![Value::Real(i as f64)]).collect();
    TuningProblem::new("golden-tla", ts, ps, tasks, |t, x, _| {
        vec![1.0 + (x[0].as_real() - 0.2 - 0.05 * t[0].as_real()).powi(2)]
    })
}

/// Near-optimal archived samples for every task except `skip`.
pub fn tla_history(problem: &TuningProblem, skip: usize) -> History {
    let mut h = History::new(&problem.name);
    for (i, task) in problem.tasks.iter().enumerate() {
        if i == skip {
            continue;
        }
        let t = task[0].as_real();
        for dx in [-0.05, 0.0, 0.08, 0.3] {
            let x = (0.2 + 0.05 * t + dx).clamp(0.0, 1.0);
            let y = problem.evaluate(i, &[Value::Real(x)], 0)[0];
            h.push(task.clone(), vec![Value::Real(x)], vec![y]);
        }
    }
    h
}

/// Options small enough that a whole run takes tens of milliseconds.
pub fn fast_opts(budget: usize, seed: u64) -> gptune_core::MlaOptions {
    let mut o = gptune_core::MlaOptions::default()
        .with_budget(budget)
        .with_seed(seed);
    o.lcm.n_starts = 2;
    o.lcm.lbfgs.max_iters = 20;
    o.pso.particles = 16;
    o.pso.iters = 10;
    o.nsga.population = 16;
    o.nsga.generations = 8;
    o.log_objective = false;
    o
}

/// Accumulates a canonical text form of run artifacts; floats enter as
/// their bit patterns so the digest is exact.
#[derive(Default)]
pub struct Digest {
    text: String,
}

impl Digest {
    pub fn hex(&self) -> String {
        format!("{:016x}", gptune_db::fnv1a(self.text.as_bytes()))
    }

    pub fn text(&self) -> &str {
        &self.text
    }

    fn f(&mut self, v: f64) {
        let _ = write!(self.text, "{:016x},", v.to_bits());
    }

    fn config(&mut self, c: &[Value]) {
        self.text.push('[');
        for v in c {
            match v {
                Value::Real(x) => self.f(*x),
                Value::Int(i) => {
                    let _ = write!(self.text, "i{i},");
                }
                Value::Cat(k) => {
                    let _ = write!(self.text, "c{k},");
                }
            }
        }
        self.text.push(']');
    }

    fn db_config(&mut self, c: &[DbValue]) {
        self.text.push('[');
        for v in c {
            match v {
                DbValue::Real(x) => self.f(*x),
                DbValue::Int(i) => {
                    let _ = write!(self.text, "i{i},");
                }
                DbValue::Cat(k) => {
                    let _ = write!(self.text, "c{k},");
                }
            }
        }
        self.text.push(']');
    }

    fn prov(&mut self, p: &Provenance) {
        let _ = write!(self.text, "prov({},{},{:?})", p.seed, p.run, p.machine);
    }

    /// Evaluation counters (not wall-clock) plus virtual objective time.
    pub fn stats(&mut self, s: &PhaseStats) {
        let _ = write!(
            self.text,
            "stats({},{},{},{},{},{},",
            s.n_evals, s.n_crashed, s.n_timed_out, s.n_invalid, s.n_transient, s.n_retries
        );
        self.f(s.objective_virtual_secs);
        self.text.push_str(")\n");
    }

    pub fn task_result(&mut self, r: &TaskResult) {
        self.text.push_str("task");
        self.config(&r.task);
        self.text.push_str(" best");
        self.config(&r.best_config);
        self.f(r.best_value);
        self.text.push('\n');
        for (c, y) in &r.samples {
            self.config(c);
            self.f(*y);
            self.text.push('\n');
        }
    }

    pub fn mla(&mut self, r: &MlaResult) {
        let _ = writeln!(self.text, "mla completed={}", r.completed);
        for t in &r.per_task {
            self.task_result(t);
        }
        for it in &r.iterations {
            let _ = write!(self.text, "iter({},{},", it.iteration, it.n_evals);
            self.f(it.incumbent);
            self.text.push_str(")\n");
        }
        self.stats(&r.stats);
    }

    pub fn mo(&mut self, r: &MoMlaResult) {
        let _ = writeln!(self.text, "mo completed={}", r.completed);
        for t in &r.per_task {
            self.text.push_str("task");
            self.config(&t.task);
            self.text.push('\n');
            for (c, o) in &t.samples {
                self.config(c);
                for v in o {
                    self.f(*v);
                }
                self.text.push('\n');
            }
            self.text.push_str("front\n");
            for p in &t.pareto_front {
                self.config(&p.config);
                for v in &p.objectives {
                    self.f(*v);
                }
                self.text.push('\n');
            }
        }
        for it in &r.iterations {
            let _ = write!(self.text, "iter({},{},", it.iteration, it.n_evals);
            self.f(it.incumbent);
            self.text.push_str(")\n");
        }
        self.stats(&r.stats);
    }

    /// Every journal record of `problem` in `root`, in append order.
    /// Failure records drop their wall-clock `elapsed_secs`; run
    /// summaries keep only their counters and virtual objective time.
    pub fn journal(&mut self, root: &Path, problem: &TuningProblem) {
        let db = Db::open(root).expect("open archive");
        let sig = gptune_core::problem_signature(problem);
        let (entries, report) = db.load(&problem.name, sig).expect("load journal");
        assert!(report.is_clean(), "{report:?}");
        let _ = writeln!(self.text, "journal {} entries", entries.len());
        for e in &entries {
            match e {
                DbEntry::Eval(r) => {
                    self.text.push_str("eval ");
                    self.db_config(&r.task);
                    self.db_config(&r.config);
                    for v in &r.outputs {
                        self.f(*v);
                    }
                    self.prov(&r.prov);
                }
                DbEntry::Fail(r) => {
                    let _ = write!(self.text, "fail {:?} {} ", r.kind, r.attempts);
                    self.db_config(&r.task);
                    self.db_config(&r.config);
                    self.prov(&r.prov);
                }
                DbEntry::Run(r) => {
                    let s = &r.stats;
                    let _ = write!(
                        self.text,
                        "run({},{},{},{},{},{},",
                        s.n_evals,
                        s.n_crashed,
                        s.n_timed_out,
                        s.n_invalid,
                        s.n_transient,
                        s.n_retries
                    );
                    self.f(s.objective_virtual_secs);
                    self.text.push(')');
                    self.prov(&r.prov);
                }
            }
            self.text.push('\n');
        }
    }
}
