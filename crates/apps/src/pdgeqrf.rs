//! ScaLAPACK PDGEQRF (dense QR factorization) simulator.
//!
//! Task `t = [m, n]`, tuning `x = [b_r, b_c, p, p_r]` exactly as in paper
//! Sec. 6.2, with the process-grid constraint `p_r ≤ p` and derived
//! quantities `p_c = ⌊p/p_r⌋`, `nthreads = ⌊p_max/p⌋` (Sec. 2).
//!
//! The *coarse* performance model exposed through
//! [`HpcApp::model_features`] is the paper's own Eqs. 8–10 (flop count,
//! message count, message volume from the communication-avoiding QR
//! analysis of Demmel et al.). The *true* simulated runtime layers on the
//! effects the coarse model misses — block-size BLAS-efficiency ramps,
//! panel/trailing load imbalance, sub-linear thread scaling and run-to-run
//! noise — so tuning the simulator reproduces the structure of tuning the
//! real code: a non-trivial optimum in `(b_r, b_c, p, p_r)` that the coarse
//! model predicts only approximately.

use crate::{noise, HpcApp, MachineModel};
use gptune_space::{Config, Param, Space, Value};

/// PDGEQRF simulator bound to a machine.
pub struct PdgeqrfApp {
    machine: MachineModel,
    task_space: Space,
    tuning_space: Space,
}

impl PdgeqrfApp {
    /// Creates the app on the given machine; matrix dimensions may range up
    /// to `max_dim` (the paper uses `m, n < 20000` or `< 40000`).
    pub fn new(machine: MachineModel, max_dim: i64) -> PdgeqrfApp {
        let p_max = machine.total_cores() as i64;
        let task_space = Space::builder()
            .param(Param::int("m", 128, max_dim))
            .param(Param::int("n", 128, max_dim))
            .build();
        let tuning_space = Space::builder()
            .param(Param::int_log("b_r", 4, 512))
            .param(Param::int_log("b_c", 4, 512))
            .param(Param::int_log("p", 1, p_max))
            .param(Param::int_log("p_r", 1, p_max))
            .constraint("p_r<=p", |c| c[3].as_int() <= c[2].as_int())
            .build();
        PdgeqrfApp {
            machine,
            task_space,
            tuning_space,
        }
    }

    /// The machine this instance simulates.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Classical QR flop count `2mn² − 2n³/3` of the tall orientation
    /// (used to sort tasks in Fig. 5 left); symmetric in `m` and `n`, like
    /// [`PdgeqrfApp::cost_terms`].
    pub fn flops(m: f64, n: f64) -> f64 {
        qr_flops_x3(m, n) / 3.0
    }

    /// Eqs. 8–10 cost terms `(C_flop, C_msg, C_vol)` with `b = b_r`.
    ///
    /// The CAQR analysis behind Eqs. 8–10 assumes a tall matrix (`m ≥ n`);
    /// for wide inputs the same work is done on the transposed problem
    /// (the LQ-equivalent factorization), so dimensions are swapped first —
    /// without this the flop term goes negative when `n > 3m`.
    pub fn cost_terms(m: f64, n: f64, b_r: f64, p: f64, p_r: f64) -> (f64, f64, f64) {
        let (m, n) = tall(m, n);
        let p_c = (p / p_r).floor().max(1.0);
        let log_pr = p_r.max(2.0).log2();
        let log_pc = p_c.max(2.0).log2();
        let c_flop = qr_flops_x3(m, n) / (3.0 * 2.0 * p)
            + b_r * n * n / (2.0 * p_c)
            + 3.0 * b_r * n * (2.0 * m - n) / (2.0 * p_r)
            + b_r * b_r * n / (3.0 * p_r);
        let c_msg = 3.0 * n * log_pr + 2.0 * n / b_r * log_pc;
        let c_vol = (n * n / p_c + b_r * n) * log_pr
            + ((m * n - n * n / 2.0) / p_r + b_r * n / 2.0) * log_pc;
        (c_flop, c_msg, c_vol)
    }

    /// Deterministic (noise-free) simulated runtime.
    pub fn runtime_model(&self, m: f64, n: f64, b_r: f64, b_c: f64, p: f64, p_r: f64) -> f64 {
        let p_max = self.machine.total_cores() as f64;
        let p_c = (p / p_r).floor().max(1.0);
        let nthreads = (p_max / p).floor().max(1.0);
        let (c_flop, c_msg, c_vol) = Self::cost_terms(m, n, b_r, p, p_r);
        // Imbalance reasoning below also assumes the tall orientation.
        let (m, n) = tall(m, n);

        // Effects the coarse model does not capture:
        // 1. BLAS-3 efficiency ramps with the blocking factors.
        let eff_b = self.machine.block_efficiency((b_r * b_c).sqrt());
        // 2. Threaded BLAS inside each process scales sub-linearly.
        let eff_t = self.machine.thread_efficiency(nthreads as usize);
        // 3. Block-cyclic load imbalance grows when blocks are large
        //    relative to the local matrix.
        let imbalance = (1.0 + b_r * p_r / m) * (1.0 + b_c * p_c / n);
        // 4. Very tall/flat grids pay extra synchronization on the long
        //    dimension (collectives over more ranks per column/row).
        let aspect = 1.0 + 0.02 * ((p_r / p_c).ln()).abs();

        let t_comp = c_flop / (self.machine.flop_rate * eff_b * eff_t) * imbalance;
        let t_comm = (c_msg * self.machine.latency + c_vol * 8.0 * self.machine.time_per_word)
            * aspect
            * nthreads.sqrt(); // idle threads don't help communication
        t_comp + t_comm
    }
}

/// `(m, n)` in the tall orientation (`m ≥ n`) the CAQR analysis assumes.
fn tall(m: f64, n: f64) -> (f64, f64) {
    if m >= n {
        (m, n)
    } else {
        (n, m)
    }
}

/// Three times the classical QR flop count of the tall orientation,
/// `2n²(3m − n)`: the one formula behind [`PdgeqrfApp::flops`] and the
/// leading term of `C_flop`.
fn qr_flops_x3(m: f64, n: f64) -> f64 {
    let (m, n) = tall(m, n);
    2.0 * n * n * (3.0 * m - n)
}

impl HpcApp for PdgeqrfApp {
    fn name(&self) -> &str {
        "pdgeqrf"
    }

    fn task_space(&self) -> &Space {
        &self.task_space
    }

    fn tuning_space(&self) -> &Space {
        &self.tuning_space
    }

    fn evaluate(&self, task: &[Value], config: &[Value], seed: u64) -> Vec<f64> {
        if !self.tuning_space.is_valid(config) {
            return vec![f64::INFINITY];
        }
        let (m, n) = (task[0].as_int() as f64, task[1].as_int() as f64);
        let b_r = config[0].as_int() as f64;
        let b_c = config[1].as_int() as f64;
        let p = config[2].as_int() as f64;
        let p_r = config[3].as_int() as f64;
        let t = self.runtime_model(m, n, b_r, b_c, p, p_r);
        let f = noise::lognormal_factor(
            noise::hash_point(task, config, seed),
            self.machine.noise_sigma,
        );
        vec![t * f]
    }

    fn model_features(&self, task: &[Value], config: &[Value]) -> Option<Vec<f64>> {
        let (m, n) = (task[0].as_int() as f64, task[1].as_int() as f64);
        let b_r = config[0].as_int() as f64;
        let p = config[2].as_int() as f64;
        let p_r = config[3].as_int() as f64;
        let (c_flop, c_msg, c_vol) = Self::cost_terms(m, n, b_r, p, p_r);
        Some(vec![c_flop, c_msg, c_vol])
    }

    fn default_config(&self) -> Option<Config> {
        // ScaLAPACK-ish defaults: 32×32 blocks, all processes, square-ish grid.
        let p = self.machine.total_cores() as i64;
        let p_r = (p as f64).sqrt() as i64;
        Some(vec![
            Value::Int(32),
            Value::Int(32),
            Value::Int(p),
            Value::Int(p_r.max(1)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> PdgeqrfApp {
        PdgeqrfApp::new(MachineModel::cori_noiseless(4), 40000)
    }

    fn cfg(b_r: i64, b_c: i64, p: i64, p_r: i64) -> Vec<Value> {
        vec![
            Value::Int(b_r),
            Value::Int(b_c),
            Value::Int(p),
            Value::Int(p_r),
        ]
    }

    #[test]
    fn bigger_problems_take_longer() {
        let a = app();
        let c = cfg(64, 64, 128, 8);
        let small = a.evaluate(&[Value::Int(2000), Value::Int(2000)], &c, 0)[0];
        let large = a.evaluate(&[Value::Int(16000), Value::Int(16000)], &c, 0)[0];
        assert!(large > small * 8.0, "small {small} large {large}");
    }

    #[test]
    fn parallelism_helps_large_problems() {
        let a = app();
        let t = vec![Value::Int(20000), Value::Int(20000)];
        let serial = a.evaluate(&t, &cfg(64, 64, 1, 1), 0)[0];
        let parallel = a.evaluate(&t, &cfg(64, 64, 128, 16), 0)[0];
        assert!(
            parallel < serial / 4.0,
            "serial {serial} parallel {parallel}"
        );
    }

    #[test]
    fn block_size_has_interior_optimum() {
        let a = app();
        let t = vec![Value::Int(10000), Value::Int(10000)];
        let tiny = a.evaluate(&t, &cfg(4, 4, 128, 8), 0)[0];
        let mid = a.evaluate(&t, &cfg(64, 64, 128, 8), 0)[0];
        let huge = a.evaluate(&t, &cfg(512, 512, 128, 8), 0)[0];
        assert!(mid < tiny, "mid {mid} tiny {tiny}");
        assert!(mid < huge, "mid {mid} huge {huge}");
    }

    #[test]
    fn grid_shape_matters() {
        let a = app();
        let t = vec![Value::Int(20000), Value::Int(20000)];
        let square = a.evaluate(&t, &cfg(64, 64, 128, 8), 0)[0]; // 8x16
        let degenerate = a.evaluate(&t, &cfg(64, 64, 128, 128), 0)[0]; // 128x1
        assert!(square < degenerate, "square {square} vs row {degenerate}");
    }

    #[test]
    fn constraint_violation_infinite() {
        let a = app();
        let t = vec![Value::Int(4000), Value::Int(4000)];
        let y = a.evaluate(&t, &cfg(64, 64, 8, 16), 0);
        assert!(y[0].is_infinite());
    }

    #[test]
    fn noise_seeded_and_reproducible() {
        let a = PdgeqrfApp::new(MachineModel::cori(4), 40000);
        let t = vec![Value::Int(8000), Value::Int(8000)];
        let c = cfg(64, 64, 128, 8);
        let y1 = a.evaluate(&t, &c, 42)[0];
        let y2 = a.evaluate(&t, &c, 42)[0];
        let y3 = a.evaluate(&t, &c, 43)[0];
        assert_eq!(y1, y2);
        assert_ne!(y1, y3);
        let base = app().evaluate(&t, &c, 0)[0];
        assert!((y1 / base - 1.0).abs() < 0.5, "noise within bounds");
    }

    #[test]
    fn model_features_are_eqs_8_to_10() {
        let a = app();
        let t = vec![Value::Int(10000), Value::Int(5000)];
        let c = cfg(32, 32, 64, 8);
        let f = a.model_features(&t, &c).unwrap();
        assert_eq!(f.len(), 3);
        let (cf, cm, cv) = PdgeqrfApp::cost_terms(10000.0, 5000.0, 32.0, 64.0, 8.0);
        assert_eq!(f, vec![cf, cm, cv]);
        assert!(cf > 0.0 && cm > 0.0 && cv > 0.0);
    }

    #[test]
    fn coarse_model_correlates_with_truth() {
        // Spearman-ish check: ranking by coarse model total (unit machine
        // coefficients) should broadly agree with the true runtime ranking.
        let a = app();
        let t = vec![Value::Int(12000), Value::Int(9000)];
        let configs: Vec<Vec<Value>> = vec![
            cfg(8, 8, 128, 8),
            cfg(32, 32, 128, 8),
            cfg(64, 64, 128, 16),
            cfg(256, 256, 128, 64),
            cfg(64, 64, 32, 4),
            cfg(16, 16, 64, 64),
        ];
        let mut truth: Vec<f64> = Vec::new();
        let mut coarse: Vec<f64> = Vec::new();
        for c in &configs {
            truth.push(a.evaluate(&t, c, 0)[0]);
            let f = a.model_features(&t, c).unwrap();
            coarse.push(
                f[0] / a.machine.flop_rate
                    + f[1] * a.machine.latency
                    + f[2] * 8.0 * a.machine.time_per_word,
            );
        }
        // Pearson correlation of log values.
        let lt: Vec<f64> = truth.iter().map(|v| v.ln()).collect();
        let lc: Vec<f64> = coarse.iter().map(|v| v.ln()).collect();
        let n = lt.len() as f64;
        let mt = lt.iter().sum::<f64>() / n;
        let mc = lc.iter().sum::<f64>() / n;
        let num: f64 = lt.iter().zip(&lc).map(|(a, b)| (a - mt) * (b - mc)).sum();
        let da: f64 = lt.iter().map(|a| (a - mt) * (a - mt)).sum::<f64>().sqrt();
        let db: f64 = lc.iter().map(|b| (b - mc) * (b - mc)).sum::<f64>().sqrt();
        let corr = num / (da * db);
        assert!(
            corr > 0.6,
            "corr {corr}: coarse model should be informative"
        );
    }

    #[test]
    fn default_config_valid() {
        let a = app();
        let d = a.default_config().unwrap();
        assert!(a.tuning_space().is_valid(&d));
    }

    #[test]
    fn wide_matrices_have_positive_cost() {
        // Regression: n ≫ m used to drive Eq. 8's flop term negative.
        let a = app();
        for (m, n) in [(5046i64, 17322i64), (1000, 39_000), (128, 40_000)] {
            let t = vec![Value::Int(m), Value::Int(n)];
            for c in [cfg(64, 64, 128, 8), cfg(4, 512, 32, 32), cfg(512, 4, 1, 1)] {
                let y = a.evaluate(&t, &c, 0)[0];
                assert!(y.is_finite() && y > 0.0, "(m={m}, n={n}) cfg {c:?} -> {y}");
            }
            // Transpose symmetry of the cost model.
            let tt = vec![Value::Int(n), Value::Int(m)];
            let c = cfg(64, 64, 128, 8);
            assert!(a.evaluate(&t, &c, 0)[0].is_finite());
            let (f1, g1, v1) = PdgeqrfApp::cost_terms(m as f64, n as f64, 64.0, 128.0, 8.0);
            let (f2, g2, v2) = PdgeqrfApp::cost_terms(n as f64, m as f64, 64.0, 128.0, 8.0);
            assert_eq!((f1, g1, v1), (f2, g2, v2));
            let _ = tt;
        }
    }

    #[test]
    fn flops_symmetric_and_positive_for_wide_tasks() {
        // n > 3m made the unswapped formula negative (a Fig. 5 sort key).
        for (m, n) in [
            (128.0, 40_000.0),
            (1000.0, 39_000.0),
            (5046.0, 17322.0),
            (700.0, 700.0),
        ] {
            let f = PdgeqrfApp::flops(m, n);
            assert_eq!(f, PdgeqrfApp::flops(n, m), "(m={m}, n={n})");
            assert!(f > 0.0, "(m={m}, n={n}) -> {f}");
        }
        // One formula with C_flop: at b_r = 0 and p = 1/2 it is exactly
        // the flop count.
        let (c_flop, _, _) = PdgeqrfApp::cost_terms(1000.0, 39_000.0, 0.0, 0.5, 1.0);
        assert_eq!(c_flop, PdgeqrfApp::flops(1000.0, 39_000.0));
    }
}
