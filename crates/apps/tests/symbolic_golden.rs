//! Golden pin for the SuperLU_DIST simulator's symbolic calibration.
//!
//! `SuperluApp::new_with_symbolic` sets the COLPERM fill landscape the
//! tuner searches. Any change to the orderings or fill counts in
//! `gptune-sparse` that moves one multiplier by one ulp changes this
//! digest. On a mismatch the test prints the table to diff against the
//! older code.

use gptune_apps::{MachineModel, SuperluApp, PARSEC_MATRICES};

/// FNV-1a over the little-endian bytes of each multiplier's `f64::to_bits`,
/// in `[matrix][colperm]` order.
fn fill_table_digest(app: &SuperluApp) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for mat in 0..PARSEC_MATRICES.len() {
        for perm in 0..5 {
            for byte in app.fill(mat, perm).to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn symbolic_fill_table_is_pinned() {
    let app = SuperluApp::new_with_symbolic(MachineModel::cori_noiseless(8), 500);
    let digest = fill_table_digest(&app);
    let table: Vec<Vec<f64>> = (0..PARSEC_MATRICES.len())
        .map(|mat| (0..5).map(|perm| app.fill(mat, perm)).collect())
        .collect();
    assert_eq!(
        digest, GOLDEN,
        "fill-table digest {digest:#018x} changed; table: {table:?}"
    );
}

/// Digest of the calibrated fill table at `max_pattern_n = 500`. A speed-up
/// of the orderings or fill counts must leave it unchanged.
const GOLDEN: u64 = 0x64c3_58f4_dcf2_1398;
