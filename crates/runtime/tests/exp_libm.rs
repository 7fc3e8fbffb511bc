//! `runtime::simd::exp` against the host libm's `f32::exp`.
//!
//! The kernel ports glibc 2.36's `expf` (the FMA build that x86-64 glibc
//! selects on FMA hardware), so on such a host the two agree bit for bit. The
//! stratified sample runs with every `cargo test`; the comparison over all
//! 2³² inputs is ignored by default (about a minute single-threaded in
//! release) and runs as its own CI step:
//!
//! ```text
//! cargo test --release -p runtime --test exp_libm -- --ignored
//! ```
//!
//! It also validates the port's hard-coded table and polynomial constants. A
//! failure here means the host libm is not the `expf` the kernel ports —
//! glibc's non-FMA build, for one, differs at two positive inputs, the first
//! x = 32.564632 — not that any image changed: every tier, the training
//! softmax and the inference engine all run the port, whatever the libm.
#![cfg(target_env = "gnu")]

use runtime::simd::{self, SimdMode};
use std::sync::Mutex;

/// `force_mode` is process-global; tests that sweep tiers serialize on this.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// The inputs of `inputs` whose kernel result under `mode` differs from
/// `f32::exp` (two NaNs count as equal).
fn mismatches(inputs: &[f32], mode: Option<SimdMode>) -> Vec<f32> {
    let _lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut got = inputs.to_vec();
    simd::force_mode(mode);
    simd::exp(&mut got);
    simd::force_mode(None);
    inputs
        .iter()
        .zip(&got)
        .filter(|&(&x, &y)| {
            let want = x.exp();
            y.to_bits() != want.to_bits() && !(y.is_nan() && want.is_nan())
        })
        .map(|(&x, _)| x)
        .collect()
}

#[test]
fn exp_matches_libm_on_a_stratified_sample() {
    // Every sign/exponent stratum (the top 9 bits) at 257 mantissas spread
    // evenly from its first to its last value, plus every 4099th bit pattern
    // of the softmax domain [−104, −0].
    let strata =
        (0u32..512).flat_map(|top| (0..=256u64).map(move |i| f32::from_bits(top << 23 | (i * 0x7f_ffff / 256) as u32)));
    let softmax = (0x8000_0000u32..=0xc2d0_0000).step_by(4099).map(f32::from_bits);
    let inputs: Vec<f32> = strata.chain(softmax).collect();
    for mode in simd::available_modes() {
        let bad = mismatches(&inputs, Some(mode));
        assert!(
            bad.is_empty(),
            "{} of {} inputs differ from libm under {mode:?}, first {:?}",
            bad.len(),
            inputs.len(),
            &bad[..bad.len().min(8)]
        );
    }
}

#[test]
#[ignore = "exhaustive over all 2^32 inputs: under a minute in release"]
fn exp_matches_libm_on_every_input() {
    let mut bad = Vec::new();
    let mut inputs = vec![0.0f32; 1 << 16];
    for high in 0u32..1 << 16 {
        for (low, x) in inputs.iter_mut().enumerate() {
            *x = f32::from_bits(high << 16 | low as u32);
        }
        bad.extend(mismatches(&inputs, None));
    }
    assert!(bad.is_empty(), "{} inputs differ from libm, first {:?}", bad.len(), &bad[..bad.len().min(8)]);
}
