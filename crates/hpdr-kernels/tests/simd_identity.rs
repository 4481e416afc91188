//! Scalar ≡ SIMD byte-identity proptests for every dispatched kernel.
//!
//! Each test runs the same inputs through the scalar reference table and
//! every tier the host CPU exposes (`available_tiers()` always includes
//! scalar, so the suite degrades to self-consistency on non-x86 hosts or
//! under `HPDR_FORCE_SCALAR=1`). Lengths sweep 0, sub-lane-width, and
//! unaligned remainder tails; floating-point results are compared by bit
//! pattern, not tolerance — the contract is *identical* bytes, not close
//! ones.

use hpdr_kernels::simd::{available_tiers, scalar_kernels};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn negabinary_roundtrip_identical(src in vec(any::<i64>(), 0..200)) {
        let n = src.len();
        let mut want = vec![0u64; n];
        (scalar_kernels().negabinary_fwd)(&src, &mut want);
        for k in available_tiers() {
            let mut got = vec![0u64; n];
            (k.negabinary_fwd)(&src, &mut got);
            prop_assert_eq!(&got, &want, "fwd tier {:?} len {}", k.tier, n);
            let mut back = vec![0i64; n];
            (k.negabinary_inv)(&got, &mut back);
            prop_assert_eq!(&back, &src, "inv tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn bit_transpose_identical(seed in vec(any::<u64>(), 64)) {
        let mut base = [0u64; 64];
        base.copy_from_slice(&seed);
        let mut want = base;
        (scalar_kernels().bit_transpose64)(&mut want);
        for k in available_tiers() {
            let mut got = base;
            (k.bit_transpose64)(&mut got);
            prop_assert_eq!(got, want, "tier {:?}", k.tier);
        }
    }

    #[test]
    fn zfp_transforms_identical(seed in vec(any::<i64>(), 64), d in 1usize..=3) {
        // Shift into fixed-point range so wrapping behaviour is identical
        // AND representative; full-range wrapping is covered too since the
        // ladders are pure wrapping arithmetic either way.
        let n = 4usize.pow(d as u32);
        let block: Vec<i64> = seed[..n].iter().map(|&v| v >> 3).collect();
        let mut want_f = block.clone();
        (scalar_kernels().zfp_fwd_transform)(&mut want_f, d);
        let mut want_i = want_f.clone();
        (scalar_kernels().zfp_inv_transform)(&mut want_i, d);
        for k in available_tiers() {
            let mut got = block.clone();
            (k.zfp_fwd_transform)(&mut got, d);
            prop_assert_eq!(&got, &want_f, "fwd tier {:?} d {}", k.tier, d);
            (k.zfp_inv_transform)(&mut got, d);
            prop_assert_eq!(&got, &want_i, "inv tier {:?} d {}", k.tier, d);
        }
    }

    #[test]
    fn histogram_fill_identical(keys in vec(any::<u32>(), 0..300), bins in 1usize..2000) {
        // Mix full-range keys (overflow clamp) with in-range ones.
        let keys: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| if i % 2 == 0 { k % (bins as u32 + 7) } else { k })
            .collect();
        let mut want = vec![0u64; bins + 1];
        (scalar_kernels().histogram_fill)(&keys, bins, &mut want);
        for k in available_tiers() {
            let mut got = vec![0u64; bins + 1];
            (k.histogram_fill)(&keys, bins, &mut got);
            prop_assert_eq!(&got, &want, "tier {:?} bins {}", k.tier, bins);
        }
    }

    #[test]
    fn byte_histogram_fill_identical(bytes in vec(any::<u8>(), 0..4000)) {
        let mut want = vec![0u64; 256];
        (scalar_kernels().byte_histogram_fill)(&bytes, &mut want);
        for k in available_tiers() {
            let mut got = vec![0u64; 256];
            (k.byte_histogram_fill)(&bytes, &mut got);
            prop_assert_eq!(&got, &want, "tier {:?} len {}", k.tier, bytes.len());
        }
    }

    #[test]
    fn bits_sums_identical(
        keys in vec(any::<u32>(), 0..300),
        lens in vec(1u32..64, 1..300),
    ) {
        let bytes: Vec<u8> = keys.iter().map(|&k| k as u8).collect();
        let want_code = (scalar_kernels().code_bits_sum)(&keys, &lens);
        let want_byte = (scalar_kernels().byte_bits_sum)(&bytes, &lens);
        for k in available_tiers() {
            prop_assert_eq!(
                (k.code_bits_sum)(&keys, &lens),
                want_code,
                "code tier {:?}",
                k.tier
            );
            prop_assert_eq!(
                (k.byte_bits_sum)(&bytes, &lens),
                want_byte,
                "byte tier {:?}",
                k.tier
            );
        }
    }

    #[test]
    fn quantize_quotients_identical(
        coeffs in vec(any::<f64>(), 0..200),
        levels in vec(any::<u8>(), 200),
        raw_bins in vec(any::<f64>(), 1..9),
    ) {
        let n = coeffs.len();
        let bins: Vec<f64> = raw_bins.iter().map(|b| b.abs().max(1e-9)).collect();
        let levels = &levels[..n];
        let mut want = vec![0.0f64; n];
        (scalar_kernels().quantize_quotients)(&coeffs, levels, &bins, &mut want);
        for k in available_tiers() {
            let mut got = vec![0.0f64; n];
            (k.quantize_quotients)(&coeffs, levels, &bins, &mut got);
            let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, wb, "tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn dequantize_vals_identical(
        syms in vec(any::<u32>(), 0..200),
        levels in vec(any::<u8>(), 200),
        raw_bins in vec(any::<f64>(), 1..9),
        radius in -(1i64 << 33)..(1i64 << 33),
        escape in any::<u32>(),
    ) {
        // Exercise both the vectorized small-radius path and the scalar
        // large-radius fallback inside the AVX2 wrapper.
        let n = syms.len();
        let bins: Vec<f64> = raw_bins.iter().map(|b| b.abs().max(1e-9)).collect();
        let levels = &levels[..n];
        let syms: Vec<u32> = syms
            .iter()
            .enumerate()
            .map(|(i, &s)| if i % 5 == 0 { escape } else { s })
            .collect();
        let mut want = vec![0.0f64; n];
        (scalar_kernels().dequantize_vals)(&syms, levels, &bins, radius, escape, &mut want);
        for k in available_tiers() {
            let mut got = vec![0.0f64; n];
            (k.dequantize_vals)(&syms, levels, &bins, radius, escape, &mut got);
            let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, wb, "tier {:?} radius {} len {}", k.tier, radius, n);
        }
    }

    #[test]
    fn zfp_amax_identical(src in vec(any::<f64>(), 0..200), poison in any::<u8>()) {
        // Occasionally inject NaN/inf — the contract defines both.
        let mut src = src;
        if !src.is_empty() && poison.is_multiple_of(4) {
            let i = poison as usize % src.len();
            src[i] = if poison.is_multiple_of(8) { f64::NAN } else { f64::INFINITY };
        }
        let src32: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        let want64 = (scalar_kernels().zfp_amax_f64)(&src);
        let want32 = (scalar_kernels().zfp_amax_f32)(&src32);
        for k in available_tiers() {
            prop_assert_eq!(
                (k.zfp_amax_f64)(&src).to_bits(),
                want64.to_bits(),
                "f64 tier {:?}",
                k.tier
            );
            prop_assert_eq!(
                (k.zfp_amax_f32)(&src32).to_bits(),
                want32.to_bits(),
                "f32 tier {:?}",
                k.tier
            );
        }
    }

    #[test]
    fn zfp_fixedpoint_identical(
        src in vec(-1.0e6f64..1.0e6, 0..200),
        scale in 1.0e-3f64..1.0e9,
    ) {
        // |src * scale| < 1e15 ≪ 2^62: inside the kernel contract.
        let src32: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        let n = src.len();
        let mut want64 = vec![0i64; n];
        (scalar_kernels().zfp_fixedpoint_f64)(&src, scale, &mut want64);
        let mut want32 = vec![0i64; n];
        (scalar_kernels().zfp_fixedpoint_f32)(&src32, scale, &mut want32);
        for k in available_tiers() {
            let mut got = vec![0i64; n];
            (k.zfp_fixedpoint_f64)(&src, scale, &mut got);
            prop_assert_eq!(&got, &want64, "f64 tier {:?} len {}", k.tier, n);
            let mut got = vec![0i64; n];
            (k.zfp_fixedpoint_f32)(&src32, scale, &mut got);
            prop_assert_eq!(&got, &want32, "f32 tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn min_max_identical(src in vec(any::<f64>(), 0..200)) {
        let src32: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        let want64 = (scalar_kernels().min_max_f64)(&src);
        let want32 = (scalar_kernels().min_max_f32)(&src32);
        for k in available_tiers() {
            let got = (k.min_max_f64)(&src);
            prop_assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want64.0.to_bits(), want64.1.to_bits()),
                "f64 tier {:?}",
                k.tier
            );
            let got = (k.min_max_f32)(&src32);
            prop_assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want32.0.to_bits(), want32.1.to_bits()),
                "f32 tier {:?}",
                k.tier
            );
        }
    }

    #[test]
    fn sz_quantize_identical(
        src in vec(-1.0e9f64..1.0e9, 0..200),
        divisor in 1.0e-6f64..1.0e6,
    ) {
        // |src / divisor| < 1e15 ≪ 2^62: inside the kernel contract.
        let src32: Vec<f32> = src.iter().map(|&v| v as f32).collect();
        let n = src.len();
        let mut want64 = vec![0i64; n];
        (scalar_kernels().sz_quantize_f64)(&src, divisor, &mut want64);
        let mut want32 = vec![0i64; n];
        (scalar_kernels().sz_quantize_f32)(&src32, divisor, &mut want32);
        for k in available_tiers() {
            let mut got = vec![0i64; n];
            (k.sz_quantize_f64)(&src, divisor, &mut got);
            prop_assert_eq!(&got, &want64, "f64 tier {:?} len {}", k.tier, n);
            let mut got = vec![0i64; n];
            (k.sz_quantize_f32)(&src32, divisor, &mut got);
            prop_assert_eq!(&got, &want32, "f32 tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn sz_symbolize_identical(
        q in vec(any::<i64>(), 0..200),
        radius in 0i64..(1 << 31),
        escape in any::<u32>(),
    ) {
        let n = q.len();
        let mut want = vec![0u32; n];
        let mut want_out = Vec::new();
        (scalar_kernels().sz_symbolize)(&q, radius, escape, &mut want, &mut want_out);
        for k in available_tiers() {
            let mut got = vec![0u32; n];
            let mut got_out = Vec::new();
            (k.sz_symbolize)(&q, radius, escape, &mut got, &mut got_out);
            prop_assert_eq!(&got, &want, "symbols tier {:?} len {}", k.tier, n);
            prop_assert_eq!(&got_out, &want_out, "outliers tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn quotient_symbols_identical(
        ints in vec(any::<i64>(), 0..200),
        radius in 0i64..(1 << 31),
        escape in any::<u32>(),
        scale in 0u32..64,
    ) {
        // Integral quotients of every magnitude, most near the dictionary.
        let q: Vec<f64> = ints.iter().map(|&v| ((v >> scale) as f64).round_ties_even()).collect();
        let n = q.len();
        let mut want = vec![0u32; n];
        let mut want_out = Vec::new();
        (scalar_kernels().quotient_symbols)(&q, radius, escape, &mut want, &mut want_out);
        for k in available_tiers() {
            let mut got = vec![0u32; n];
            let mut got_out = Vec::new();
            (k.quotient_symbols)(&q, radius, escape, &mut got, &mut got_out);
            prop_assert_eq!(&got, &want, "symbols tier {:?} len {}", k.tier, n);
            prop_assert_eq!(&got_out, &want_out, "escapes tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn slice_ops_identical(cur in vec(any::<i64>(), 0..200), prev_seed in vec(any::<i64>(), 200)) {
        let n = cur.len();
        let prev = &prev_seed[..n];
        let mut want_sub = cur.clone();
        (scalar_kernels().slice_sub)(&mut want_sub, prev);
        let mut want_add = cur.clone();
        (scalar_kernels().slice_add)(&mut want_add, prev);
        for k in available_tiers() {
            let mut got = cur.clone();
            (k.slice_sub)(&mut got, prev);
            prop_assert_eq!(&got, &want_sub, "sub tier {:?} len {}", k.tier, n);
            // sub then add restores the input on every tier (wrapping).
            (k.slice_add)(&mut got, prev);
            prop_assert_eq!(&got, &cur, "sub∘add tier {:?} len {}", k.tier, n);
            let mut got = cur.clone();
            (k.slice_add)(&mut got, prev);
            prop_assert_eq!(&got, &want_add, "add tier {:?} len {}", k.tier, n);
        }
    }

    #[test]
    fn line_kernels_identical(line in vec(any::<i64>(), 0..200)) {
        let n = line.len();
        let mut want_diff = line.clone();
        (scalar_kernels().line_backward_diff)(&mut want_diff);
        let mut want_sum = line.clone();
        (scalar_kernels().line_prefix_sum)(&mut want_sum);
        for k in available_tiers() {
            let mut got = line.clone();
            (k.line_backward_diff)(&mut got);
            prop_assert_eq!(&got, &want_diff, "diff tier {:?} len {}", k.tier, n);
            // diff then prefix-sum restores the line on every tier.
            (k.line_prefix_sum)(&mut got);
            prop_assert_eq!(&got, &line, "diff∘sum tier {:?} len {}", k.tier, n);
            let mut got = line.clone();
            (k.line_prefix_sum)(&mut got);
            prop_assert_eq!(&got, &want_sum, "sum tier {:?} len {}", k.tier, n);
        }
    }
}

/// Lane-boundary sweep: every length from 0 through three vector widths,
/// deterministic data — the exact lengths where remainder-tail handling
/// goes wrong hide from random length sampling.
#[test]
fn remainder_tails_every_length_to_three_lanes() {
    for n in 0..=24usize {
        let src: Vec<i64> = (0..n as i64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64) >> 1)
            .collect();
        let mut want = vec![0u64; n];
        (scalar_kernels().negabinary_fwd)(&src, &mut want);
        let keys: Vec<u32> = src.iter().map(|&v| (v as u32) % 301).collect();
        let mut want_h = vec![0u64; 257];
        (scalar_kernels().histogram_fill)(&keys, 256, &mut want_h);
        for k in available_tiers() {
            let mut got = vec![0u64; n];
            (k.negabinary_fwd)(&src, &mut got);
            assert_eq!(got, want, "negabinary tier {:?} len {n}", k.tier);
            let mut got_h = vec![0u64; 257];
            (k.histogram_fill)(&keys, 256, &mut got_h);
            assert_eq!(got_h, want_h, "histogram tier {:?} len {n}", k.tier);
        }
    }
}

/// The symbolizer's edge cases on every tier: ties (quotients rounded to
/// even from exact halves), ±0, both escape edges, |q| at 2^51 ± 1, sums
/// past 2^32 whose low 32 bits fall below the escape, ±9·10^18
/// saturation, ±inf and NaN quotients, each at every lane of a vector.
#[test]
fn quotient_symbols_edge_cases_identical() {
    let (radius, escape) = (4096i64, 8191u32);
    let r = radius as f64;
    let two51 = (1u64 << 51) as f64;
    let two32 = (1u64 << 32) as f64;
    let mut edges: Vec<f64> = [0.5f64, 1.5, 2.5, -0.5, -1.5, -2.5]
        .iter()
        .map(|v| v.round_ties_even())
        .collect();
    edges.extend([
        0.0,
        -0.0,
        -r - 1.0,
        -r,
        escape as f64 - r - 1.0,
        escape as f64 - r,
        two51 - 1.0,
        two51,
        two51 + 2.0,
        -two51 + 1.0,
        -two51 - 2.0,
        two32 - r,
        two32 + 5.0 - r,
        9.0e18,
        -9.0e18,
        9.5e18,
        -9.5e18,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]);
    for shift in 0..4 {
        let q: Vec<f64> = std::iter::repeat_n(3.0, shift)
            .chain(edges.iter().copied())
            .collect();
        let mut want = vec![0u32; q.len()];
        let mut want_out = Vec::new();
        (scalar_kernels().quotient_symbols)(&q, radius, escape, &mut want, &mut want_out);
        let pos = |v: f64| {
            (shift
                + edges
                    .iter()
                    .position(|&e| e.to_bits() == v.to_bits())
                    .unwrap()) as u64
        };
        let escaped = |v: f64| want_out.iter().find(|&&(i, _)| i == pos(v)).map(|e| e.1);
        // Ties, ±0, the lower edge, the last in-range value and NaN (q = 0)
        // are symbols.
        for sym in [0.0, -0.0, -r, escape as f64 - r - 1.0, f64::NAN] {
            assert_eq!(escaped(sym), None, "{sym} escaped");
        }
        assert_eq!(want[pos(-r) as usize], 0);
        assert_eq!(want[pos(f64::NAN) as usize], radius as u32);
        // The rest escape with their saturated quotients, sums past 2^32
        // included (2^51 is a multiple of 2^32).
        for (esc, quot) in [
            (-r - 1.0, -radius - 1),
            (escape as f64 - r, escape as i64 - radius),
            (two32 - r, (1i64 << 32) - radius),
            (two32 + 5.0 - r, (1i64 << 32) + 5 - radius),
            (two51, 1i64 << 51),
            (-two51 - 2.0, -(1i64 << 51) - 2),
            (9.5e18, 9_000_000_000_000_000_000),
            (f64::INFINITY, 9_000_000_000_000_000_000),
            (-9.5e18, -9_000_000_000_000_000_000),
            (f64::NEG_INFINITY, -9_000_000_000_000_000_000),
        ] {
            assert_eq!(escaped(esc), Some(quot), "{esc}");
            assert_eq!(want[pos(esc) as usize], escape);
        }
        for k in available_tiers() {
            let mut got = vec![0u32; q.len()];
            let mut got_out = Vec::new();
            (k.quotient_symbols)(&q, radius, escape, &mut got, &mut got_out);
            assert_eq!(got, want, "symbols tier {:?} shift {shift}", k.tier);
            assert_eq!(got_out, want_out, "escapes tier {:?} shift {shift}", k.tier);
        }
    }
}
