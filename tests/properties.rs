//! Property-based tests (proptest) on the core invariants: lossless
//! round-trips on arbitrary inputs, error bounds on arbitrary fields,
//! exact inverses of the kernels and primitives.

use hpdr::{Codec, MgardConfig, SzConfig};
use hpdr_core::{ArrayMeta, DType, Float, SerialAdapter, Shape};
use hpdr_kernels::{BitReader, BitWriter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn huffman_roundtrips_arbitrary_symbols(
        keys in proptest::collection::vec(0u32..512, 0..4000),
        chunk in 1usize..3000,
    ) {
        let adapter = SerialAdapter::new();
        let cfg = hpdr_huffman::HuffmanConfig { dict_size: 512, chunk_elems: chunk };
        let stream = hpdr_huffman::compress_u32(&adapter, &keys, &cfg).unwrap();
        let out = hpdr_huffman::decompress_u32(&adapter, &stream).unwrap();
        prop_assert_eq!(out, keys);
    }

    #[test]
    fn lz4_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..6000)) {
        let c = hpdr_baselines::lz_compress(&data);
        let d = hpdr_baselines::lz_decompress(&c, data.len()).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn bitstream_roundtrips_arbitrary_fields(
        fields in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..200)
    ) {
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let total = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::with_bit_limit(&bytes, total).unwrap();
        for &(v, n) in &fields {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
        prop_assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn lorenzo_is_exactly_invertible(
        vals in proptest::collection::vec(-1_000_000i64..1_000_000, 1..400),
        split in 1usize..20,
    ) {
        // Reshape to 2D when possible.
        let n = vals.len();
        let rows = split.min(n);
        let cols = n / rows;
        if cols == 0 { return Ok(()); }
        let used = rows * cols;
        let shape = Shape::new(&[rows, cols]);
        let mut q: Vec<i64> = vals[..used].to_vec();
        hpdr_baselines::lorenzo::lorenzo_forward(&mut q, &shape);
        hpdr_baselines::lorenzo::lorenzo_inverse(&mut q, &shape);
        prop_assert_eq!(&q[..], &vals[..used]);
    }

    #[test]
    fn sz_honours_bound_on_arbitrary_fields(
        vals in proptest::collection::vec(-1e6f32..1e6, 16..600),
        rel in 1e-5f64..1e-1,
    ) {
        let adapter = SerialAdapter::new();
        let shape = Shape::new(&[vals.len()]);
        let (stream, _) = hpdr::compress_slice(
            &adapter, &vals, &shape, Codec::Sz(SzConfig::relative(rel))).unwrap();
        let (out, _) = hpdr::decompress_slice::<f32>(&adapter, &stream).unwrap();
        let range = {
            let mx = vals.iter().cloned().fold(f32::MIN, f32::max);
            let mn = vals.iter().cloned().fold(f32::MAX, f32::min);
            ((mx - mn) as f64).max(f64::MIN_POSITIVE)
        };
        let err = vals.iter().zip(&out)
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        // f32 reconstruction rounding can add half an ulp of the value
        // magnitude on top of the quantizer's guarantee.
        prop_assert!(err <= rel * range * (1.0 + 1e-5) + 1e-30, "err {} bound {}", err, rel * range);
    }

    #[test]
    fn mgard_honours_bound_on_random_2d_fields(
        seed in 0u64..5000,
        rows in 4usize..24,
        cols in 4usize..24,
        rel_exp in 1u32..5,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::new(&[rows, cols]);
        let vals: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let rel = 10f64.powi(-(rel_exp as i32));
        let adapter = SerialAdapter::new();
        let (stream, _) = hpdr::compress_slice(
            &adapter, &vals, &shape, Codec::Mgard(MgardConfig::relative(rel))).unwrap();
        let (out, _) = hpdr::decompress_slice::<f64>(&adapter, &stream).unwrap();
        let range = {
            let mx = vals.iter().cloned().fold(f64::MIN, f64::max);
            let mn = vals.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        };
        let err = vals.iter().zip(&out).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        prop_assert!(err <= rel * range * 1.001, "err {} bound {}", err, rel * range);
    }

    #[test]
    fn zfp_error_shrinks_with_rate(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::new(&[8, 8]);
        let vals: Vec<f32> = (0..64).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let adapter = SerialAdapter::new();
        let err_at = |rate: u32| {
            let (s, _) = hpdr::compress_slice(
                &adapter, &vals, &shape,
                Codec::Zfp(hpdr::ZfpConfig::fixed_rate(rate))).unwrap();
            let (out, _) = hpdr::decompress_slice::<f32>(&adapter, &s).unwrap();
            vals.iter().zip(&out).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
        };
        let coarse = err_at(4);
        let fine = err_at(28);
        prop_assert!(fine <= coarse + 1e-6, "fine {} coarse {}", fine, coarse);
        prop_assert!(fine < 1e-3, "fine-rate error too large: {}", fine);
    }

    #[test]
    fn quantize_dequantize_within_half_bin(
        vals in proptest::collection::vec(-1e4f64..1e4, 1..500),
        bin in 1e-4f64..10.0,
    ) {
        let adapter = SerialAdapter::new();
        let levels = vec![0u8; vals.len()];
        let bins = vec![bin];
        let q = hpdr_mgard::quantize::quantize(&adapter, &vals, &levels, &bins, 4096);
        let back = hpdr_mgard::quantize::dequantize(&adapter, &q, &levels, &bins, 4096);
        for (a, b) in vals.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bin / 2.0 + 1e-9);
        }
    }

    #[test]
    fn huffman_container_detection_never_misfires(
        data in proptest::collection::vec(any::<u8>(), 4..64)
    ) {
        // Arbitrary bytes must not be decodable as any codec (with
        // overwhelming probability they fail; they must never panic).
        let adapter = SerialAdapter::new();
        let _ = hpdr::decompress(&adapter, &data);
    }

    #[test]
    fn dataset_bytes_parse_back(side in 4usize..12, seed in 0u64..100) {
        let d = hpdr_data::nyx_density(side, seed);
        let vals = d.as_f32();
        prop_assert_eq!(vals.len(), side * side * side);
        let meta = ArrayMeta::new(DType::F32, d.shape.clone());
        prop_assert_eq!(meta.num_bytes(), d.bytes.len());
        let rt = f32::slice_to_bytes(&vals);
        prop_assert_eq!(rt, d.bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mgard_decompose_recompose_is_identity(
        seed in 0u64..2000,
        rows in 2usize..20,
        cols in 2usize..20,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::new(&[rows, cols]);
        let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let h = hpdr_mgard::Hierarchy::new(&shape);
        let adapter = SerialAdapter::new();
        let mut u = data.clone();
        hpdr_mgard::decompose::decompose(&adapter, &mut u, &h);
        hpdr_mgard::decompose::recompose(&adapter, &mut u, &h);
        let err = data.iter().zip(&u).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        prop_assert!(err < 1e-6, "roundtrip err {}", err);
    }

    #[test]
    fn zfp_fixed_precision_error_never_grows_with_planes(
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::new(&[8, 8]);
        let vals: Vec<f64> = (0..64).map(|_| rng.gen_range(-1e4..1e4)).collect();
        let adapter = SerialAdapter::new();
        let mut last = f64::INFINITY;
        for planes in [8u32, 24, 48, 62] {
            let (s, _) = hpdr::compress_slice(
                &adapter, &vals, &shape,
                Codec::Zfp(hpdr::ZfpConfig::fixed_precision(planes))).unwrap();
            let (out, _) = hpdr::decompress_slice::<f64>(&adapter, &s).unwrap();
            let err = vals.iter().zip(&out).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            prop_assert!(err <= last + 1e-9, "planes {}: {} > {}", planes, err, last);
            last = err;
        }
        prop_assert!(last < 1e-9, "full precision err {}", last);
    }

    #[test]
    fn lorenzo_4d_roundtrip(
        vals in proptest::collection::vec(-1_000_000i64..1_000_000, 16..240),
    ) {
        // Factor the length into a 4D shape.
        let n = vals.len();
        let a = 2; let b = 2;
        let c = 2.max((n / 8).min(4));
        let d = n / (a * b * c);
        if d == 0 { return Ok(()); }
        let used = a * b * c * d;
        let shape = Shape::new(&[a, b, c, d]);
        let mut q: Vec<i64> = vals[..used].to_vec();
        hpdr_baselines::lorenzo::lorenzo_forward(&mut q, &shape);
        hpdr_baselines::lorenzo::lorenzo_inverse(&mut q, &shape);
        prop_assert_eq!(&q[..], &vals[..used]);
    }

    #[test]
    fn embedded_coder_lossless_with_full_budget(
        data in proptest::collection::vec(0u64..(1u64 << 62), 1..64),
    ) {
        use hpdr_kernels::{BitReader, BitWriter};
        let mut w = BitWriter::new();
        let used = hpdr_zfp::embedded::encode_ints(&mut w, 1 << 24, 0, &data);
        prop_assert!(used < 1 << 24);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = [0u64; 64];
        hpdr_zfp::embedded::decode_ints(&mut r, 1 << 24, 0, data.len(), &mut out).unwrap();
        prop_assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn shape_offset_unravel_inverse(dims in proptest::collection::vec(1usize..8, 1..5)) {
        let shape = Shape::new(&dims);
        for flat in 0..shape.num_elements() {
            let idx = shape.unravel(flat);
            prop_assert_eq!(shape.offset(&idx), flat);
        }
    }
}
