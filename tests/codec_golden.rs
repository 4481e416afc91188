//! Byte-identity pins for the ZFP-X, Huffman-X and cusz-like decoders:
//! FNV-1a digests of each container and of the output decoded from it.
//! The constants were recorded from the per-bit ZFP-X group-test decoder
//! and the one-symbol-per-window Huffman-X chunk loop, before the
//! closed-form and multi-symbol decoders replaced them. They show that
//! the new decoders return exactly what the old ones returned; they are
//! never to be re-recorded to make a decoder change pass.

use hpdr_baselines::{SzConfig, SzReducer};
use hpdr_core::{
    fnv1a, ArrayMeta, CpuParallelAdapter, DeviceAdapter, Float, Reducer, SerialAdapter, Shape,
};
use hpdr_huffman::HuffmanConfig;
use hpdr_zfp::ZfpConfig;

const SHAPES: [&[usize]; 4] = [&[257], &[33, 12], &[19, 33, 65], &[2, 3, 10, 8]];

fn zfp_configs() -> [ZfpConfig; 5] {
    [
        ZfpConfig::fixed_rate(8),
        ZfpConfig::fixed_rate(16),
        ZfpConfig::fixed_rate(32),
        ZfpConfig::fixed_accuracy(1e-3),
        ZfpConfig::fixed_precision(16),
    ]
}

/// `(container, restored field)` per config × shape, f32 fields.
const GOLDEN_ZFP_F32: [(u64, u64); 20] = [
    (0x9fb7eb35373543a1, 0x104a25fdc10341d0),
    (0xafe5ee5ce45e7367, 0x9870643c03641cab),
    (0xc37f407088039900, 0x31abfd1dce0b2305),
    (0xae6eee17d98c6b69, 0x302d3f8b64dbcae0),
    (0x3198dda94ebce5c7, 0x2dcb74582a8e5075),
    (0x89662d36efbcec9b, 0xddd3ae272cf334f4),
    (0x749f6f9c82a22ed5, 0x0c53370919846d2d),
    (0x1cbc9d1ee8333454, 0x64c6434a5878ceb5),
    (0x91761d17a3de4844, 0x5368d257b8612fd6),
    (0xf65e19a18563416d, 0xaf532ebbbd08d630),
    (0x2ab82cc761b91441, 0x6edda019f7f65304),
    (0xfcb51ef997bcc239, 0x5b6c9e8c8f62bc96),
    (0x4345dd782734bde5, 0x3b7122b183051024),
    (0x230a6a881a717b0e, 0x3fef6505cbbd4006),
    (0x2e7da18e9808ac0a, 0x8b8f2670034a7987),
    (0x069527295783e300, 0x1ad62643be90802f),
    (0x174115dfd0412c29, 0x45b2bf06c76c06ec),
    (0x00a714c82b7ec3aa, 0xdd3335cbb6ae2a50),
    (0xa709228cdcf46914, 0xfbde557d3860378d),
    (0x9c94fb0d437bda4f, 0xb9904c9112afaf36),
];
/// `(container, restored field)` per config × shape, f64 fields.
const GOLDEN_ZFP_F64: [(u64, u64); 20] = [
    (0xdc27bb4d0a7647c6, 0x104a25fdc10341d0),
    (0x4517b4524a055c54, 0x9870643c03641cab),
    (0xc7d05cb7155bf407, 0x6871f485a1e6ce15),
    (0x8ff3d7057d43a6f2, 0x302d3f8b64dbcae0),
    (0xbdc96b8d2e4ee3b0, 0x590994345da37be9),
    (0xd21a6ef645bf9ffe, 0x66500bf743488d61),
    (0xd72778bbd60e7a8d, 0x901e8fff60c4925d),
    (0x675a79a09dd3c8f7, 0x2ff7d6c2a5c8c2f2),
    (0x28432c545402e0c5, 0x989750fca0297eda),
    (0xa0589b42719ec06e, 0xdbbb439d49a0ca16),
    (0x06e135ec7a45dcd7, 0x5da898d5024280c7),
    (0x0fe2aeca8053fdab, 0x04052694733a6f14),
    (0x652969cdf52aefda, 0xb4aaca49d07ba910),
    (0xb814ce62f286d4e3, 0x8b433b3e7c354bc8),
    (0xd125767f9226e1a8, 0x59a0ee8be733f371),
    (0x931ca1506eeb1a29, 0xe7d9cdba3c58fdd7),
    (0xdb36eba40e5618a2, 0x45b2bf06c76c06ec),
    (0x999b5bdabcae53b1, 0xdd3335cbb6ae2a50),
    (0xd8797db355715577, 0xfbde557d3860378d),
    (0x58af2aac890aae92, 0xb9904c9112afaf36),
];
/// `(container, restored bytes)` per chunk size, over f32 field bytes.
const GOLDEN_HUFFMAN_BYTES: [(u64, u64); 3] = [
    (0x8f3c52146e4b6356, 0xcc7fbf6348928afa),
    (0xfffddaaefa2643c3, 0x6a63333be19ce57a),
    (0x0922a4e6163e74a8, 0x6a63333be19ce57a),
];
/// `(container, restored keys)` per chunk size, Fibonacci-deep book.
const GOLDEN_HUFFMAN_DEEP: [(u64, u64); 3] = [
    (0xceaa74311eaf8d64, 0xffc213a3e1c899cc),
    (0xfd42c8158b351518, 0x1b027c156f8b153c),
    (0xc519bb0bb2edb1ba, 0x1b027c156f8b153c),
];
/// `(container, restored field)` per shape × bound, f32 then f64.
const GOLDEN_SZ: [(u64, u64); 16] = [
    (0xc2036f3be7606aa0, 0x10d97a4b9d42aa30),
    (0xa84b2b20827994a9, 0x7c6d12ab84d22518),
    (0x50e5dd7a56a62b6d, 0xa9efbf50ca27e6fa),
    (0x49c611fcf02733c6, 0x6e2f16f74a854aa5),
    (0x13c9636f9deb84e5, 0x0e5462f1341ca828),
    (0x4f76e38ef746a033, 0x75a86d1cb6a8118f),
    (0x397d8de3113b06ae, 0xa533e1b26ab37596),
    (0x0975a154608f98b0, 0x2b3294fe7079dab3),
    (0x570afa971835cf46, 0x86b876425b829026),
    (0xcaee093d82f155a2, 0x712c4e3619b2eca1),
    (0x8915c2d8401c9634, 0x10e57e8f24432b70),
    (0xc2d2f736801103dc, 0xe3fc8a45eb69260f),
    (0x02a43978d7f043fe, 0xd1ef6da0d62c2586),
    (0x76b81681f34c94de, 0x9b3a1b697da8ad47),
    (0x5349802da05c4b57, 0x3f7e81396fa6e8bd),
    (0xcc7f89e6da063d2e, 0xf135a3e96d01dca8),
];

/// A rough field with signed zeros sprinkled in, so the sign of zero
/// sums is pinned too (the field of `tests/mgard_golden.rs`).
fn field<T: Float>(dims: &[usize]) -> (Shape, Vec<T>) {
    let shape = Shape::new(dims);
    let data = (0..shape.num_elements())
        .map(|i| {
            let v = match i % 29 {
                0 => -0.0,
                13 => 0.0,
                _ => {
                    let x = i as f64;
                    (x * 0.013).sin() * 40.0
                        + (x * 0.41).cos() * 3.0
                        + ((i * 2_654_435_761) % 1009) as f64 * 0.01
                }
            };
            T::from_f64(v)
        })
        .collect();
    (shape, data)
}

fn values_digest<T: Float>(v: &[T]) -> u64 {
    let bytes: Vec<u8> = v
        .iter()
        .flat_map(|x| x.to_f64().to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn zfp_digests<T: Float>(adapter: &dyn DeviceAdapter) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for cfg in zfp_configs() {
        for dims in SHAPES {
            let (shape, data) = field::<T>(dims);
            let c = hpdr_zfp::compress(adapter, &data, &shape, &cfg).unwrap();
            let (back, s) = hpdr_zfp::decompress::<T>(adapter, &c).unwrap();
            assert_eq!(s, shape);
            out.push((fnv1a(&c), values_digest(&back)));
        }
    }
    out
}

/// Chunk sizes: one symbol per chunk, a size that leaves a short final
/// chunk, and the default.
const CHUNKS: [usize; 3] = [1, 300, 1 << 16];

fn huffman_bytes_digests(adapter: &dyn DeviceAdapter) -> Vec<(u64, u64)> {
    let (_, data) = field::<f32>(&[19, 33, 65]);
    let bytes = f32::slice_to_bytes(&data);
    CHUNKS
        .iter()
        .map(|&chunk_elems| {
            // One symbol per chunk costs a chunk-table entry per byte, so
            // that case runs over a prefix only.
            let input = if chunk_elems == 1 {
                &bytes[..4096]
            } else {
                &bytes[..]
            };
            let cfg = HuffmanConfig {
                dict_size: 256,
                chunk_elems,
            };
            let c = hpdr_huffman::compress_bytes(adapter, input, &cfg).unwrap();
            let back = hpdr_huffman::decompress_bytes(adapter, &c).unwrap();
            assert_eq!(back, input);
            (fnv1a(&c), fnv1a(&back))
        })
        .collect()
}

/// Symbol `i` occurs Fibonacci(i + 1) times, so the codes run 1..=26 bits
/// long: past the 12-bit first level and the 12 extra bits of the second
/// level of the decode table. The occurrences are interleaved with a
/// multiplicative hash so deep codes land all over the stream.
fn fibonacci_keys() -> Vec<u32> {
    let mut keys = Vec::new();
    let (mut a, mut b) = (1usize, 1usize);
    for sym in 0..27u32 {
        keys.resize(keys.len() + a, sym);
        (a, b) = (b, a + b);
    }
    // Multiplying by an odd constant is a bijection on u64, so sorting by
    // the product is a fixed pseudo-random permutation.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    order.into_iter().map(|i| keys[i]).collect()
}

fn huffman_deep_digests(adapter: &dyn DeviceAdapter) -> Vec<(u64, u64)> {
    let keys = fibonacci_keys();
    CHUNKS
        .iter()
        .map(|&chunk_elems| {
            let input = if chunk_elems == 1 {
                &keys[..4096]
            } else {
                &keys[..]
            };
            let cfg = HuffmanConfig {
                dict_size: 32,
                chunk_elems,
            };
            let c = hpdr_huffman::compress_u32(adapter, input, &cfg).unwrap();
            let back = hpdr_huffman::decompress_u32(adapter, &c).unwrap();
            assert_eq!(back, input);
            let bytes: Vec<u8> = back.iter().flat_map(|k| k.to_le_bytes()).collect();
            (fnv1a(&c), fnv1a(&bytes))
        })
        .collect()
}

fn sz_digests<T: Float>(adapter: &dyn DeviceAdapter, out: &mut Vec<(u64, u64)>) {
    for dims in SHAPES {
        let (shape, data) = field::<T>(dims);
        let meta = ArrayMeta::new(T::DTYPE, shape);
        for rel in [1e-2, 1e-4] {
            let r = SzReducer(SzConfig::relative(rel));
            let c = r
                .compress(adapter, &T::slice_to_bytes(&data), &meta)
                .unwrap();
            let (back, m) = r.decompress(adapter, &c).unwrap();
            assert_eq!(m, meta);
            out.push((fnv1a(&c), fnv1a(&back)));
        }
    }
}

fn adapters() -> Vec<Box<dyn DeviceAdapter>> {
    vec![
        Box::new(SerialAdapter::new()),
        Box::new(CpuParallelAdapter::new(4)),
    ]
}

/// Digests written the way the constants above are, so a failure shows
/// which entries moved.
fn render(d: &[(u64, u64)]) -> String {
    d.iter()
        .map(|(a, b)| format!("({a:#018x}, {b:#018x}),"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn zfp_x_containers_and_outputs_match_golden() {
    for adapter in adapters() {
        let f32s = zfp_digests::<f32>(&*adapter);
        assert!(f32s == GOLDEN_ZFP_F32, "f32 digests:\n{}", render(&f32s));
        let f64s = zfp_digests::<f64>(&*adapter);
        assert!(f64s == GOLDEN_ZFP_F64, "f64 digests:\n{}", render(&f64s));
    }
}

#[test]
fn huffman_x_containers_and_outputs_match_golden() {
    for adapter in adapters() {
        let bytes = huffman_bytes_digests(&*adapter);
        assert!(
            bytes == GOLDEN_HUFFMAN_BYTES,
            "byte digests:\n{}",
            render(&bytes)
        );
        let deep = huffman_deep_digests(&*adapter);
        assert!(
            deep == GOLDEN_HUFFMAN_DEEP,
            "deep-book digests:\n{}",
            render(&deep)
        );
    }
}

#[test]
fn fibonacci_book_reaches_past_both_table_levels() {
    let keys = fibonacci_keys();
    let mut freqs = vec![0u64; 32];
    for &k in &keys {
        freqs[k as usize] += 1;
    }
    let book = hpdr_huffman::Codebook::from_frequencies(&freqs).unwrap();
    assert!(book.max_len() > 12 + hpdr_huffman::TwoLevelTable::L2_CAP);
}

#[test]
fn cusz_like_containers_and_outputs_match_golden() {
    for adapter in adapters() {
        let mut got = Vec::new();
        sz_digests::<f32>(&*adapter, &mut got);
        sz_digests::<f64>(&*adapter, &mut got);
        assert!(got == GOLDEN_SZ, "cusz-like digests:\n{}", render(&got));
    }
}
