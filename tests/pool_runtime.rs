//! Runtime-correctness tests for the persistent worker pool underneath
//! the adapters: serial ≡ parallel byte-equivalence for the full ZFP-X
//! and MGARD-X paths on arbitrary inputs, and a reuse/stress test that
//! hammers the shared global pool with many small GEM/DEM stages from
//! several host threads and adapters at once.

use hpdr::{Codec, MgardConfig, ZfpConfig};
use hpdr_core::{
    CpuParallelAdapter, DeviceAdapter, GpuSimAdapter, SerialAdapter, Shape, WorkerPool,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn field(dims: &[usize], vals: &[i32]) -> (Shape, Vec<f32>) {
    let shape = Shape::new(dims);
    let n = shape.num_elements();
    let data = (0..n).map(|i| vals[i % vals.len()] as f32 * 0.25).collect();
    (shape, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full ZFP-X path: compressing on the pool-backed parallel adapter
    /// must produce the exact bytes of the serial reference, and both
    /// streams must reconstruct to the exact same values.
    #[test]
    fn zfp_parallel_stream_is_byte_identical_to_serial(
        a in 1usize..10, b in 1usize..10, c in 1usize..10,
        rate in 4u32..28,
        vals in proptest::collection::vec(-1000i32..1000, 1..64),
    ) {
        let (shape, data) = field(&[a, b, c], &vals);
        let codec = Codec::Zfp(ZfpConfig::fixed_rate(rate));
        let serial = SerialAdapter::new();
        let par = CpuParallelAdapter::new(4);
        let (s1, _) = hpdr::compress_slice(&serial, &data, &shape, codec).unwrap();
        let (s2, _) = hpdr::compress_slice(&par, &data, &shape, codec).unwrap();
        prop_assert_eq!(&s1, &s2, "zfp-x compress differs serial vs pool");
        let (d1, _) = hpdr::decompress_slice::<f32>(&serial, &s1).unwrap();
        let (d2, _) = hpdr::decompress_slice::<f32>(&par, &s1).unwrap();
        prop_assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "zfp-x decompress differs serial vs pool"
        );
    }

    /// Full MGARD-X path (decompose → quantize → Huffman → container),
    /// same bit-identity requirement.
    #[test]
    fn mgard_parallel_stream_is_byte_identical_to_serial(
        a in 1usize..10, b in 1usize..10, c in 1usize..10,
        vals in proptest::collection::vec(-1000i32..1000, 1..64),
    ) {
        let (shape, data) = field(&[a, b, c], &vals);
        let codec = Codec::Mgard(MgardConfig::relative(1e-3));
        let serial = SerialAdapter::new();
        let par = CpuParallelAdapter::new(4);
        let (s1, _) = hpdr::compress_slice(&serial, &data, &shape, codec).unwrap();
        let (s2, _) = hpdr::compress_slice(&par, &data, &shape, codec).unwrap();
        prop_assert_eq!(&s1, &s2, "mgard-x compress differs serial vs pool");
        let (d1, _) = hpdr::decompress_slice::<f32>(&serial, &s1).unwrap();
        let (d2, _) = hpdr::decompress_slice::<f32>(&par, &s1).unwrap();
        prop_assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "mgard-x decompress differs serial vs pool"
        );
    }
}

/// Many small GEM/DEM stages from several host threads through several
/// adapters, all draining into the one global pool. Checks (a) every
/// stage computes the right answer under contention, and (b) the pool's
/// scratch arenas are being *reused*, not reallocated per call.
#[test]
fn global_pool_survives_concurrent_small_stages_across_adapters() {
    const THREADS: usize = 4;
    const ITERS: usize = 24;
    const N: usize = 257; // deliberately not a multiple of any grain
    let before = WorkerPool::global().stats();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let adapters: Vec<Box<dyn DeviceAdapter>> = vec![
                    Box::new(CpuParallelAdapter::new(3)),
                    Box::new(CpuParallelAdapter::with_defaults()),
                    Box::new(GpuSimAdapter::new(hpdr_sim::spec::v100())),
                    Box::new(SerialAdapter::new()),
                ];
                for i in 0..ITERS {
                    let adapter = &adapters[(t + i) % adapters.len()];
                    // DEM: sum of indices must be exact every time.
                    let sum = AtomicU64::new(0);
                    adapter
                        .try_dem(N, &|j| {
                            sum.fetch_add(j as u64, Ordering::Relaxed);
                        })
                        .unwrap();
                    assert_eq!(sum.load(Ordering::Relaxed), (N * (N - 1) / 2) as u64);
                    // GEM: every group must run exactly once with its
                    // requested staging.
                    let ran = AtomicU64::new(0);
                    adapter
                        .try_gem(16, 96, &|_, scratch| {
                            assert_eq!(scratch.len(), 96);
                            ran.fetch_add(1, Ordering::Relaxed);
                        })
                        .unwrap();
                    assert_eq!(ran.load(Ordering::Relaxed), 16);
                }
            });
        }
    });
    let delta = WorkerPool::global().stats().since(before);
    // Parallel adapters route through the pool: 2 of 4 adapters per
    // thread-iteration are pool-backed, 2 stages each.
    assert!(
        delta.jobs >= (THREADS * ITERS) as u64,
        "pool barely used: {delta:?}"
    );
    // The whole point of the persistent arenas: after warmup, scratch is
    // reused rather than reallocated. Same-size requests must overwhelmingly
    // hit the reuse path.
    assert!(
        delta.scratch_reuses > delta.scratch_allocs,
        "scratch arenas not persistent: {delta:?}"
    );
}

/// Concurrent *full-codec* runs: the same MGARD-X compression from many
/// threads at once must every time match the bytes of an undisturbed
/// serial run.
#[test]
fn concurrent_codec_runs_stay_byte_identical() {
    let d = hpdr_data::nyx_density(12, 3);
    let meta = hpdr_core::ArrayMeta::new(hpdr_core::DType::F32, d.shape.clone());
    let codec = Codec::Mgard(MgardConfig::relative(1e-3));
    let (reference, _) = hpdr::compress(&SerialAdapter::new(), &d.bytes, &meta, codec).unwrap();
    std::thread::scope(|s| {
        for _ in 0..6 {
            let (reference, d, meta) = (&reference, &d, &meta);
            s.spawn(move || {
                let par = CpuParallelAdapter::with_defaults();
                for _ in 0..4 {
                    let (stream, _) = hpdr::compress(&par, &d.bytes, meta, codec).unwrap();
                    assert_eq!(&stream, reference, "contended run diverged from serial");
                    let (bytes, _) = hpdr::decompress(&par, &stream).unwrap();
                    assert_eq!(bytes.len(), d.bytes.len());
                }
            });
        }
    });
}
