//! The paper's central claim (§III): data reduced on one processor
//! architecture reconstructs bit-identically on any other. We compress on
//! every adapter (serial CPU, multi-core CPU, simulated CUDA V100/A100,
//! simulated HIP MI250X) and decompress on every other.

use hpdr::{Codec, MgardConfig, SzConfig, ZfpConfig};
use hpdr_core::{
    ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, GpuSimAdapter, SerialAdapter,
};
use hpdr_data::nyx_density;

fn adapters() -> Vec<(&'static str, Box<dyn DeviceAdapter>)> {
    vec![
        ("serial", Box::new(SerialAdapter::new())),
        ("openmp", Box::new(CpuParallelAdapter::new(4))),
        (
            "cuda-v100",
            Box::new(GpuSimAdapter::new(hpdr_sim::spec::v100())),
        ),
        (
            "cuda-a100",
            Box::new(GpuSimAdapter::new(hpdr_sim::spec::a100())),
        ),
        (
            "hip-mi250x",
            Box::new(GpuSimAdapter::new(hpdr_sim::spec::mi250x())),
        ),
    ]
}

fn codecs() -> Vec<Codec> {
    vec![
        Codec::Mgard(MgardConfig::relative(1e-3)),
        Codec::Zfp(ZfpConfig::fixed_rate(16)),
        Codec::Huffman,
        Codec::Sz(SzConfig::relative(1e-3)),
        Codec::Lz4,
    ]
}

#[test]
fn streams_are_bitwise_identical_across_adapters() {
    let d = nyx_density(24, 11);
    let meta = ArrayMeta::new(DType::F32, d.shape.clone());
    for codec in codecs() {
        let mut reference: Option<Vec<u8>> = None;
        for (name, adapter) in adapters() {
            let (stream, _) = hpdr::compress(adapter.as_ref(), &d.bytes, &meta, codec).unwrap();
            match &reference {
                None => reference = Some(stream),
                Some(r) => assert_eq!(
                    r,
                    &stream,
                    "codec {} produced different bytes on {name}",
                    codec.name()
                ),
            }
        }
    }
}

#[test]
fn any_adapter_decodes_any_adapters_stream() {
    let d = nyx_density(16, 5);
    let meta = ArrayMeta::new(DType::F32, d.shape.clone());
    for codec in codecs() {
        for (pname, producer) in adapters() {
            let (stream, _) = hpdr::compress(producer.as_ref(), &d.bytes, &meta, codec).unwrap();
            let mut reference: Option<Vec<u8>> = None;
            for (cname, consumer) in adapters() {
                let (bytes, meta2) = hpdr::decompress(consumer.as_ref(), &stream).unwrap();
                assert_eq!(meta2, meta, "{} {pname}->{cname}", codec.name());
                match &reference {
                    None => reference = Some(bytes),
                    Some(r) => assert_eq!(
                        r,
                        &bytes,
                        "{}: {pname}'s stream reconstructed differently on {cname}",
                        codec.name()
                    ),
                }
            }
        }
    }
}

#[test]
fn f64_portability_mgard() {
    let shape = hpdr_core::Shape::new(&[13, 17, 9]);
    let data: Vec<f64> = (0..shape.num_elements())
        .map(|i| (i as f64 * 0.013).sin() * 42.0)
        .collect();
    let serial = SerialAdapter::new();
    let gpu = GpuSimAdapter::new(hpdr_sim::spec::mi250x());
    let (s1, _) = hpdr::compress_slice(
        &serial,
        &data,
        &shape,
        Codec::Mgard(MgardConfig::relative(1e-4)),
    )
    .unwrap();
    let (s2, _) = hpdr::compress_slice(
        &gpu,
        &data,
        &shape,
        Codec::Mgard(MgardConfig::relative(1e-4)),
    )
    .unwrap();
    assert_eq!(s1, s2);
    let (out, _) = hpdr::decompress_slice::<f64>(&gpu, &s1).unwrap();
    assert_eq!(out.len(), data.len());
}

#[test]
fn gpu_sim_adapters_report_virtual_time() {
    let gpu = GpuSimAdapter::new(hpdr_sim::spec::v100());
    let d = nyx_density(16, 1);
    let meta = ArrayMeta::new(DType::F32, d.shape.clone());
    gpu.clock_reset();
    hpdr::compress(&gpu, &d.bytes, &meta, Codec::Zfp(ZfpConfig::fixed_rate(8))).unwrap();
    assert!(gpu.uses_virtual_time());
    assert!(gpu.clock_elapsed() > hpdr_sim::Ns::ZERO);
}

/// The paper's extension recipe: supporting a new processor (their
/// Kokkos/SYCL example) means implementing `DeviceAdapter` — nothing in
/// the algorithm crates changes. This "new back-end" runs every codec
/// and produces the same portable bytes.
mod custom_backend {
    use super::*;
    use hpdr_core::{AdapterInfo, AdapterKind, Ns};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every group's staging starts as this byte: GPU shared memory is
    /// not initialized either, so a codec that read staging it had not
    /// written would change its output here.
    const POISON: u8 = 0xA5;

    /// A minimal out-of-tree adapter: serial execution plus launch and
    /// staged-group counting (a stand-in for a Kokkos/SYCL-backed
    /// implementation).
    struct KokkosLikeAdapter {
        launches: AtomicU64,
        staged_groups: AtomicU64,
    }

    impl hpdr_core::DeviceAdapter for KokkosLikeAdapter {
        fn info(&self) -> AdapterInfo {
            AdapterInfo {
                device: "kokkos-like".into(),
                kind: AdapterKind::Serial,
                threads: 1,
            }
        }
        fn try_gem(
            &self,
            groups: usize,
            staging_bytes: usize,
            body: &(dyn Fn(usize, &mut [u8]) + Sync),
        ) -> hpdr_core::Result<()> {
            self.launches.fetch_add(1, Ordering::Relaxed);
            if staging_bytes > 0 {
                self.staged_groups
                    .fetch_add(groups as u64, Ordering::Relaxed);
            }
            let mut staging = vec![POISON; staging_bytes];
            for g in 0..groups {
                staging.fill(POISON);
                body(g, &mut staging);
            }
            Ok(())
        }
        fn try_dem(&self, n: usize, body: &(dyn Fn(usize) + Sync)) -> hpdr_core::Result<()> {
            self.launches.fetch_add(1, Ordering::Relaxed);
            for i in 0..n {
                body(i);
            }
            Ok(())
        }
        fn charge(&self, _class: hpdr_core::KernelClass, _bytes: u64) {}
        fn clock_reset(&self) {}
        fn clock_elapsed(&self) -> Ns {
            Ns::ZERO
        }
    }

    /// The custom back-end poisons its staging before every group, so
    /// equal streams and equal restored bytes also show that no codec
    /// reads staging it did not write.
    #[test]
    fn out_of_tree_adapter_runs_every_codec_bit_identically() {
        let custom = KokkosLikeAdapter {
            launches: AtomicU64::new(0),
            staged_groups: AtomicU64::new(0),
        };
        let reference = SerialAdapter::new();
        let d = nyx_density(12, 99);
        let meta = ArrayMeta::new(DType::F32, d.shape.clone());
        for codec in codecs() {
            let (a, _) = hpdr::compress(&custom, &d.bytes, &meta, codec).unwrap();
            let (b, _) = hpdr::compress(&reference, &d.bytes, &meta, codec).unwrap();
            assert_eq!(a, b, "{} differs on the custom back-end", codec.name());
            let (out, _) = hpdr::decompress(&custom, &b).unwrap();
            let (want, _) = hpdr::decompress(&reference, &b).unwrap();
            assert!(
                out == want,
                "{} restores differently on the custom back-end",
                codec.name()
            );
        }
        assert!(
            custom.launches.load(Ordering::Relaxed) > 0,
            "the custom adapter must actually execute kernels"
        );
        assert!(
            custom.staged_groups.load(Ordering::Relaxed) > 0,
            "some codec must run groups on poisoned staging"
        );
    }
}
