//! The HDEM pipeline must change *performance*, never *results*: every
//! pipeline configuration reconstructs within the same error bound, the
//! container format round-trips through bytes, and design toggles
//! (buffer count, CMM, launch order) leave the payload untouched.

use hpdr::{Codec, MgardConfig};
use hpdr_core::{ArrayMeta, CpuParallelAdapter, DType, DeviceAdapter, Float, Reducer};
use hpdr_data::nyx_density;
use hpdr_pipeline::{
    compress_pipelined, decompress_pipelined, Container, PipelineMode, PipelineOptions,
};
use std::sync::Arc;

mod support;

#[allow(clippy::type_complexity)]
fn setup() -> (
    Arc<Vec<u8>>,
    ArrayMeta,
    Arc<dyn DeviceAdapter>,
    Arc<dyn Reducer>,
) {
    let d = nyx_density(32, 21);
    let input = Arc::new(d.bytes.clone());
    let meta = ArrayMeta::new(DType::F32, d.shape.clone());
    let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::new(4));
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    (input, meta, work, reducer)
}

fn all_options() -> Vec<(&'static str, PipelineOptions)> {
    vec![
        ("unpipelined", PipelineOptions::unpipelined()),
        ("fixed-2buf", PipelineOptions::fixed(48 * 1024)),
        (
            "fixed-3buf",
            PipelineOptions {
                two_buffers: false,
                ..PipelineOptions::fixed(48 * 1024)
            },
        ),
        (
            "fixed-nocmm",
            PipelineOptions {
                cmm: false,
                ..PipelineOptions::fixed(48 * 1024)
            },
        ),
        (
            "adaptive",
            PipelineOptions {
                mode: PipelineMode::Adaptive {
                    init_bytes: 16 * 1024,
                    limit_bytes: 1 << 20,
                },
                ..Default::default()
            },
        ),
        (
            "no-deser-swap",
            PipelineOptions {
                deser_first: false,
                ..PipelineOptions::fixed(48 * 1024)
            },
        ),
    ]
}

#[test]
fn every_pipeline_config_preserves_the_error_bound() {
    let (input, meta, work, reducer) = setup();
    let spec = hpdr_sim::spec::v100();
    let orig = f32::bytes_to_vec(&input);
    let range = {
        let mx = orig.iter().cloned().fold(f32::MIN, f32::max);
        let mn = orig.iter().cloned().fold(f32::MAX, f32::min);
        (mx - mn) as f64
    };
    for (name, opts) in all_options() {
        let (container, _) = compress_pipelined(
            &spec,
            Arc::clone(&work),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .unwrap();
        let (bytes, meta2, _) = decompress_pipelined(
            &spec,
            Arc::clone(&work),
            Arc::clone(&reducer),
            &container,
            &opts,
        )
        .unwrap();
        assert_eq!(meta2, meta, "{name}");
        let out = f32::bytes_to_vec(&bytes);
        let err = orig
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        assert!(err <= 1e-2 * range * 1.001, "{name}: err {err}");
    }
}

#[test]
fn container_survives_byte_serialization() {
    let (input, meta, work, reducer) = setup();
    let spec = hpdr_sim::spec::v100();
    let (container, _) = compress_pipelined(
        &spec,
        Arc::clone(&work),
        Arc::clone(&reducer),
        input,
        &meta,
        &PipelineOptions::fixed(32 * 1024),
    )
    .unwrap();
    let bytes = container.to_bytes();
    let parsed = Container::from_bytes(&bytes).unwrap();
    assert_eq!(parsed, container);
    // And the parsed container decompresses.
    let (out, meta2, _) =
        decompress_pipelined(&spec, work, reducer, &parsed, &PipelineOptions::default()).unwrap();
    assert_eq!(meta2, meta);
    assert_eq!(out.len(), meta.num_bytes());
}

#[test]
fn decompress_options_are_independent_of_compress_options() {
    // A container produced with one pipeline config must decompress under
    // any other (chunking is recorded in the container, not the options).
    let (input, meta, work, reducer) = setup();
    let spec = hpdr_sim::spec::v100();
    let (container, _) = compress_pipelined(
        &spec,
        Arc::clone(&work),
        Arc::clone(&reducer),
        input,
        &meta,
        &PipelineOptions::fixed(24 * 1024),
    )
    .unwrap();
    let mut reference: Option<Vec<u8>> = None;
    for (name, opts) in all_options() {
        let (bytes, _, _) = decompress_pipelined(
            &spec,
            Arc::clone(&work),
            Arc::clone(&reducer),
            &container,
            &opts,
        )
        .unwrap();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "{name} reconstructed differently"),
        }
    }
}

#[test]
fn deterministic_timelines() {
    // Virtual time must be perfectly reproducible run to run.
    let (input, meta, work, reducer) = setup();
    let spec = hpdr_sim::spec::a100();
    let opts = PipelineOptions::fixed(32 * 1024);
    let r1 = compress_pipelined(
        &spec,
        Arc::clone(&work),
        Arc::clone(&reducer),
        Arc::clone(&input),
        &meta,
        &opts,
    )
    .unwrap()
    .1;
    let r2 = compress_pipelined(&spec, work, reducer, input, &meta, &opts)
        .unwrap()
        .1;
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.overlap, r2.overlap);
    assert_eq!(r1.num_chunks, r2.num_chunks);
}

#[test]
fn chunked_container_matches_direct_compression_content() {
    // Chunk streams decompressed individually equal the corresponding
    // row slices of the original (per-chunk independence).
    let (input, meta, work, reducer) = setup();
    let spec = hpdr_sim::spec::v100();
    let (container, _) = compress_pipelined(
        &spec,
        Arc::clone(&work),
        Arc::clone(&reducer),
        Arc::clone(&input),
        &meta,
        &PipelineOptions::fixed(64 * 1024),
    )
    .unwrap();
    let row_bytes = meta.shape.row_elements() * meta.dtype.size();
    let mut offset = 0usize;
    for (rows, stream) in &container.chunks {
        let (bytes, cmeta) = reducer.decompress(work.as_ref(), stream).unwrap();
        assert_eq!(cmeta.shape.dims()[0], *rows);
        assert_eq!(bytes.len(), rows * row_bytes);
        offset += rows * row_bytes;
    }
    assert_eq!(offset, input.len());
}

/// One shared launch of every job kind: two compressions, a
/// decompression and a progressive retrieval, pinned by the outputs, the
/// span trace without the wall clock, the chunk count and the raw bytes.
/// Recorded before every launch went through one chunk-job path, in
/// debug, release and under `HPDR_FORCE_SCALAR=1`. Never re-recorded to
/// make a change pass.
#[test]
fn mixed_batch_launch_matches_golden() {
    use hpdr_pipeline::{run_batch, BatchItem, BatchOutput};
    use hpdr_progressive::{plan_fetch, refactor_progressive, ProgressiveConfig, RetrieveJob};
    let (input, meta, work, mgard) = setup();
    let zfp = Codec::Zfp(hpdr::ZfpConfig::fixed_rate(16)).reducer();
    let spec = hpdr_sim::spec::v100();
    let opts = PipelineOptions::fixed(32 * 1024);
    let other = Arc::new(nyx_density(32, 22).bytes.clone());
    let (container, _) = compress_pipelined(
        &spec,
        Arc::clone(&work),
        Arc::clone(&zfp),
        Arc::clone(&other),
        &meta,
        &opts,
    )
    .unwrap();
    let values = f32::bytes_to_vec(&other);
    let config = ProgressiveConfig::default();
    let set = Arc::new(refactor_progressive(work.as_ref(), &values, &meta.shape, &config).unwrap());
    let plan = Arc::new(plan_fetch(&set.manifest, &[], 1e-3 * set.manifest.range));
    let items = vec![
        BatchItem::compress(Arc::clone(&mgard), Arc::clone(&input), meta.clone()),
        BatchItem::compress(Arc::clone(&zfp), Arc::clone(&other), meta.clone()),
        BatchItem::decompress(zfp, &container),
        RetrieveJob::batch_item(set, plan),
    ];
    let (results, report) = run_batch(&spec, work, items, &opts);
    let mut bytes = Vec::new();
    for r in results {
        match r.unwrap() {
            BatchOutput::Compressed(c) => bytes.extend(c.to_bytes()),
            BatchOutput::Restored(out, _) => bytes.extend(out),
        }
    }
    let got = [
        hpdr_core::fnv1a(&bytes),
        support::spans_digest(&report.trace),
        report.num_chunks as u64,
        report.raw_bytes,
    ];
    assert_eq!(got, [0x4441196406d6a16e, 0x1e6a7aaff564b849, 35, 524288]);
}
