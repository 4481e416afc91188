//! Cross-crate tests of the `hpdr-trace` observability subsystem:
//! overlap-regression ordering on the Fig. 13 settings, the
//! critical-path == makespan property over the shipped configuration
//! matrix, and the trace digest against a per-nanosecond brute force.

use hpdr::{ArrayMeta, Codec, CpuParallelAdapter, DType, MgardConfig, Shape};
use hpdr_core::{DeviceAdapter, Reducer};
use hpdr_pipeline::{compress_pipelined, decompress_pipelined, PipelineMode, PipelineOptions};
use hpdr_sim::{Category, DeviceId, Engine, Ns, OpKind, RuntimeId, SpanRecord, Trace};
use proptest::prelude::*;
use std::sync::Arc;

fn work() -> Arc<dyn DeviceAdapter> {
    Arc::new(CpuParallelAdapter::with_defaults())
}

/// Small NYX sample (32^3 f32) with its metadata.
fn nyx_input() -> (Arc<Vec<u8>>, ArrayMeta) {
    let d = hpdr::data::nyx_density(32, 1);
    let meta = ArrayMeta::new(DType::F32, d.shape.clone());
    (Arc::new(d.bytes), meta)
}

/// The Fig. 13 pipeline settings over the NYX sample: none / fixed /
/// adaptive, with chunk sizes proportioned to the input the way the
/// paper proportions them to its 4.3 GB arrays (fixed chunks are a
/// large fraction of the input; adaptive ramps up from small ones).
fn fig13_settings(total: u64) -> [(&'static str, PipelineOptions); 3] {
    [
        ("none", PipelineOptions::unpipelined()),
        (
            "fixed",
            PipelineOptions {
                mode: PipelineMode::Fixed {
                    chunk_bytes: total / 2,
                },
                ..PipelineOptions::default()
            },
        ),
        (
            "adaptive",
            PipelineOptions {
                mode: PipelineMode::Adaptive {
                    init_bytes: total / 16,
                    limit_bytes: total / 4,
                },
                ..PipelineOptions::default()
            },
        ),
    ]
}

/// Satellite regression: the trace-derived §V-C overlap ratio must rank
/// adaptive ≥ fixed ≥ none on the Fig. 13 configurations.
#[test]
fn overlap_orders_adaptive_fixed_none() {
    let spec = hpdr::sim::v100().scaled(64);
    let (input, meta) = nyx_input();
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let mut ratios = Vec::new();
    for (name, opts) in fig13_settings(input.len() as u64) {
        let (_, rep) = compress_pipelined(
            &spec,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("fig13 compress");
        // Unpipelined single-chunk runs have fully serialized DMA.
        ratios.push((name, rep.overlap.unwrap_or(0.0)));
    }
    let (none, fixed, adaptive) = (ratios[0].1, ratios[1].1, ratios[2].1);
    assert!(
        adaptive >= fixed && fixed >= none,
        "overlap not monotone across pipeline settings: {ratios:?}"
    );
    assert!(adaptive > 0.0, "adaptive run shows no overlap: {ratios:?}");
    assert_eq!(none, 0.0, "unpipelined run cannot overlap: {ratios:?}");
}

/// The shipped configuration matrix (mirrors `hpdr verify`): three
/// chunking modes × two-buffers × CMM × deser-first, plus the two
/// baselines.
fn config_matrix() -> Vec<PipelineOptions> {
    let row_bytes = 256 * 4;
    let modes = [
        PipelineMode::Unpipelined,
        PipelineMode::Fixed {
            chunk_bytes: 8 * row_bytes,
        },
        PipelineMode::Adaptive {
            init_bytes: 4 * row_bytes,
            limit_bytes: 16 * row_bytes,
        },
    ];
    let mut configs = Vec::new();
    for mode in modes {
        for two_buffers in [false, true] {
            for cmm in [false, true] {
                for deser_first in [false, true] {
                    configs.push(PipelineOptions {
                        mode,
                        two_buffers,
                        cmm,
                        deser_first,
                        serial_queue: false,
                        host_staging: false,
                    });
                }
            }
        }
    }
    configs.push(PipelineOptions::baseline_unoptimized());
    configs.push(PipelineOptions::baseline_per_step(8 * row_bytes));
    configs
}

/// Small input matching the verify matrix: 64 rows × 256 f32.
fn matrix_input() -> (Arc<Vec<u8>>, ArrayMeta) {
    let meta = ArrayMeta::new(DType::F32, Shape::new(&[64, 256]));
    let input: Arc<Vec<u8>> = Arc::new(
        (0..meta.num_bytes() / 4)
            .flat_map(|i| ((i % 251) as f32).to_le_bytes())
            .collect(),
    );
    (input, meta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(26))]

    /// Acceptance property: on every shipped configuration, the
    /// critical path extracted from the span trace sums exactly to the
    /// virtual end-to-end time, for both directions.
    #[test]
    fn critical_path_length_equals_makespan(idx in 0usize..26) {
        let configs = config_matrix();
        let opts = configs[idx % configs.len()];
        let spec = hpdr::sim::v100().scaled(256);
        let (input, meta) = matrix_input();
        let reducer: Arc<dyn Reducer> =
            Arc::new(hpdr::huffman::ByteHuffmanReducer::default());
        let (container, crep) = compress_pipelined(
            &spec, work(), Arc::clone(&reducer), input, &meta, &opts,
        ).expect("compress");
        let (_, _, drep) = decompress_pipelined(
            &spec, work(), reducer, &container, &opts,
        ).expect("decompress");
        for rep_trace in [&crep.trace, &drep.trace] {
            let cp = hpdr::trace::critical_path(rep_trace);
            prop_assert_eq!(cp.length, rep_trace.makespan());
            prop_assert_eq!(cp.length, cp.makespan);
            prop_assert!(!cp.ops.is_empty());
        }
        prop_assert_eq!(crep.trace.makespan(), crep.makespan);
        prop_assert_eq!(drep.trace.makespan(), drep.makespan);
    }
}

/// Every engine kind of two devices, plus the shared runtime and the host.
const ENGINES: [Engine; 10] = [
    Engine::H2D(DeviceId(0)),
    Engine::D2H(DeviceId(0)),
    Engine::Compute(DeviceId(0)),
    Engine::Staging(DeviceId(0)),
    Engine::H2D(DeviceId(1)),
    Engine::D2H(DeviceId(1)),
    Engine::Compute(DeviceId(1)),
    Engine::Staging(DeviceId(1)),
    Engine::Runtime(RuntimeId(0)),
    Engine::Host,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one digest against a brute force: per-category busy time is
    /// the sum of durations, each device's overlap is counted nanosecond
    /// by nanosecond, and contention is the runtime spans' summed wait.
    /// Spans live below 64 ns, so touching, overlapping and zero-length
    /// spans are common; one engine's spans may overlap too, which real
    /// schedules never do but the digest must still merge.
    #[test]
    fn digest_matches_brute_force(
        raw in proptest::collection::vec((0usize..10, 0u64..48, 0u64..16, 0u64..4), 0..=12),
    ) {
        let spans: Vec<SpanRecord> = raw
            .iter()
            .enumerate()
            .map(|(op, &(e, start, len, wait))| SpanRecord {
                op,
                label: format!("op{op}"),
                engine: ENGINES[e],
                queue: None,
                deps: Vec::new(),
                kind: OpKind::Fixed,
                class: None,
                start: Ns(start),
                end: Ns(start + len),
                bytes: 0,
                footprint_bytes: 0,
                ready: Ns(start.saturating_sub(wait)),
                wall_start: Ns::ZERO,
                wall: Ns::ZERO,
            })
            .collect();
        let trace = Trace::from_spans(spans.clone());
        let busy_of = |c: Category| -> Ns {
            spans.iter().filter(|s| Category::of(s.engine) == c).map(|s| s.duration()).sum()
        };
        let contention: Ns = spans
            .iter()
            .filter(|s| matches!(s.engine, Engine::Runtime(_)))
            .map(|s| s.wait())
            .sum();
        for dev in [DeviceId(0), DeviceId(1)] {
            let d = hpdr::trace::digest(&trace, dev);
            prop_assert_eq!(d.busy, Category::ALL.map(busy_of));
            prop_assert_eq!(d.contention, contention);
            let busy_at = |engine: Engine, t: u64| {
                spans.iter().any(|s| s.engine == engine && s.start.0 <= t && t < s.end.0)
            };
            let (mut dma, mut overlapped) = (0u64, 0u64);
            for t in 0..64 {
                let h2d = busy_at(Engine::H2D(dev), t);
                let d2h = busy_at(Engine::D2H(dev), t);
                let compute = busy_at(Engine::Compute(dev), t);
                dma += u64::from(h2d) + u64::from(d2h);
                overlapped += u64::from(h2d && (compute || d2h)) + u64::from(d2h && (compute || h2d));
            }
            prop_assert_eq!(d.overlap.is_none(), dma == 0, "{:?}: {:?}", dev, d.overlap);
            if dma > 0 {
                prop_assert_eq!(d.overlap, Some(overlapped as f64 / dma as f64));
            }
        }
    }
}
