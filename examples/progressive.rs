//! Progressive retrieval: refactor an array once, then reconstruct at
//! increasing accuracy by fetching one more level segment at a time —
//! MGARD's "data refactoring" usage (paper intro, refs [23]–[25]).
//!
//! Also dumps a Chrome-trace JSON of an adaptive pipeline run so the
//! virtual-time schedule can be inspected in chrome://tracing.
//!
//! ```text
//! cargo run --release -p examples-bin --bin progressive
//! ```

use hpdr::mgard::{refactor, retrieve, RefactorConfig};
use hpdr::{Codec, CpuParallelAdapter, MgardConfig, PipelineOptions};
use hpdr_core::{ArrayMeta, DType, DeviceAdapter};
use std::sync::Arc;

fn main() {
    let adapter = CpuParallelAdapter::with_defaults();
    let dataset = hpdr::data::nyx_density(48, 7);
    let values = dataset.as_f32();
    println!(
        "refactoring {} {} ({:.1} MB raw)...\n",
        dataset.name,
        dataset.shape,
        dataset.num_bytes() as f64 / 1e6
    );

    let refactored = refactor(
        &adapter,
        &values,
        &dataset.shape,
        &RefactorConfig {
            rel_bound: 1e-5,
            dict_size: 8192,
        },
    )
    .expect("refactor");

    println!(
        "{:>7} {:>12} {:>14} {:>12}",
        "levels", "bytes read", "of raw", "max error"
    );
    for k in 0..refactored.levels {
        let (approx, _) = retrieve::<f32>(&adapter, &refactored, k).expect("retrieve");
        let err = values
            .iter()
            .zip(&approx)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let bytes = refactored.bytes_up_to(k);
        println!(
            "{:>4}/{:<2} {:>12} {:>13.1}% {:>12.3e}",
            k + 1,
            refactored.levels,
            bytes,
            bytes as f64 / dataset.num_bytes() as f64 * 100.0,
            err
        );
    }
    println!("\neach added level refines the reconstruction; the full set meets the bound.");

    // Bonus: trace an adaptive pipeline run for chrome://tracing.
    let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::with_defaults());
    let meta = ArrayMeta::new(DType::F32, dataset.shape.clone());
    let (_, report) = hpdr_pipeline::compress_pipelined(
        &hpdr::sim::spec::v100(),
        work,
        Codec::Mgard(MgardConfig::relative(1e-2)).reducer(),
        Arc::new(dataset.bytes.clone()),
        &meta,
        &PipelineOptions::fixed(256 * 1024),
    )
    .expect("pipeline");
    let path = std::env::temp_dir().join("hpdr-pipeline-trace.json");
    std::fs::write(&path, hpdr::trace::to_chrome_trace(&report.trace)).expect("write trace");
    println!(
        "\npipeline schedule ({} ops, makespan {}) written to {} — open in chrome://tracing",
        report.timeline.len(),
        report.makespan,
        path.display()
    );
}
