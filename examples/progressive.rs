//! Progressive retrieval: refactor an array once into per-(level,
//! bit-plane) components, then reconstruct at tightening tolerances by
//! fetching only the components each one needs — MGARD's "data
//! refactoring" usage (paper intro, refs [23]–[25]).
//!
//! Also dumps a Chrome-trace JSON of an adaptive pipeline run so the
//! virtual-time schedule can be inspected in chrome://tracing.
//!
//! ```text
//! cargo run --release -p examples-bin --bin progressive
//! ```

use hpdr::progressive::{refactor_progressive, ProgressiveConfig};
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

    let refactored = refactor_progressive(
        &adapter,
        &values,
        &dataset.shape,
        &ProgressiveConfig::default(),
    )
    .expect("refactor");
    let range = refactored.manifest.range;

    println!(
        "{:>9} {:>12} {:>14} {:>12} {:>12}",
        "tolerance", "bytes read", "of raw", "max error", "bound"
    );
    for rel in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
        let r = refactored
            .retrieve::<f32>(&adapter, rel * range)
            .expect("retrieve");
        let err = values
            .iter()
            .zip(&r.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "{:>9.0e} {:>12} {:>13.1}% {:>12.3e} {:>12.3e}",
            rel,
            r.fetched_bytes,
            r.fetched_bytes as f64 / dataset.num_bytes() as f64 * 100.0,
            err,
            r.bound
        );
    }
    println!("\neach tighter tolerance fetches more components; every error meets its bound.");

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
        report.trace.len(),
        report.makespan,
        path.display()
    );
}
