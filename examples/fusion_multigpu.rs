//! Fusion-simulation scenario: XGC-like 4D distribution data reduced on a
//! dense multi-GPU node (a Summit node: 6 × V100 sharing one runtime),
//! showing why the Context Memory Model is what makes dense nodes scale
//! (paper §III-B / Fig. 16).
//!
//! ```text
//! cargo run --release -p examples-bin --bin fusion_multigpu
//! ```

use hpdr::{Codec, CpuParallelAdapter, MgardConfig, PipelineOptions};
use hpdr_core::{ArrayMeta, DType, DeviceAdapter};
use hpdr_pipeline::{average_scalability, scalability_sweep};
use std::sync::Arc;

fn main() {
    // One poloidal-plane slab of XGC-like e_f data per GPU.
    let field = hpdr::data::xgc_ef(96, 7);
    let meta = ArrayMeta::new(DType::F64, field.shape.clone());
    let input = Arc::new(field.bytes.clone());
    println!(
        "XGC e_f slab per GPU: {} f64 ({:.1} MB)",
        field.shape,
        input.len() as f64 / 1e6
    );

    let work: Arc<dyn DeviceAdapter> = Arc::new(CpuParallelAdapter::with_defaults());
    let reducer = Codec::Mgard(MgardConfig::relative(1e-4)).reducer();
    let spec = hpdr::sim::spec::v100();
    let opts = PipelineOptions::fixed(2 << 20);

    for (label, opts) in [
        ("HPDR (context memory model ON)", opts),
        (
            "per-call allocation (CMM OFF)",
            PipelineOptions { cmm: false, ..opts },
        ),
    ] {
        let sweep = scalability_sweep(
            &spec,
            6,
            Arc::clone(&work),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("sweep");
        println!("\n{label}");
        println!("{:>6} {:>14} {:>12}", "GPUs", "aggregate GB/s", "of ideal");
        for (n, gbps, ratio) in &sweep {
            println!("{n:>6} {gbps:>14.2} {:>11.1}%", ratio * 100.0);
        }
        println!(
            "average scalability: {:.1}%",
            average_scalability(&sweep) * 100.0
        );
    }
    println!(
        "\nAll six GPUs share one runtime; without the CMM every chunk's \
         allocations serialize on the runtime lock, exactly the contention \
         the paper measured on Summit nodes."
    );
}
