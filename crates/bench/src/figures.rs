//! Per-figure experiment runners (paper Figs. 1, 10–18 + ablations).

use crate::{work, Scale, TextTable};
use hpdr::{Codec, MgardConfig, SzConfig, ZfpConfig};
use hpdr_core::Shape;
use hpdr_core::{
    ArrayMeta, CpuParallelAdapter, DeviceAdapter, GpuSimAdapter, Reducer, SerialAdapter,
};
use hpdr_io::{
    frontier, read_cost, strong_scaling_read, strong_scaling_write, summit, write_cost,
    CodecProfile, SystemSpec,
};
use hpdr_pipeline::container::ROW_ALIGN;
use hpdr_pipeline::{
    average_scalability, compress_pipelined, decompress_pipelined, decompress_scalability_sweep,
    fit, scalability_sweep, Container, PipelineOptions,
};
use hpdr_sim::{Category, DeviceId, DeviceSpec};
use std::sync::Arc;

/// Time steps per GPU in the multi-step experiments (the paper uses 14
/// NYX steps per GPU in Fig. 15; we default lower to keep runs quick).
pub const STEPS: usize = 6;

/// Tile the NYX sample `STEPS` times along the leading dimension: a
/// multi-step output stream. Returns `(input, meta, step_bytes)`.
pub fn steps_input(scale: &Scale, seed: u64) -> (Arc<Vec<u8>>, ArrayMeta, u64) {
    let (input, meta) = scale.nyx(seed);
    let mut big = Vec::with_capacity(input.len() * STEPS);
    for _ in 0..STEPS {
        big.extend_from_slice(&input);
    }
    let dims = meta.shape.dims();
    let shape = Shape::new(&[dims[0] * STEPS, dims[1], dims[2]]);
    (
        Arc::new(big),
        ArrayMeta::new(meta.dtype, shape),
        input.len() as u64,
    )
}

/// The four comparator pipelines of Fig. 1 / §VI-A.
pub fn comparator_codecs() -> Vec<(&'static str, Codec)> {
    vec![
        ("MGARD-GPU", Codec::Mgard(MgardConfig::relative(1e-2))),
        ("cuSZ", Codec::Sz(SzConfig::relative(1e-2))),
        ("ZFP-CUDA", Codec::Zfp(ZfpConfig::fixed_rate(16))),
        ("NVCOMP-LZ4", Codec::Lz4),
    ]
}

/// Busy time per Fig. 1 category of a single-device run, in
/// [`Category::ALL`] order.
fn category_busy(rep: &hpdr_pipeline::PipelineReport) -> [hpdr_sim::Ns; 5] {
    hpdr::trace::digest(&rep.trace, DeviceId(0)).busy
}

/// Fig. 1: time breakdown of the four non-optimized GPU pipelines on a
/// V100 (paper: 34–89% of time in memory operations).
pub fn fig01(scale: &Scale) -> String {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta) = scale.nyx(1);
    let opts = PipelineOptions::baseline_unoptimized();
    let mut t = TextTable::new(&[
        "pipeline",
        "dir",
        "host copy %",
        "H2D %",
        "D2H %",
        "compute %",
        "mem-mgmt %",
        "memory ops %",
    ]);
    for (name, codec) in comparator_codecs() {
        let reducer = codec.reducer();
        let (container, creport) = compress_pipelined(
            &spec,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("fig01 compress");
        let (_, _, dreport) =
            decompress_pipelined(&spec, work(), reducer, &container, &opts).expect("fig01 dec");
        for (dir, rep) in [("comp", &creport), ("decomp", &dreport)] {
            let busy = category_busy(rep);
            let total: u64 = busy.iter().map(|b| b.0).sum();
            let pct = |cat: Category| {
                if total == 0 {
                    0.0
                } else {
                    busy[cat as usize].0 as f64 / total as f64 * 100.0
                }
            };
            t.row(vec![
                name.into(),
                dir.into(),
                format!("{:.1}", pct(Category::Host)),
                format!("{:.1}", pct(Category::H2D)),
                format!("{:.1}", pct(Category::D2H)),
                format!("{:.1}", pct(Category::Compute)),
                format!("{:.1}", pct(Category::MemMgmt)),
                format!("{:.1}", rep.memory_fraction * 100.0),
            ]);
        }
    }
    format!(
        "Fig. 1: time breakdown of non-optimized reduction pipelines (NYX, V100-sim)\n{}",
        t.render()
    )
}

/// Fig. 10: fixed-small vs fixed-large vs adaptive chunk pipelines
/// (MGARD, NYX).
pub fn fig10(scale: &Scale) -> String {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta) = scale.nyx(2);
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let mut t = TextTable::new(&[
        "setting",
        "chunks",
        "makespan",
        "sustained GB/s",
        "overlap %",
    ]);
    for (name, opts) in [
        (
            "fixed small (100MB/f)",
            PipelineOptions::fixed(scale.fixed_chunk() / 8),
        ),
        (
            "fixed large (2GB/f)",
            PipelineOptions::fixed(scale.large_chunk()),
        ),
        ("adaptive", scale.adaptive()),
    ] {
        let (_, rep) = compress_pipelined(
            &spec,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("fig10");
        t.row(vec![
            name.into(),
            rep.num_chunks.to_string(),
            rep.makespan.to_string(),
            format!("{:.2}", rep.end_to_end_gbps),
            format!("{:.1}", rep.overlap.unwrap_or(0.0) * 100.0),
        ]);
    }
    format!(
        "Fig. 10: reduction pipeline vs chunk-size strategy (MGARD-X, NYX, V100-sim)\n{}",
        t.render()
    )
}

/// Fig. 11: measured kernel throughput vs chunk size, with the fitted
/// roofline model, for three datasets × three error bounds.
pub fn fig11(scale: &Scale) -> String {
    // Scale the device 16x less aggressively than the data so the
    // unsaturated ramp below the kernel knee stays observable.
    let dev_scale = Scale {
        factor: (scale.factor / 16).max(1),
        ..*scale
    };
    let spec = dev_scale.spec(&hpdr_sim::spec::v100());
    let mut out = String::from("Fig. 11: roofline model of MGARD-X kernel throughput (V100-sim)\n");
    let datasets = [
        ("NYX", scale.nyx(3)),
        ("E3SM", scale.e3sm(4)),
        ("XGC", scale.xgc(5)),
    ];
    for (dname, (input, meta)) in datasets {
        for eb in [1e-2f64, 1e-4, 1e-6] {
            let reducer = Codec::Mgard(MgardConfig::relative(eb)).reducer();
            // Sweep chunk sizes from the smallest the pipeline cuts
            // (`ROW_ALIGN` rows) up by 2×, ending on the whole array,
            // measuring compute-engine throughput.
            let mut points: Vec<(u64, f64)> = Vec::new();
            let row_bytes = (meta.shape.row_elements() * meta.dtype.size()) as u64;
            let total = input.len() as u64;
            let mut c = row_bytes * ROW_ALIGN as u64;
            loop {
                let (container, rep) = compress_pipelined(
                    &spec,
                    work(),
                    Arc::clone(&reducer),
                    Arc::clone(&input),
                    &meta,
                    &PipelineOptions::fixed(c.min(total)),
                )
                .expect("fig11");
                let compute_busy = category_busy(&rep)[Category::Compute as usize];
                // Label by the realized mean chunk size (row alignment can
                // round the requested size).
                let mean_chunk = rep.input_bytes / container.chunks.len() as u64;
                points.push((
                    mean_chunk,
                    rep.input_bytes as f64 / compute_busy.0.max(1) as f64,
                ));
                if c >= total {
                    break;
                }
                c *= 2;
            }
            let model = fit(&points, 0.9);
            out.push_str(&format!(
                "  {dname:<5} eb={eb:>6.0e}: gamma={:.1} GB/s  threshold={}  points={}\n",
                model.gamma,
                model.threshold,
                points
                    .iter()
                    .map(|(c, p)| format!("({c},{p:.1})"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    out
}

/// One Fig. 12 measurement: kernel-level throughput of `codec` on
/// `adapter` over `bytes` of input (virtual time on GPU sims, wall time
/// on CPUs).
pub fn kernel_throughput(
    adapter: &dyn DeviceAdapter,
    codec: Codec,
    input: &[u8],
    meta: &ArrayMeta,
) -> f64 {
    adapter.clock_reset();
    let reducer = codec.reducer();
    reducer
        .compress(adapter, input, meta)
        .expect("fig12 compress");
    let t = adapter.clock_elapsed();
    input.len() as f64 / t.0.max(1) as f64
}

/// Fig. 12: kernel throughput of the three portable pipelines on five
/// processors.
pub fn fig12(scale: &Scale) -> String {
    let (input, meta) = scale.nyx(6);
    let mut adapters: Vec<(String, Box<dyn DeviceAdapter>)> = Vec::new();
    for spec in [
        hpdr_sim::spec::v100(),
        hpdr_sim::spec::a100(),
        hpdr_sim::spec::mi250x(),
        hpdr_sim::spec::rtx3090(),
    ] {
        adapters.push((
            format!(
                "{} ({})",
                spec.name,
                match spec.arch {
                    hpdr_sim::Arch::CudaSim => "CUDA-sim",
                    hpdr_sim::Arch::HipSim => "HIP-sim",
                }
            ),
            Box::new(GpuSimAdapter::new(scale.spec(&spec))),
        ));
    }
    adapters.push((
        "CPU (openmp)".to_string(),
        Box::new(CpuParallelAdapter::with_defaults()),
    ));

    let mut t = TextTable::new(&[
        "processor",
        "MGARD 1e-2",
        "MGARD 1e-4",
        "MGARD 1e-6",
        "ZFP r8",
        "ZFP r16",
        "ZFP r32",
        "Huffman",
    ]);
    for (name, adapter) in &adapters {
        let m = |eb: f64| {
            kernel_throughput(
                adapter.as_ref(),
                Codec::Mgard(MgardConfig::relative(eb)),
                &input,
                &meta,
            )
        };
        let z = |r: u32| {
            kernel_throughput(
                adapter.as_ref(),
                Codec::Zfp(ZfpConfig::fixed_rate(r)),
                &input,
                &meta,
            )
        };
        let h = kernel_throughput(adapter.as_ref(), Codec::Huffman, &input, &meta);
        t.row(vec![
            name.clone(),
            format!("{:.2}", m(1e-2)),
            format!("{:.2}", m(1e-4)),
            format!("{:.2}", m(1e-6)),
            format!("{:.2}", z(8)),
            format!("{:.2}", z(16)),
            format!("{:.2}", z(32)),
            format!("{:.2}", h),
        ]);
    }
    format!(
        "Fig. 12: kernel throughput in GB/s (GPU rows: calibrated virtual time; CPU row: measured wall time)\n{}",
        t.render()
    )
}

/// Fig. 13 + Fig. 14 shared runner: end-to-end throughput and ratios for
/// None / Fixed / Adaptive.
pub struct PipelineComparison {
    pub codec_name: &'static str,
    /// (setting, compress GB/s, decompress GB/s, ratio)
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

pub fn compare_pipelines(
    scale: &Scale,
    codec_name: &'static str,
    reducer: Arc<dyn Reducer>,
    spec: &DeviceSpec,
) -> PipelineComparison {
    let (input, meta) = scale.nyx(7);
    let mut rows = Vec::new();
    for (name, opts) in [
        ("none", PipelineOptions::unpipelined()),
        ("fixed", scale.fixed()),
        ("adaptive", scale.adaptive()),
    ] {
        let (container, crep) = compress_pipelined(
            spec,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("fig13 compress");
        let (_, _, drep) =
            decompress_pipelined(spec, work(), Arc::clone(&reducer), &container, &opts)
                .expect("fig13 decompress");
        let ratio = crep.input_bytes as f64 / crep.compressed_bytes.max(1) as f64;
        rows.push((name, crep.end_to_end_gbps, drep.end_to_end_gbps, ratio));
    }
    PipelineComparison { codec_name, rows }
}

pub fn fig13(scale: &Scale) -> String {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let mut t = TextTable::new(&[
        "codec",
        "setting",
        "comp GB/s",
        "decomp GB/s",
        "comp speedup",
        "vs fixed",
    ]);
    for (name, reducer) in [
        (
            "MGARD-X",
            Codec::Mgard(MgardConfig::relative(1e-2)).reducer(),
        ),
        ("ZFP-X", Codec::Zfp(ZfpConfig::fixed_rate(16)).reducer()),
    ] {
        let cmp = compare_pipelines(scale, name, reducer, &spec);
        let none = cmp.rows[0].1;
        let fixed = cmp.rows[1].1;
        for (setting, c, d, _) in &cmp.rows {
            t.row(vec![
                name.into(),
                (*setting).into(),
                format!("{c:.2}"),
                format!("{d:.2}"),
                format!("{:.2}x", c / none),
                format!("{:.2}x", c / fixed),
            ]);
        }
    }
    format!(
        "Fig. 13: end-to-end throughput, None vs Fixed vs Adaptive (NYX, V100-sim)\n{}",
        t.render()
    )
}

pub fn fig14(scale: &Scale) -> String {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta) = scale.nyx(8);
    let mut t = TextTable::new(&[
        "codec",
        "bound",
        "none",
        "fixed",
        "adaptive",
        "fixed loss %",
    ]);
    let mut cases: Vec<(String, Arc<dyn Reducer>)> = Vec::new();
    for eb in [1e-2f64, 1e-4, 1e-6] {
        cases.push((
            format!("MGARD {eb:.0e}"),
            Codec::Mgard(MgardConfig::relative(eb)).reducer(),
        ));
    }
    for rate in [8u32, 16, 32] {
        cases.push((
            format!("ZFP r{rate}"),
            Codec::Zfp(ZfpConfig::fixed_rate(rate)).reducer(),
        ));
    }
    for (name, reducer) in cases {
        let mut ratios = Vec::new();
        for opts in [
            PipelineOptions::unpipelined(),
            // Sub-divide the fixed chunk to stress the ratio cost of
            // chunking (the paper's 100 MB chunks on 4.3 GB inputs).
            PipelineOptions::fixed((scale.fixed_chunk() / 16).max(2048)),
            scale.adaptive(),
        ] {
            let (container, rep) = compress_pipelined(
                &spec,
                work(),
                Arc::clone(&reducer),
                Arc::clone(&input),
                &meta,
                &opts,
            )
            .expect("fig14");
            let _ = container;
            ratios.push(rep.input_bytes as f64 / rep.compressed_bytes.max(1) as f64);
        }
        let loss = (1.0 - ratios[1] / ratios[0]) * 100.0;
        t.row(vec![
            name,
            "rel".into(),
            format!("{:.1}", ratios[0]),
            format!("{:.1}", ratios[1]),
            format!("{:.1}", ratios[2]),
            format!("{loss:.1}"),
        ]);
    }
    format!(
        "Fig. 14: compression ratio vs pipeline setting (NYX, V100-sim)\n{}",
        t.render()
    )
}

/// Measure the profiles used by the cluster-scale figures over a
/// multi-step stream: HPDR pipelines across the stream; comparators run
/// one synchronous invocation per step ([`PipelineOptions::baseline_per_step`]).
pub fn profile(
    scale: &Scale,
    system: &SystemSpec,
    codec: Codec,
    opts: Option<&PipelineOptions>,
) -> CodecProfile {
    let scaled_sys = SystemSpec {
        gpu: scale.spec(&system.gpu),
        ..system.clone()
    };
    let (input, meta, step_bytes) = steps_input(scale, 9);
    let opts = match opts {
        Some(o) => *o,
        None => PipelineOptions::baseline_per_step(step_bytes),
    };
    hpdr_io::measure_codec_profile(&scaled_sys, codec.reducer(), work(), input, &meta, &opts)
        .expect("profile")
}

/// Fig. 15: multi-node aggregate reduction throughput (weak scaling).
pub fn fig15(scale: &Scale) -> String {
    let mut out = String::from("Fig. 15: aggregated reduction throughput (weak scaling)\n");
    let summit_sys = summit();
    let frontier_sys = frontier();
    let summit_codecs: Vec<(&str, Codec, Option<PipelineOptions>)> = vec![
        (
            "MGARD-X",
            Codec::Mgard(MgardConfig::relative(1e-2)),
            Some(scale.adaptive()),
        ),
        ("MGARD-GPU", Codec::Mgard(MgardConfig::relative(1e-2)), None),
        ("ZFP-CUDA", Codec::Zfp(ZfpConfig::fixed_rate(16)), None),
        ("cuSZ", Codec::Sz(SzConfig::relative(1e-2)), None),
        ("NVCOMP-LZ4", Codec::Lz4, None),
    ];
    for (sys, max_nodes, codecs) in [
        (&summit_sys, 512usize, &summit_codecs[..]),
        (&frontier_sys, 1024, &summit_codecs[..2]),
    ] {
        out.push_str(&format!("  {} (up to {max_nodes} nodes):\n", sys.name));
        let mut t = TextTable::new(&[
            "codec",
            "per-GPU GB/s",
            "scalability",
            "64 nodes",
            "max nodes (TB/s)",
        ]);
        for (name, codec, opts) in codecs {
            let p = profile(scale, sys, *codec, opts.as_ref());
            let at = |nodes: usize| hpdr_io::aggregate_reduction_gbps(sys, nodes, &p) / 1000.0;
            t.row(vec![
                (*name).into(),
                format!("{:.2}", p.compress_gbps),
                format!("{:.0}%", p.node_scalability * 100.0),
                format!("{:.2}", at(64)),
                format!("{:.2}", at(max_nodes)),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Fig. 16: multi-GPU scalability on a 6×V100 node, compression and
/// decompression.
pub fn fig16(scale: &Scale) -> String {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta, step_bytes) = steps_input(scale, 10);
    let mut t = TextTable::new(&["codec", "comp avg scal %", "decomp avg scal %"]);
    let mut cases: Vec<(&str, Arc<dyn Reducer>, PipelineOptions)> = vec![(
        "MGARD-X",
        Codec::Mgard(MgardConfig::relative(1e-2)).reducer(),
        scale.fixed(),
    )];
    for (name, codec) in comparator_codecs() {
        cases.push((
            name,
            codec.reducer(),
            PipelineOptions::baseline_per_step(step_bytes),
        ));
    }
    for (name, reducer, opts) in cases {
        let comp = scalability_sweep(
            &spec,
            6,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("fig16 comp");
        // Build a container once for the decompression sweep.
        let (container, _) = compress_pipelined(
            &spec,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            &opts,
        )
        .expect("fig16 container");
        let decomp = decompress_scalability_sweep(&spec, 6, work(), reducer, &container, &opts)
            .expect("fig16 decomp");
        t.row(vec![
            name.into(),
            format!("{:.1}", average_scalability(&comp) * 100.0),
            format!("{:.1}", average_scalability(&decomp) * 100.0),
        ]);
    }
    format!(
        "Fig. 16: multi-GPU scalability on 6 V100s (avg real-to-ideal)\n{}",
        t.render()
    )
}

/// Fig. 17: weak-scaling parallel I/O acceleration (7.5 GB per GPU).
pub fn fig17(scale: &Scale) -> String {
    let mut out = String::from("Fig. 17: weak-scaling I/O with NYX (7.5 GB per GPU)\n");
    let per_gpu: u64 = 7_500_000_000;
    for (sys, nodes_list) in [
        (summit(), vec![64usize, 128, 256, 512]),
        (frontier(), vec![128usize, 256, 512, 1024]),
    ] {
        out.push_str(&format!("  {}:\n", sys.name));
        let adaptive = scale.adaptive();
        let mgard_x = profile(
            scale,
            &sys,
            Codec::Mgard(MgardConfig::relative(1e-2)),
            Some(&adaptive),
        );
        let mgard_gpu = profile(scale, &sys, Codec::Mgard(MgardConfig::relative(1e-2)), None);
        let lz4 = profile(scale, &sys, Codec::Lz4, None);
        let zfp = profile(scale, &sys, Codec::Zfp(ZfpConfig::fixed_rate(16)), None);
        let cusz = profile(scale, &sys, Codec::Sz(SzConfig::relative(1e-2)), None);
        let mut t = TextTable::new(&[
            "nodes",
            "raw write s",
            "LZ4",
            "cuSZ",
            "ZFP",
            "MGARD-GPU",
            "MGARD-X",
            "MGARD-X read",
        ]);
        for &nodes in &nodes_list {
            let raw_w = write_cost(&sys, nodes, per_gpu, None);
            let raw_r = read_cost(&sys, nodes, per_gpu, None);
            let sp = |p: &CodecProfile| {
                format!(
                    "{:.2}x",
                    write_cost(&sys, nodes, per_gpu, Some(p)).speedup_vs(&raw_w)
                )
            };
            let read_sp = format!(
                "{:.2}x",
                read_cost(&sys, nodes, per_gpu, Some(&mgard_x)).speedup_vs(&raw_r)
            );
            t.row(vec![
                nodes.to_string(),
                format!("{:.1}", raw_w.total().as_secs_f64()),
                sp(&lz4),
                sp(&cusz),
                sp(&zfp),
                sp(&mgard_gpu),
                sp(&mgard_x),
                read_sp,
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Fig. 18: strong-scaling I/O on Frontier (32 TB E3SM, 67 TB XGC).
#[allow(clippy::type_complexity)]
pub fn fig18(scale: &Scale) -> String {
    let mut out = String::from("Fig. 18: strong-scaling I/O on Frontier (rel eb 1e-4)\n");
    let sys = frontier();
    let cases: Vec<(&str, (Arc<Vec<u8>>, ArrayMeta), u64)> = vec![
        ("E3SM 32TB", scale.e3sm(11), 32u64 << 40),
        ("XGC 67TB", scale.xgc(12), 67u64 << 40),
    ];
    for (name, (input, meta), total_bytes) in cases {
        let scaled_sys = SystemSpec {
            gpu: scale.spec(&sys.gpu),
            ..sys.clone()
        };
        let codec = Codec::Mgard(MgardConfig::relative(1e-4));
        let px = hpdr_io::measure_codec_profile(
            &scaled_sys,
            codec.reducer(),
            work(),
            Arc::clone(&input),
            &meta,
            &scale.adaptive(),
        )
        .expect("fig18 profile");
        let pg = hpdr_io::measure_codec_profile(
            &scaled_sys,
            codec.reducer(),
            work(),
            input,
            &meta,
            &PipelineOptions::baseline_unoptimized(),
        )
        .expect("fig18 profile");
        let _ = &pg;
        out.push_str(&format!("  {name} (measured ratio {:.1}x):\n", px.ratio));
        let mut t = TextTable::new(&[
            "nodes",
            "raw w s",
            "raw r s",
            "MGARD-GPU w",
            "MGARD-GPU r",
            "MGARD-X w",
            "MGARD-X r",
        ]);
        for nodes in [512usize, 1024, 2048] {
            let raw_w = strong_scaling_write(&sys, nodes, total_bytes, None);
            let raw_r = strong_scaling_read(&sys, nodes, total_bytes, None);
            let g_w = strong_scaling_write(&sys, nodes, total_bytes, Some(&pg));
            let g_r = strong_scaling_read(&sys, nodes, total_bytes, Some(&pg));
            let x_w = strong_scaling_write(&sys, nodes, total_bytes, Some(&px));
            let x_r = strong_scaling_read(&sys, nodes, total_bytes, Some(&px));
            t.row(vec![
                nodes.to_string(),
                format!("{:.1}", raw_w.total().as_secs_f64()),
                format!("{:.1}", raw_r.total().as_secs_f64()),
                format!("{:.2}x", g_w.speedup_vs(&raw_w)),
                format!("{:.2}x", g_r.speedup_vs(&raw_r)),
                format!("{:.2}x", x_w.speedup_vs(&raw_w)),
                format!("{:.2}x", x_r.speedup_vs(&raw_r)),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Ablations of the §V design choices.
pub fn ablations(scale: &Scale) -> String {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta) = scale.nyx(13);
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let mut out = String::from("Ablations of HPDR design choices (MGARD-X, NYX, V100-sim)\n");
    let run_c = |opts: &PipelineOptions| {
        compress_pipelined(
            &spec,
            work(),
            Arc::clone(&reducer),
            Arc::clone(&input),
            &meta,
            opts,
        )
        .expect("ablation compress")
    };
    // (a) CMM.
    let with = run_c(&scale.fixed()).1;
    let without = run_c(&PipelineOptions {
        cmm: false,
        ..scale.fixed()
    })
    .1;
    out.push_str(&format!(
        "  CMM: makespan {} (on) vs {} (off): {:.2}x from context caching\n",
        with.makespan,
        without.makespan,
        without.makespan.0 as f64 / with.makespan.0 as f64
    ));
    // (b) 2 vs 3 buffers (anti-dependency design).
    let two = run_c(&scale.fixed()).1;
    let three = run_c(&PipelineOptions {
        two_buffers: false,
        ..scale.fixed()
    })
    .1;
    out.push_str(&format!(
        "  Buffers: 2-buffer (anti-deps) {} vs 3-buffer {}; memory saved 1/3, slowdown {:.3}x\n",
        two.makespan,
        three.makespan,
        two.makespan.0 as f64 / three.makespan.0.max(1) as f64
    ));
    // (c) Reconstruction launch-order swap.
    let (container, _) = run_c(&scale.fixed());
    let run_d = |opts: &PipelineOptions| {
        decompress_pipelined(&spec, work(), Arc::clone(&reducer), &container, opts)
            .expect("ablation decompress")
            .2
    };
    let swapped = run_d(&scale.fixed());
    let unswapped = run_d(&PipelineOptions {
        deser_first: false,
        ..scale.fixed()
    });
    out.push_str(&format!(
        "  Launch order: deser-first {} vs default {}: {:.3}x\n",
        swapped.makespan,
        unswapped.makespan,
        unswapped.makespan.0 as f64 / swapped.makespan.0.max(1) as f64
    ));
    // (d) CPU adapters: serial vs openmp wall time (kernel level).
    let serial = SerialAdapter::new();
    let parallel = CpuParallelAdapter::with_defaults();
    let t_serial = {
        serial.clock_reset();
        reducer.compress(&serial, &input, &meta).unwrap();
        serial.clock_elapsed()
    };
    let t_par = {
        parallel.clock_reset();
        reducer.compress(&parallel, &input, &meta).unwrap();
        parallel.clock_elapsed()
    };
    out.push_str(&format!(
        "  CPU adapters: serial {} vs openmp({}) {}: {:.2}x parallel speedup\n",
        t_serial,
        parallel.info().threads,
        t_par,
        t_serial.0 as f64 / t_par.0.max(1) as f64
    ));
    out
}

/// Run everything (the `reproduce all` entry point).
pub fn run_all(scale: &Scale) -> String {
    let mut out = String::new();
    for section in [
        crate::tables::table1(),
        crate::tables::table2(),
        crate::tables::table3(scale),
        fig01(scale),
        fig10(scale),
        fig11(scale),
        fig12(scale),
        fig13(scale),
        fig14(scale),
        fig15(scale),
        fig16(scale),
        fig17(scale),
        fig18(scale),
        ablations(scale),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

/// Span trace of one representative run of a figure's experiment, used
/// by `reproduce --trace <dir>` to emit a Perfetto-loadable trace per
/// figure. Analytic sections (tables, the I/O-model figures) return
/// `None` — they run no simulated schedule of their own.
pub fn figure_trace(scale: &Scale, target: &str) -> Option<hpdr_sim::Trace> {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta) = scale.nyx(1);
    let reducer = || Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let run = |opts: &PipelineOptions| {
        compress_pipelined(&spec, work(), reducer(), Arc::clone(&input), &meta, opts)
            .expect("figure trace")
            .1
            .trace
    };
    match target {
        // The unoptimized baseline whose breakdown Fig. 1 reports.
        "fig1" | "fig01" => Some(run(&PipelineOptions::baseline_unoptimized())),
        // Chunked pipelines: the adaptive schedule is the interesting one.
        "fig10" | "fig13" | "fig14" => Some(run(&scale.adaptive())),
        "fig11" => Some(run(&PipelineOptions::fixed(scale.fixed_chunk() / 8))),
        "fig12" | "ablations" => Some(run(&scale.fixed())),
        // Multi-GPU: two devices sharing one virtual clock.
        "fig16" => {
            let inputs = vec![Arc::clone(&input), Arc::clone(&input)];
            let (_, rep) = hpdr_pipeline::compress_multi_gpu(
                &spec,
                2,
                work(),
                reducer(),
                inputs,
                &meta,
                &scale.fixed(),
            )
            .expect("fig16 trace");
            Some(rep.trace)
        }
        _ => None,
    }
}

/// Compress a small container for bench reuse.
pub fn sample_container(scale: &Scale) -> (Container, Arc<dyn Reducer>, DeviceSpec) {
    let spec = scale.spec(&hpdr_sim::spec::v100());
    let (input, meta) = scale.nyx(14);
    let reducer = Codec::Mgard(MgardConfig::relative(1e-2)).reducer();
    let (container, _) = compress_pipelined(
        &spec,
        work(),
        Arc::clone(&reducer),
        input,
        &meta,
        &scale.fixed(),
    )
    .expect("sample container");
    (container, reducer, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::fnv1a;

    /// FNV-1a digest of the bench-scale fig01 table, recorded before the
    /// figure read its per-category shares from the trace digest. Never
    /// re-recorded to make a change pass.
    const GOLDEN_FIG01: u64 = 0x9c26fc82314081b0;
    /// Digest of the bench-scale fig11 table, re-recorded (in debug,
    /// release and under `HPDR_FORCE_SCALAR=1`) when its chunk-size sweep
    /// began at `ROW_ALIGN` rows, grew by 2× and ended on the whole
    /// array, so that NYX and E3SM get at least three distinct sizes.
    const GOLDEN_FIG11: u64 = 0xff3b02f3eb350eb7;
    /// Digests of the bench-scale fig10 and fig13 tables (single-device
    /// compress and decompress launches), recorded before every launch
    /// went through one chunk-job path, in debug, release and under
    /// `HPDR_FORCE_SCALAR=1`. Never re-recorded to make a change pass.
    const GOLDEN_FIG10: u64 = 0x4de9222c950b0a02;
    const GOLDEN_FIG13: u64 = 0xcf86177d385d2cde;

    #[test]
    fn fig01_table_matches_golden() {
        let got = fnv1a(fig01(&Scale::bench()).as_bytes());
        assert!(got == GOLDEN_FIG01, "digest {got:#018x}");
    }

    #[test]
    fn fig11_table_matches_golden() {
        let table = fig11(&Scale::bench());
        // Every roofline is fitted to distinct chunk sizes, at least three
        // where the leading dimension allows (NYX has 32 rows, E3SM 12);
        // XGC's 8 rows hold two `ROW_ALIGN`-row sizes at any scale.
        for line in table.lines().filter(|l| l.contains("points=")) {
            let sizes: Vec<u64> = line
                .split('(')
                .skip(1)
                .map(|p| p.split(',').next().unwrap().parse().unwrap())
                .collect();
            assert!(
                sizes.windows(2).all(|w| w[0] < w[1]),
                "repeated size: {line}"
            );
            let want = if line.trim_start().starts_with("XGC") {
                2
            } else {
                3
            };
            assert!(sizes.len() >= want, "too few points: {line}");
        }
        let got = fnv1a(table.as_bytes());
        assert!(got == GOLDEN_FIG11, "digest {got:#018x}");
    }

    #[test]
    fn fig10_table_matches_golden() {
        let got = fnv1a(fig10(&Scale::bench()).as_bytes());
        assert!(got == GOLDEN_FIG10, "digest {got:#018x}");
    }

    #[test]
    fn fig13_table_matches_golden() {
        let got = fnv1a(fig13(&Scale::bench()).as_bytes());
        assert!(got == GOLDEN_FIG13, "digest {got:#018x}");
    }
}
