//! Cluster-scale I/O experiments (paper Figs. 15, 17, 18).
//!
//! A [`SystemSpec`] describes a leadership machine (node GPU complement,
//! filesystem, aggregation strategy — paper §VI-A: one writer per node on
//! Summit, one per GPU on Frontier). Per-codec behaviour enters through a
//! [`CodecProfile`] measured on the single-node virtual-time pipeline
//! (real kernels, calibrated engines); the cluster harness then composes
//! profiles with the filesystem model analytically. Weak-scaled nodes do
//! independent work, so node-count scaling is exact composition, not
//! extrapolation.

use crate::fsmodel::{frontier_lustre, summit_gpfs, Filesystem};
use hpdr_core::{ArrayMeta, DeviceAdapter, Reducer, Result};
use hpdr_pipeline::{
    average_scalability, compress_pipelined, decompress_pipelined, scalability_sweep,
    PipelineOptions,
};
use hpdr_sim::{DeviceSpec, Ns};
use std::sync::Arc;

/// Writer-aggregation strategy (paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    OnePerNode,
    OnePerGpu,
}

/// A leadership-class system description.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    pub name: &'static str,
    pub gpus_per_node: usize,
    pub gpu: DeviceSpec,
    pub fs: Filesystem,
    pub aggregation: Aggregation,
    pub max_nodes: usize,
}

impl SystemSpec {
    pub fn writers(&self, nodes: usize) -> usize {
        match self.aggregation {
            Aggregation::OnePerNode => nodes,
            Aggregation::OnePerGpu => nodes * self.gpus_per_node,
        }
    }

    pub fn gpus(&self, nodes: usize) -> usize {
        nodes * self.gpus_per_node
    }
}

/// Summit: 4,608 nodes × 6 V100, GPFS, one writer per node.
pub fn summit() -> SystemSpec {
    SystemSpec {
        name: "Summit",
        gpus_per_node: 6,
        gpu: hpdr_sim::spec::v100(),
        fs: summit_gpfs(),
        aggregation: Aggregation::OnePerNode,
        max_nodes: 4608,
    }
}

/// Frontier: 9,408 nodes × 4 MI250X, Lustre, one writer per GPU.
pub fn frontier() -> SystemSpec {
    SystemSpec {
        name: "Frontier",
        gpus_per_node: 4,
        gpu: hpdr_sim::spec::mi250x(),
        fs: frontier_lustre(),
        aggregation: Aggregation::OnePerGpu,
        max_nodes: 9408,
    }
}

/// Measured single-node behaviour of one codec configuration.
#[derive(Debug, Clone)]
pub struct CodecProfile {
    pub name: String,
    /// Per-GPU end-to-end compression throughput (GB/s, incl. transfers).
    pub compress_gbps: f64,
    /// Per-GPU end-to-end decompression throughput (GB/s).
    pub decompress_gbps: f64,
    /// Compression ratio (raw / reduced).
    pub ratio: f64,
    /// Average real-to-ideal multi-GPU scalability on one node.
    pub node_scalability: f64,
    /// Trace-derived §V-C compute↔DMA overlap of the compression run
    /// (None if the run moved no DMA bytes).
    pub overlap: Option<f64>,
    /// Trace-derived Fig. 1 memory-op share of the compression run.
    pub memory_fraction: f64,
}

/// Measure a codec's profile on `system`'s GPU with the given pipeline
/// options, using a real sample array.
pub fn measure_codec_profile(
    system: &SystemSpec,
    reducer: Arc<dyn Reducer>,
    work: Arc<dyn DeviceAdapter>,
    sample: Arc<Vec<u8>>,
    meta: &ArrayMeta,
    opts: &PipelineOptions,
) -> Result<CodecProfile> {
    let (container, creport) = compress_pipelined(
        &system.gpu,
        Arc::clone(&work),
        Arc::clone(&reducer),
        Arc::clone(&sample),
        meta,
        opts,
    )?;
    let (_, _, dreport) = decompress_pipelined(
        &system.gpu,
        Arc::clone(&work),
        Arc::clone(&reducer),
        &container,
        opts,
    )?;
    let sweep = scalability_sweep(
        &system.gpu,
        system.gpus_per_node,
        work,
        reducer.clone(),
        sample,
        meta,
        opts,
    )?;
    let ratio = creport.input_bytes as f64 / creport.compressed_bytes.max(1) as f64;
    Ok(CodecProfile {
        name: reducer.name().to_string(),
        compress_gbps: creport.end_to_end_gbps,
        decompress_gbps: dreport.end_to_end_gbps,
        ratio,
        node_scalability: average_scalability(&sweep),
        overlap: creport.overlap,
        memory_fraction: creport.memory_fraction,
    })
}

/// Fig. 15: aggregate reduction throughput of a weak-scaled run
/// (`nodes` nodes, every GPU busy). Returns GB/s.
pub fn aggregate_reduction_gbps(system: &SystemSpec, nodes: usize, p: &CodecProfile) -> f64 {
    p.compress_gbps * p.node_scalability * system.gpus(nodes) as f64
}

/// Cost of one parallel write or read epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCost {
    /// Reduction (or reconstruction) time, fully parallel across GPUs.
    pub reduce: Ns,
    /// Filesystem transfer time.
    pub io: Ns,
}

impl IoCost {
    pub fn total(&self) -> Ns {
        self.reduce + self.io
    }

    /// Speedup of `self` relative to `baseline` total time.
    pub fn speedup_vs(&self, baseline: &IoCost) -> f64 {
        baseline.total().0 as f64 / self.total().0.max(1) as f64
    }
}

/// Write cost with (or without) reduction. `per_gpu_bytes` of raw data
/// per GPU.
pub fn write_cost(
    system: &SystemSpec,
    nodes: usize,
    per_gpu_bytes: u64,
    profile: Option<&CodecProfile>,
) -> IoCost {
    let gpus = system.gpus(nodes) as u64;
    let raw_total = per_gpu_bytes * gpus;
    let writers = system.writers(nodes);
    match profile {
        None => IoCost {
            reduce: Ns::ZERO,
            io: system.fs.write_time(raw_total, writers, gpus),
        },
        Some(p) => {
            let gpu_gbps = (p.compress_gbps * p.node_scalability).max(1e-9);
            let reduce = Ns((per_gpu_bytes as f64 / gpu_gbps).round() as u64);
            let reduced_total = (raw_total as f64 / p.ratio).round() as u64;
            IoCost {
                reduce,
                io: system.fs.write_time(reduced_total, writers, gpus),
            }
        }
    }
}

/// Read cost with (or without) reduction.
pub fn read_cost(
    system: &SystemSpec,
    nodes: usize,
    per_gpu_bytes: u64,
    profile: Option<&CodecProfile>,
) -> IoCost {
    let gpus = system.gpus(nodes) as u64;
    let raw_total = per_gpu_bytes * gpus;
    let readers = system.writers(nodes);
    match profile {
        None => IoCost {
            reduce: Ns::ZERO,
            io: system.fs.read_time(raw_total, readers, gpus),
        },
        Some(p) => {
            let gpu_gbps = (p.decompress_gbps * p.node_scalability).max(1e-9);
            let reduce = Ns((per_gpu_bytes as f64 / gpu_gbps).round() as u64);
            let reduced_total = (raw_total as f64 / p.ratio).round() as u64;
            IoCost {
                reduce,
                io: system.fs.read_time(reduced_total, readers, gpus),
            }
        }
    }
}

/// Strong scaling: fixed `total_bytes` split across all GPUs of `nodes`.
pub fn strong_scaling_write(
    system: &SystemSpec,
    nodes: usize,
    total_bytes: u64,
    profile: Option<&CodecProfile>,
) -> IoCost {
    let per_gpu = total_bytes / system.gpus(nodes) as u64;
    write_cost(system, nodes, per_gpu, profile)
}

/// Strong scaling read counterpart.
pub fn strong_scaling_read(
    system: &SystemSpec,
    nodes: usize,
    total_bytes: u64,
    profile: Option<&CodecProfile>,
) -> IoCost {
    let per_gpu = total_bytes / system.gpus(nodes) as u64;
    read_cost(system, nodes, per_gpu, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_profile(gbps: f64, ratio: f64) -> CodecProfile {
        CodecProfile {
            name: "fake".into(),
            compress_gbps: gbps,
            decompress_gbps: gbps * 1.1,
            ratio,
            node_scalability: 0.95,
            overlap: Some(0.5),
            memory_fraction: 0.5,
        }
    }

    #[test]
    fn system_presets_match_paper() {
        let s = summit();
        assert_eq!(s.gpus_per_node, 6);
        assert_eq!(s.writers(512), 512); // one per node
        assert_eq!(s.gpus(512), 3072);
        let f = frontier();
        assert_eq!(f.gpus_per_node, 4);
        assert_eq!(f.writers(1024), 4096); // one per GPU
        assert_eq!(f.gpus(1024), 4096);
    }

    #[test]
    fn good_compressor_accelerates_io() {
        let sys = summit();
        let per_gpu = 7_500_000_000u64; // paper: 7.5 GB per GPU
        let raw = write_cost(&sys, 512, per_gpu, None);
        let p = fake_profile(25.0, 100.0);
        let reduced = write_cost(&sys, 512, per_gpu, Some(&p));
        let speedup = reduced.speedup_vs(&raw);
        assert!(speedup > 3.0, "speedup {speedup:.2}");
    }

    #[test]
    fn weak_compressor_slows_io_down() {
        // LZ4-ish: ratio 1.1 with modest throughput → extra overhead.
        let sys = summit();
        let per_gpu = 7_500_000_000u64;
        let raw = write_cost(&sys, 512, per_gpu, None);
        // Unoptimized end-to-end LZ4 runs at ~2 GB/s per GPU (Fig. 1's
        // memory-op-dominated pipeline), so reduction time outweighs the
        // 10% byte saving.
        let p = fake_profile(2.0, 1.1);
        let reduced = write_cost(&sys, 512, per_gpu, Some(&p));
        assert!(reduced.speedup_vs(&raw) < 1.0);
    }

    #[test]
    fn aggregate_reduction_scales_with_nodes() {
        let sys = frontier();
        let p = fake_profile(30.0, 50.0);
        let t512 = aggregate_reduction_gbps(&sys, 512, &p);
        let t1024 = aggregate_reduction_gbps(&sys, 1024, &p);
        assert!((t1024 / t512 - 2.0).abs() < 1e-9);
        // 1,024 nodes × 4 GPUs × 30 GB/s × 0.95 ≈ 116 TB/s-scale number.
        assert!(t1024 > 100_000.0);
    }

    #[test]
    fn strong_scaling_reduce_time_drops_with_nodes() {
        let sys = frontier();
        let p = fake_profile(30.0, 7.9);
        let total = 32u64 << 40; // 32 TB, paper Fig. 18a
        let a = strong_scaling_write(&sys, 512, total, Some(&p));
        let b = strong_scaling_write(&sys, 2048, total, Some(&p));
        assert!(b.reduce < a.reduce);
        assert!(b.total() < a.total());
    }

    #[test]
    fn read_cost_uses_decompress_throughput() {
        let sys = summit();
        let p = fake_profile(10.0, 10.0);
        let w = write_cost(&sys, 64, 1 << 30, Some(&p));
        let r = read_cost(&sys, 64, 1 << 30, Some(&p));
        // decompress is 1.1× faster in the fake profile.
        assert!(r.reduce < w.reduce);
    }
}
