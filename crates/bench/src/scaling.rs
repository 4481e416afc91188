//! Experiment scaling: shrink data and device knees together so the
//! paper-scale performance *shapes* survive at laptop-scale sizes.

use hpdr::{ArrayMeta, DType, PipelineMode, PipelineOptions};
use hpdr_sim::DeviceSpec;
use std::sync::Arc;

/// Experiment size class.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divisor applied to data sizes and device saturation knees.
    pub factor: u64,
    pub nyx_side: usize,
    pub e3sm_dims: (usize, usize, usize),
    pub xgc_mesh: usize,
}

impl Scale {
    /// Fast: sub-second experiments (`reproduce --bench-scale`, the
    /// figure golden tests, the benchmark's smallest field size).
    pub fn bench() -> Scale {
        Scale {
            factor: 8192,
            nyx_side: 32,
            e3sm_dims: (12, 24, 48),
            xgc_mesh: 48,
        }
    }

    /// Default for the `reproduce` binary (seconds per figure).
    pub fn report() -> Scale {
        Scale {
            factor: 1024,
            nyx_side: 64,
            e3sm_dims: (24, 48, 96),
            xgc_mesh: 160,
        }
    }

    /// Heavier run for `reproduce --large` (minutes).
    pub fn large() -> Scale {
        Scale {
            factor: 128,
            nyx_side: 128,
            e3sm_dims: (48, 96, 192),
            xgc_mesh: 640,
        }
    }

    /// Scale a device spec: saturation knees and latencies divide by the
    /// factor; saturated bandwidths / plateaus are untouched.
    pub fn spec(&self, base: &DeviceSpec) -> DeviceSpec {
        base.scaled(self.factor)
    }

    /// The paper's 100 MB fixed chunk, scaled.
    pub fn fixed_chunk(&self) -> u64 {
        ((100u64 << 20) / self.factor).max(4096)
    }

    /// A deliberately-large fixed chunk (paper Fig. 10 "fixed large": 2 GB).
    pub fn large_chunk(&self) -> u64 {
        ((2u64 << 30) / self.factor).max(16384)
    }

    /// Algorithm 4 configuration, scaled.
    pub fn adaptive(&self) -> PipelineOptions {
        PipelineOptions {
            mode: PipelineMode::Adaptive {
                init_bytes: ((16u64 << 20) / self.factor).max(2048),
                limit_bytes: ((2u64 << 30) / self.factor).max(1 << 20),
            },
            ..Default::default()
        }
    }

    pub fn fixed(&self) -> PipelineOptions {
        PipelineOptions::fixed(self.fixed_chunk())
    }

    // --- datasets (scaled Table III analogues) ---

    pub fn nyx(&self, seed: u64) -> (Arc<Vec<u8>>, ArrayMeta) {
        let d = hpdr::data::nyx_density(self.nyx_side, seed);
        (Arc::new(d.bytes), ArrayMeta::new(DType::F32, d.shape))
    }

    pub fn e3sm(&self, seed: u64) -> (Arc<Vec<u8>>, ArrayMeta) {
        let (t, la, lo) = self.e3sm_dims;
        let d = hpdr::data::e3sm_psl(t, la, lo, seed);
        (Arc::new(d.bytes), ArrayMeta::new(DType::F32, d.shape))
    }

    pub fn xgc(&self, seed: u64) -> (Arc<Vec<u8>>, ArrayMeta) {
        let d = hpdr::data::xgc_ef(self.xgc_mesh, seed);
        (Arc::new(d.bytes), ArrayMeta::new(DType::F64, d.shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::spec::v100;

    #[test]
    fn scaling_preserves_plateaus() {
        let s = Scale::report();
        let scaled = s.spec(&v100());
        assert_eq!(scaled.h2d.saturated_gbps, v100().h2d.saturated_gbps);
        assert!(scaled.h2d.saturate_bytes < v100().h2d.saturate_bytes);
        assert!(scaled.alloc_latency < v100().alloc_latency);
    }

    #[test]
    fn chunk_sizes_scale() {
        let s = Scale::report();
        assert_eq!(s.fixed_chunk(), (100 << 20) / 1024);
        assert!(s.large_chunk() > s.fixed_chunk());
    }

    #[test]
    fn datasets_have_expected_dtypes() {
        let s = Scale::bench();
        assert_eq!(s.nyx(1).1.dtype, DType::F32);
        assert_eq!(s.xgc(1).1.dtype, DType::F64);
        assert_eq!(s.e3sm(1).1.dtype, DType::F32);
    }
}
