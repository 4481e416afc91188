//! Simulated GPU device adapter (the CUDA/HIP rows of paper Table II).
//!
//! Kernels run for real on host worker threads — groups map to simulated
//! SMs/CUs, staging maps to shared memory — while a virtual clock
//! accumulates calibrated kernel time from the device's
//! [`hpdr_sim::DeviceSpec`]. Standalone kernel throughput measurements
//! (paper Fig. 12) read this virtual clock; pipelined execution instead
//! charges the same cost model through `hpdr-sim` ops so overlap is
//! modeled device-wide.

use crate::adapter::{AdapterInfo, AdapterKind, DeviceAdapter};
use crate::error::Result;
use crate::pool::{default_threads, WorkerPool};
use hpdr_sim::{Arch, DeviceSpec, KernelClass, Ns};
use std::sync::atomic::{AtomicU64, Ordering};

/// Device adapter backed by a simulated GPU.
pub struct GpuSimAdapter {
    spec: DeviceSpec,
    threads: usize,
    accumulated: AtomicU64,
    mark: AtomicU64,
}

impl GpuSimAdapter {
    pub fn new(spec: DeviceSpec) -> GpuSimAdapter {
        GpuSimAdapter {
            spec,
            threads: default_threads(),
            accumulated: AtomicU64::new(0),
            mark: AtomicU64::new(0),
        }
    }

    pub fn with_threads(mut self, threads: usize) -> GpuSimAdapter {
        self.threads = threads.max(1);
        self
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Total virtual kernel time since construction.
    pub fn total_virtual(&self) -> Ns {
        Ns(self.accumulated.load(Ordering::Relaxed))
    }
}

impl DeviceAdapter for GpuSimAdapter {
    fn info(&self) -> AdapterInfo {
        AdapterInfo {
            device: self.spec.name.to_string(),
            kind: match self.spec.arch {
                Arch::CudaSim => AdapterKind::CudaSim,
                Arch::HipSim => AdapterKind::HipSim,
            },
            threads: self.threads,
        }
    }

    fn try_gem(
        &self,
        groups: usize,
        staging_bytes: usize,
        body: &(dyn Fn(usize, &mut [u8]) + Sync),
    ) -> Result<()> {
        // Groups → SMs/CUs; staging → shared memory (Table II).
        WorkerPool::global()
            .run_with_scratch(self.threads, groups, staging_bytes, body)
            .map_err(Into::into)
    }

    fn try_dem(&self, n: usize, body: &(dyn Fn(usize) + Sync)) -> Result<()> {
        // Whole domain across all cores; returning = grid sync.
        WorkerPool::global()
            .run(self.threads, n, 1024, body)
            .map_err(Into::into)
    }

    fn charge(&self, class: KernelClass, bytes: u64) {
        let dur = self.spec.kernel_duration(class, bytes);
        self.accumulated.fetch_add(dur.0, Ordering::Relaxed);
    }

    fn clock_reset(&self) {
        self.mark
            .store(self.accumulated.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn clock_elapsed(&self) -> Ns {
        Ns(self.accumulated.load(Ordering::Relaxed) - self.mark.load(Ordering::Relaxed))
    }

    fn uses_virtual_time(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::spec::{a100, v100};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn virtual_clock_accumulates_charges() {
        let a = GpuSimAdapter::new(v100());
        a.clock_reset();
        a.charge(KernelClass::Zfp, 1 << 26);
        let expect = v100().kernel_duration(KernelClass::Zfp, 1 << 26);
        assert_eq!(a.clock_elapsed(), expect);
        a.charge(KernelClass::Zfp, 1 << 26);
        assert_eq!(a.clock_elapsed(), Ns(expect.0 * 2));
    }

    #[test]
    fn clock_reset_zeroes_elapsed_not_total() {
        let a = GpuSimAdapter::new(v100());
        a.charge(KernelClass::Mgard, 1 << 20);
        a.clock_reset();
        assert_eq!(a.clock_elapsed(), Ns::ZERO);
        assert!(a.total_virtual() > Ns::ZERO);
    }

    #[test]
    fn executes_real_work() {
        let a = GpuSimAdapter::new(a100()).with_threads(4);
        let count = AtomicUsize::new(0);
        a.try_gem(32, 64, &|_, st| {
            assert_eq!(st.len(), 64);
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 32);
        let count = AtomicUsize::new(0);
        a.dem(5000, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn reports_virtual_time_and_arch() {
        let a = GpuSimAdapter::new(v100());
        assert!(a.uses_virtual_time());
        assert_eq!(a.info().kind, AdapterKind::CudaSim);
        let h = GpuSimAdapter::new(hpdr_sim::spec::mi250x());
        assert_eq!(h.info().kind, AdapterKind::HipSim);
    }

    #[test]
    fn virtual_throughput_matches_model_at_saturation() {
        let a = GpuSimAdapter::new(a100());
        let bytes = 512u64 << 20; // well past saturation
        a.clock_reset();
        a.charge(KernelClass::Huffman, bytes);
        let t = a.clock_elapsed();
        let gbps = bytes as f64 / t.0 as f64;
        let model = a100().kernel_model(KernelClass::Huffman).saturated_gbps;
        assert!(
            (gbps - model).abs() / model < 0.02,
            "got {gbps} want {model}"
        );
    }
}
