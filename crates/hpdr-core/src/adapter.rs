//! Device adapters (paper §III-C, Table II).
//!
//! A [`DeviceAdapter`] executes the two machine-abstraction execution
//! models on one processor:
//!
//! * **GEM** (Group Execution Model): independent groups, each with
//!   exclusive *staging* memory (GPU shared memory / CPU cache analogue);
//!   the group body observes barrier semantics between its internal
//!   stages because it runs on one worker.
//! * **DEM** (Domain Execution Model): whole-domain parallel stages with a
//!   global barrier between stages (grid sync / omp barrier analogue).
//!
//! Three adapters are provided: [`SerialAdapter`] (the "most compatible
//! processor" baseline), [`CpuParallelAdapter`] (the OpenMP row of
//! Table II) and [`crate::gpu_sim::GpuSimAdapter`] (the CUDA/HIP rows,
//! executing on host workers while charging calibrated virtual time — see
//! the crate docs of `hpdr-sim` for why this substitution is faithful).
//!
//! New processors are supported by implementing this trait — the same
//! extension recipe the paper describes for Kokkos/SYCL back-ends.

use crate::error::Result;
use crate::pool::WorkerPool;
use hpdr_sim::{KernelClass, Ns};
use parking_lot::Mutex;
use std::time::Instant;

/// Which family of adapter this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdapterKind {
    /// Single-core CPU reference.
    Serial,
    /// Multi-core CPU (OpenMP analogue).
    CpuParallel,
    /// Simulated CUDA device.
    CudaSim,
    /// Simulated HIP device.
    HipSim,
}

impl AdapterKind {
    pub fn name(self) -> &'static str {
        match self {
            AdapterKind::Serial => "serial",
            AdapterKind::CpuParallel => "openmp",
            AdapterKind::CudaSim => "cuda-sim",
            AdapterKind::HipSim => "hip-sim",
        }
    }
}

/// Description of an adapter instance.
#[derive(Debug, Clone)]
pub struct AdapterInfo {
    /// Human-readable device name (e.g. "V100", "EPYC-64").
    pub device: String,
    pub kind: AdapterKind,
    /// Worker threads used for real execution.
    pub threads: usize,
}

/// Portable execution interface for the HPDR parallel abstractions.
pub trait DeviceAdapter: Send + Sync {
    fn info(&self) -> AdapterInfo;

    /// Execute the Group Execution Model: `groups` independent groups,
    /// each invoked exactly once with `staging_bytes` of exclusive
    /// scratch ("faster memory tier" in paper Fig. 3).
    ///
    /// Staging is not initialized, as GPU shared memory is not: a group
    /// gets it as the worker's previous group left it (zeros only on a
    /// freshly grown arena), so the body writes a byte before reading it.
    ///
    /// A panicking group body is reported as
    /// [`HpdrError::WorkerPanic`](crate::HpdrError::WorkerPanic) with the
    /// failing group index; the adapter (and the pool beneath it) remain
    /// usable afterwards.
    fn try_gem(
        &self,
        groups: usize,
        staging_bytes: usize,
        body: &(dyn Fn(usize, &mut [u8]) + Sync),
    ) -> Result<()>;

    /// Execute one Domain Execution Model stage: a global parallel-for
    /// over `n` items. Returning implies a whole-domain barrier. Panics
    /// in the body surface as `HpdrError::WorkerPanic` (see
    /// [`DeviceAdapter::try_gem`]).
    fn try_dem(&self, n: usize, body: &(dyn Fn(usize) + Sync)) -> Result<()>;

    /// Infallible DEM — the historical API. Re-raises worker panics on
    /// the calling thread.
    fn dem(&self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        if let Err(e) = self.try_dem(n, body) {
            panic!("{e}");
        }
    }

    /// Charge the virtual cost of one reduction kernel over `bytes` of
    /// input. No-op on real-time (CPU) adapters.
    fn charge(&self, class: KernelClass, bytes: u64);

    /// Reset the adapter's kernel clock (virtual or wall, see
    /// [`DeviceAdapter::uses_virtual_time`]).
    fn clock_reset(&self);

    /// Time elapsed on the kernel clock since the last reset.
    fn clock_elapsed(&self) -> Ns;

    /// Whether [`DeviceAdapter::clock_elapsed`] reports virtual time.
    fn uses_virtual_time(&self) -> bool {
        false
    }
}

/// Wall-clock implementation shared by the CPU adapters.
#[derive(Debug)]
pub(crate) struct WallClock {
    start: Mutex<Instant>,
}

impl WallClock {
    pub(crate) fn new() -> WallClock {
        WallClock {
            start: Mutex::new(Instant::now()),
        }
    }
    pub(crate) fn reset(&self) {
        *self.start.lock() = Instant::now();
    }
    pub(crate) fn elapsed(&self) -> Ns {
        Ns(self.start.lock().elapsed().as_nanos() as u64)
    }
}

/// Single-core reference adapter — the maximally-compatible processor the
/// paper says users fall back to without portability support.
pub struct SerialAdapter {
    name: String,
    clock: WallClock,
}

impl SerialAdapter {
    pub fn new() -> SerialAdapter {
        SerialAdapter {
            name: "serial-cpu".to_string(),
            clock: WallClock::new(),
        }
    }
}

impl Default for SerialAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceAdapter for SerialAdapter {
    fn info(&self) -> AdapterInfo {
        AdapterInfo {
            device: self.name.clone(),
            kind: AdapterKind::Serial,
            threads: 1,
        }
    }

    fn try_gem(
        &self,
        groups: usize,
        staging_bytes: usize,
        body: &(dyn Fn(usize, &mut [u8]) + Sync),
    ) -> Result<()> {
        WorkerPool::global()
            .run_with_scratch(1, groups, staging_bytes, body)
            .map_err(Into::into)
    }

    fn try_dem(&self, n: usize, body: &(dyn Fn(usize) + Sync)) -> Result<()> {
        WorkerPool::global()
            .run(1, n, usize::MAX, body)
            .map_err(Into::into)
    }

    fn charge(&self, _class: KernelClass, _bytes: u64) {}

    fn clock_reset(&self) {
        self.clock.reset();
    }

    fn clock_elapsed(&self) -> Ns {
        self.clock.elapsed()
    }
}

/// Multi-core CPU adapter — the Table II "OMP" column: groups are
/// parallelized across cores, each group's workload runs sequentially on
/// its core (exploiting cache locality within the group); DEM stages
/// parallelize the whole domain across all cores.
pub struct CpuParallelAdapter {
    name: String,
    threads: usize,
    /// Dynamic-schedule grain for DEM loops.
    grain: usize,
    clock: WallClock,
}

impl CpuParallelAdapter {
    pub fn new(threads: usize) -> CpuParallelAdapter {
        CpuParallelAdapter {
            name: format!("cpu-{threads}core"),
            threads: threads.max(1),
            grain: 1024,
            clock: WallClock::new(),
        }
    }

    pub fn with_defaults() -> CpuParallelAdapter {
        Self::new(crate::pool::default_threads())
    }
}

impl DeviceAdapter for CpuParallelAdapter {
    fn info(&self) -> AdapterInfo {
        AdapterInfo {
            device: self.name.clone(),
            kind: AdapterKind::CpuParallel,
            threads: self.threads,
        }
    }

    fn try_gem(
        &self,
        groups: usize,
        staging_bytes: usize,
        body: &(dyn Fn(usize, &mut [u8]) + Sync),
    ) -> Result<()> {
        WorkerPool::global()
            .run_with_scratch(self.threads, groups, staging_bytes, body)
            .map_err(Into::into)
    }

    fn try_dem(&self, n: usize, body: &(dyn Fn(usize) + Sync)) -> Result<()> {
        WorkerPool::global()
            .run(self.threads, n, self.grain, body)
            .map_err(Into::into)
    }

    fn charge(&self, _class: KernelClass, _bytes: u64) {}

    fn clock_reset(&self) {
        self.clock.reset();
    }

    fn clock_elapsed(&self) -> Ns {
        self.clock.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn exercise(adapter: &dyn DeviceAdapter) {
        // GEM: all groups run once with their own staging.
        let count = AtomicUsize::new(0);
        adapter
            .try_gem(17, 32, &|_, staging| {
                assert_eq!(staging.len(), 32);
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 17);
        // DEM: all items run once.
        let count = AtomicUsize::new(0);
        adapter.dem(1000, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn serial_adapter_executes_models() {
        let a = SerialAdapter::new();
        exercise(&a);
        assert_eq!(a.info().threads, 1);
        assert!(!a.uses_virtual_time());
    }

    #[test]
    fn cpu_adapter_executes_models() {
        let a = CpuParallelAdapter::new(4);
        exercise(&a);
        assert_eq!(a.info().threads, 4);
        assert_eq!(a.info().kind, AdapterKind::CpuParallel);
    }

    #[test]
    fn wall_clock_advances() {
        let a = SerialAdapter::new();
        a.clock_reset();
        std::hint::black_box((0..100_000).sum::<u64>());
        assert!(a.clock_elapsed() > Ns::ZERO);
    }

    #[test]
    fn try_gem_propagates_panic_and_stays_usable() {
        let a = CpuParallelAdapter::new(4);
        let err = a
            .try_gem(16, 8, &|g, _| {
                if g == 3 {
                    panic!("injected");
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::HpdrError::WorkerPanic { group: 3, .. }
        ));
        // Adapter still fully functional afterwards.
        exercise(&a);
    }

    #[test]
    fn try_dem_propagates_panic() {
        let a = SerialAdapter::new();
        let err = a
            .try_dem(10, &|i| {
                if i == 7 {
                    panic!("dem failure");
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::HpdrError::WorkerPanic { group: 7, .. }
        ));
    }

    #[test]
    fn dirty_policy_skips_zeroing_on_serial() {
        let a = SerialAdapter::new();
        // Serial adapter runs groups in order on one participant, so the
        // staging deterministically carries the previous group's fill.
        a.try_gem(4, 8, &|g, st| {
            if g > 0 {
                assert!(st.iter().all(|&b| b == g as u8));
            }
            st.fill(g as u8 + 1);
        })
        .expect("dirty gem");
    }

    #[test]
    fn kind_names() {
        assert_eq!(AdapterKind::Serial.name(), "serial");
        assert_eq!(AdapterKind::CpuParallel.name(), "openmp");
        assert_eq!(AdapterKind::CudaSim.name(), "cuda-sim");
        assert_eq!(AdapterKind::HipSim.name(), "hip-sim");
    }
}
