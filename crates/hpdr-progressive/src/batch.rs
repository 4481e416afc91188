//! Shared-launch adapter: progressive retrieval as an
//! [`hpdr_pipeline::BatchItem`], so the serving layer folds
//! `Retrieve` jobs into continuous batches alongside compress and
//! decompress work. Components interleave round-robin with other
//! jobs' chunks exactly like pipeline chunks do.

use crate::job::RetrieveJob;
use crate::refactoring::Refactoring;
use hpdr_core::{ArrayMeta, DeviceAdapter, Result};
use hpdr_pipeline::{BatchItem, ExternalBatchJob, SubmittedBatchJob};
use hpdr_sim::{DeviceId, Sim};
use std::sync::Arc;

/// A progressive-retrieval request ready to ride in a shared launch.
pub struct RetrieveBatchItem {
    pub set: Arc<Refactoring>,
    /// Absolute L∞ tolerance the retrieval plans for.
    pub tolerance: f64,
}

impl RetrieveBatchItem {
    /// Wrap into a [`BatchItem`] for [`hpdr_pipeline::run_batch`].
    pub fn into_item(self) -> BatchItem {
        BatchItem::External(Box::new(self))
    }
}

impl ExternalBatchJob for RetrieveBatchItem {
    fn raw_bytes(&self) -> u64 {
        self.set.manifest.meta.num_bytes() as u64
    }

    fn build(
        &self,
        sim: &mut Sim,
        dev: DeviceId,
        work: Arc<dyn DeviceAdapter>,
    ) -> Result<Box<dyn SubmittedBatchJob>> {
        let job = RetrieveJob::new(sim, dev, work, Arc::clone(&self.set), self.tolerance)?;
        Ok(Box::new(job))
    }
}

impl SubmittedBatchJob for RetrieveJob {
    fn num_chunks(&self) -> usize {
        self.num_components()
    }

    fn submit_chunk(&mut self, sim: &mut Sim, k: usize) {
        RetrieveJob::submit_component(self, sim, k);
    }

    fn finish_submission(&mut self, sim: &mut Sim) {
        RetrieveJob::finish_submission(self, sim);
    }

    fn finish(self: Box<Self>) -> Result<(Vec<u8>, ArrayMeta)> {
        (*self).finish()
    }
}
