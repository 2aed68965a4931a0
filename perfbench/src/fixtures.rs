//! The four query fixtures every workload mixes, loaded once: their
//! workloads and grids, and local surfaces and runtimes over them for the
//! answer check and the direct layer timings.

use crate::gen::FIXTURES;
use rqp_core::RobustRuntime;
use rqp_ess::{Ess, EssConfig};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::sync::Arc;

/// The fixtures' workloads, in [`FIXTURES`] order.
pub struct Fixtures {
    pub workloads: Vec<Workload>,
}

impl Fixtures {
    pub fn load() -> Result<Fixtures, String> {
        let workloads = FIXTURES
            .iter()
            .map(|q| Workload::by_name(q).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Fixtures { workloads })
    }

    /// The coarse default surface configuration of fixture `f`.
    pub fn config(&self, f: usize) -> EssConfig {
        EssConfig::coarse(self.workloads[f].query.dims())
    }

    pub fn optimizer(&self, f: usize) -> Optimizer<'_> {
        let w = &self.workloads[f];
        Optimizer::new(&w.catalog, &w.query, CostModel::default())
    }

    /// Grid cells of each fixture's surface.
    pub fn cells(&self) -> Vec<usize> {
        (0..self.workloads.len())
            .map(|f| self.config(f).resolution.pow(self.workloads[f].query.dims() as u32))
            .collect()
    }

    /// Compile every fixture's surface locally, one at a time.
    pub fn compile(&self) -> Result<Vec<Arc<Ess>>, String> {
        (0..self.workloads.len())
            .map(|f| {
                Ess::compile(&self.optimizer(f), self.config(f))
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// One runtime per fixture over the shared `surfaces`.
    pub fn runtimes(&self, surfaces: &[Arc<Ess>]) -> Result<Vec<RobustRuntime<'_>>, String> {
        self.workloads
            .iter()
            .zip(surfaces)
            .map(|(w, ess)| {
                RobustRuntime::with_shared_ess(
                    &w.catalog,
                    &w.query,
                    CostModel::default(),
                    Arc::clone(ess),
                )
                .map_err(|e| e.to_string())
            })
            .collect()
    }
}
