//! Helpers shared by the parity suites (`pipeline_parity.rs`, `backend_parity.rs`).

use ranger_graph::exec::NoopInterceptor;
use ranger_graph::{ExecBackend, ReferenceBackend};
use ranger_inject::{
    trial_rng, CampaignConfig, FaultInjector, InjectionSpace, InjectionTarget, SdcJudge,
};
use ranger_tensor::Tensor;

/// The SDC counts and unactivated tally of `config` computed the long way: one full
/// `ExecPlan` pass per trial, plans drawn from the canonical per-(input, trial) streams.
/// An `f32` configuration (`F32` or its `simd` alias) runs on the reference oracle,
/// `ReferenceBackend`; a fixed-point one on its own backend.
pub fn full_pass_counts(
    target: &InjectionTarget<'_>,
    inputs: &[Tensor],
    judge: &dyn SdcJudge,
    config: &CampaignConfig,
) -> (Vec<u64>, u64) {
    let backend: &dyn ExecBackend = match config.backend.spec() {
        None => &ReferenceBackend,
        Some(_) => config.backend.backend(),
    };
    let plan = target.graph.compile_with(backend).unwrap();
    let mut values = plan.buffers();
    let mut counts = vec![0u64; judge.categories().len()];
    let mut unactivated = 0u64;
    for (i, input) in inputs.iter().enumerate() {
        let feeds = [(target.input_name, input.clone())];
        let golden_pass = plan.run(&feeds, &mut NoopInterceptor).unwrap();
        let golden = golden_pass.get(target.output).unwrap().clone();
        let space = InjectionSpace::from_pass(&plan, &golden_pass, target.excluded).unwrap();
        for t in 0..config.trials {
            let mut rng = trial_rng(config.seed, i, t);
            let mut injector = FaultInjector::plan_random(config.fault, &space, &mut rng);
            plan.run_into(&mut values, &feeds, &mut injector).unwrap();
            let faulty = values.get(target.output).unwrap();
            for (count, sdc) in counts.iter_mut().zip(judge.judge(&golden, faulty)) {
                *count += u64::from(sdc);
            }
            unactivated += u64::from(!injector.fully_injected());
        }
    }
    (counts, unactivated)
}
