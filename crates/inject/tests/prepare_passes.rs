//! Preparing a campaign runs exactly one full forward pass per input: that pass is the
//! input's golden output, its cone snapshot and its injection space, and input 0's pass
//! also warms the plan.
//!
//! The count is read from the plan's pass counter, which exists only with metrics on.
//! The enable flag is process-global, so this file holds exactly one test.

use rand::{rngs::StdRng, SeedableRng};
use ranger_graph::GraphBuilder;
use ranger_inject::{
    BackendKind, CampaignConfig, ClassifierJudge, FaultModel, InjectionTarget, PreparedCampaign,
};
use ranger_tensor::Tensor;

#[test]
fn preparing_a_campaign_runs_one_full_pass_per_input() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let h = b.dense(x, 5, 8, &mut rng);
    let h = b.relu(h);
    let y = b.dense(h, 8, 3, &mut rng);
    let probs = b.softmax(y);
    let graph = b.into_graph();
    let target = InjectionTarget {
        graph: &graph,
        input_name: "x",
        output: probs,
        excluded: &[],
    };
    let judge = ClassifierJudge::top1();
    let registry = ranger_obs::registry();
    let was_enabled = ranger_obs::enabled();
    ranger_obs::set_enabled(true);
    for (backend, fault) in [
        (BackendKind::F32, FaultModel::single_bit_fixed32()),
        (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
    ] {
        let config = CampaignConfig {
            trials: 8,
            batch: 1,
            workers: 1,
            backend,
            fault,
            seed: 1,
            tile: 0,
        };
        for n in [1usize, 3] {
            let inputs: Vec<Tensor> = (0..n)
                .map(|i| Tensor::filled(vec![1, 5], 0.2 * i as f32 - 0.3))
                .collect();
            let passes = registry.counter("plan.passes");
            let before = passes.value();
            let prepared = PreparedCampaign::new(&target, &inputs, &judge, &config).unwrap();
            prepared.publish_metrics();
            assert_eq!(
                passes.value() - before,
                n as u64,
                "{backend}: preparing over {n} input(s) must run {n} full pass(es)"
            );
            assert_eq!(prepared.goldens().len(), n);
        }
    }
    ranger_obs::set_enabled(was_enabled);
}
