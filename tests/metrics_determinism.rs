//! The observability layer's hard contract, pinned: metrics draw no RNG and never
//! branch on observed values, so turning the registry on cannot move a single SDC
//! count.
//!
//! The pin runs the same LeNet campaign twice — registry off, then registry on — for
//! every (workers × batch × backend) combination, and requires the tallies to be
//! **bit-for-bit** identical. A second assertion block checks the flip side: the
//! metrics-on runs really did record (per-op plan timings, campaign histograms, trial
//! counts and the fault cone's masked-trial count), so the equality above is not
//! vacuous.
//!
//! The enable flag is process-global, so this file keeps everything in one `#[test]`
//! (the same discipline as the graph and runtime metric tests) and restores the flag
//! it found.

use ranger_engine::canonical_input;
use ranger_graph::BackendKind;
use ranger_inject::{run_campaign, CampaignConfig, ClassifierJudge, FaultModel, InjectionTarget};
use ranger_models::{archs, ModelConfig, ModelKind};

#[test]
fn sdc_counts_are_bit_for_bit_identical_with_metrics_on_and_off() {
    let model = archs::build(&ModelConfig::new(ModelKind::LeNet), 3);
    let inputs = vec![canonical_input(&model)];
    let judge = ClassifierJudge::top1();
    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };

    let was_enabled = ranger_obs::enabled();
    for (backend, fault) in [
        (BackendKind::F32, FaultModel::single_bit_fixed32()),
        (BackendKind::Simd, FaultModel::single_bit_fixed32()),
        (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
    ] {
        for workers in [1usize, 4] {
            for batch in [1usize, 16, 64] {
                let config = CampaignConfig {
                    trials: 64,
                    batch,
                    workers,
                    backend,
                    fault,
                    seed: 31,
                    tile: 0,
                };
                ranger_obs::set_enabled(false);
                let off = run_campaign(&target, &inputs, &judge, &config).unwrap();
                ranger_obs::set_enabled(true);
                let on = run_campaign(&target, &inputs, &judge, &config).unwrap();
                let grid = format!("backend {backend}, workers {workers}, batch {batch}");
                assert_eq!(
                    off.sdc_counts, on.sdc_counts,
                    "metrics moved the SDC counts on {grid}"
                );
                assert_eq!(
                    off.unactivated, on.unactivated,
                    "metrics moved the unactivated tally on {grid}"
                );
                assert_eq!(
                    off.trials, on.trials,
                    "metrics moved the trial count on {grid}"
                );
            }
        }
    }

    // The equality above must not be vacuous: the metrics-on runs really recorded.
    let snapshot = ranger_obs::registry().snapshot();
    assert!(
        snapshot.counter("campaign.trials").unwrap_or(0) >= 16,
        "the enabled runs must have counted their trials"
    );
    assert!(
        snapshot.counters_with_prefix("plan.op.").next().is_some(),
        "the enabled runs must have published per-op plan timings"
    );
    assert!(
        snapshot.histogram("campaign.faulty_pass_nanos").is_some(),
        "the enabled runs must have a faulty-pass latency histogram"
    );
    assert!(
        snapshot.counter("campaign.trials_masked").unwrap_or(0) > 0,
        "the enabled runs must have counted trials whose fault was masked"
    );
    ranger_obs::set_enabled(was_enabled);
}
