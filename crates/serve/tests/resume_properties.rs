//! The resumability property, pinned as a proptest: for ANY chunk partition, ANY kill
//! point, ANY worker count, batching mode and backend (f32, fixed16 or the
//! runtime-dispatched SIMD path), a campaign that is stopped after
//! `k` chunks and then re-driven from its checkpoint finishes with bit-for-bit the SDC,
//! trial and unactivated counts of an uninterrupted `run_campaign`.
//!
//! This is the property that makes the checkpoint store trustworthy: fault plans are
//! keyed by `(input, trial)` index, never by schedule, so the partition and the resume
//! point are pure bookkeeping.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use ranger_graph::{Graph, GraphBuilder, NodeId};
use ranger_inject::{
    run_campaign, BackendKind, CampaignConfig, ClassifierJudge, FaultModel, InjectionTarget,
    PreparedCampaign, SdcJudge,
};
use ranger_runtime::ThreadPool;
use ranger_serve::campaign_fingerprint;
use ranger_serve::{
    drive, CampaignEvent, CheckpointStore, ChunkRecord, CollectSink, DriveOutcome, NullSink,
};
use ranger_tensor::Tensor;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

fn toy_classifier(seed: u64) -> (Graph, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let h = b.dense(x, 6, 12, &mut rng);
    let h = b.relu(h);
    let h = b.dense(h, 12, 8, &mut rng);
    let h = b.relu(h);
    let y = b.dense(h, 8, 4, &mut rng);
    let probs = b.softmax(y);
    (b.into_graph(), probs)
}

fn tmp(name: String) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ranger-serve-resume-{}-{name}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_partition_and_resume_point_reproduces_the_uninterrupted_counts(
        chunk_len in 1usize..8,
        kill_after in 0usize..24,
        workers in 1usize..5,
        batched in 0u8..2,
        backend_choice in 0u8..3,
        seed in 0u64..1000,
    ) {
        let batched = batched == 1;
        let (graph, probs) = toy_classifier(seed.wrapping_mul(3).wrapping_add(1));
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6]), Tensor::filled(vec![1, 6], 0.3)];
        let judge = ClassifierJudge::top1();
        let (backend, fault) = match backend_choice {
            0 => (BackendKind::F32, FaultModel::single_bit_fixed32()),
            1 => (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
            // The SIMD backend computes f32 semantics, so it pairs with the same
            // emulated fault model as the reference.
            _ => (BackendKind::Simd, FaultModel::single_bit_fixed32()),
        };
        let config = CampaignConfig {
            trials: 10,
            // Batched execution requires chunk_len == batch; the partition under test
            // doubles as the batch size when batching is on.
            batch: if batched { chunk_len } else { 1 },
            workers,
            backend,
            fault,
            seed,
            tile: 0,
        };

        // Ground truth: the uninterrupted in-process API.
        let reference = run_campaign(&target, &inputs, &judge, &config).unwrap();

        let prepared =
            PreparedCampaign::with_chunk_len(&target, &inputs, &judge, &config, chunk_len)
                .unwrap();
        let total_chunks = prepared.chunks().len();
        let fingerprint = campaign_fingerprint(
            &target, &inputs, &config, &judge.categories(), chunk_len,
        ).unwrap();
        let pool = ThreadPool::new(workers);
        let path = tmp(format!(
            "{chunk_len}-{kill_after}-{workers}-{batched}-{backend_choice}-{seed}"
        ));
        let _ = std::fs::remove_file(&path);

        // Leg 1: run until the sink "kills" the campaign after `kill_after` chunks.
        {
            let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
            let cancel = AtomicBool::new(false);
            let mut sink = CollectSink::stopping_after(kill_after);
            let outcome = drive(&prepared, &mut store, &pool, &cancel, &mut sink).unwrap();
            match outcome {
                DriveOutcome::Stopped(_) => prop_assert!(kill_after <= total_chunks),
                // A kill point past the end never fires: the campaign just completes.
                DriveOutcome::Completed(result) => {
                    prop_assert!(kill_after >= total_chunks);
                    prop_assert_eq!(&result, &reference);
                }
            }
        }

        // Leg 2: a fresh driver resumes from the checkpoint and must finish with the
        // reference counts exactly, replaying the durable prefix as resumed chunks.
        let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
        let durable_before = store.len();
        prop_assert!(
            durable_before >= kill_after.min(total_chunks),
            "every chunk the sink observed must be durable: {} < {}",
            durable_before, kill_after.min(total_chunks)
        );
        let cancel = AtomicBool::new(false);
        let mut sink = CollectSink::new();
        let resumed_result = match drive(&prepared, &mut store, &pool, &cancel, &mut sink)
            .unwrap()
        {
            DriveOutcome::Completed(result) => result,
            other => panic!("the resumed drive must complete, got {other:?}"),
        };
        prop_assert_eq!(&resumed_result, &reference);
        prop_assert_eq!(store.len(), total_chunks);

        // The replayed stream is indistinguishable from an uninterrupted one: chunks in
        // canonical order, the durable prefix flagged as resumed, tallies monotone.
        let mut expected_index = 0usize;
        let mut last_trials = 0u64;
        let mut resumed_seen = 0usize;
        for event in &sink.events {
            prop_assert!(event.trials_done() >= last_trials);
            last_trials = event.trials_done();
            if let CampaignEvent::ChunkDone { chunk, resumed, .. } = event {
                prop_assert_eq!(chunk.index, expected_index);
                expected_index += 1;
                if *resumed {
                    resumed_seen += 1;
                }
            }
        }
        prop_assert_eq!(expected_index, total_chunks);
        prop_assert_eq!(resumed_seen, durable_before);

        // Leg 3: driving the finished campaign again replays everything from the log —
        // zero forward passes — and still reports the identical result.
        drop(store);
        let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
        let cancel = AtomicBool::new(false);
        let replayed = match drive(&prepared, &mut store, &pool, &cancel, &mut NullSink).unwrap() {
            DriveOutcome::Completed(result) => result,
            other => panic!("the fully-checkpointed drive must complete, got {other:?}"),
        };
        prop_assert_eq!(&replayed, &reference);

        let _ = std::fs::remove_file(&path);
    }

    /// A checkpoint with holes — every other chunk durable, as a crashed parallel run
    /// can leave it — is finished by one drive: the pending chunks are leased as many
    /// separate runs, and the stream still replays in canonical order with exactly the
    /// durable chunks flagged as resumed.
    #[test]
    fn every_other_chunk_on_record_resumes_to_the_uninterrupted_counts(
        chunk_len in 1usize..6,
        parity in 0usize..2,
        workers in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (graph, probs) = toy_classifier(seed.wrapping_mul(5).wrapping_add(2));
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: probs,
            excluded: &[],
        };
        let inputs = vec![Tensor::ones(vec![1, 6]), Tensor::filled(vec![1, 6], 0.3)];
        let judge = ClassifierJudge::top1();
        let config = CampaignConfig {
            trials: 10,
            batch: 1,
            workers,
            seed,
            ..CampaignConfig::default()
        };
        let reference = run_campaign(&target, &inputs, &judge, &config).unwrap();
        let prepared =
            PreparedCampaign::with_chunk_len(&target, &inputs, &judge, &config, chunk_len)
                .unwrap();
        let total_chunks = prepared.chunks().len();
        let fingerprint = campaign_fingerprint(
            &target, &inputs, &config, &judge.categories(), chunk_len,
        ).unwrap();
        let path = tmp(format!("holes-{chunk_len}-{parity}-{workers}-{seed}"));
        let _ = std::fs::remove_file(&path);

        {
            let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
            let mut values = prepared.buffers();
            for &chunk in prepared.chunks().iter().skip(parity).step_by(2) {
                let tally = prepared.run_chunk(&mut values, chunk).unwrap();
                store.append(&ChunkRecord { chunk, tally }).unwrap();
            }
        }

        let mut store = CheckpointStore::open(&path, &fingerprint).unwrap();
        let durable_before = store.len();
        let cancel = AtomicBool::new(false);
        let mut sink = CollectSink::new();
        let pool = ThreadPool::new(workers);
        let result = match drive(&prepared, &mut store, &pool, &cancel, &mut sink).unwrap() {
            DriveOutcome::Completed(result) => result,
            other => panic!("the resumed drive must complete, got {other:?}"),
        };
        prop_assert_eq!(&result, &reference);
        prop_assert_eq!(store.len(), total_chunks);

        let mut expected_index = 0usize;
        let mut last_trials = 0u64;
        for event in &sink.events {
            prop_assert!(event.trials_done() >= last_trials);
            last_trials = event.trials_done();
            if let CampaignEvent::ChunkDone { chunk, resumed, .. } = event {
                prop_assert_eq!(chunk.index, expected_index);
                prop_assert_eq!(*resumed, chunk.index % 2 == parity);
                expected_index += 1;
            }
        }
        prop_assert_eq!(expected_index, total_chunks);
        prop_assert_eq!(durable_before, (total_chunks + 1 - parity) / 2);
        let dones = sink.events.iter()
            .filter(|e| matches!(e, CampaignEvent::CampaignDone { .. }))
            .count();
        prop_assert_eq!(dones, 1);

        let _ = std::fs::remove_file(&path);
    }
}
