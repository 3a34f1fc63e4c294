//! Chunk-failure reporting is one rule for both executors: a local `drive` and a
//! remote `work` loop run chunks through the same pool executor, so both report the
//! failure of the lowest chunk index — bare when it is the only one, wrapped in
//! `CampaignError::Failures` only when others were suppressed behind it.

use ranger_graph::NodeId;
use ranger_inject::{BackendKind, CampaignConfig, CampaignError, FaultModel, PreparedCampaign};
use ranger_models::{archs, ModelConfig, ModelKind};
use ranger_runtime::ThreadPool;
use ranger_serve::{
    drive, work, CampaignServer, CampaignSpec, CheckpointStore, Client, ModelSpec, NullSink,
    SavedModel, ServeError, WorkOptions,
};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ranger-serve-failure-{}-{name}",
        std::process::id()
    ))
}

/// A LeNet with every operator excluded from injection: golden passes succeed, and
/// every chunk fails because its input's injection space is empty. Two chunks, one
/// worker, so the first failure stops the second chunk from ever starting.
fn failing_spec(dir: &std::path::Path) -> CampaignSpec {
    let seed = 13;
    let mut model = archs::build(&ModelConfig::new(ModelKind::LeNet), seed);
    model.excluded_from_injection = (0..model.graph.len()).map(NodeId::new).collect();
    let path = dir.join("excluded-lenet.json");
    SavedModel {
        model,
        seed,
        protected: false,
        percentile: None,
    }
    .save(&path)
    .unwrap();
    CampaignSpec {
        model: ModelSpec::Path {
            path: path.display().to_string(),
        },
        inputs: 1,
        config: CampaignConfig {
            trials: 8,
            batch: 4,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed,
            tile: 0,
        },
    }
}

/// Asserts `error` is a bare (unwrapped) chunk failure and returns its message.
fn lone_failure(error: ServeError) -> String {
    match error {
        ServeError::Campaign(CampaignError::Failures { .. }) => {
            panic!("a lone chunk failure must not be wrapped: {error}")
        }
        ServeError::Campaign(error) => error.to_string(),
        other => panic!("expected a campaign error, got {other:?}"),
    }
}

#[test]
fn a_lone_chunk_failure_is_reported_bare_by_drive_and_by_work() {
    let dir = tmp_dir("lone");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = failing_spec(&dir);

    // Local: the drive executor.
    let materialized = spec.materialize().unwrap();
    let id = materialized.fingerprint().unwrap();
    let target = materialized.target();
    let prepared = PreparedCampaign::new(
        &target,
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();
    assert_eq!(prepared.chunks().len(), 2);
    let mut store = CheckpointStore::open(&dir.join("local.jsonl"), &id).unwrap();
    let cancel = AtomicBool::new(false);
    let error = drive(
        &prepared,
        &mut store,
        &ThreadPool::new(1),
        &cancel,
        &mut NullSink,
    )
    .unwrap_err();
    let local = lone_failure(error);
    assert!(local.contains("empty injection space"), "{local}");
    assert!(store.is_empty(), "a failed chunk is never made durable");

    // Remote: a worker joining a coordinated campaign reports the same failure.
    let server = CampaignServer::bind("127.0.0.1:0", dir.join("coordinator")).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.clone());
    let submitted = client.submit_remote(&spec).unwrap();
    assert_eq!(submitted.id, id);
    let options = WorkOptions {
        worker: "solo".to_string(),
        ..WorkOptions::default()
    };
    let error = work(&addr, &id, &options, |_| {}).unwrap_err();
    assert_eq!(lone_failure(error), local);

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
