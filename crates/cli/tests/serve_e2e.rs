//! The kill-and-resume smoke test: a real `ranger-cli serve` process is SIGKILLed in
//! the middle of a campaign, restarted on the same checkpoint directory, and must
//! finish with counts identical to an uninterrupted in-process run.

use ranger_serve::{CampaignEvent, CampaignSpec, Client, ModelSpec};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ranger-cli-e2e-{}-{name}", std::process::id()))
}

/// Starts `ranger-cli serve` on an ephemeral port and returns the child, the address it
/// announced on stdout, and the stdout reader — which must stay alive as long as the
/// child does, or the server's final log line hits a broken pipe.
fn start_server(checkpoints: &Path) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let stderr = std::fs::File::create(checkpoints.with_extension("server-stderr.log"))
        .expect("stderr log file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ranger-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--checkpoints",
            checkpoints.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("serve process starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server announces its address");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
        .to_string();
    (child, addr, reader)
}

fn wait_until<F: FnMut() -> bool>(mut ready: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_sigkilled_server_resumes_to_the_exact_uninterrupted_counts() {
    let checkpoints = tmp_dir("kill-resume");
    let _ = std::fs::remove_dir_all(&checkpoints);

    // A campaign with a partition wide enough that the kill lands mid-flight.
    let spec = CampaignSpec {
        model: ModelSpec::Kind {
            name: "lenet".to_string(),
        },
        inputs: 2,
        config: ranger_inject::CampaignConfig {
            trials: 60,
            batch: 1,
            workers: 2,
            backend: ranger_inject::BackendKind::F32,
            fault: ranger_inject::FaultModel::single_bit_fixed32(),
            seed: 29,
            tile: 0,
        },
    };

    // Ground truth: the same campaign, uninterrupted, through the in-process API.
    let materialized = spec.materialize().unwrap();
    let reference = ranger_inject::run_campaign(
        &materialized.target(),
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();

    // Leg 1: submit, wait for partial progress, SIGKILL the server mid-campaign.
    let (mut child, addr, _stdout) = start_server(&checkpoints);
    let client = Client::new(addr);
    let submitted = client.submit(&spec).unwrap();
    assert_eq!(submitted.resumed_chunks, 0);
    assert!(submitted.total_chunks >= 4, "need room to kill mid-flight");
    wait_until(
        || {
            client
                .status(&submitted.id)
                .map(|s| s.done_chunks >= 1)
                .unwrap_or(false)
        },
        "the first chunk to complete",
    );
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();

    // Leg 2: a fresh server on the same checkpoint directory resumes the campaign from
    // its durable prefix when the identical spec is resubmitted.
    let (mut child, addr, _stdout) = start_server(&checkpoints);
    let client = Client::new(addr.as_str());
    let resubmitted = client.submit(&spec).unwrap();
    assert_eq!(resubmitted.id, submitted.id, "same spec, same fingerprint");
    assert!(
        resubmitted.resumed_chunks >= 1,
        "the killed run's durable chunks must be picked up"
    );

    // Stream to completion: the replayed prefix arrives flagged as resumed, tallies are
    // monotone, and the final event is bit-for-bit the uninterrupted result.
    let mut last_trials = 0u64;
    let mut resumed_chunks_seen = 0usize;
    let mut final_result = None;
    let state = client
        .stream(&resubmitted.id, |event| {
            assert!(
                event.trials_done() >= last_trials,
                "tallies must be monotone"
            );
            last_trials = event.trials_done();
            match event {
                CampaignEvent::ChunkDone { resumed: true, .. } => resumed_chunks_seen += 1,
                CampaignEvent::CampaignDone { result } => final_result = Some(result.clone()),
                _ => {}
            }
        })
        .unwrap();
    assert_eq!(state, "done");
    assert_eq!(resumed_chunks_seen, resubmitted.resumed_chunks);
    assert_eq!(
        final_result.expect("stream ends with CampaignDone"),
        reference,
        "a killed-and-resumed campaign must reproduce the uninterrupted counts exactly"
    );

    // The status endpoint agrees.
    let status = client.status(&resubmitted.id).unwrap();
    assert_eq!(status.state, "done");
    assert_eq!(status.trials_done, reference.trials);
    assert_eq!(status.sdc_counts, reference.sdc_counts);

    // Leg 3: a batch-64 campaign submitted through `ranger-cli submit` is accepted and
    // finishes with the per-sample counts. Both sides take the default backend, so the
    // RANGER_BACKEND sweeps cover it.
    let output = Command::new(env!("CARGO_BIN_EXE_ranger-cli"))
        .args([
            "submit", "--addr", &addr, "--model", "lenet", "--inputs", "1",
        ])
        .args([
            "--trials",
            "64",
            "--batch",
            "64",
            "--workers",
            "1",
            "--seed",
            "7",
        ])
        .output()
        .expect("submit process runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "submit failed: {stdout}");
    let id = stdout
        .split_whitespace()
        .nth(2)
        .unwrap_or_else(|| panic!("unexpected submit output: {stdout}"));
    let mut batched = None;
    client
        .stream(id, |event| {
            if let CampaignEvent::CampaignDone { result } = event {
                batched = Some(result.clone());
            }
        })
        .unwrap();
    let materialized = CampaignSpec {
        inputs: 1,
        config: ranger_inject::CampaignConfig {
            trials: 64,
            batch: 1,
            workers: 1,
            seed: 7,
            ..ranger_inject::CampaignConfig::default()
        },
        ..spec.clone()
    }
    .materialize()
    .unwrap();
    let per_sample = ranger_inject::run_campaign(
        &materialized.target(),
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();
    assert_eq!(batched.expect("stream ends with CampaignDone"), per_sample);

    // Shutdown stops the server cleanly.
    client.shutdown().unwrap();
    let exit = child.wait().expect("server exits after shutdown");
    assert!(exit.success(), "serve must exit cleanly, got {exit:?}");

    let _ = std::fs::remove_dir_all(&checkpoints);
}
