//! End-to-end service acceptance over a real TCP socket: a streaming client observes
//! monotonically increasing tallies whose final event is bit-for-bit the in-process
//! API's `CampaignResult`, and re-submitting a finished campaign replays it entirely
//! from its checkpoint.

use ranger_inject::{run_campaign, BackendKind, CampaignConfig, FaultModel};
use ranger_serve::{
    CampaignEvent, CampaignServer, CampaignSpec, Client, ModelSpec, Request, Response, ServeError,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ranger-serve-stream-{}-{name}", std::process::id()))
}

fn small_lenet_spec() -> CampaignSpec {
    CampaignSpec {
        model: ModelSpec::Kind {
            name: "lenet".to_string(),
        },
        inputs: 2,
        config: CampaignConfig {
            trials: 6,
            batch: 1,
            workers: 2,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 11,
            tile: 0,
        },
    }
}

#[test]
fn streamed_tallies_are_monotone_and_end_in_the_in_process_result() {
    let dir = tmp_dir("monotone");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = small_lenet_spec();

    // The ground truth: the same campaign through the in-process API.
    let materialized = spec.materialize().unwrap();
    let reference = run_campaign(
        &materialized.target(),
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();

    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    let submitted = client.submit(&spec).unwrap();
    assert_eq!(submitted.id.len(), 32, "the campaign id is its fingerprint");
    assert_eq!(submitted.resumed_chunks, 0, "fresh campaign, fresh log");
    assert!(
        submitted.total_chunks > 1,
        "the partition must be non-trivial"
    );

    let mut events = Vec::new();
    let state = client
        .stream(&submitted.id, |event| events.push(event.clone()))
        .unwrap();
    assert_eq!(state, "done");

    // Shape: one GoldenDone, total_chunks ChunkDones in index order, one CampaignDone.
    assert!(
        matches!(events.first(), Some(CampaignEvent::GoldenDone { .. })),
        "the stream must open with GoldenDone, got {:?}",
        events.first()
    );
    let chunk_indices: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::ChunkDone { chunk, .. } => Some(chunk.index),
            _ => None,
        })
        .collect();
    assert_eq!(
        chunk_indices,
        (0..submitted.total_chunks).collect::<Vec<_>>(),
        "chunk events arrive in canonical order whatever the completion order was"
    );

    // Monotonicity: trials and every per-category SDC count never decrease.
    let mut last_trials = 0u64;
    let mut last_counts: Vec<u64> = Vec::new();
    for event in &events {
        assert!(
            event.trials_done() >= last_trials,
            "tallies must be monotone, {} after {last_trials}",
            event.trials_done()
        );
        last_trials = event.trials_done();
        if let CampaignEvent::ChunkDone { cumulative, .. } = event {
            if !last_counts.is_empty() {
                for (now, before) in cumulative.sdc_counts.iter().zip(&last_counts) {
                    assert!(now >= before, "SDC counts must be monotone");
                }
            }
            last_counts = cumulative.sdc_counts.clone();
        }
    }

    // The final event is bit-for-bit the in-process API's result.
    match events.last() {
        Some(CampaignEvent::CampaignDone { result }) => assert_eq!(result, &reference),
        other => panic!("stream must end with CampaignDone, got {other:?}"),
    }

    // Status agrees after completion.
    let status = client.status(&submitted.id).unwrap();
    assert_eq!(status.state, "done");
    assert_eq!(status.trials_done, reference.trials);
    assert_eq!(status.trials_total, reference.trials);
    assert_eq!(status.done_chunks, submitted.total_chunks);
    assert_eq!(status.sdc_counts, reference.sdc_counts);

    // Re-submitting the identical spec resumes: every chunk replays from the
    // checkpoint and the final result is identical.
    let resubmitted = client.submit(&spec).unwrap();
    assert_eq!(resubmitted.id, submitted.id, "same spec, same fingerprint");
    assert_eq!(resubmitted.resumed_chunks, submitted.total_chunks);
    let mut replay = Vec::new();
    let state = client
        .stream(&resubmitted.id, |event| replay.push(event.clone()))
        .unwrap();
    assert_eq!(state, "done");
    let all_resumed = replay
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::ChunkDone { resumed, .. } => Some(*resumed),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(all_resumed.len(), submitted.total_chunks);
    assert!(
        all_resumed.iter().all(|&r| r),
        "a finished campaign replays without re-running a single trial"
    );
    match replay.last() {
        Some(CampaignEvent::CampaignDone { result }) => assert_eq!(result, &reference),
        other => panic!("replay must end with CampaignDone, got {other:?}"),
    }

    // Unknown campaigns are named in the error.
    let err = client.status("deadbeef").unwrap_err();
    assert!(matches!(err, ServeError::Protocol(_)), "got {err:?}");
    assert!(err.to_string().contains("deadbeef"));

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_a_campaign_and_resubmit_completes_it_with_identical_counts() {
    let dir = tmp_dir("cancel");
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = small_lenet_spec();
    spec.config.trials = 12;
    spec.config.seed = 23;

    let materialized = spec.materialize().unwrap();
    let reference = run_campaign(
        &materialized.target(),
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();

    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    let submitted = client.submit(&spec).unwrap();
    // Cancel immediately: whatever chunks were in flight are checkpointed, the rest
    // are skipped. The stream still terminates cleanly.
    client.cancel(&submitted.id).unwrap();
    let state = client.stream(&submitted.id, |_| {}).unwrap();
    assert!(
        state == "cancelled" || state == "done",
        "a cancelled campaign ends as cancelled (or done, if it outran the cancel): {state}"
    );

    // Re-submit until done: the service resumes from the checkpoint each time and the
    // final counts are exactly the uninterrupted in-process result.
    let mut last = Vec::new();
    for _ in 0..20 {
        let resubmitted = client.submit(&spec).unwrap();
        assert_eq!(resubmitted.id, submitted.id);
        last.clear();
        let state = client
            .stream(&resubmitted.id, |event| last.push(event.clone()))
            .unwrap();
        if state == "done" {
            break;
        }
    }
    match last.last() {
        Some(CampaignEvent::CampaignDone { result }) => assert_eq!(result, &reference),
        other => panic!("the resumed campaign must finish with CampaignDone, got {other:?}"),
    }

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seed above 2^53 − 1 cannot cross the wire exactly (JSON numbers are doubles:
/// 2^53 + 1 arrives as 2^53), so the server must refuse the request with an error line
/// instead of silently running a different campaign than the client asked for.
#[test]
fn a_seed_beyond_the_exact_json_range_is_refused_and_never_run() {
    let dir = tmp_dir("seed-2-53");
    let _ = std::fs::remove_dir_all(&dir);
    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    let mut spec = small_lenet_spec();
    spec.config.seed = (1 << 53) + 1;
    // The literal digits on the wire, exactly as a non-Rust client would send them.
    let line = serde_json::to_string(&Request::Submit { spec: spec.clone() })
        .unwrap()
        .replace("9007199254740992", "9007199254740993");
    assert!(line.contains("9007199254740993"), "{line}");
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "{line}").unwrap();
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).unwrap();
    match serde_json::from_str::<Response>(answer.trim()).unwrap() {
        Response::Error { message } => assert!(message.contains("2^53 - 1"), "{message}"),
        other => panic!("the request must be refused with an error line, got {other:?}"),
    }
    // The Rust client's own submit is refused the same way.
    match client.submit(&spec).unwrap_err() {
        ServeError::Protocol(message) => assert!(message.contains("2^53 - 1"), "{message}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }

    // Never run: the rounded campaign is unknown and no checkpoint was opened.
    spec.config.seed = 1 << 53;
    let rounded = spec.materialize().unwrap().fingerprint().unwrap();
    assert!(client.status(&rounded).is_err());
    let checkpoints = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(
        checkpoints, 0,
        "no checkpoint may be written for a refused spec"
    );

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line longer than the server's 1 MiB cap is answered with an error line
/// and its connection closed, without buffering it, and the server goes on serving.
#[test]
fn an_over_long_request_line_is_refused_and_the_server_keeps_serving() {
    let dir = tmp_dir("over-long");
    let _ = std::fs::remove_dir_all(&dir);
    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());
    let submitted = client.submit(&small_lenet_spec()).unwrap();

    // 2 MiB with no newline, written from its own thread. The answer must arrive while
    // the client's side is still open: a server that read on to the end of the input
    // would never answer (the read timeout fails the test instead of hanging it).
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut answer = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut answer).unwrap();
    match serde_json::from_str::<Response>(answer.trim()).unwrap() {
        Response::Error { message } => assert!(message.contains("longer than"), "{message}"),
        other => panic!("an over-long request must get an error line, got {other:?}"),
    }
    // The server discards the rest of the flood, so the close that follows is an
    // orderly end of stream, not a reset.
    flood.join().unwrap();
    reader
        .get_ref()
        .shutdown(std::net::Shutdown::Write)
        .unwrap();
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "the connection must close after the error line, got {rest:?}"
    );

    let status = client.status(&submitted.id).unwrap();
    assert_eq!(status.id, submitted.id);

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
