//! The TCP front end: a thread-per-connection campaign server.
//!
//! [`CampaignServer`] binds a [`std::net::TcpListener`], then serves line-JSON
//! [`Request`]s. Each submitted campaign runs on its own worker thread, driving the
//! checkpointed [`driver`](crate::driver) with a sink that appends events to an
//! in-memory log; any number of stream connections replay that log and follow it live
//! via a condvar. One [`ThreadPool`] value per worker-count is shared across all
//! campaigns ever submitted to the server, so back-to-back requests reuse the pool
//! configuration instead of rebuilding per request.
//!
//! The server is deliberately boring: blocking I/O, `std` threads, no async runtime —
//! campaign forward passes dominate any realistic workload by orders of magnitude.

use crate::checkpoint::ChunkRecord;
use crate::coordinator::Coordinator;
use crate::driver::{drive, DriveOutcome};
use crate::lease::LeaseError;
use crate::protocol::{Request, Response, StatusInfo};
use crate::sink::{CampaignEvent, CampaignSink, SinkFlow};
use crate::spec::{CampaignSpec, MaterializedCampaign};
use crate::{CheckpointStore, ServeError};
use ranger_inject::{CampaignResult, PreparedCampaign};
use ranger_runtime::ThreadPool;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A campaign's lifecycle state as exposed over the wire.
#[derive(Debug, Clone, PartialEq)]
enum RunState {
    Running,
    Done,
    Cancelled,
    Failed(String),
}

impl RunState {
    fn label(&self) -> String {
        match self {
            RunState::Running => "running".to_string(),
            RunState::Done => "done".to_string(),
            RunState::Cancelled => "cancelled".to_string(),
            RunState::Failed(message) => format!("failed: {message}"),
        }
    }
}

/// Mutable progress of one campaign, guarded by the handle's mutex.
struct Progress {
    state: RunState,
    events: Vec<CampaignEvent>,
    total_chunks: usize,
    resumed_chunks: usize,
    trials_total: u64,
    done_chunks: usize,
    /// Trials replayed from the checkpoint rather than executed — excluded from the
    /// trials/sec rate so resuming a near-finished campaign doesn't report a miracle.
    resumed_trials: u64,
    /// When the worker was registered; the denominator of the trials/sec rate.
    started: std::time::Instant,
    /// When the campaign reached a terminal state, freezing the rate.
    finished: Option<std::time::Instant>,
    categories: Vec<String>,
    cumulative: Option<CampaignResult>,
}

/// The coordination state of a campaign submitted with [`Request::SubmitRemote`]:
/// the lease/merge coordinator plus the spec joining workers fetch.
struct RemoteCampaign {
    coordinator: Mutex<Coordinator>,
    spec: CampaignSpec,
}

/// One campaign registered with the server.
struct CampaignHandle {
    id: String,
    cancel: AtomicBool,
    progress: Mutex<Progress>,
    changed: Condvar,
    /// `Some` for coordinated (sharded) campaigns; `None` for locally-driven ones.
    remote: Option<RemoteCampaign>,
}

impl CampaignHandle {
    fn status(&self) -> StatusInfo {
        let progress = self.progress.lock().expect("progress lock poisoned");
        let trials_done = progress.cumulative.as_ref().map(|c| c.trials).unwrap_or(0);
        let executed = trials_done.saturating_sub(progress.resumed_trials);
        let elapsed = progress
            .finished
            .map(|end| end.duration_since(progress.started))
            .unwrap_or_else(|| progress.started.elapsed())
            .as_secs_f64();
        let trials_per_sec = if executed > 0 && elapsed > 0.0 {
            executed as f64 / elapsed
        } else {
            0.0
        };
        StatusInfo {
            id: self.id.clone(),
            state: progress.state.label(),
            categories: progress.categories.clone(),
            sdc_counts: progress
                .cumulative
                .as_ref()
                .map(|c| c.sdc_counts.clone())
                .unwrap_or_default(),
            trials_done,
            trials_total: progress.trials_total,
            done_chunks: progress.done_chunks,
            total_chunks: progress.total_chunks,
            resumed_chunks: progress.resumed_chunks,
            trials_per_sec,
        }
    }

    fn finish(&self, state: RunState) {
        let mut progress = self.progress.lock().expect("progress lock poisoned");
        if progress.state != RunState::Running {
            return; // idempotent: coordinated campaigns can race cancel vs final push
        }
        progress.state = state;
        progress.finished = Some(std::time::Instant::now());
        self.changed.notify_all();
        ranger_obs::registry()
            .gauge("serve.active_campaigns")
            .add(-1);
    }
}

/// The sink a campaign worker drives: events go into the handle's log, stream followers
/// are woken, and a pending cancel request stops the drive.
struct ServerSink {
    handle: Arc<CampaignHandle>,
}

impl CampaignSink for ServerSink {
    fn event(&mut self, event: &CampaignEvent) -> SinkFlow {
        let mut progress = self.handle.progress.lock().expect("progress lock poisoned");
        match event {
            CampaignEvent::GoldenDone {
                total_chunks,
                resumed_chunks,
                trials_total,
                categories,
            } => {
                progress.total_chunks = *total_chunks;
                progress.resumed_chunks = *resumed_chunks;
                progress.trials_total = *trials_total;
                progress.categories = categories.clone();
            }
            CampaignEvent::ChunkDone {
                tally,
                resumed,
                cumulative,
                ..
            } => {
                progress.done_chunks += 1;
                if *resumed {
                    progress.resumed_trials += tally.trials;
                }
                progress.cumulative = Some(cumulative.clone());
            }
            CampaignEvent::CampaignDone { result } => {
                progress.cumulative = Some(result.clone());
            }
        }
        progress.events.push(event.clone());
        self.handle.changed.notify_all();
        drop(progress);
        if self.handle.cancel.load(Ordering::SeqCst) {
            SinkFlow::Stop
        } else {
            SinkFlow::Continue
        }
    }
}

/// Shared server state: the campaign registry, the pool cache and the shutdown flag.
struct ServerState {
    checkpoint_dir: PathBuf,
    campaigns: Mutex<HashMap<String, Arc<CampaignHandle>>>,
    /// One pool value per worker count, shared by every campaign the server ever runs.
    pools: Mutex<HashMap<usize, ThreadPool>>,
    shutdown: AtomicBool,
}

impl ServerState {
    fn pool_for(&self, workers: usize) -> ThreadPool {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let size = pool_size(workers, cores);
        self.pools
            .lock()
            .expect("pool lock poisoned")
            .entry(size)
            .or_insert_with(|| ThreadPool::new(size))
            .clone()
    }
}

/// The pool size for a campaign that asks for `requested` workers on a host with
/// `cores` hardware threads: at least one, at most `cores`. A pool run spawns up to
/// its size in threads, and the count comes from the submitted spec, so an unclamped
/// `workers = 10^6` would ask the server for a million threads. Campaign counts are
/// bit for bit across worker counts, so the clamp changes no result; the spec, and
/// with it the campaign's fingerprint, keeps the requested count.
fn pool_size(requested: usize, cores: usize) -> usize {
    requested.clamp(1, cores.max(1))
}

/// The longest request line the server reads, newline included. Requests carry model
/// paths and chunk tallies, never weights; a longer line is answered with an error and
/// the connection closed, where an unbounded read would buffer whatever a client sends.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// A bound, not-yet-running campaign server.
pub struct CampaignServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl CampaignServer {
    /// Binds the server to `addr` (e.g. `127.0.0.1:0` for an ephemeral port), keeping
    /// campaign checkpoints under `checkpoint_dir` (one file per campaign fingerprint).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the bind or checkpoint-directory creation fails.
    pub fn bind(addr: &str, checkpoint_dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let checkpoint_dir = checkpoint_dir.into();
        std::fs::create_dir_all(&checkpoint_dir)?;
        let listener = TcpListener::bind(addr)?;
        // A server exists to be observed: turn the registry on so the `metrics`
        // request has something to report. Metrics never draw RNG or steer results,
        // so this cannot perturb campaign counts.
        ranger_obs::set_enabled(true);
        Ok(CampaignServer {
            listener,
            state: Arc::new(ServerState {
                checkpoint_dir,
                campaigns: Mutex::new(HashMap::new()),
                pools: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The address the server is listening on (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the socket address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serves connections until a [`Request::Shutdown`] arrives. Each connection is
    /// handled on its own thread; campaign workers detach and keep checkpointing even
    /// if their submitter disconnects.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if accepting fails for a reason other than shutdown.
    pub fn run(self) -> Result<(), ServeError> {
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        Ok(())
    }
}

/// Reads the connection's single request line and dispatches it.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    if (&mut reader)
        .take(MAX_REQUEST_BYTES + 1)
        .read_until(b'\n', &mut line)
        .is_err()
    {
        return;
    }
    if line.len() as u64 > MAX_REQUEST_BYTES {
        observe_request("oversized");
        let message = format!("request from {peer:?} is longer than {MAX_REQUEST_BYTES} bytes");
        let _ = write_line(&mut writer, &Response::Error { message });
        discard_pending(&mut reader);
        return;
    }
    let line = match std::str::from_utf8(&line) {
        Ok(line) if !line.trim().is_empty() => line.trim(),
        _ => return,
    };
    let request: Request = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => {
            observe_request("unreadable");
            let _ = write_line(
                &mut writer,
                &Response::Error {
                    message: format!("unreadable request from {peer:?}: {e}"),
                },
            );
            return;
        }
    };
    observe_request(match request {
        Request::Submit { .. } => "submit",
        Request::SubmitRemote { .. } => "submit_remote",
        Request::Spec { .. } => "spec",
        Request::Claim { .. } => "claim",
        Request::Renew { .. } => "renew",
        Request::Release { .. } => "release",
        Request::Push { .. } => "push",
        Request::Status { .. } => "status",
        Request::Stream { .. } => "stream",
        Request::Cancel { .. } => "cancel",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    });
    match request {
        Request::Submit { spec } => {
            let response = match submit(state, spec) {
                Ok(response) => response,
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            };
            let _ = write_line(&mut writer, &response);
        }
        Request::SubmitRemote { spec } => {
            let response = match submit_remote(state, spec) {
                Ok(response) => response,
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            };
            let _ = write_line(&mut writer, &response);
        }
        Request::Spec { id } => {
            let response = match lookup(state, &id) {
                Some(handle) => match &handle.remote {
                    Some(remote) => Response::Spec {
                        spec: remote.spec.clone(),
                    },
                    None => lease_denied(LeaseError::NotRemote { id }),
                },
                None => unknown_campaign(&id),
            };
            let _ = write_line(&mut writer, &response);
        }
        Request::Claim {
            id,
            worker,
            ttl_ms,
            max_chunks,
            range,
        } => {
            let response = with_coordinator(state, &id, |handle, coordinator| {
                let now = Instant::now();
                match range {
                    Some((start, end)) => {
                        match coordinator.claim_range(&worker, start, end, ttl_ms, now) {
                            Ok(grant) => Response::Leased { grant },
                            Err(error) => lease_denied(error),
                        }
                    }
                    None => match coordinator.claim(&worker, max_chunks, ttl_ms, now) {
                        Some(grant) => Response::Leased { grant },
                        None => {
                            let state_label = handle
                                .progress
                                .lock()
                                .expect("progress lock poisoned")
                                .state
                                .label();
                            Response::NoWork {
                                state: state_label,
                                retry_ms: CLAIM_RETRY_MS,
                            }
                        }
                    },
                }
            });
            let _ = write_line(&mut writer, &response);
        }
        Request::Renew { id, token, ttl_ms } => {
            let response = with_coordinator(state, &id, |_handle, coordinator| {
                match coordinator.renew(token, ttl_ms, Instant::now()) {
                    Ok(grant) => Response::Leased { grant },
                    Err(error) => lease_denied(error),
                }
            });
            let _ = write_line(&mut writer, &response);
        }
        Request::Release { id, token } => {
            let response = with_coordinator(state, &id, |_handle, coordinator| {
                match coordinator.release(token, Instant::now()) {
                    Ok(()) => Response::Ok,
                    Err(error) => lease_denied(error),
                }
            });
            let _ = write_line(&mut writer, &response);
        }
        Request::Push { id, token, record } => {
            let response = push_record(state, &id, token, record);
            let _ = write_line(&mut writer, &response);
        }
        Request::Status { id } => {
            let response = match lookup(state, &id) {
                Some(handle) => Response::Status(handle.status()),
                None => unknown_campaign(&id),
            };
            let _ = write_line(&mut writer, &response);
        }
        Request::Stream { id } => match lookup(state, &id) {
            Some(handle) => stream_events(&handle, &mut writer),
            None => {
                let _ = write_line(&mut writer, &unknown_campaign(&id));
            }
        },
        Request::Cancel { id } => {
            let response = match lookup(state, &id) {
                Some(handle) => {
                    handle.cancel.store(true, Ordering::SeqCst);
                    if let Some(remote) = &handle.remote {
                        // No local driver thread will observe the flag: stop the
                        // coordinator (claims start answering NoWork) and record the
                        // terminal state here.
                        remote
                            .coordinator
                            .lock()
                            .expect("coordinator lock poisoned")
                            .stop();
                        handle.finish(RunState::Cancelled);
                    }
                    handle.changed.notify_all();
                    Response::Ok
                }
                None => unknown_campaign(&id),
            };
            let _ = write_line(&mut writer, &response);
        }
        Request::Metrics => {
            let _ = write_line(
                &mut writer,
                &Response::Metrics {
                    snapshot: ranger_obs::registry().snapshot().to_json(),
                },
            );
        }
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            let _ = write_line(&mut writer, &Response::Ok);
            // Unblock the accept loop so `run` observes the flag and returns.
            if let Ok(addr) = writer.get_ref().local_addr() {
                let _ = TcpStream::connect(addr);
            }
        }
    }
}

/// Counts one request under `serve.requests.<kind>` (a no-op registry write when
/// metrics are off; never branches on any observed value).
fn observe_request(kind: &str) {
    if ranger_obs::enabled() {
        ranger_obs::registry()
            .counter(&format!("serve.requests.{kind}"))
            .increment();
    }
}

fn lookup(state: &ServerState, id: &str) -> Option<Arc<CampaignHandle>> {
    state
        .campaigns
        .lock()
        .expect("campaign registry poisoned")
        .get(id)
        .cloned()
}

fn unknown_campaign(id: &str) -> Response {
    Response::Error {
        message: format!("no campaign with id {id} on this server"),
    }
}

/// Delay a worker should wait before re-polling a campaign whose pending chunks are
/// all out on live leases.
const CLAIM_RETRY_MS: u64 = 250;

fn lease_denied(error: LeaseError) -> Response {
    Response::LeaseDenied { error }
}

/// Looks up a coordinated campaign and runs `f` with its coordinator locked. Unknown
/// ids and locally-driven campaigns answer with the matching typed lease refusal.
fn with_coordinator(
    state: &ServerState,
    id: &str,
    f: impl FnOnce(&CampaignHandle, &mut Coordinator) -> Response,
) -> Response {
    let Some(handle) = lookup(state, id) else {
        return lease_denied(LeaseError::UnknownCampaign { id: id.to_string() });
    };
    let Some(remote) = &handle.remote else {
        return lease_denied(LeaseError::NotRemote { id: id.to_string() });
    };
    let mut coordinator = remote
        .coordinator
        .lock()
        .expect("coordinator lock poisoned");
    f(&handle, &mut coordinator)
}

/// Registers a campaign for coordination: the server leases its chunks out and merges
/// pushed records, running no forward passes of its own.
///
/// Mirrors [`submit`]'s idempotency: a running coordinated campaign is re-addressed
/// without touching its checkpoint; anything else (re)opens the store, replays the
/// durable prefix as resumed chunks, and — if the store already covers the whole
/// campaign — finishes immediately.
fn submit_remote(state: &Arc<ServerState>, spec: CampaignSpec) -> Result<Response, ServeError> {
    let materialized = spec.materialize()?;
    let id = materialized.fingerprint()?;
    let chunks = ranger_inject::campaign_chunks(
        &materialized.config,
        materialized.inputs.len(),
        ranger_inject::default_chunk_len(&materialized.config),
    );
    let total_chunks = chunks.len();

    let mut campaigns = state.campaigns.lock().expect("campaign registry poisoned");
    if let Some(existing) = campaigns.get(&id) {
        let progress = existing.progress.lock().expect("progress lock poisoned");
        if progress.state == RunState::Running {
            // Already coordinated (or locally running): point the worker fleet at it.
            // The live owner holds the checkpoint; never reopen it here.
            return Ok(Response::Submitted {
                id,
                total_chunks,
                resumed_chunks: progress.resumed_chunks,
            });
        }
    }
    let store = CheckpointStore::open(&state.checkpoint_dir.join(format!("{id}.jsonl")), &id)?;
    let categories = materialized.judge.categories();
    let trials_total = (materialized.config.trials * materialized.inputs.len()) as u64;
    let coordinator = Coordinator::new(store, chunks, categories, trials_total)?;
    let resumed_chunks = coordinator.resumed_chunks();
    let handle = Arc::new(CampaignHandle {
        id: id.clone(),
        cancel: AtomicBool::new(false),
        progress: Mutex::new(Progress {
            state: RunState::Running,
            events: Vec::new(),
            total_chunks,
            resumed_chunks,
            trials_total,
            done_chunks: 0,
            resumed_trials: 0,
            started: std::time::Instant::now(),
            finished: None,
            categories: Vec::new(),
            cumulative: None,
        }),
        changed: Condvar::new(),
        remote: Some(RemoteCampaign {
            coordinator: Mutex::new(coordinator),
            spec,
        }),
    });
    campaigns.insert(id.clone(), Arc::clone(&handle));
    drop(campaigns);
    ranger_obs::registry()
        .gauge("serve.active_campaigns")
        .add(1);

    // Replay the resumed prefix into the event log now, so streamers and status see
    // the same opening sequence a local drive produces.
    let remote = handle.remote.as_ref().expect("just constructed as remote");
    let mut coordinator = remote
        .coordinator
        .lock()
        .expect("coordinator lock poisoned");
    let mut sink = ServerSink {
        handle: Arc::clone(&handle),
    };
    coordinator.begin(&mut sink);
    let done = coordinator.is_done();
    drop(coordinator);
    if done {
        handle.finish(RunState::Done);
    }
    Ok(Response::Submitted {
        id,
        total_chunks,
        resumed_chunks,
    })
}

/// Absorbs one pushed record into a coordinated campaign, finishing the campaign when
/// its last chunk lands.
fn push_record(state: &Arc<ServerState>, id: &str, token: u64, record: ChunkRecord) -> Response {
    let Some(handle) = lookup(state, id) else {
        return lease_denied(LeaseError::UnknownCampaign { id: id.to_string() });
    };
    let Some(remote) = &handle.remote else {
        return lease_denied(LeaseError::NotRemote { id: id.to_string() });
    };
    let mut coordinator = remote
        .coordinator
        .lock()
        .expect("coordinator lock poisoned");
    let mut sink = ServerSink {
        handle: Arc::clone(&handle),
    };
    let result = coordinator.absorb(id, token, record, Instant::now(), &mut sink);
    let done = coordinator.is_done();
    let stopped = coordinator.is_stopped();
    drop(coordinator);
    match result {
        Ok(()) => {
            if done {
                handle.finish(RunState::Done);
            } else if stopped {
                handle.finish(RunState::Cancelled);
            }
            Response::Ok
        }
        Err(ServeError::Lease(error)) => lease_denied(error),
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

/// Registers a campaign and starts (or re-addresses) its worker.
///
/// The spec is materialized synchronously so the response can carry the real partition
/// and resume counts; the expensive part — golden passes and the trial fleet — happens
/// on the detached worker thread. Identical specs fingerprint identically, so a
/// resubmission while the campaign runs simply re-addresses it, and a resubmission
/// after a crash resumes from its checkpoint.
fn submit(state: &Arc<ServerState>, spec: CampaignSpec) -> Result<Response, ServeError> {
    let materialized = spec.materialize()?;
    let id = materialized.fingerprint()?;
    let total_chunks = ranger_inject::campaign_chunks(
        &materialized.config,
        materialized.inputs.len(),
        ranger_inject::default_chunk_len(&materialized.config),
    )
    .len();

    let mut campaigns = state.campaigns.lock().expect("campaign registry poisoned");
    if let Some(existing) = campaigns.get(&id) {
        let progress = existing.progress.lock().expect("progress lock poisoned");
        if progress.state == RunState::Running {
            // Same campaign, already in flight: point the client at it. The checkpoint
            // must NOT be reopened here — the live worker owns the file, and open's
            // torn-tail truncation would race its appends.
            return Ok(Response::Submitted {
                id,
                total_chunks,
                resumed_chunks: progress.resumed_chunks,
            });
        }
    }
    // Not running: this submit owns the checkpoint until its worker finishes.
    let store = CheckpointStore::open(&state.checkpoint_dir.join(format!("{id}.jsonl")), &id)?;
    let resumed_chunks = store.len();
    let handle = Arc::new(CampaignHandle {
        id: id.clone(),
        cancel: AtomicBool::new(false),
        progress: Mutex::new(Progress {
            state: RunState::Running,
            events: Vec::new(),
            total_chunks,
            resumed_chunks,
            trials_total: (materialized.config.trials * materialized.inputs.len()) as u64,
            done_chunks: 0,
            resumed_trials: 0,
            started: std::time::Instant::now(),
            finished: None,
            categories: Vec::new(),
            cumulative: None,
        }),
        changed: Condvar::new(),
        remote: None,
    });
    campaigns.insert(id.clone(), Arc::clone(&handle));
    drop(campaigns);
    ranger_obs::registry()
        .gauge("serve.active_campaigns")
        .add(1);

    let pool = state.pool_for(materialized.config.workers);
    let worker_handle = Arc::clone(&handle);
    std::thread::spawn(move || run_campaign_worker(materialized, store, pool, worker_handle));
    Ok(Response::Submitted {
        id,
        total_chunks,
        resumed_chunks,
    })
}

/// The detached campaign worker: prepares, drives, and records the terminal state.
fn run_campaign_worker(
    materialized: MaterializedCampaign,
    mut store: CheckpointStore,
    pool: ThreadPool,
    handle: Arc<CampaignHandle>,
) {
    let target = materialized.target();
    let prepared = match PreparedCampaign::new(
        &target,
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    ) {
        Ok(prepared) => prepared,
        Err(e) => {
            handle.finish(RunState::Failed(e.to_string()));
            return;
        }
    };
    let mut sink = ServerSink {
        handle: Arc::clone(&handle),
    };
    match drive(&prepared, &mut store, &pool, &handle.cancel, &mut sink) {
        Ok(DriveOutcome::Completed(_)) => handle.finish(RunState::Done),
        Ok(DriveOutcome::Stopped(_)) => handle.finish(RunState::Cancelled),
        Err(e) => handle.finish(RunState::Failed(e.to_string())),
    }
}

/// Streams a campaign's event log — replay first, then live — ending with the terminal
/// state line.
fn stream_events(handle: &CampaignHandle, writer: &mut BufWriter<TcpStream>) {
    let mut next = 0usize;
    loop {
        // Snapshot under the lock, write outside it, so a slow client never stalls the
        // campaign worker.
        let (batch, state) = {
            let mut progress = handle.progress.lock().expect("progress lock poisoned");
            while progress.events.len() == next && progress.state == RunState::Running {
                progress = handle
                    .changed
                    .wait(progress)
                    .expect("progress lock poisoned");
            }
            let batch: Vec<CampaignEvent> = progress.events[next..].to_vec();
            (batch, progress.state.clone())
        };
        next += batch.len();
        for event in batch {
            if write_line(writer, &Response::Event(event)).is_err() {
                return; // client went away; the campaign keeps running
            }
        }
        if state != RunState::Running {
            let _ = write_line(
                writer,
                &Response::End {
                    state: state.label(),
                },
            );
            return;
        }
    }
}

/// Reads and drops what a client still sends after its over-long request, until it
/// stops or a second passes. Closing a socket with unread input sends a reset, which can
/// destroy the error line before the client reads it; once the input is drained, the
/// close is an orderly end of stream.
fn discard_pending(reader: &mut BufReader<TcpStream>) {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut scratch = [0u8; 8192];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if reader.get_ref().set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(reader.read(&mut scratch), Ok(0) | Err(_)) {
            return;
        }
    }
}

fn write_line(writer: &mut BufWriter<TcpStream>, response: &Response) -> Result<(), ServeError> {
    let line = serde_json::to_string(response)?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_is_clamped_to_the_host() {
        assert_eq!(pool_size(0, 8), 1, "zero workers still runs");
        assert_eq!(pool_size(1, 8), 1);
        assert_eq!(pool_size(8, 8), 8);
        assert_eq!(pool_size(9, 8), 8);
        assert_eq!(pool_size(1_000_000, 8), 8);
        assert_eq!(pool_size(usize::MAX, 2), 2);
        assert_eq!(pool_size(4, 0), 1, "an unknown core count means one worker");
    }
}
