//! The campaign-service subcommands: `serve` runs the server, the rest are thin
//! wrappers over [`ranger_serve::Client`].
//!
//! `serve` and `stream` print progress directly (line-buffered) instead of returning one
//! final string, because their whole point is incremental output: the server announces
//! its address the moment it is listening — the e2e tests wait on that line — and the
//! stream client renders every chunk event as it arrives.

use crate::commands::{parse_backend_and_datatype, parse_model_name};
use crate::{CliError, Options};
use ranger_inject::{CampaignConfig, CampaignResult, FaultModel};
use ranger_serve::{
    default_lease_ms, CampaignEvent, CampaignServer, CampaignSpec, Client, ModelSpec, WorkEvent,
    WorkOptions,
};
use std::io::Write;

/// The address used when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";
/// The checkpoint directory used when `--checkpoints` is not given.
pub const DEFAULT_CHECKPOINT_DIR: &str = "ranger-checkpoints";

/// `ranger-cli serve`: runs the campaign service until a shutdown request arrives.
pub fn serve(options: &Options) -> Result<String, CliError> {
    let addr = options.get("addr").unwrap_or(DEFAULT_ADDR);
    let checkpoints = options
        .get("checkpoints")
        .unwrap_or(DEFAULT_CHECKPOINT_DIR)
        .to_string();
    let server = CampaignServer::bind(addr, &checkpoints)?;
    let local = server.local_addr()?;
    // Announce readiness on stdout before blocking in the accept loop; scripts (and the
    // kill-and-resume e2e test) wait for this exact prefix.
    println!("ranger serve: listening on {local} (checkpoints in {checkpoints})");
    std::io::stdout().flush()?;
    server.run()?;
    Ok("server stopped".to_string())
}

/// Builds the campaign spec a `submit` command line describes.
fn spec_from_options(options: &Options) -> Result<CampaignSpec, CliError> {
    let model = match (options.get("model"), options.get("in")) {
        (Some(name), None) => {
            // Validate the name client-side so typos fail before touching the server.
            parse_model_name(name)?;
            ModelSpec::Kind {
                name: name.to_string(),
            }
        }
        (None, Some(path)) => ModelSpec::Path {
            path: path.to_string(),
        },
        _ => {
            return Err(CliError::Usage(
                "submit needs exactly one of --model <name> or --in <model.json>".to_string(),
            ))
        }
    };
    let (backend, datatype) = parse_backend_and_datatype(options)?;
    Ok(CampaignSpec {
        model,
        inputs: options.get_parsed("inputs", 3usize)?,
        config: CampaignConfig {
            trials: options.get_parsed("trials", 100usize)?,
            batch: options.get_parsed("batch", 1usize)?,
            workers: options.get_parsed("workers", ranger_runtime::default_workers())?,
            backend,
            fault: FaultModel {
                datatype,
                bits: options.get_parsed("bits", 1usize)?,
            },
            seed: options.get_parsed("seed", 42u64)?,
            tile: 0,
        },
    })
}

fn client_for(options: &Options) -> Client {
    Client::new(options.get("addr").unwrap_or(DEFAULT_ADDR))
}

/// `ranger-cli submit`: submits (or resumes) a campaign and prints its id. With
/// `--remote` the server only coordinates: it leases chunk ranges to `work` processes
/// and merges the records they push back, executing nothing itself.
pub fn submit(options: &Options) -> Result<String, CliError> {
    let spec = spec_from_options(options)?;
    let addr = options.get("addr").unwrap_or(DEFAULT_ADDR);
    let client = client_for(options);
    if options.has_flag("remote") {
        let submitted = client.submit_remote(&spec)?;
        return Ok(format!(
            "submitted remote campaign {} ({} chunks, {} resumed from checkpoint)\n\
             execute it with: ranger-cli work --addr {} --id {}",
            submitted.id, submitted.total_chunks, submitted.resumed_chunks, addr, submitted.id
        ));
    }
    let submitted = client.submit(&spec)?;
    Ok(format!(
        "submitted campaign {} ({} chunks, {} resumed from checkpoint)\nfollow it with: ranger-cli stream --addr {} --id {}",
        submitted.id,
        submitted.total_chunks,
        submitted.resumed_chunks,
        addr,
        submitted.id
    ))
}

/// `ranger-cli work`: joins a coordinated campaign as a worker host — claims chunk
/// ranges, executes them locally, pushes the records back and repeats until the
/// campaign reaches a terminal state.
pub fn work(options: &Options) -> Result<String, CliError> {
    let addr = options.get("addr").unwrap_or(DEFAULT_ADDR);
    let id = options.require("id")?;
    let defaults = WorkOptions::default();
    let work_options = WorkOptions {
        worker: options
            .get("name")
            .map(str::to_string)
            .unwrap_or(defaults.worker),
        ttl_ms: options.get_parsed("lease-ms", default_lease_ms())?,
        claim_chunks: options.get_parsed("claim", defaults.claim_chunks)?,
        poll_ms: options.get_parsed("poll-ms", defaults.poll_ms)?,
    };
    let report = ranger_serve::work(addr, id, &work_options, |event| {
        println!("{}", render_work_event(event));
        let _ = std::io::stdout().flush();
    })?;
    Ok(format!(
        "worker {} finished: campaign {} is {} ({} chunks / {} trials executed here)",
        work_options.worker,
        report.id,
        report.final_state,
        report.chunks_executed,
        report.trials_executed
    ))
}

/// One human-readable line per worker event.
fn render_work_event(event: &WorkEvent) -> String {
    match event {
        WorkEvent::Claimed { start, end, token } => {
            format!("claimed chunks {start}..{end} (lease token {token})")
        }
        WorkEvent::Pushed { index } => format!("pushed chunk {index}"),
        WorkEvent::LeaseLost { token, reason } => {
            format!("lease {token} lost ({reason}); reclaiming")
        }
        WorkEvent::Waiting { retry_ms } => format!("no free chunks; retrying in {retry_ms}ms"),
    }
}

/// `ranger-cli status`: prints a campaign's progress summary.
pub fn status(options: &Options) -> Result<String, CliError> {
    let info = client_for(options).status(options.require("id")?)?;
    let mut lines = vec![
        format!("campaign {}", info.id),
        format!("  state:   {}", info.state),
        format!(
            "  chunks:  {}/{} done ({} resumed from checkpoint)",
            info.done_chunks, info.total_chunks, info.resumed_chunks
        ),
        format!(
            "  trials:  {}/{} tallied ({:.1}/s executed)",
            info.trials_done, info.trials_total, info.trials_per_sec
        ),
    ];
    for (category, count) in info.categories.iter().zip(&info.sdc_counts) {
        lines.push(format!("  {category:<14} {count} SDC so far"));
    }
    Ok(lines.join("\n"))
}

/// `ranger-cli stream`: follows a campaign's event stream, one line per event, and
/// finishes with the final SDC rates.
pub fn stream(options: &Options) -> Result<String, CliError> {
    let id = options.require("id")?.to_string();
    let mut done: Option<CampaignResult> = None;
    let state = client_for(options).stream(&id, |event| {
        println!("{}", render_event(event));
        let _ = std::io::stdout().flush();
        if let CampaignEvent::CampaignDone { result } = event {
            done = Some(result.clone());
        }
    })?;
    let mut lines = vec![format!("campaign {id}: {state}")];
    if let Some(result) = done {
        for (category, rate) in result.rates() {
            lines.push(format!(
                "  {category:<14} SDC rate {:6.2}%  (±{:.2}%)",
                rate.rate_percent(),
                rate.confidence95_percent()
            ));
        }
    }
    Ok(lines.join("\n"))
}

/// `ranger-cli cancel`: cooperatively stops a running campaign.
pub fn cancel(options: &Options) -> Result<String, CliError> {
    let id = options.require("id")?;
    client_for(options).cancel(id)?;
    Ok(format!(
        "cancel requested for campaign {id}; completed chunks stay in its checkpoint"
    ))
}

/// `ranger-cli metrics`: fetches and prints the server's metrics-registry snapshot
/// (one line of JSON; pipe through a JSON formatter for a readable view).
pub fn metrics(options: &Options) -> Result<String, CliError> {
    Ok(client_for(options).metrics()?)
}

/// `ranger-cli shutdown`: asks the server to exit.
pub fn shutdown(options: &Options) -> Result<String, CliError> {
    client_for(options).shutdown()?;
    Ok("server asked to shut down".to_string())
}

/// One human-readable line per campaign event.
fn render_event(event: &CampaignEvent) -> String {
    match event {
        CampaignEvent::GoldenDone {
            total_chunks,
            resumed_chunks,
            trials_total,
            categories,
        } => format!(
            "golden passes done: {trials_total} trials over {total_chunks} chunks \
             ({resumed_chunks} resumed), categories: {}",
            categories.join(", ")
        ),
        CampaignEvent::ChunkDone {
            chunk,
            resumed,
            cumulative,
            ..
        } => format!(
            "chunk {:>4}{} input {} trials {}..{} | cumulative: {} trials, SDC {:?}",
            chunk.index,
            if *resumed { " (resumed)" } else { "" },
            chunk.input,
            chunk.start,
            chunk.start + chunk.len,
            cumulative.trials,
            cumulative.sdc_counts
        ),
        CampaignEvent::CampaignDone { result } => format!(
            "campaign done: {} trials, SDC {:?}, {} unactivated",
            result.trials, result.sdc_counts, result.unactivated
        ),
    }
}
