//! Micro-benchmarks complementing the experiment binaries (std::time::Instant harness;
//! the build environment has no criterion).
//!
//! * `insertion/*` — wall-clock time of the Ranger transformation (Table III's
//!   instrumentation time).
//! * `inference/*` — forward-pass latency of the original vs. the protected model (the
//!   wall-clock complement of Table IV's FLOPs overhead).
//! * `exec_plan/*` — repeated forward passes through one compiled `ExecPlan` with
//!   reused buffers (LeNet and a deep narrow MLP).
//! * `profiling/bounds` — cost of deriving restriction bounds from profiling samples.
//! * `injection/trial` — throughput of a single fault-injection trial.
//!
//! Run with `cargo bench -p ranger-bench`. Set `RANGER_BENCH_FILTER` to a
//! comma-separated list of group names (e.g. `campaign_fixed,exec_plan`) to run
//! only those groups. Pass `--json <path>` (after `--`, with an explicit
//! `--bench ranger_benches` so the flag does not reach the libtest harness) or set
//! `RANGER_BENCH_JSON` to additionally write every measurement as a per-group JSON
//! document — the machine-readable record CI and regression dashboards consume.

use ranger::bounds::{profile_bounds, ActivationBounds, BoundsConfig};
use ranger::protect::{Protector, RangerProtector};
use ranger_graph::exec::NoopInterceptor;
use ranger_inject::{BackendKind, CampaignConfig, ClassifierJudge, FaultModel, InjectionTarget};
use ranger_models::archs;
use ranger_models::{Model, ModelConfig, ModelKind};
use ranger_tensor::Tensor;
use serde::Serialize;
use std::sync::Mutex;
use std::time::Instant;

/// One measurement, as recorded for the JSON report.
#[derive(Serialize)]
struct BenchRecord {
    name: String,
    ns_per_iter: f64,
    iters: usize,
    /// Amortized per-trial cost (`null` outside the campaign benches, whose iteration
    /// is a whole campaign rather than a single trial).
    ns_per_trial: Option<f64>,
}

/// Every measurement taken this run, in execution order.
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Times `f` over `iters` iterations after `warmup` warm-up calls; returns ns/iter.
///
/// Each iteration is timed on its own and the **minimum** is reported: every source of
/// interference (scheduler preemption, a neighbour process, a frequency dip) only ever
/// adds time, so the fastest observed iteration is the least-contaminated estimate of
/// the true cost. A mean over one timed block lets a single hiccup taint the whole
/// figure, which matters here because the campaign benches assert cross-config ratios.
fn bench<F: FnMut()>(name: &str, warmup: usize, iters: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    let ns = best;
    println!("{name:<40} {:>12.0} ns/iter   ({iters} iters)", ns);
    RECORDS.lock().unwrap().push(BenchRecord {
        name: name.to_string(),
        ns_per_iter: ns,
        iters,
        ns_per_trial: None,
    });
    ns
}

/// Attaches an amortized per-trial rate to the named measurement.
fn note_ns_per_trial(name: &str, ns_per_trial: f64) {
    let mut records = RECORDS.lock().unwrap();
    if let Some(record) = records.iter_mut().rev().find(|r| r.name == name) {
        record.ns_per_trial = Some(ns_per_trial);
    }
}

/// The JSON report path: `--json <path>` / `--json=<path>` on the command line wins,
/// then the `RANGER_BENCH_JSON` environment variable; `None` disables the report.
fn json_output_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            match args.next() {
                Some(path) => return Some(path.into()),
                None => {
                    eprintln!("--json needs a file path");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = arg.strip_prefix("--json=") {
            return Some(path.into());
        }
    }
    std::env::var_os("RANGER_BENCH_JSON").map(Into::into)
}

/// Writes all recorded measurements to `path` as a JSON object keyed by benchmark
/// group (the name segment before the first `/`), each holding its measurements in
/// execution order.
fn write_json_report(path: &std::path::Path) {
    use std::collections::BTreeMap;
    let records = RECORDS.lock().unwrap();
    let mut groups: BTreeMap<&str, Vec<&BenchRecord>> = BTreeMap::new();
    for record in records.iter() {
        let group = record.name.split('/').next().unwrap_or(&record.name);
        groups.entry(group).or_default().push(record);
    }
    // Assembled by hand: the vendored serde has no BTreeMap impl, and the group order
    // should be deterministic either way.
    let mut body = String::from("{\n");
    for (gi, (group, members)) in groups.iter().enumerate() {
        let key = serde_json::to_string(group).expect("group name serializes");
        body.push_str(&format!("  {key}: [\n"));
        for (ri, record) in members.iter().enumerate() {
            let line = serde_json::to_string(*record).expect("bench record serializes");
            let comma = if ri + 1 < members.len() { "," } else { "" };
            body.push_str(&format!("    {line}{comma}\n"));
        }
        let comma = if gi + 1 < groups.len() { "," } else { "" };
        body.push_str(&format!("  ]{comma}\n"));
    }
    body.push_str("}\n");
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("could not write bench JSON to {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote bench JSON to {}", path.display());
}

fn model_input(model: &Model) -> Tensor {
    match model.config.kind.image_domain() {
        Some(domain) => {
            let (c, h, w) = domain.image_shape();
            Tensor::ones(vec![1, c, h, w])
        }
        None => {
            let (c, h, w) = ranger_datasets::driving::FRAME_SHAPE;
            Tensor::ones(vec![1, c, h, w])
        }
    }
}

fn bounds_for(model: &Model) -> ActivationBounds {
    let samples = vec![model_input(model)];
    profile_bounds(
        &model.graph,
        &model.input_name,
        &samples,
        &BoundsConfig::default(),
    )
    .expect("profiling succeeds")
}

fn protected(model: &Model) -> Model {
    let bounds = bounds_for(model);
    let (graph, _) = RangerProtector::default()
        .protect(&model.graph, &bounds)
        .expect("transform succeeds");
    let mut m = model.clone();
    m.graph = graph;
    m
}

fn bench_insertion() {
    for kind in [
        ModelKind::LeNet,
        ModelKind::Vgg16,
        ModelKind::SqueezeNet,
        ModelKind::Dave,
    ] {
        let model = archs::build(&ModelConfig::new(kind), 0);
        let bounds = bounds_for(&model);
        bench(&format!("insertion/{}", kind.paper_name()), 2, 20, || {
            RangerProtector::default()
                .protect(&model.graph, &bounds)
                .unwrap();
        });
    }
}

fn bench_inference() {
    for kind in [ModelKind::LeNet, ModelKind::Comma] {
        let model = archs::build(&ModelConfig::new(kind), 0);
        let input = model_input(&model);
        let with_ranger = protected(&model);
        bench(
            &format!("inference/{}/original", kind.paper_name()),
            2,
            30,
            || {
                model.forward(&input).unwrap();
            },
        );
        bench(
            &format!("inference/{}/ranger", kind.paper_name()),
            2,
            30,
            || {
                with_ranger.forward(&input).unwrap();
            },
        );
    }
}

/// Repeated forward passes of the same graph through one compiled `ExecPlan` with reused
/// buffers.
///
/// Two graphs are measured. On LeNet the convolution arithmetic dominates; on a deep
/// narrow MLP (many cheap operators, the shape of a production model pipelined across
/// shards) per-operator dispatch is a large fraction of the pass.
fn bench_exec_plan() {
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    // Deep, narrow MLP: 64 dense+relu blocks of width 8 → ~260 cheap operator nodes.
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let mut h = b.dense(x, 8, 8, &mut rng);
    for _ in 0..63 {
        h = b.relu(h);
        h = b.dense(h, 8, 8, &mut rng);
    }
    let deep = b.into_graph();
    let deep_out = h;
    let deep_input = Tensor::ones(vec![1, 8]);

    let plan = deep.compile().unwrap();
    let mut values = plan.buffers();
    bench("exec_plan/deep_mlp/compiled_plan", 10, 500, || {
        plan.run_into(
            &mut values,
            &[("x", deep_input.clone())],
            &mut NoopInterceptor,
        )
        .unwrap();
        values.get(deep_out).unwrap();
    });

    let model = archs::build(&ModelConfig::lenet(), 0);
    let input = model_input(&model);
    let output = model.output;
    let plan = model.graph.compile().unwrap();
    let mut values = plan.buffers();
    bench("exec_plan/lenet/compiled_plan", 5, 200, || {
        plan.run_into(
            &mut values,
            &[(model.input_name.as_str(), input.clone())],
            &mut NoopInterceptor,
        )
        .unwrap();
        values.get(output).unwrap();
    });
}

fn bench_profiling() {
    let model = archs::build(&ModelConfig::lenet(), 0);
    let samples: Vec<Tensor> = (0..8).map(|_| model_input(&model)).collect();
    bench("profiling/bounds", 2, 20, || {
        profile_bounds(
            &model.graph,
            &model.input_name,
            &samples,
            &BoundsConfig::default(),
        )
        .unwrap();
    });
}

fn bench_injection() {
    let model = archs::build(&ModelConfig::lenet(), 0);
    let input = model_input(&model);
    let target = InjectionTarget {
        graph: &model.graph,
        input_name: &model.input_name,
        output: model.output,
        excluded: &model.excluded_from_injection,
    };
    let judge = ClassifierJudge::top1();
    bench("injection/trial", 2, 50, || {
        let config = CampaignConfig {
            trials: 1,
            batch: 1,
            workers: 1,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 3,
            tile: 0,
        };
        ranger_inject::run_campaign(&target, std::slice::from_ref(&input), &judge, &config)
            .unwrap();
    });
}

/// The acceptance benchmark for parallel campaigns: the same campaign (same seed, same
/// trials, bit-for-bit identical SDC counts — asserted) run at 1, 2, 4 and 8 workers,
/// reporting per-trial wall-clock. Trials are independent forward passes, so on a
/// multi-core host per-trial time should shrink roughly with the worker count (≥ 2× at
/// 4 workers on the dispatch-bound deep MLP); on a single-core host the pool degrades
/// to roughly serial throughput.
fn bench_campaign_parallel() {
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    let trials = 64usize;
    let judge = ClassifierJudge::top1();

    let campaign = |label: &str,
                    graph: &ranger_graph::Graph,
                    input_name: &str,
                    output: ranger_graph::NodeId,
                    input: &Tensor| {
        let target = InjectionTarget {
            graph,
            input_name,
            output,
            excluded: &[],
        };
        let mut reference = None;
        let mut serial_ns = 0.0;
        for workers in [1usize, 2, 4, 8] {
            let config = CampaignConfig {
                trials,
                batch: 1,
                workers,
                backend: BackendKind::F32,
                fault: FaultModel::single_bit_fixed32(),
                seed: 5,
                tile: 0,
            };
            let mut counts = Vec::new();
            let total_ns = bench(
                &format!("campaign_parallel/{label}/workers_{workers}"),
                1,
                10,
                || {
                    let result = ranger_inject::run_campaign(
                        &target,
                        std::slice::from_ref(input),
                        &judge,
                        &config,
                    )
                    .unwrap();
                    counts = result.sdc_counts.clone();
                },
            );
            match &reference {
                None => {
                    reference = Some(counts.clone());
                    serial_ns = total_ns;
                }
                Some(expected) => assert_eq!(
                    &counts, expected,
                    "parallel campaign must reproduce the serial SDC counts"
                ),
            }
            note_ns_per_trial(
                &format!("campaign_parallel/{label}/workers_{workers}"),
                total_ns / trials as f64,
            );
            println!(
                "campaign_parallel/{label}/workers_{workers}: {:>8.0} ns/trial ({:.2}x serial)",
                total_ns / trials as f64,
                serial_ns / total_ns
            );
        }
    };

    let model = archs::build(&ModelConfig::lenet(), 0);
    let input = model_input(&model);
    campaign(
        "lenet",
        &model.graph,
        &model.input_name,
        model.output,
        &input,
    );

    // Deep, narrow MLP: 64 dense+relu blocks of width 8 — many cheap passes, the shape
    // where per-pass dispatch dominates and parallel trials pay off most.
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let mut h = b.dense(x, 8, 8, &mut rng);
    for _ in 0..63 {
        h = b.relu(h);
        h = b.dense(h, 8, 8, &mut rng);
    }
    let probs = b.softmax(h);
    let deep = b.into_graph();
    campaign("deep_mlp", &deep, "x", probs, &Tensor::ones(vec![1, 8]));
}

/// The fixed-point backend benchmark: the same campaign (same seed, same index-keyed
/// fault plans) run on the f32 reference backend and on the genuine fixed16/fixed32
/// backends, at batch (chunk length) 1 and 16. Within each backend the counts must be
/// equal across batch bit-for-bit (asserted); across backends the counts may differ —
/// that difference IS the measurement (fixed-point inference vs float inference with
/// fixed-point corruption).
fn bench_campaign_fixed() {
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    let trials = 32usize;
    let judge = ClassifierJudge::top1();

    let campaign = |label: &str,
                    graph: &ranger_graph::Graph,
                    input_name: &str,
                    output: ranger_graph::NodeId,
                    input: &Tensor| {
        let target = InjectionTarget {
            graph,
            input_name,
            output,
            excluded: &[],
        };
        for (backend, fault) in [
            (BackendKind::F32, FaultModel::single_bit_fixed16()),
            (BackendKind::Fixed16, FaultModel::single_bit_fixed16()),
            (BackendKind::Fixed32, FaultModel::single_bit_fixed32()),
        ] {
            let mut reference = None;
            for batch in [1usize, 16] {
                let config = CampaignConfig {
                    trials,
                    batch,
                    workers: 1,
                    backend,
                    fault,
                    seed: 5,
                    tile: 0,
                };
                let mut counts = Vec::new();
                let total_ns = bench(
                    &format!("campaign_fixed/{label}/{backend}/batch_{batch}"),
                    1,
                    10,
                    || {
                        let result = ranger_inject::run_campaign(
                            &target,
                            std::slice::from_ref(input),
                            &judge,
                            &config,
                        )
                        .unwrap();
                        counts = result.sdc_counts.clone();
                    },
                );
                match &reference {
                    None => reference = Some(counts.clone()),
                    Some(expected) => assert_eq!(
                        &counts, expected,
                        "fixed campaign counts must not depend on the batch"
                    ),
                }
                note_ns_per_trial(
                    &format!("campaign_fixed/{label}/{backend}/batch_{batch}"),
                    total_ns / trials as f64,
                );
                println!(
                    "campaign_fixed/{label}/{backend}/batch_{batch}: {:>8.0} ns/trial",
                    total_ns / trials as f64,
                );
            }
        }
    };

    let model = archs::build(&ModelConfig::lenet(), 0);
    let input = model_input(&model);
    campaign(
        "lenet",
        &model.graph,
        &model.input_name,
        model.output,
        &input,
    );

    // Deep, narrow MLP — the dispatch-bound shape, for the integer kernels' overhead.
    let mut rng = StdRng::seed_from_u64(0);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let mut h = b.dense(x, 8, 8, &mut rng);
    for _ in 0..63 {
        h = b.relu(h);
        h = b.dense(h, 8, 8, &mut rng);
    }
    let probs = b.softmax(h);
    let deep = b.into_graph();
    campaign("deep_mlp", &deep, "x", probs, &Tensor::ones(vec![1, 8]));
}

fn main() {
    let json_path = json_output_path();
    let filter = std::env::var("RANGER_BENCH_FILTER").unwrap_or_default();
    let groups: [(&str, fn()); 7] = [
        ("insertion", bench_insertion),
        ("inference", bench_inference),
        ("exec_plan", bench_exec_plan),
        ("profiling", bench_profiling),
        ("injection", bench_injection),
        ("campaign_parallel", bench_campaign_parallel),
        ("campaign_fixed", bench_campaign_fixed),
    ];
    let mut ran = 0usize;
    for (name, run) in groups {
        if filter.is_empty() || filter.split(',').any(|f| f.trim() == name) {
            run();
            ran += 1;
        }
    }
    if ran == 0 {
        let known: Vec<&str> = groups.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "RANGER_BENCH_FILTER='{filter}' matched no benchmark group; known groups: {}",
            known.join(", ")
        );
        std::process::exit(1);
    }
    if let Some(path) = json_path {
        write_json_report(&path);
    }
}
