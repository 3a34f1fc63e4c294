//! Differential tests for fault-cone execution (`ExecPlan::run_cone`): every cone pass
//! must reproduce a fresh full pass (`ExecPlan::run_into`) under the same interceptor,
//! bit for bit, whatever trials ran through the store before it.
//!
//! Each backend runs: the reference oracle (`ReferenceBackend`, whose windowed conv is
//! the plain nest), f32 (the dispatched kernels), fixed16, and the process default
//! (`RANGER_BACKEND`), so a fixed32 sweep covers the Q24.8 words too. Plans are warmed, so with
//! `RANGER_METRICS=1` the timed branch of the cone pass is the one under test.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranger_graph::exec::{NoopInterceptor, Values};
use ranger_graph::op::Padding;
use ranger_graph::{
    default_backend, BackendKind, ExecBackend, ExecPlan, GoldenSnapshot, Graph, Interceptor, Node,
    NodeId, Op, ReferenceBackend,
};
use ranger_tensor::{QTensor, Tensor};

/// What an [`Edit`] does to its element.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Flip one bit of the stored representation (f32 bits, or the word on a
    /// fixed-point backend, taken modulo its width).
    Flip(u32),
    /// Overwrite the element with a value (quantized on a fixed-point backend).
    Set(f32),
}

#[derive(Debug, Clone, Copy)]
struct Edit {
    node: NodeId,
    element: usize,
    change: Change,
}

/// Applies a trial's edits to the outputs of their nodes.
struct Edits<'a>(&'a [Edit]);

impl Interceptor for Edits<'_> {
    fn after_op(&mut self, node: &Node, output: &mut Tensor) {
        for edit in self.0.iter().filter(|e| e.node == node.id) {
            if let Some(v) = output.data_mut().get_mut(edit.element) {
                *v = match edit.change {
                    Change::Flip(bit) => f32::from_bits(v.to_bits() ^ (1 << (bit % 32))),
                    Change::Set(value) => value,
                };
            }
        }
    }

    fn after_op_words(&mut self, node: &Node, output: &mut QTensor) {
        for edit in self.0.iter().filter(|e| e.node == node.id) {
            if edit.element < output.len() {
                match edit.change {
                    Change::Flip(bit) => {
                        let width = output.spec().total_bits();
                        output.flip_word(edit.element, bit % width);
                    }
                    Change::Set(value) => output.set_from_f32(edit.element, value),
                }
            }
        }
    }
}

/// The backends every test runs on, the process default included once.
fn backends() -> Vec<&'static dyn ExecBackend> {
    let mut list = vec![
        &ReferenceBackend as &dyn ExecBackend,
        BackendKind::F32.backend(),
        BackendKind::Fixed16.backend(),
    ];
    let default = default_backend().backend();
    if list.iter().all(|b| b.name() != default.name()) {
        list.push(default);
    }
    list
}

/// The `f32` backends: the reference oracle and the dispatched kernels.
fn f32_backends() -> [&'static dyn ExecBackend; 2] {
    [&ReferenceBackend, BackendKind::F32.backend()]
}

/// A node's value as comparable integers: f32 bits, or the stored words.
fn fingerprint(values: &Values, id: NodeId) -> Vec<i64> {
    match values.get_q(id) {
        Ok(q) => q.words().to_vec(),
        Err(_) => values
            .get(id)
            .unwrap()
            .data()
            .iter()
            .map(|v| i64::from(v.to_bits()))
            .collect(),
    }
}

/// The reference: a full pass through a fresh store.
fn full_pass(
    plan: &ExecPlan<'_>,
    feeds: &[(&str, Tensor)],
    edits: &[Edit],
    out: NodeId,
) -> Vec<i64> {
    let mut values = plan.buffers();
    plan.run_into(&mut values, feeds, &mut Edits(edits))
        .unwrap();
    fingerprint(&values, out)
}

/// The golden snapshot of `feeds`, with the golden output's fingerprint.
fn golden(
    plan: &ExecPlan<'_>,
    feeds: &[(&str, Tensor)],
    out: NodeId,
) -> (GoldenSnapshot, Vec<i64>) {
    let mut values = plan.buffers();
    plan.run_into(&mut values, feeds, &mut NoopInterceptor)
        .unwrap();
    (plan.snapshot(&values).unwrap(), fingerprint(&values, out))
}

/// One cone trial through `store`, checked against the full pass: the output and the
/// reported deviation must both agree. Returns whether the output deviated.
#[allow(clippy::too_many_arguments)]
fn check_trial(
    plan: &ExecPlan<'_>,
    store: &mut Values,
    snapshot: &GoldenSnapshot,
    golden_out: &[i64],
    feeds: &[(&str, Tensor)],
    edits: &[Edit],
    out: NodeId,
    label: &str,
) -> bool {
    let sites: Vec<NodeId> = edits.iter().map(|e| e.node).collect();
    let deviates = plan
        .run_cone(store, snapshot, &sites, out, &mut Edits(edits))
        .unwrap();
    let cone = if deviates {
        fingerprint(store, out)
    } else {
        golden_out.to_vec()
    };
    let full = full_pass(plan, feeds, edits, out);
    assert_eq!(
        cone, full,
        "{label}: cone output differs from the full pass ({edits:?})"
    );
    assert_eq!(
        deviates,
        full != golden_out,
        "{label}: cone reported deviates = {deviates} ({edits:?})"
    );
    deviates
}

/// A random DAG over `[1, width]` values: dense layers, biases, elementwise
/// activations, clamps, residual `Add`/`Mul` over two earlier values, and `Concat`
/// branches folded back by a dense layer. Earlier values that nothing picks stay dead.
fn random_dag(rng: &mut StdRng, width: usize) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let mut pool = vec![x];
    let weights = |rng: &mut StdRng, dims: Vec<usize>| {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        Tensor::from_vec(dims, data).unwrap()
    };
    let nodes = rng.gen_range(4usize..14);
    for k in 0..nodes {
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let name = format!("n{k}");
        let id = match rng.gen_range(0u32..10) {
            0 => {
                let w = g.add_const(format!("{name}.w"), weights(rng, vec![width, width]), true);
                g.add_node(&name, Op::MatMul, vec![a, w])
            }
            1 => {
                let bias = g.add_const(format!("{name}.b"), weights(rng, vec![width]), true);
                g.add_node(&name, Op::BiasAdd, vec![a, bias])
            }
            2 => g.add_node(&name, Op::Relu, vec![a]),
            3 => g.add_node(&name, Op::Tanh, vec![a]),
            4 => g.add_node(&name, Op::Elu, vec![a]),
            5 => g.add_node(&name, Op::Clamp { lo: -0.5, hi: 0.75 }, vec![a]),
            6 => g.add_node(&name, Op::Add, vec![a, b]),
            7 => g.add_node(&name, Op::Mul, vec![a, b]),
            8 => {
                let cat = g.add_node(format!("{name}.cat"), Op::Concat, vec![a, b]);
                let w = g.add_const(
                    format!("{name}.w"),
                    weights(rng, vec![2 * width, width]),
                    true,
                );
                g.add_node(&name, Op::MatMul, vec![cat, w])
            }
            _ => {
                let factor = if rng.gen_range(0u32..2) == 0 {
                    0.0
                } else {
                    0.5
                };
                g.add_node(&name, Op::ScalarMul { factor }, vec![a])
            }
        };
        pool.push(id);
    }
    let last = *pool.last().unwrap();
    let out = if rng.gen_range(0u32..2) == 0 {
        g.add_node("probs", Op::Softmax, vec![last])
    } else {
        last
    };
    (g, out)
}

fn feed(rng: &mut StdRng, width: usize) -> Vec<(&'static str, Tensor)> {
    let data = (0..width).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
    vec![("x", Tensor::from_vec(vec![1, width], data).unwrap())]
}

/// A random trial: one to three edits on random injectable nodes, listed in any
/// order (later nodes before earlier ones included).
fn random_edits(rng: &mut StdRng, graph: &Graph, width: usize) -> Vec<Edit> {
    let injectable: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| n.op.is_injectable())
        .map(|n| n.id)
        .collect();
    (0..rng.gen_range(1usize..4))
        .map(|_| Edit {
            node: injectable[rng.gen_range(0..injectable.len())],
            element: rng.gen_range(0..2 * width),
            change: Change::Flip(rng.gen_range(0u32..32)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sequence of random trials through one store, alternating between the golden
    /// snapshots of two inputs, each compared with a fresh full pass.
    #[test]
    fn cone_passes_match_full_passes_on_random_dags(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2usize..7);
        let (graph, out) = random_dag(&mut rng, width);
        let feeds = [feed(&mut rng, width), feed(&mut rng, width)];
        for backend in backends() {
            let plan = graph.compile_with(backend).unwrap();
            plan.warm(&feeds[0]).unwrap();
            let goldens = [golden(&plan, &feeds[0], out), golden(&plan, &feeds[1], out)];
            let mut store = plan.buffers();
            for trial in 0..12 {
                let input = usize::from(trial % 5 == 4);
                let edits = random_edits(&mut rng, &graph, width);
                let (snapshot, golden_out) = &goldens[input];
                let label = format!("{} seed {seed} trial {trial}", backend.name());
                check_trial(
                    &plan, &mut store, snapshot, golden_out, &feeds[input], &edits, out, &label,
                );
            }
        }
    }
}

/// A random conv/pool chain over one `[1, c, h, w]` image: convolutions (kernels 1–5,
/// strides 1–2, `Same` and `Valid` padding, wider than the image included) with
/// biases, activations, clamps, max and average pooling, residual `Add`s and channel
/// `Concat`s of two earlier values of one spatial size, then a `Flatten` → dense head.
/// Returns the graph, its output and the image shape.
fn random_conv_chain(rng: &mut StdRng) -> (Graph, NodeId, Vec<usize>) {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let image = vec![
        1,
        rng.gen_range(1usize..4),
        rng.gen_range(2usize..10),
        rng.gen_range(2usize..10),
    ];
    // Every value so far with its [c, h, w].
    let mut pool = vec![(x, [image[1], image[2], image[3]])];
    let weights = |rng: &mut StdRng, dims: Vec<usize>| {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        Tensor::from_vec(dims, data).unwrap()
    };
    let layers = rng.gen_range(3usize..9);
    for k in 0..layers {
        let name = format!("n{k}");
        let (a, [c, h, w]) = pool[rng.gen_range(0..pool.len())];
        let made = match rng.gen_range(0u32..10) {
            0..=2 => {
                let kernel = rng.gen_range(1usize..6);
                let stride = rng.gen_range(1usize..3);
                let valid = rng.gen_range(0u32..2) == 0 && kernel <= h && kernel <= w;
                let cout = rng.gen_range(1usize..5);
                let padding = if valid { Padding::Valid } else { Padding::Same };
                let (oh, ow) = if valid {
                    ((h - kernel) / stride + 1, (w - kernel) / stride + 1)
                } else {
                    (h.div_ceil(stride), w.div_ceil(stride))
                };
                let wt = g.add_const(
                    format!("{name}.w"),
                    weights(rng, vec![cout, c, kernel, kernel]),
                    true,
                );
                let conv = g.add_node(&name, Op::Conv2d { stride, padding }, vec![a, wt]);
                let bias = g.add_const(format!("{name}.b"), weights(rng, vec![cout]), true);
                let biased = g.add_node(format!("{name}.bias"), Op::BiasAdd, vec![conv, bias]);
                pool.push((conv, [cout, oh, ow]));
                (biased, [cout, oh, ow])
            }
            3 => (g.add_node(&name, Op::Relu, vec![a]), [c, h, w]),
            4 => (g.add_node(&name, Op::Elu, vec![a]), [c, h, w]),
            5 => (
                g.add_node(&name, Op::Clamp { lo: -0.4, hi: 0.6 }, vec![a]),
                [c, h, w],
            ),
            6 => {
                let kernel = rng.gen_range(1usize..4).min(h).min(w);
                let stride = rng.gen_range(1usize..3);
                let op = if rng.gen_range(0u32..2) == 0 {
                    Op::MaxPool { kernel, stride }
                } else {
                    Op::AvgPool { kernel, stride }
                };
                let dims = [c, (h - kernel) / stride + 1, (w - kernel) / stride + 1];
                (g.add_node(&name, op, vec![a]), dims)
            }
            7 | 8 => {
                // A partner of the same spatial size, if any.
                let partners: Vec<_> = pool
                    .iter()
                    .filter(|(id, d)| *id != a && d[1] == h && d[2] == w)
                    .copied()
                    .collect();
                if partners.is_empty() {
                    (g.add_node(&name, Op::Tanh, vec![a]), [c, h, w])
                } else {
                    let (b, [cb, _, _]) = partners[rng.gen_range(0..partners.len())];
                    if cb == c && rng.gen_range(0u32..2) == 0 {
                        (g.add_node(&name, Op::Add, vec![a, b]), [c, h, w])
                    } else {
                        (g.add_node(&name, Op::Concat, vec![a, b]), [c + cb, h, w])
                    }
                }
            }
            _ => (
                g.add_node(&name, Op::ScalarMul { factor: 0.5 }, vec![a]),
                [c, h, w],
            ),
        };
        pool.push(made);
    }
    let (last, [c, h, w]) = *pool.last().unwrap();
    let flat = g.add_node("flat", Op::Flatten, vec![last]);
    let features = c * h * w;
    let wt = g.add_const("head.w", weights(rng, vec![features, 3]), true);
    let dense = g.add_node("head", Op::MatMul, vec![flat, wt]);
    let bias = g.add_const("head.b", weights(rng, vec![3]), true);
    let out = g.add_node("head.bias", Op::BiasAdd, vec![dense, bias]);
    (g, out, image)
}

/// Random trials over the golden pass's injectable nodes: one to three edits each, at
/// elements inside the node's value, so later sites may read earlier ones.
fn random_sized_edits(rng: &mut StdRng, sized: &[(NodeId, usize)]) -> Vec<Edit> {
    (0..rng.gen_range(1usize..4))
        .map(|_| {
            let (node, len) = sized[rng.gen_range(0..sized.len())];
            Edit {
                node,
                element: rng.gen_range(0..len.max(1)),
                change: Change::Flip(rng.gen_range(0u32..32)),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random conv/pool chains: a single-site trial on every injectable node, then
    /// random multi-site trials, through one store alternating two inputs' snapshots,
    /// each compared with a fresh full pass.
    #[test]
    fn cone_passes_match_full_passes_on_random_conv_chains(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, out, image) = random_conv_chain(&mut rng);
        let len: usize = image.iter().product();
        let feed = |rng: &mut StdRng| {
            let data = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            vec![("x", Tensor::from_vec(image.clone(), data).unwrap())]
        };
        let feeds = [feed(&mut rng), feed(&mut rng)];
        for backend in backends() {
            let plan = graph.compile_with(backend).unwrap();
            let warmed = plan.warm(&feeds[0]).unwrap();
            let sized: Vec<(NodeId, usize)> = graph
                .nodes()
                .iter()
                .filter(|n| n.op.is_injectable())
                .map(|n| (n.id, warmed.dims_of(n.id).unwrap().iter().product()))
                .collect();
            let goldens = [golden(&plan, &feeds[0], out), golden(&plan, &feeds[1], out)];
            let mut store = plan.buffers();
            let sweep = sized.iter().map(|&(node, len)| {
                vec![Edit {
                    node,
                    element: rng.gen_range(0..len.max(1)),
                    change: Change::Flip(rng.gen_range(0u32..32)),
                }]
            });
            let trials: Vec<Vec<Edit>> = sweep.collect::<Vec<_>>().into_iter()
                .chain((0..10).map(|_| random_sized_edits(&mut rng, &sized)))
                .collect();
            for (trial, edits) in trials.iter().enumerate() {
                let input = usize::from(trial % 4 == 3);
                let (snapshot, golden_out) = &goldens[input];
                let label = format!("{} seed {seed} trial {trial}", backend.name());
                check_trial(
                    &plan, &mut store, snapshot, golden_out, &feeds[input], edits, out, &label,
                );
            }
        }
    }
}

/// A channel concatenation whose first input is a constant: the deviating input's box
/// shifts past the constant's channels.
#[test]
fn concat_after_a_constant_shifts_boxes_past_its_channels() {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let a = g.add_node("a", Op::Relu, vec![x]);
    let fixed = g.add_const("fixed", Tensor::filled(vec![1, 3, 4, 4], 0.5), false);
    let cat = g.add_node("cat", Op::Concat, vec![fixed, a]);
    let w = g.add_const(
        "w",
        Tensor::from_vec(
            vec![2, 5, 1, 1],
            (0..10).map(|i| i as f32 * 0.25 - 1.0).collect(),
        )
        .unwrap(),
        true,
    );
    let out = g.add_node(
        "out",
        Op::Conv2d {
            stride: 1,
            padding: Padding::Same,
        },
        vec![cat, w],
    );
    let data = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
    let feeds = [("x", Tensor::from_vec(vec![1, 2, 4, 4], data).unwrap())];
    let trials: Vec<Vec<Edit>> = (0..32)
        .map(|e| vec![edit(a, e, Change::Set(3.0 + e as f32))])
        .collect();
    for backend in backends() {
        let deviated = run_trials(&g, backend, out, &feeds, &trials);
        assert!(deviated.iter().all(|&d| d), "{}", backend.name());
    }
}

/// x → a = ScalarMul(1) → b = Clamp → c = Add(b, d) → out = ScalarMul(2), with
/// d = ScalarMul(1)(x) a second branch and `dead` = Relu(a) read by nothing.
struct Chain {
    graph: Graph,
    a: NodeId,
    b: NodeId,
    d: NodeId,
    dead: NodeId,
    out: NodeId,
}

fn chain() -> Chain {
    let mut graph = Graph::new();
    let x = graph.add_input("x");
    let a = graph.add_node("a", Op::ScalarMul { factor: 1.0 }, vec![x]);
    let b = graph.add_node("b", Op::Clamp { lo: -0.5, hi: 0.5 }, vec![a]);
    let d = graph.add_node("d", Op::ScalarMul { factor: 1.0 }, vec![x]);
    let dead = graph.add_node("dead", Op::Relu, vec![a]);
    let c = graph.add_node("c", Op::Add, vec![b, d]);
    let out = graph.add_node("out", Op::ScalarMul { factor: 2.0 }, vec![c]);
    Chain {
        graph,
        a,
        b,
        d,
        dead,
        out,
    }
}

fn edit(node: NodeId, element: usize, change: Change) -> Edit {
    Edit {
        node,
        element,
        change,
    }
}

/// Runs `trials` in order through one store on `backend`, each checked against the full
/// pass, and returns each trial's reported deviation.
fn run_trials(
    graph: &Graph,
    backend: &dyn ExecBackend,
    out: NodeId,
    feeds: &[(&str, Tensor)],
    trials: &[Vec<Edit>],
) -> Vec<bool> {
    let plan = graph.compile_with(backend).unwrap();
    plan.warm(feeds).unwrap();
    let (snapshot, golden_out) = golden(&plan, feeds, out);
    let mut store = plan.buffers();
    trials
        .iter()
        .enumerate()
        .map(|(t, edits)| {
            let label = format!("{} trial {t}", backend.name());
            check_trial(
                &plan,
                &mut store,
                &snapshot,
                &golden_out,
                feeds,
                edits,
                out,
                &label,
            )
        })
        .collect()
}

/// A golden output holding NaN: a masked fault must end the cone (NaN equals itself
/// bit for bit), and a fault that changes the NaN's payload must not.
#[test]
fn a_nan_golden_output_still_lets_a_masked_fault_stop() {
    let c = chain();
    let feeds = [(
        "x",
        Tensor::from_vec(vec![1, 3], vec![f32::NAN, 2.0, 0.25]).unwrap(),
    )];
    for backend in f32_backends() {
        let deviated = run_trials(
            &c.graph,
            backend,
            c.out,
            &feeds,
            &[
                // 2.0 + ulp is still clamped to 0.5: masked at b.
                vec![edit(c.a, 1, Change::Flip(0))],
                // A live fault beside the NaN lane reaches the output.
                vec![edit(c.d, 2, Change::Flip(20))],
                // And masked again afterwards, through the same store.
                vec![edit(c.a, 1, Change::Flip(3))],
            ],
        );
        assert_eq!(deviated, [false, true, false], "{}", backend.name());
    }
}

/// A deviation that only flips the sign of a zero is a deviation: `+0.0 == -0.0`
/// would end it early, but the full pass carries it to the output (golden
/// `-0.0 + -0.0 = -0.0` becomes `-0.0 + +0.0 = +0.0`).
#[test]
fn a_sign_of_zero_deviation_is_followed_to_the_output() {
    let c = chain();
    let feeds = [(
        "x",
        Tensor::from_vec(vec![1, 3], vec![-0.0, 0.25, -0.25]).unwrap(),
    )];
    for backend in f32_backends() {
        let deviated = run_trials(
            &c.graph,
            backend,
            c.out,
            &feeds,
            &[vec![edit(c.d, 0, Change::Set(0.0))]],
        );
        assert_eq!(deviated, [true], "{}", backend.name());
    }
}

/// Faults on the output node, on a value nothing reads, and multi-site plans listed
/// late-before-early — each followed by trials that must see a clean store.
#[test]
fn output_dead_value_and_multi_site_plans_match_full_passes() {
    let c = chain();
    let feeds = [(
        "x",
        Tensor::from_vec(vec![1, 3], vec![0.25, 2.0, -1.0]).unwrap(),
    )];
    for backend in backends() {
        let deviated = run_trials(
            &c.graph,
            backend,
            c.out,
            &feeds,
            &[
                // The output node itself.
                vec![edit(c.out, 2, Change::Flip(5))],
                // A value with no consumers: it deviates and dies at once.
                vec![edit(c.dead, 1, Change::Flip(6))],
                // Late site listed first, early site masked by the clamp.
                vec![
                    edit(c.out, 0, Change::Flip(4)),
                    edit(c.a, 1, Change::Flip(1)),
                ],
                // Early site live, late site on a branch that merges later.
                vec![
                    edit(c.d, 2, Change::Flip(7)),
                    edit(c.a, 0, Change::Set(0.125)),
                ],
                // Both sites masked.
                vec![edit(c.a, 1, Change::Flip(2)), edit(c.b, 7, Change::Flip(2))],
                // Nothing planned on an injectable node: golden.
                vec![],
            ],
        );
        assert_eq!(
            deviated,
            [true, false, true, true, false, false],
            "{}",
            backend.name()
        );
    }
}

/// A store primed from one snapshot stays exact when a full pass on other feeds runs
/// through it, and when its snapshot is dropped and another takes its place.
#[test]
fn full_passes_and_new_snapshots_reprime_the_store() {
    let c = chain();
    let feeds_a = [(
        "x",
        Tensor::from_vec(vec![1, 3], vec![0.25, 2.0, -1.0]).unwrap(),
    )];
    let feeds_b = [(
        "x",
        Tensor::from_vec(vec![1, 3], vec![-0.75, 0.5, 3.0]).unwrap(),
    )];
    let trial = [edit(c.d, 1, Change::Flip(3))];
    for backend in backends() {
        let plan = c.graph.compile_with(backend).unwrap();
        plan.warm(&feeds_a).unwrap();
        let mut store = plan.buffers();
        let (snapshot, golden_a) = golden(&plan, &feeds_a, c.out);
        check_trial(
            &plan, &mut store, &snapshot, &golden_a, &feeds_a, &trial, c.out, "a",
        );
        // A full pass on other feeds overwrites every slot.
        plan.run_into(&mut store, &feeds_b, &mut NoopInterceptor)
            .unwrap();
        check_trial(
            &plan, &mut store, &snapshot, &golden_a, &feeds_a, &trial, c.out, "a again",
        );
        drop(snapshot);
        let (snapshot, golden_b) = golden(&plan, &feeds_b, c.out);
        check_trial(
            &plan, &mut store, &snapshot, &golden_b, &feeds_b, &trial, c.out, "b",
        );
    }
}
