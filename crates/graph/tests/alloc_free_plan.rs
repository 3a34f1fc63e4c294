//! The ExecPlan buffer-arena acceptance test: repeated `run_into` passes perform zero
//! heap allocations after warm-up.
//!
//! A counting global allocator wraps the system allocator; the test runs a compiled plan
//! over a mixed conv/pool/dense graph until the per-node buffers reach steady state and
//! then asserts that further passes allocate nothing at all (output tensors included).
//! The file contains exactly one test so no concurrent test can perturb the counter.

use rand::{rngs::StdRng, SeedableRng};
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::{GraphBuilder, Interceptor, Node, NodeId};
use ranger_tensor::{QTensor, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Flips bit `.1` of the first element of node `.0`'s output: an allocation-free
/// stand-in for the fault injector.
struct FlipFirst(NodeId, u32);

impl Interceptor for FlipFirst {
    fn after_op(&mut self, node: &Node, output: &mut Tensor) {
        if node.id == self.0 {
            let v = &mut output.data_mut()[0];
            *v = f32::from_bits(v.to_bits() ^ (1 << self.1));
        }
    }

    fn after_op_words(&mut self, node: &Node, output: &mut QTensor) {
        if node.id == self.0 {
            output.flip_word(0, self.1);
        }
    }
}

#[test]
fn repeated_plan_passes_allocate_nothing_after_warm_up() {
    // A small LeNet-shaped graph: conv -> bias -> relu -> pool -> flatten -> dense ->
    // softmax, covering the convolutional, pooling, reshaping and dense kernels.
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let c = b.conv2d(x, 1, 4, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let f = b.flatten(p);
    let h = b.dense(f, 4 * 4 * 4, 10, &mut rng);
    let probs = b.softmax(h);
    let graph = b.into_graph();

    let plan = graph.compile().unwrap();
    let input = Tensor::ones(vec![1, 1, 8, 8]);
    let feeds = [("x", input)];
    plan.warm(&feeds).unwrap();

    // A warmed plan hands out buffers pre-sized from the recorded shapes, so even the
    // store's FIRST pass — and every pass after it — allocates nothing. The global
    // counter also sees the test harness's own threads, which may allocate at any
    // moment; a genuine per-pass allocation shows up in EVERY attempt, so asserting on
    // the minimum over a few attempts rejects that background noise without weakening
    // the property.
    let mut fewest = usize::MAX;
    for attempt in 0..3 {
        let mut values = plan.buffers();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..100 {
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if attempt == 0 {
            assert_eq!(values.get(probs).unwrap().dims(), &[1, 10]);
        }
        if fewest == 0 {
            break;
        }
    }
    assert_eq!(
        fewest, 0,
        "warmed run_into must not allocate ({fewest} allocations over 100 passes, first \
         included, in the quietest of 3 attempts)"
    );

    // An unwarmed store pays allocations only on its first pass; after that it is
    // allocation-free too (same minimum-of-attempts guard against harness noise).
    let mut fewest = usize::MAX;
    for _ in 0..3 {
        let mut cold = ranger_graph::exec::Values::default();
        plan.run_into(&mut cold, &feeds, &mut NoopInterceptor)
            .unwrap();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..10 {
            plan.run_into(&mut cold, &feeds, &mut NoopInterceptor)
                .unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if fewest == 0 {
            break;
        }
    }
    assert_eq!(
        fewest, 0,
        "cold store must be allocation-free from the second pass on"
    );

    // LeNet-5's two conv geometries at batch 16 on the f32 reference: 1 -> 6 5x5 `Same`
    // on 28x28 and 6 -> 16 5x5 `Valid` on the pooled 14x14. They reach every kind of
    // register tile the reference conv runs (channel remainders, border columns,
    // narrower interior tiles), and the conv keeps its accumulators in locals: warmed
    // passes allocate nothing.
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let c1 = b.conv2d(x, 1, 6, 5, 1, ranger_graph::op::Padding::Same, &mut rng);
    let r1 = b.relu(c1);
    let p1 = b.max_pool(r1, 2, 2);
    let c2 = b.conv2d(p1, 6, 16, 5, 1, ranger_graph::op::Padding::Valid, &mut rng);
    let r2 = b.relu(c2);
    let graph = b.into_graph();
    let plan = graph.compile().unwrap();
    let feeds = [("x", Tensor::ones(vec![16, 1, 28, 28]))];
    plan.warm(&feeds).unwrap();
    let mut fewest = usize::MAX;
    for attempt in 0..3 {
        let mut values = plan.buffers();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..100 {
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if attempt == 0 {
            assert_eq!(values.get(r2).unwrap().dims(), &[16, 16, 10, 10]);
        }
        if fewest == 0 {
            break;
        }
    }
    assert_eq!(
        fewest, 0,
        "warmed f32 LeNet-5 conv passes at batch 16 must not allocate ({fewest} \
         allocations over 100 passes in the quietest of 3 attempts)"
    );

    // The fixed-point backend on the same graph shape, minus softmax (the f32-bridge
    // transcendental keeps a per-pass scratch row; conv/matmul/pool/reshape must not):
    // warmed passes — lazy-mirror read of the output included — allocate nothing. The
    // integer conv/matmul take the Q14.2 i64 fast path, which accumulates in place in
    // the output words; constants hit the per-arena quantization cache after the first
    // pass.
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let c = b.conv2d(x, 1, 4, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let f = b.flatten(p);
    let out = b.dense(f, 4 * 4 * 4, 10, &mut rng);
    let graph = b.into_graph();
    let plan = graph
        .compile_with(ranger_graph::BackendKind::Fixed16.backend())
        .unwrap();
    let feeds = [("x", Tensor::ones(vec![1, 1, 8, 8]))];
    plan.warm(&feeds).unwrap();
    let mut fewest = usize::MAX;
    for _ in 0..3 {
        let mut values = plan.buffers();
        // First pass decodes the output mirror once into its pre-sized seed buffer.
        plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
            .unwrap();
        values.get(out).unwrap();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..100 {
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
            values.get(out).unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if fewest == 0 {
            break;
        }
    }
    assert_eq!(
        fewest, 0,
        "warmed fixed16 run_into + lazy-mirror read must not allocate ({fewest} \
         allocations over 100 passes in the quietest of 3 attempts)"
    );

    // The SIMD backend on the same graph, batched: its conv kernel keeps one batch
    // row's phase planes and wide output in per-thread scratch, grown by warm()'s pass
    // and reused after it, so warmed passes allocate nothing.
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let c = b.conv2d(x, 1, 4, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let f = b.flatten(p);
    let h = b.dense(f, 4 * 4 * 4, 10, &mut rng);
    let probs = b.softmax(h);
    let graph = b.into_graph();
    let plan = graph
        .compile_with(ranger_graph::BackendKind::Simd.backend())
        .unwrap();
    let feeds = [("x", Tensor::ones(vec![8, 1, 8, 8]))];
    plan.warm(&feeds).unwrap();
    let mut fewest = usize::MAX;
    for attempt in 0..3 {
        let mut values = plan.buffers();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..100 {
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if attempt == 0 {
            assert_eq!(values.get(probs).unwrap().dims(), &[8, 10]);
        }
        if fewest == 0 {
            break;
        }
    }
    assert_eq!(
        fewest, 0,
        "warmed simd passes must not allocate ({fewest} allocations over 100 passes in \
         the quietest of 3 attempts)"
    );

    // Fault-cone passes on f32, SIMD and fixed16 (no softmax, as above): once a store
    // is primed from a golden snapshot, each trial — evaluated nodes, golden restores
    // of dirty slots, bitwise compares, early stops and the output's mirror read —
    // writes into buffers the store already owns. The 100 trials cycle through sites
    // from the first layer to the output, so consecutive trials restore each other's
    // cones.
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let c = b.conv2d(x, 1, 4, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let f = b.flatten(p);
    let out = b.dense(f, 4 * 4 * 4, 10, &mut rng);
    let graph = b.into_graph();
    let injectable: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| n.op.is_injectable())
        .map(|n| n.id)
        .collect();
    for kind in [
        ranger_graph::BackendKind::F32,
        ranger_graph::BackendKind::Simd,
        ranger_graph::BackendKind::Fixed16,
    ] {
        let plan = graph.compile_with(kind.backend()).unwrap();
        let feeds = [("x", Tensor::ones(vec![1, 1, 8, 8]))];
        plan.warm(&feeds).unwrap();
        let mut golden = plan.buffers();
        plan.run_into(&mut golden, &feeds, &mut NoopInterceptor)
            .unwrap();
        let snapshot = plan.snapshot(&golden).unwrap();
        let mut fewest = usize::MAX;
        for _ in 0..3 {
            let mut values = plan.buffers();
            // Prime, and let the output's mirror claim its seed buffer.
            plan.run_cone(
                &mut values,
                &snapshot,
                &injectable[..1],
                out,
                &mut NoopInterceptor,
            )
            .unwrap();
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for trial in 0..100 {
                let site = injectable[trial % injectable.len()];
                let mut flip = FlipFirst(site, trial as u32 % 12);
                let deviates = plan
                    .run_cone(&mut values, &snapshot, &[site], out, &mut flip)
                    .unwrap();
                if deviates {
                    values.get(out).unwrap();
                }
            }
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            fewest = fewest.min(after - before);
            if fewest == 0 {
                break;
            }
        }
        assert_eq!(
            fewest, 0,
            "primed {kind:?} cone passes must not allocate ({fewest} allocations over 100 \
             trials in the quietest of 3 attempts)"
        );
    }

    // Metrics on: timing slots are sized once at warm() (one Vec of atomics), and a
    // timed pass only reads the clock and bumps pre-sized atomics — so the warmed hot
    // path stays allocation-free with the registry recording. This is the other half
    // of the observability contract (the determinism half is pinned in the repo-root
    // `metrics_determinism` test).
    let was_enabled = ranger_obs::enabled();
    ranger_obs::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let c = b.conv2d(x, 1, 4, 3, 1, ranger_graph::op::Padding::Same, &mut rng);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let f = b.flatten(p);
    let h = b.dense(f, 4 * 4 * 4, 10, &mut rng);
    let probs = b.softmax(h);
    let graph = b.into_graph();
    let plan = graph.compile().unwrap();
    let feeds = [("x", Tensor::ones(vec![1, 1, 8, 8]))];
    plan.warm(&feeds).unwrap();
    let mut fewest = usize::MAX;
    for attempt in 0..3 {
        let mut values = plan.buffers();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..100 {
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if attempt == 0 {
            assert_eq!(values.get(probs).unwrap().dims(), &[1, 10]);
        }
        if fewest == 0 {
            break;
        }
    }
    assert!(
        plan.timed_passes() > 0,
        "the enabled plan must actually have timed its passes"
    );
    ranger_obs::set_enabled(was_enabled);
    assert_eq!(
        fewest, 0,
        "metrics-enabled warmed run_into must not allocate ({fewest} allocations over \
         100 timed passes in the quietest of 3 attempts)"
    );
}
