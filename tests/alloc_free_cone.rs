//! Fault-cone trials on a zoo model allocate nothing once warm.
//!
//! Every campaign trial runs as a fault cone (`ExecPlan::run_cone`), so the cone is the
//! campaign's only faulty-pass executor. This pins its allocation contract on the zoo
//! ResNet-18 with the SIMD backend, the conv-bound shape the benchmark measures: after
//! the store is primed from a golden snapshot, trials with sites spread over every
//! injectable node write only into buffers the store and the conv's per-thread scratch
//! already own. A counting global allocator wraps the system allocator; the file holds
//! exactly one test so no concurrent test can perturb the counter.

use ranger_engine::canonical_input;
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::{BackendKind, Interceptor, Node, NodeId};
use ranger_models::{archs, ModelConfig, ModelKind};
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

/// Flips bit `.1` of element `.2` of node `.0`'s output: an allocation-free stand-in for
/// the fault injector.
struct Flip(NodeId, u32, usize);

impl Interceptor for Flip {
    fn after_op(&mut self, node: &Node, output: &mut Tensor) {
        if node.id == self.0 {
            let len = output.len();
            let v = &mut output.data_mut()[self.2 % len];
            *v = f32::from_bits(v.to_bits() ^ (1 << self.1));
        }
    }

    fn after_op_words(&mut self, node: &Node, output: &mut QTensor) {
        if node.id == self.0 {
            output.flip_word(self.2 % output.len(), self.1);
        }
    }
}

#[test]
fn warmed_cone_trials_on_zoo_resnet18_simd_allocate_nothing() {
    let model = archs::build(&ModelConfig::new(ModelKind::ResNet18), 0);
    let out = model.output;
    let injectable: Vec<NodeId> = model
        .graph
        .nodes()
        .iter()
        .filter(|n| n.op.is_injectable())
        .map(|n| n.id)
        .collect();
    let plan = model
        .graph
        .compile_with(BackendKind::Simd.backend())
        .unwrap();
    let feeds = [(model.input_name.as_str(), canonical_input(&model))];
    plan.warm(&feeds).unwrap();
    let mut golden = plan.buffers();
    plan.run_into(&mut golden, &feeds, &mut NoopInterceptor)
        .unwrap();
    let snapshot = plan.snapshot(&golden).unwrap();

    // The trials sweep every injectable node twice, with bits from the mantissa to the
    // exponent, so consecutive trials restore each other's cones and both masked and
    // propagating faults occur. Harness threads may allocate at any moment; a genuine
    // per-trial allocation shows up in every attempt, so the minimum over a few
    // attempts rejects that noise without weakening the property.
    let trials = 2 * injectable.len();
    let mut fewest = usize::MAX;
    let mut deviating = 0usize;
    for _ in 0..3 {
        let mut values = plan.buffers();
        // Prime, and let the output's slot claim its buffer.
        plan.run_cone(
            &mut values,
            &snapshot,
            &injectable[..1],
            out,
            &mut NoopInterceptor,
        )
        .unwrap();
        deviating = 0;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for trial in 0..trials {
            let site = injectable[trial % injectable.len()];
            let mut flip = Flip(site, (trial as u32 * 7) % 32, trial * 31);
            if plan
                .run_cone(&mut values, &snapshot, &[site], out, &mut flip)
                .unwrap()
            {
                values.get(out).unwrap();
                deviating += 1;
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        fewest = fewest.min(after - before);
        if fewest == 0 {
            break;
        }
    }
    assert!(
        deviating > 0 && deviating < trials,
        "the sweep must mix propagating and masked faults ({deviating} of {trials} \
         reached the output)"
    );
    assert_eq!(
        fewest, 0,
        "primed SIMD cone trials on ResNet-18 must not allocate ({fewest} allocations over \
         {trials} trials in the quietest of 3 attempts)"
    );
}
