//! Integration: the static circuit analyzer rejects mis-planned
//! pipelines at admission time — before a single polynomial is touched.
//!
//! The acceptance scenarios of the he-lint issue: a deliberately
//! over-deep CNN2 plan (modulus chain too short) and a packed plan with
//! a missing rotation key must both be flagged as errors with zero
//! encryption work, and `Pipeline::validate()` must catch them before
//! `classify()` would panic inside a layer.

#![forbid(unsafe_code)]

use ckks::{CkksParams, SecurityLevel};
use cnn_he::lint::{plan_for_network, plan_for_packed};
use cnn_he::packed::PackedNetwork;
use cnn_he::{CnnHePipeline, HeNetwork};
use neural::models::{cnn2, ActKind};

/// Chain with `depth` rescaling primes on a toy ring — deliberately NOT
/// sized to any network.
fn params_with_depth(depth: usize) -> CkksParams {
    params_with_depth_on_ring(depth, 1 << 10)
}

fn params_with_depth_on_ring(depth: usize, n: usize) -> CkksParams {
    CkksParams {
        n,
        chain_bits: {
            let mut v = vec![40u32];
            v.extend(std::iter::repeat_n(26, depth));
            v
        },
        special_bits: vec![40],
        scale_bits: 26,
        security: SecurityLevel::None,
    }
}

/// Galois elements of the keys generated for `steps`.
fn elements(params: &CkksParams, steps: &[i64]) -> Vec<usize> {
    steps
        .iter()
        .map(|&s| params.galois_element_for_rotation(s))
        .collect()
}

/// The paper's CNN2 (conv+BN ×2, three SLAFs, two dense) extracted at
/// 28×28 — requires 10 levels.
fn cnn2_network(seed: u64) -> HeNetwork {
    let model = cnn2(ActKind::slaf3(), seed);
    HeNetwork::from_trained(&model, 28)
}

#[test]
fn over_deep_cnn2_plan_is_rejected_statically() {
    let net = cnn2_network(700);
    assert_eq!(net.required_levels(), 10);
    // chain supports only 6 of the 10 required levels
    let plan = plan_for_network(&net, params_with_depth(6), 1);
    let report = he_lint::analyze(&plan);
    assert!(report.has_errors(), "{}", report.render());
    assert!(
        report.has_code("chain-exhausted") || report.has_code("slaf-degree-vs-depth"),
        "{}",
        report.render()
    );
    // the fix suggestion quantifies the missing primes
    assert!(report.render().contains("4 more"), "{}", report.render());
}

#[test]
fn missing_rotation_key_plan_is_rejected_statically() {
    let net = cnn2_network(701);
    let packed = PackedNetwork::from_network(&net);
    // CNN2's padded packed dimension is 2048 (max layer dim 1250 → next
    // power of two), so the vector needs the 2048 slots of N = 2^12
    let params = params_with_depth_on_ring(packed.required_levels(), 1 << 12);
    assert!(packed.dim <= params.slots());
    // provision every required step except the final giant step
    let mut steps = packed.required_rotation_steps();
    let dropped = steps.pop().unwrap();
    let report = he_lint::analyze(&plan_for_packed(
        &packed,
        params.clone(),
        1,
        elements(&params, &steps),
    ));
    assert!(report.has_code("missing-galois-key"), "{}", report.render());
    let elem = params.galois_element_for_rotation(dropped);
    assert!(
        report.render().contains(&format!("element {elem}")),
        "diagnostic should name the missing Galois element {elem}:\n{}",
        report.render()
    );
    // fully provisioned, the same plan is clean
    let all = elements(&params, &packed.required_rotation_steps());
    let full = he_lint::analyze(&plan_for_packed(&packed, params, 1, all));
    assert!(!full.has_errors(), "{}", full.render());
}

#[test]
fn pipeline_validate_catches_over_deep_plan_before_classify() {
    let net = cnn2_network(702);
    let pipe = CnnHePipeline::with_params(net, params_with_depth(6), 702);
    let report = pipe.validate();
    assert!(report.has_errors(), "{}", report.render());

    // the compiled path: after `compile()`, admission is he-ir's
    // standard passes over the compiled circuit
    let net = cnn2_network(706);
    let packed = PackedNetwork::from_network(&net);
    // the packed dim (2048) fits N = 2^12; the chain is one level short
    let params = params_with_depth_on_ring(packed.required_levels() - 1, 1 << 12);
    let mut pipe = CnnHePipeline::with_params(net, params, 706);
    pipe.compile().expect("the packed dim fits the ring");
    // `validate_batch(&self)` cannot generate keys: the refusal comes
    // from he-ir's levels pass over the compiled circuit itself
    let report = pipe.validate_batch(1);
    assert!(report.has_code("chain-exhausted"), "{}", report.render());
    assert!(
        report.render().contains("bottom of the chain"),
        "{}",
        report.render()
    );
    // and the stride is never compiled, so no key is ever generated
    assert!(pipe.compiled_stats(1).is_none());
}

#[test]
#[should_panic(expected = "he-lint rejected the inference plan")]
fn classify_refuses_over_deep_plan_at_admission() {
    let net = cnn2_network(703);
    let mut pipe = CnnHePipeline::with_params(net, params_with_depth(6), 703);
    let img = vec![0.5f32; 784];
    // panics in the admission check, not minutes later inside a layer
    let _ = pipe.classify(&[&img]);
}

#[test]
fn pipeline_validate_catches_oversized_batch() {
    let net = cnn2_network(704);
    let pipe = CnnHePipeline::with_params(net, params_with_depth(10), 704);
    // N = 2^10 → 512 slots; a 600-image batch cannot pack
    let report = pipe.validate_batch(600);
    assert!(
        report.has_code("batch-exceeds-slots"),
        "{}",
        report.render()
    );
    // a sane batch on the correctly sized chain is clean
    assert!(!pipe.validate_batch(8).has_errors());
}

#[test]
fn auto_sized_pipeline_always_validates_clean() {
    let net = cnn2_network(705);
    let pipe = CnnHePipeline::new(net, 1 << 10, 705);
    let report = pipe.validate();
    assert!(!report.has_errors(), "{}", report.render());
}
