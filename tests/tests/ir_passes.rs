//! Integration: the he-ir static analyses against the real engines.
//!
//! Acceptance criteria of the circuit-IR subsystem, end to end: the
//! paper's CNN1/CNN2 lower to circuits that are clean under the full
//! standard pass suite, and the rotation-set analysis computes *exactly*
//! the Galois-key set the packed engine generates at runtime — element
//! for element, against real `KeyGenerator` output.

#![forbid(unsafe_code)]

use ckks::{CkksParams, KeyGenerator, SecurityLevel};
use cnn_he::graph::{lower_network, EncodeSharing};
use cnn_he::packed::PackedNetwork;
use cnn_he::HeNetwork;
use he_ir::passes::rotations::required_elements;
use he_ir::{GraphBuilder, PassManager};
use neural::models::{cnn1, cnn2, ActKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The paper's chain shape (`[40, 26×levels]`, Δ = 2²⁶) on ring `n`.
fn paper_params(levels: usize, n: usize) -> CkksParams {
    let mut chain_bits = vec![40u32];
    chain_bits.extend(std::iter::repeat_n(26, levels));
    CkksParams {
        n,
        chain_bits,
        special_bits: vec![40],
        scale_bits: 26,
        security: SecurityLevel::None,
    }
}

#[test]
fn cnn1_and_cnn2_lower_clean_under_the_standard_passes() {
    for (name, net) in [
        (
            "cnn1",
            HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 1), 28),
        ),
        (
            "cnn2",
            HeNetwork::from_trained(&cnn2(ActKind::slaf3(), 1), 28),
        ),
    ] {
        let params = paper_params(net.required_levels(), 1 << 14);
        let circuit = lower_network(&net, GraphBuilder::new(params), EncodeSharing::Shared);
        circuit.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = PassManager::standard().run(&circuit);
        assert!(!report.has_errors(), "{name}:\n{}", report.render());
        // one region per layer, and the scalar engine never rotates
        assert_eq!(circuit.regions.len(), net.layers.len(), "{name}");
        assert_eq!(circuit.op_counts().rotations, 0, "{name}");
        // the declared exit level is exactly the budget the network asks for
        let exit = circuit
            .nodes
            .iter()
            .rev()
            .find_map(|n| n.ty.as_ct())
            .unwrap();
        assert_eq!(exit.level, 0, "{name}: full depth consumed");
    }
}

#[test]
fn rotation_set_pass_matches_generated_galois_keys_exactly() {
    // lower the packed engine's plan and diff the pass result against
    // the keys the runtime actually generates for the same steps
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 41), 28);
    let packed = PackedNetwork::from_network(&net);
    let steps = packed.required_rotation_steps();
    let params = paper_params(packed.required_levels(), 1 << 11);
    assert!(packed.dim <= params.slots());
    let elements = steps.iter().map(|&s| params.galois_element_for_rotation(s));
    let circuit = cnn_he::lint::plan_for_packed(&packed, params.clone(), 1, elements).to_circuit();

    let required = required_elements(&circuit);
    assert!(!required.elements.is_empty(), "packed engine rotates");

    let ctx = params.build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 41);
    let sk = kg.gen_secret_key();
    let gk = kg.gen_galois_keys(&sk, &steps, false);
    let generated: BTreeSet<usize> = gk.elements().collect();

    assert_eq!(
        required.elements, generated,
        "static rotation set must equal the runtime Galois-key set"
    );
    // the plan declares that same inventory, so coverage is exact:
    // no missing key, and no key generated that the circuit never uses
    let out = PassManager::standard().run(&circuit);
    assert!(!out.has_errors(), "{}", out.render());
    assert!(!out.has_code("missing-galois-key"), "{}", out.render());
    assert!(!out.has_code("unused-galois-key"), "{}", out.render());
}

#[test]
fn underprovisioned_keys_fail_the_rotation_set_pass() {
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 42), 28);
    let packed = PackedNetwork::from_network(&net);
    let mut steps = packed.required_rotation_steps();
    steps.pop();
    let params = paper_params(packed.required_levels(), 1 << 11);
    let elements: Vec<usize> = steps
        .iter()
        .map(|&s| params.galois_element_for_rotation(s))
        .collect();
    let circuit = cnn_he::lint::plan_for_packed(&packed, params, 1, elements).to_circuit();
    let out = PassManager::standard().run(&circuit);
    assert!(out.has_errors(), "{}", out.render());
    assert!(out.has_code("missing-galois-key"), "{}", out.render());
}
