//! Lowering of the crate's network types into `he-lint` circuit plans.
//!
//! The static analyzer sees exactly the op sequence the engines run:
//! the scalar engine ([`crate::network::HeNetwork`]) is rotation-free
//! (one scalar MAC per tap), the packed engine
//! ([`crate::packed::PackedNetwork`]) prepends the BSGS baby/giant
//! rotations of each matrix layer. Both share the same SLAF lowering
//! (always two levels, always squares).

use crate::network::{HeLayerSpec, HeNetwork};
use crate::packed::{PackedLayer, PackedNetwork};
use crate::rns_input::SignalDecomposition;
use ckks::CkksParams;
use he_lint::{CircuitOp, CircuitPlan, KeyInventory};

/// Lowers a scalar-engine network to a circuit plan. `batch` is the
/// number of images packed across the slots by `encrypt_image_batch`.
pub fn plan_for_network(net: &HeNetwork, params: CkksParams, batch: usize) -> CircuitPlan {
    let mut ops = Vec::with_capacity(net.layers.len());
    let mut side = net.input_side;
    for layer in &net.layers {
        match layer {
            HeLayerSpec::Conv(spec) => {
                side = spec.out_size(side);
                ops.push(CircuitOp::Linear {
                    name: layer.name(),
                    output_units: spec.out_ch * side * side,
                });
            }
            HeLayerSpec::Dense(spec) => {
                ops.push(CircuitOp::Linear {
                    name: layer.name(),
                    output_units: spec.out_dim,
                });
            }
            HeLayerSpec::Activation(coeffs) => {
                ops.push(CircuitOp::SlafActivation {
                    name: layer.name(),
                    degree: coeffs.len().saturating_sub(1),
                });
            }
        }
    }
    // the scalar engine never rotates, so relin is the only key it needs
    CircuitPlan::new(params, ops)
        .with_keys(KeyInventory::relin_only())
        .with_slots_used(batch)
}

/// Lowers the packed (BSGS) reference engine running over a layout with
/// `stride` lanes per ciphertext to a circuit plan: per matrix layer the
/// baby and giant rotations, every step scaled by the stride, and
/// `dim · stride` slots occupied. `stride = 1` is the single-image
/// tiled plan. `elements` is the Galois-key inventory as group elements
/// (what a built [`ckks::GaloisKeys`] exposes); pass a subset of the
/// required set to lint a deliberately broken run.
pub fn plan_for_packed(
    packed: &PackedNetwork,
    params: CkksParams,
    stride: usize,
    elements: impl IntoIterator<Item = usize>,
) -> CircuitPlan {
    assert!(stride >= 1, "stride must be at least 1");
    let rotation_steps: Vec<i64> = packed
        .required_rotation_steps()
        .iter()
        .map(|&s| s * stride as i64)
        .collect();
    let mut ops = Vec::new();
    for (i, layer) in packed.layers.iter().enumerate() {
        match layer {
            PackedLayer::Matrix { dim, .. } => {
                // BSGS: baby steps then giant steps, per matrix layer
                for &steps in &rotation_steps {
                    ops.push(CircuitOp::Rotation { steps });
                }
                ops.push(CircuitOp::Linear {
                    name: format!("Matrix{i}(dim {dim})"),
                    output_units: 1,
                });
            }
            PackedLayer::Activation(coeffs) => {
                ops.push(CircuitOp::SlafActivation {
                    name: format!("SLAF{i}(deg {})", coeffs.len().saturating_sub(1)),
                    degree: coeffs.len().saturating_sub(1),
                });
            }
        }
    }
    let slots_used = packed.dim * stride;
    let layout = if stride == 1 {
        he_ir::Layout::Tiled
    } else {
        he_ir::Layout::BatchStrided { stride }
    };
    CircuitPlan::new(params, ops)
        .with_keys(KeyInventory::with_galois(true, elements))
        .with_slots_used(slots_used)
        .with_layout(layout)
}

/// Appends the RNS input-codec soundness op for a stream decomposition
/// (the Fig. 2/5 pre-processing stage of the parallel execution plan).
pub fn with_rns_codec(
    mut plan: CircuitPlan,
    decomp: &SignalDecomposition,
    max_abs: i64,
) -> CircuitPlan {
    plan.ops.insert(
        0,
        CircuitOp::RnsDecompose {
            moduli: decomp.moduli(),
            max_abs,
        },
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};

    /// Galois elements of the keys generated for `steps`.
    fn elems(params: &CkksParams, steps: &[i64]) -> Vec<usize> {
        steps
            .iter()
            .map(|&s| params.galois_element_for_rotation(s))
            .collect()
    }

    fn toy_net() -> HeNetwork {
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: vec![0.1; 2 * 9],
                    bias: vec![0.0; 2],
                    in_ch: 1,
                    out_ch: 2,
                    k: 3,
                    stride: 2,
                    pad: 0,
                }),
                HeLayerSpec::Activation(vec![0.0, 1.0, 0.5, 0.1]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: vec![0.1; 18 * 4],
                    bias: vec![0.0; 4],
                    in_dim: 18,
                    out_dim: 4,
                }),
            ],
            input_side: 8,
        }
    }

    #[test]
    fn scalar_lowering_matches_level_accounting() {
        let net = toy_net();
        let plan = plan_for_network(&net, CkksParams::tiny(net.required_levels()), 1);
        assert_eq!(plan.required_levels(), net.required_levels());
        assert_eq!(plan.ops.len(), 3);
        assert!(
            he_lint::is_clean(&plan),
            "{}",
            he_lint::analyze(&plan).render()
        );
    }

    #[test]
    fn packed_lowering_includes_rotations_and_matches_levels() {
        let net = toy_net();
        let packed = PackedNetwork::from_network(&net);
        let params = CkksParams::tiny(packed.required_levels());
        let elements = elems(&params, &packed.required_rotation_steps());
        let plan = plan_for_packed(&packed, params, 1, elements);
        assert_eq!(plan.required_levels(), packed.required_levels());
        assert!(
            plan.ops
                .iter()
                .any(|op| matches!(op, CircuitOp::Rotation { .. })),
            "packed plan must contain rotations"
        );
        assert!(
            he_lint::is_clean(&plan),
            "{}",
            he_lint::analyze(&plan).render()
        );
    }

    #[test]
    fn batched_plan_scales_rotation_steps_by_the_stride() {
        let net = toy_net();
        let packed = PackedNetwork::from_network(&net);
        let params = CkksParams::tiny(packed.required_levels());
        let stride = 4usize;
        let steps: Vec<i64> = packed
            .required_rotation_steps()
            .iter()
            .map(|&s| s * stride as i64)
            .collect();
        let elements = elems(&params, &steps);
        let plan = plan_for_packed(&packed, params, stride, elements);
        assert_eq!(plan.required_levels(), packed.required_levels());
        assert_eq!(plan.slots_used, packed.dim * stride);
        assert_eq!(plan.layout, he_ir::Layout::BatchStrided { stride });
        let plan_steps: Vec<i64> = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                CircuitOp::Rotation { steps } => Some(*steps),
                _ => None,
            })
            .collect();
        assert!(plan_steps.iter().all(|s| s % stride as i64 == 0));
        assert!(
            he_lint::is_clean(&plan),
            "{}",
            he_lint::analyze(&plan).render()
        );
        // under-provisioned stride-1 keys must fail the strided plan
        let params = CkksParams::tiny(packed.required_levels());
        let elements = elems(&params, &packed.required_rotation_steps());
        let plan = plan_for_packed(&packed, params, stride, elements);
        assert!(he_lint::analyze(&plan).has_code("missing-galois-key"));
    }

    #[test]
    fn packed_plan_with_missing_keys_flags_error() {
        let net = toy_net();
        let packed = PackedNetwork::from_network(&net);
        let params = CkksParams::tiny(packed.required_levels());
        // drop the last required step from the provisioned set
        let mut steps = packed.required_rotation_steps();
        steps.pop();
        let elements = elems(&params, &steps);
        let plan = plan_for_packed(&packed, params, 1, elements);
        let report = he_lint::analyze(&plan);
        assert!(report.has_code("missing-galois-key"), "{}", report.render());
        assert!(report.has_errors());
    }

    #[test]
    fn rns_codec_op_is_prepended_and_checked() {
        let net = toy_net();
        let decomp = SignalDecomposition::new(3, 255);
        let plan = with_rns_codec(
            plan_for_network(&net, CkksParams::tiny(net.required_levels()), 1),
            &decomp,
            255,
        );
        assert!(matches!(plan.ops[0], CircuitOp::RnsDecompose { .. }));
        assert!(
            he_lint::is_clean(&plan),
            "{}",
            he_lint::analyze(&plan).render()
        );
    }
}
