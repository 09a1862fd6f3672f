//! End-to-end privacy-preserving classification (the paper's Fig. 1
//! deployment): client encodes + encrypts, server evaluates the CNN over
//! ciphertexts, client decrypts the logits.

use crate::exec::{ExecMode, ExecPlan, InferenceTiming, LayerTiming};
use crate::he_tensor::{decrypt_tensor, encrypt_image_batch, CtTensor};
use crate::network::HeNetwork;
use crate::packed::PackedNetwork;
use crate::packed_graph::{lower_packed, PackedLowering, PACKED_INPUT};
use ckks::{
    CkksContext, CkksParams, Evaluator, GaloisKeys, HeError, KeyGenerator, PublicKey, RelinKey,
    SecretKey, ShardPlan,
};
use ckks_math::sampler::Sampler;
use std::collections::HashMap;
use std::sync::Arc;

/// The packed request path once [`CnnHePipeline::compile`] has run: the
/// lowered network plus one compiled circuit per lane stride, built
/// lazily as request strides are seen.
struct Compiled {
    packed: PackedNetwork,
    strides: HashMap<usize, CompiledStride>,
}

/// One compiled circuit per lane stride: the squat-fold lowering run
/// through [`he_ir::PassManager::optimizer`], its admission report, and
/// a Galois key set generated for exactly the optimized circuit's
/// rotation set.
struct CompiledStride {
    circuit: he_ir::Circuit,
    gk: GaloisKeys,
    report: he_ir::OptimizeReport,
    lint: he_lint::LintReport,
}

/// Op accounting of the compiled circuit for one lane stride, for
/// benches and regression gates.
#[derive(Debug, Clone)]
pub struct CompiledStats {
    /// Counts of the optimized compiled circuit (what `classify` runs).
    pub compiled: he_ir::OpCounts,
    /// What the optimizer pipeline did.
    pub report: he_ir::OptimizeReport,
}

/// A ready-to-serve encrypted-inference pipeline: context, keys and the
/// extracted network.
pub struct CnnHePipeline {
    pub ctx: Arc<CkksContext>,
    sk: SecretKey,
    pk: PublicKey,
    rk: RelinKey,
    ev: Evaluator,
    pub network: HeNetwork,
    sampler: Sampler,
    seed: u64,
    /// How encrypted layers execute (sequential by default); see
    /// [`Self::set_exec_mode`].
    exec_mode: ExecMode,
    /// `Some` once [`Self::compile`] has run; [`Self::classify`] then
    /// routes through the compiled packed circuits.
    compiled: Option<Compiled>,
}

/// Result of one encrypted classification request.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Decrypted logits per image in the batch.
    pub logits: Vec<Vec<f64>>,
    /// Predicted class per image.
    pub predictions: Vec<usize>,
    /// Measured per-layer timing (feed to [`ExecPlan`] simulation).
    pub timing: InferenceTiming,
}

/// Index of the largest logit. `f64::total_cmp` orders every value (a
/// positive NaN above +∞), so a corrupt row still yields an index
/// instead of a panic.
fn argmax(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Lowers one lane stride of the packed network to its compiled
/// circuit, optimizes it, declares the Galois elements its key set will
/// cover, and lints it with he-ir's standard passes. Touches no key
/// material.
fn lower_stride(
    ctx: &CkksContext,
    packed: &PackedNetwork,
    stride: usize,
) -> (he_ir::Circuit, he_ir::OptimizeReport, he_lint::LintReport) {
    let mut circuit = lower_packed(
        packed,
        he_ir::GraphBuilder::for_context(ctx),
        stride,
        PackedLowering::Compiled,
    );
    let report = he_ir::PassManager::optimizer()
        .optimize(&mut circuit)
        .expect("compiled lowering must survive its own optimizer");
    let required = he_ir::passes::rotations::required_elements(&circuit);
    circuit.keys = he_ir::KeyInventory::with_galois(true, required.elements);
    let lint = he_ir::PassManager::standard().run(&circuit).merged();
    (circuit, report, lint)
}

impl CnnHePipeline {
    /// Builds a pipeline with parameters sized to the network's depth:
    /// chain `[40, 26 × required_levels]`, one 40-bit special prime,
    /// Δ = 2^26, ring degree `n` (Table II uses `2^14`).
    pub fn new(network: HeNetwork, n: usize, seed: u64) -> Self {
        let depth = network.required_levels();
        let mut chain_bits = vec![40u32];
        chain_bits.extend(std::iter::repeat_n(26, depth));
        let security = if n >= 1 << 14 {
            ckks::SecurityLevel::Bits128
        } else {
            // toy/test rings cannot reach 128-bit security with this
            // depth; callers use them for correctness work only
            ckks::SecurityLevel::None
        };
        let params = CkksParams {
            n,
            chain_bits,
            special_bits: vec![40],
            scale_bits: 26,
            security,
        };
        Self::with_params(network, params, seed)
    }

    /// Builds a pipeline over explicit parameters. Unlike [`Self::new`],
    /// the chain is NOT auto-sized to the network — run
    /// [`Self::validate`] (or let `encrypt`/`classify` do it) to learn
    /// whether the plan fits.
    pub fn with_params(network: HeNetwork, params: CkksParams, seed: u64) -> Self {
        let ctx = params.build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        Self {
            ctx,
            sk,
            pk,
            rk,
            ev,
            network,
            sampler: Sampler::from_seed(seed ^ 0x00C0_FFEE),
            seed,
            exec_mode: ExecMode::sequential(),
            compiled: None,
        }
    }

    /// Switches [`Self::classify`] to the slot-packed *compiled* path:
    /// a request of B images is encrypted into `ceil(B / capacity)`
    /// batch-strided ciphertexts, and each runs the packed network's
    /// `he-ir` squat-fold circuit, optimized by
    /// [`he_ir::PassManager::optimizer`], through the IR
    /// [`he_ir::Interpreter`]. Circuits, and Galois keys covering
    /// exactly each optimized rotation set, are built per lane stride on
    /// first use. Fails typed ([`HeError::BatchExceedsSlots`]) before
    /// any keygen when even a single image's packed vector does not fit
    /// the ring. Idempotent.
    pub fn compile(&mut self) -> Result<(), HeError> {
        if self.compiled.is_none() {
            let packed = PackedNetwork::from_network(&self.network);
            packed.plan_batch(self.ctx.slots(), 1)?;
            self.compiled = Some(Compiled {
                packed,
                strides: HashMap::new(),
            });
        }
        Ok(())
    }

    /// Shard plan of a `batch`-image request on the compiled path;
    /// `None` until [`Self::compile`] has run.
    fn packed_plan(&self, batch: usize) -> Option<ShardPlan> {
        let c = self.compiled.as_ref()?;
        let plan = c.packed.plan_batch(self.ctx.slots(), batch.max(1));
        Some(plan.expect("compile() checked that one image fits the ring"))
    }

    /// Lowers, optimizes and lints the circuit for one lane stride and,
    /// when it passes admission, generates its Galois keys and caches
    /// it. Returns the stride's admission report; a failing stride is
    /// not cached and gets no keys.
    fn ensure_compiled(&mut self, stride: usize) -> he_lint::LintReport {
        let c = self.compiled.as_mut().expect("compile() ran");
        if let Some(cs) = c.strides.get(&stride) {
            return cs.lint.clone();
        }
        let (circuit, report, lint) = lower_stride(&self.ctx, &c.packed, stride);
        if !lint.has_errors() {
            let required = he_ir::passes::rotations::required_elements(&circuit);
            let steps: Vec<i64> = required.steps.into_iter().collect();
            let mut kg = KeyGenerator::new(Arc::clone(&self.ctx), self.seed ^ 0x9A71);
            let gk = kg.gen_galois_keys(&self.sk, &steps, required.conjugate);
            c.strides.insert(
                stride,
                CompiledStride {
                    circuit,
                    gk,
                    report,
                    lint: lint.clone(),
                },
            );
        }
        lint
    }

    /// Op accounting of the compiled circuit for the stride a
    /// `batch`-image request would run at (compiling that stride if
    /// needed). `None` until [`Self::compile`] has run, or when that
    /// stride's circuit fails admission.
    pub fn compiled_stats(&mut self, batch: usize) -> Option<CompiledStats> {
        let stride = self.packed_plan(batch)?.layout().stride();
        if self.ensure_compiled(stride).has_errors() {
            return None;
        }
        let cs = &self.compiled.as_ref()?.strides[&stride];
        Some(CompiledStats {
            compiled: cs.circuit.op_counts(),
            report: cs.report.clone(),
        })
    }

    /// Selects how [`Self::classify`] executes layer unit loops.
    /// Sequential mode measures clean per-unit CPU times for the
    /// simulator; [`ExecMode::unit_parallel`] runs units on real threads
    /// (bit-identical results, lower wall-clock).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Static admission check *without touching a ciphertext or a key*.
    /// `batch` is the number of images of the intended request. Scalar
    /// path: he-lint's plan analysis of the network. Compiled path:
    /// he-ir's standard passes over the circuit `classify` would run for
    /// that batch's lane stride (cached once the stride is compiled).
    pub fn validate_batch(&self, batch: usize) -> he_lint::LintReport {
        let Some(c) = &self.compiled else {
            let plan =
                crate::lint::plan_for_network(&self.network, self.ctx.params().clone(), batch);
            return he_lint::analyze(&plan);
        };
        let stride = self.packed_plan(batch).expect("compiled").layout().stride();
        match c.strides.get(&stride) {
            Some(cs) => cs.lint.clone(),
            None => lower_stride(&self.ctx, &c.packed, stride).2,
        }
    }

    /// [`Self::validate_batch`] for a single image.
    pub fn validate(&self) -> he_lint::LintReport {
        self.validate_batch(1)
    }

    /// Lowers the network to the `he-ir` circuit against this
    /// pipeline's *built* context, so declared types are bit-identical
    /// to what eager execution computes.
    pub fn lower_to_ir(&self) -> he_ir::Circuit {
        crate::graph::lower_network(
            &self.network,
            he_ir::GraphBuilder::for_context(&self.ctx),
            crate::graph::EncodeSharing::Shared,
        )
    }

    /// Runs the full standard analysis-pass suite over the lowered
    /// circuit — the deep (per-node) counterpart of the plan-level
    /// [`Self::validate`].
    pub fn check_ir(&self) -> he_ir::AnalysisReport {
        he_ir::PassManager::standard().run(&self.lower_to_ir())
    }

    /// Largest image batch one slot-packed request can carry — the
    /// ceiling a serving engine may coalesce up to. Scalar path: the
    /// CKKS slot count (one slot per image). Compiled path: the lane
    /// capacity of one ciphertext (`slots / dim`), so a coalesced batch
    /// stays a single packed ciphertext.
    pub fn max_batch(&self) -> usize {
        match &self.compiled {
            Some(c) => self.ctx.slots() / c.packed.dim,
            None => self.ctx.slots(),
        }
    }

    /// Flat pixel count one request image must have.
    pub fn input_len(&self) -> usize {
        self.network.input_side * self.network.input_side
    }

    /// Client-side: encrypts a batch of images. Panics with the full
    /// lint report if the plan cannot run under this pipeline's
    /// parameters — catching mis-planned circuits before any encrypted
    /// compute is spent.
    pub fn encrypt(&mut self, images: &[&[f32]]) -> CtTensor {
        let report = self.validate_batch(images.len());
        assert!(
            !report.has_errors(),
            "he-lint rejected the inference plan:\n{}",
            report.render()
        );
        let level = self.network.required_levels();
        encrypt_image_batch(
            &self.ev,
            &self.pk,
            &mut self.sampler,
            images,
            self.network.input_side,
            level,
        )
    }

    /// Server-side: evaluates the network on encrypted inputs; then
    /// (client-side) decrypts logits and takes argmax. Runs the scalar
    /// engine, or the compiled packed circuits once [`Self::compile`]
    /// has run. Either way the request passes one admission check
    /// ([`Self::validate_batch`]) first, and no Galois key is generated
    /// for a circuit that fails it.
    pub fn classify(&mut self, images: &[&[f32]]) -> Classification {
        assert!(!images.is_empty(), "cannot classify an empty batch");
        let plan = self.packed_plan(images.len());
        let report = match &plan {
            Some(plan) => self.ensure_compiled(plan.layout().stride()),
            None => self.validate_batch(images.len()),
        };
        assert!(
            !report.has_errors(),
            "he-lint rejected the inference plan:\n{}",
            report.render()
        );
        let (logits, timing) = match plan {
            Some(plan) => self.run_compiled(images, &plan),
            None => self.run_scalar(images),
        };
        let predictions = logits.iter().map(|row| argmax(row)).collect();
        Classification {
            logits,
            predictions,
            timing,
        }
    }

    /// The scalar request path: one ciphertext stream per activation,
    /// images batched across the slots, per-layer timing measured.
    fn run_scalar(&mut self, images: &[&[f32]]) -> (Vec<Vec<f64>>, InferenceTiming) {
        let x = encrypt_image_batch(
            &self.ev,
            &self.pk,
            &mut self.sampler,
            images,
            self.network.input_side,
            self.network.required_levels(),
        );
        let (logits_ct, timing) =
            self.network
                .infer_encrypted_with(&self.ev, &self.rk, x, self.exec_mode);
        let logits = decrypt_tensor(&self.ev, &self.sk, &logits_ct, images.len());
        (logits, timing)
    }

    /// The compiled request path: encrypt the images into the plan's
    /// batch-strided shard ciphertexts, run each through the stride's
    /// optimized circuit with the circuit's own Galois keys, decrypt one
    /// logits row per image. Timing has one entry per shard.
    fn run_compiled(
        &mut self,
        images: &[&[f32]],
        plan: &ShardPlan,
    ) -> (Vec<Vec<f64>>, InferenceTiming) {
        let c = self.compiled.as_ref().expect("compile() ran");
        let cs = &c.strides[&plan.layout().stride()];
        let cts = c
            .packed
            .encrypt_batch(&self.ev, &self.pk, &mut self.sampler, images, plan)
            .expect("the shard plan fits by construction");
        let mut outs = Vec::with_capacity(cts.len());
        let mut layers = Vec::with_capacity(cts.len());
        for (s, ct) in cts.into_iter().enumerate() {
            let t0 = std::time::Instant::now();
            let inputs = HashMap::from([(PACKED_INPUT.to_string(), ct)]);
            let mut shard_outs = he_ir::Interpreter::new(&self.ev)
                .with_relin(&self.rk)
                .with_galois(&cs.gk)
                .run(&cs.circuit, &inputs)
                .expect("optimizer-validated circuit executes");
            outs.push(shard_outs.remove(0));
            let wall = t0.elapsed();
            layers.push(LayerTiming {
                name: format!("compiled shard {s}"),
                unit_times: vec![wall],
                parallel: true,
                fixed: std::time::Duration::ZERO,
                wall,
            });
        }
        let logits = c.packed.decrypt_batch(&self.ev, &self.sk, &outs, plan);
        (logits, InferenceTiming { layers })
    }

    /// [`Self::classify`] with full runtime telemetry: the whole run is
    /// wrapped in an [`he_trace::TraceSession`] (spans + exact op-counter
    /// attribution — the session's global lock serializes concurrent
    /// traced runs), each layer samples its output level/scale/headroom,
    /// and the observed trajectory is cross-checked against the he-lint
    /// static plan. `trace.divergence` is empty iff the run followed the
    /// plan.
    pub fn traced_infer(
        &mut self,
        images: &[&[f32]],
    ) -> (Classification, crate::trace::InferenceTrace) {
        let session = he_trace::TraceSession::begin();
        let x = self.encrypt(images);
        let start_level = x.level();
        let start_scale = x.scale();
        let start_headroom = ckks::noise::headroom_bits(&self.ctx, &x.cts[0]);
        let ops0 = he_trace::OpSnapshot::now();
        let (logits_ct, timing, layers) =
            self.network
                .infer_encrypted_traced(&self.ev, &self.rk, x, self.exec_mode);
        let total_ops = he_trace::OpSnapshot::now().delta(&ops0);
        let events = session.finish();
        let plan =
            crate::lint::plan_for_network(&self.network, self.ctx.params().clone(), images.len());
        let mut trace = crate::trace::InferenceTrace::new(
            start_level,
            start_scale,
            start_headroom,
            layers,
            timing.clone(),
            events,
            total_ops,
            &plan,
        );
        // second, finer cross-check: the per-region exit types and op
        // counts of the lowered IR circuit against the observed telemetry
        trace.divergence.extend(crate::trace::ir_cross_check(
            &trace.layers,
            &self.lower_to_ir(),
        ));
        // publish the measured level/headroom trajectory as live gauges
        // (no-op unless the `metrics` feature is on)
        trace.export_gauges();
        let logits = decrypt_tensor(&self.ev, &self.sk, &logits_ct, images.len());
        let predictions = logits.iter().map(|row| argmax(row)).collect();
        (
            Classification {
                logits,
                predictions,
                timing,
            },
            trace,
        )
    }

    /// Direct access for benches/tests.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    pub fn relin_key(&self) -> &RelinKey {
        &self.rk
    }

    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Renders the execution dataflow of an [`ExecPlan`] — the textual
    /// regeneration of the paper's Fig. 5.
    pub fn execution_plan_description(&self, plan: ExecPlan) -> String {
        let mut out = String::new();
        let k = plan.streams;
        if k <= 1 {
            out.push_str("CNN-HE (sequential baseline)\n");
            out.push_str("  encrypted input ──► ");
            for l in &self.network.layers {
                out.push_str(&format!("{} ──► ", l.name()));
            }
            out.push_str("encrypted logits\n");
        } else {
            out.push_str(&format!(
                "CNN-HE-RNS (k = {k} parallel streams, {} virtual cores)\n",
                plan.virtual_cores
            ));
            out.push_str("  encrypted input ──► RNS decompose ─┬─►\n");
            for j in 0..k.min(4) {
                out.push_str(&format!(
                    "      stream {j}: {}\n",
                    self.network
                        .layers
                        .iter()
                        .map(super::network::HeLayerSpec::name)
                        .collect::<Vec<_>>()
                        .join(" ─► ")
                ));
            }
            if k > 4 {
                out.push_str(&format!("      … ({} more streams)\n", k - 4));
            }
            out.push_str("  ─┴─► CRT reassemble ──► encrypted logits\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::models::{cnn1, ActKind};

    /// A miniature CNN1-shaped network over 8×8 inputs, small enough to
    /// run under tiny ring parameters in unit tests.
    fn mini_network(seed: u64) -> HeNetwork {
        use crate::he_layers::{ConvSpec, DenseSpec};
        use crate::network::HeLayerSpec;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.3f32..0.3)).collect() };
        let conv = ConvSpec {
            weight: w(2 * 9),
            bias: vec![0.05, -0.05],
            in_ch: 1,
            out_ch: 2,
            k: 3,
            stride: 2,
            pad: 0,
        }; // 8 → 3; flat = 2·9 = 18
        let dense1 = DenseSpec {
            weight: w(18 * 6),
            bias: w(6),
            in_dim: 18,
            out_dim: 6,
        };
        let dense2 = DenseSpec {
            weight: w(6 * 3),
            bias: w(3),
            in_dim: 6,
            out_dim: 3,
        };
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(conv),
                HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
                HeLayerSpec::Dense(dense1),
                HeLayerSpec::Activation(vec![0.0, 0.8, 0.15]),
                HeLayerSpec::Dense(dense2),
            ],
            input_side: 8,
        }
    }

    #[test]
    fn encrypted_inference_matches_plain_reference() {
        let net = mini_network(100);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 100);
        let img: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
        let want = pipe.network.infer_plain(&img);
        let got = pipe.classify(&[&img]);
        assert_eq!(got.logits.len(), 1);
        for (g, w) in got.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 2e-2, "logit mismatch: {g} vs {w}");
        }
        // prediction consistency
        assert_eq!(got.predictions[0], argmax(&want));
    }

    #[test]
    fn batch_of_images_classified_together() {
        let net = mini_network(101);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 101);
        let a: Vec<f32> = (0..64).map(|i| (i % 9) as f32 / 9.0).collect();
        let b: Vec<f32> = (0..64).map(|i| 1.0 - (i % 5) as f32 / 5.0).collect();
        let got = pipe.classify(&[&a, &b]);
        let wa = pipe.network.infer_plain(&a);
        let wb = pipe.network.infer_plain(&b);
        for (g, w) in got.logits[0].iter().zip(&wa) {
            assert!((g - w).abs() < 2e-2);
        }
        for (g, w) in got.logits[1].iter().zip(&wb) {
            assert!((g - w).abs() < 2e-2);
        }
    }

    #[test]
    fn packed_batching_classifies_a_sharded_batch() {
        let net = mini_network(107);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 107);
        // scalar path: one image per slot
        assert_eq!(pipe.max_batch(), 512);
        pipe.compile().unwrap();
        pipe.compile().unwrap();
        // 512 slots / dim 64 → one packed ciphertext carries 8 lanes
        assert_eq!(pipe.max_batch(), 8);
        // admission lints the stride's circuit without compiling it in
        assert!(!pipe.validate_batch(10).has_errors());
        assert!(pipe.compiled.as_ref().unwrap().strides.is_empty());
        let images: Vec<Vec<f32>> = (0..10)
            .map(|k| {
                (0..64)
                    .map(|i| ((i * (k + 2)) % 13) as f32 / 13.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        // 10 images spill into 2 shards; every lane must match plain
        let got = pipe.classify(&refs);
        assert_eq!(got.logits.len(), 10);
        for (k, img) in images.iter().enumerate() {
            let want = pipe.network.infer_plain(img);
            for (g, w) in got.logits[k].iter().zip(&want) {
                assert!((g - w).abs() < 3e-2, "image {k}: {g} vs {w}");
            }
        }
        // a singleton batch still runs (stride-1 degenerate layout)
        let one = pipe.classify(&refs[..1]);
        for (a, b) in one.logits[0].iter().zip(&got.logits[0]) {
            assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
        // exactly the two strides that ran were compiled and keyed
        let strides = &pipe.compiled.as_ref().unwrap().strides;
        assert!(strides.len() == 2 && strides.contains_key(&1) && strides.contains_key(&8));
    }

    #[test]
    fn compiled_path_matches_plain_and_spends_fewer_ops() {
        let net = mini_network(108);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 108);
        pipe.compile().unwrap();
        // 10 images spill into 2 shards at the full 8-lane stride
        let images: Vec<Vec<f32>> = (0..10)
            .map(|k| {
                (0..64)
                    .map(|i| ((i * (k + 2)) % 13) as f32 / 13.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        let got = pipe.classify(&refs);
        assert_eq!(got.logits.len(), 10);
        for (k, img) in images.iter().enumerate() {
            let want = pipe.network.infer_plain(img);
            for (g, w) in got.logits[k].iter().zip(&want) {
                assert!((g - w).abs() < 3e-2, "image {k}: {g} vs {w}");
            }
            assert_eq!(got.predictions[k], argmax(&want), "image {k}");
        }
        // a singleton batch exercises the stride-1 compiled circuit
        let one = pipe.classify(&refs[..1]);
        for (a, b) in one.logits[0].iter().zip(&got.logits[0]) {
            assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
        // the optimizer must beat the eager lowering (the packed BSGS
        // reference engine, op for op) by 15 % rotations and 10 % total
        // ops on both strides seen above
        let packed = PackedNetwork::from_network(&pipe.network);
        for batch in [1usize, 10] {
            let stats = pipe.compiled_stats(batch).unwrap();
            assert!(stats.report.changed());
            let stride = pipe.packed_plan(batch).unwrap().layout().stride();
            let eager = lower_packed(
                &packed,
                he_ir::GraphBuilder::for_context(&pipe.ctx),
                stride,
                PackedLowering::Eager,
            );
            let (e, c) = (eager.op_counts(), stats.compiled);
            assert!(
                (c.rotations as f64) <= 0.85 * e.rotations as f64,
                "batch {batch} rotations: {} vs {}",
                c.rotations,
                e.rotations
            );
            let total = |o: he_ir::OpCounts| o.ct_mults + o.scalar_macs + o.rescales + o.rotations;
            assert!(
                (total(c) as f64) <= 0.90 * total(e) as f64,
                "batch {batch} total ops: {} vs {}",
                total(c),
                total(e)
            );
        }
    }

    #[test]
    fn argmax_survives_nan_logits() {
        assert_eq!(argmax(&[0.1, 0.7, -0.2]), 1);
        let row = [0.1, f64::NAN, 0.3];
        assert!(argmax(&row) < row.len());
        assert!(argmax(&[f64::NAN; 4]) < 4);
    }

    #[test]
    fn timing_supports_all_plans_from_one_run() {
        let net = mini_network(102);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 102);
        let img = vec![0.3f32; 64];
        let got = pipe.classify(&[&img]);
        let base = got.timing.simulated_wall(ExecPlan::baseline());
        let mut prev = base;
        for k in [3usize, 6, 9] {
            let w = got.timing.simulated_wall(ExecPlan::rns(k));
            assert!(w <= prev, "k={k} should not be slower");
            prev = w;
        }
        assert!(prev < base, "parallel plan should beat baseline");
    }

    #[test]
    fn plan_descriptions_render() {
        let net = mini_network(103);
        let pipe_net = net.clone();
        let pipe = CnnHePipeline::new(pipe_net, 1 << 10, 103);
        let d1 = pipe.execution_plan_description(ExecPlan::baseline());
        assert!(d1.contains("sequential baseline"));
        let d2 = pipe.execution_plan_description(ExecPlan::rns(5));
        assert!(d2.contains("k = 5"));
        assert!(d2.contains("CRT reassemble"));
    }

    #[test]
    fn traced_infer_matches_static_plan() {
        let net = mini_network(105);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 105);
        let img: Vec<f32> = (0..64).map(|i| ((i * 5) % 11) as f32 / 11.0).collect();
        let (cls, trace) = pipe.traced_infer(&[&img]);
        // classification unaffected by tracing
        let want = pipe.network.infer_plain(&img);
        for (g, w) in cls.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 2e-2);
        }
        // the observed level/scale trajectory must agree with he-lint
        assert!(
            trace.divergence.is_empty(),
            "runtime diverged from the static plan:\n{}",
            trace.divergence.join("\n")
        );
        assert_eq!(trace.layers.len(), 5);
        assert_eq!(trace.start_level, pipe.network.required_levels());
        // logits land at level 0 with the input scale (exact-scale
        // discipline end to end)
        let last = trace.layers.last().unwrap();
        assert_eq!(last.level, 0);
        assert!((last.scale.log2() - trace.start_scale.log2()).abs() < 0.1);
        // headroom drains monotonically
        let mut prev = trace.start_headroom_bits;
        for l in &trace.layers {
            assert!(
                l.headroom_bits <= prev + 1e-9,
                "headroom grew at {}: {} > {prev}",
                l.name,
                l.headroom_bits
            );
            prev = l.headroom_bits;
        }
        // report renders with one row per layer
        let report = trace.report();
        assert_eq!(report.rows.len(), 5);
        assert!(report.breakdown().contains("total"));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_infer_records_spans_and_ops() {
        let net = mini_network(106);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 106);
        let img = vec![0.2f32; 64];
        let (_, trace) = pipe.traced_infer(&[&img]);
        // with tracing compiled in, the session captures layer spans …
        assert!(
            trace.events.iter().any(|e| e.cat == he_trace::cats::LAYER),
            "no layer spans recorded"
        );
        // … per-layer op deltas are non-trivial (≥: other test threads
        // may add to the globals, never subtract) …
        assert!(!trace.total_ops.is_zero());
        for l in &trace.layers {
            assert!(l.ops.rescales >= 1, "{} recorded no rescale", l.name);
        }
        // … and the chrome export round-trips the validator
        let json = trace.chrome_json().expect("span timestamps must be finite");
        let n = he_trace::validate_chrome_json(&json).expect("invalid chrome trace");
        assert_eq!(n, trace.events.len());
        assert!(!trace.folded_stacks().is_empty());
    }

    #[test]
    fn full_cnn1_extraction_runs_on_toy_ring() {
        // CNN1 at real 28×28 scale, untrained weights, tiny ring: checks
        // wiring end-to-end without the cost of full-size parameters.
        let model = cnn1(ActKind::slaf3(), 104);
        let net = HeNetwork::from_trained(&model, 28);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 104);
        let img: Vec<f32> = (0..784).map(|i| ((i * 3) % 29) as f32 / 29.0).collect();
        let want = pipe.network.infer_plain(&img);
        let got = pipe.classify(&[&img]);
        for (g, w) in got.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 5e-2, "{g} vs {w}");
        }
    }
}
