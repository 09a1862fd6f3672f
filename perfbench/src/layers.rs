//! Outside-in layer measurements: each one times calls into a layer's
//! public functions, never code inside the program.

use crate::report::Metrics;
use crate::stats::median;
use ckks::{GaloisKeys, KeyGenerator, PublicKey};
use ckks_math::fft::Complex;
use ckks_math::ntt::NttTable;
use ckks_math::sampler::Sampler;
use cnn_he::packed::PackedNetwork;
use cnn_he::{lower_packed, CnnHePipeline, PackedLowering, PACKED_INPUT};
use he_trace::OpSnapshot;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The he-trace counters of one request (or call), as per-layer metrics.
fn ops_metrics(m: &mut Metrics, ops: &OpSnapshot) {
    let per_req = |v: u64| v as f64;
    m.put("ckks.rotations_per_req", per_req(ops.rotations), "count");
    m.put(
        "ckks.keyswitches_per_req",
        per_req(ops.keyswitches),
        "count",
    );
    m.put("ckks.relins_per_req", per_req(ops.relins), "count");
    m.put("ckks.rescales_per_req", per_req(ops.rescales), "count");
    m.put("ckks.ct_mults_per_req", per_req(ops.ct_mults), "count");
    m.put(
        "ckks.scalar_macs_per_req",
        per_req(ops.scalar_macs),
        "count",
    );
    m.put("ckks_math.ntt_fwd_per_req", per_req(ops.ntt_fwd), "count");
    m.put("ckks_math.ntt_inv_per_req", per_req(ops.ntt_inv), "count");
    m.put(
        "ckks_math.modmul_limbs_per_req",
        per_req(ops.modmul_limbs),
        "count",
    );
}

/// Median wall of `op` over as many calls as fit in `budget` (5 to 2000).
fn unit_cost(budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut walls = Vec::new();
    let t0 = Instant::now();
    while walls.len() < 5 || (t0.elapsed() < budget && walls.len() < 2000) {
        let (_, s) = secs(&mut op);
        walls.push(s);
    }
    median(&walls)
}

/// Unit costs of the ckks primitives at the top level of the
/// pipeline's ring, and of one NTT round trip over its first prime.
pub fn unit_costs(m: &mut Metrics, pipe: &CnnHePipeline, seed: u64) {
    let budget = Duration::from_millis(150);
    let ctx = &pipe.ctx;
    let ev = pipe.evaluator();
    let sk = pipe.secret_key();
    let mut kg = KeyGenerator::new(Arc::clone(ctx), seed ^ 0x0017_5C05);
    let pk = kg.gen_public_key(sk);
    let gk = kg.gen_galois_keys(sk, &[1], false);
    let top = ctx.max_level();
    let scale = ctx.params().scale();
    let values: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::from(((i % 17) as f64 - 8.0) / 16.0))
        .collect();
    let pt = ckks::encode(ctx, &values, scale, top);
    let mut sampler = Sampler::from_seed(seed ^ 0x00E7_C0DE);
    let ct = ev.encrypt(&pt, &pk, &mut sampler);

    let rot = unit_cost(budget, || drop(black_box(ev.rotate(&ct, 1, &gk))));
    let enc = unit_cost(budget, || {
        drop(black_box(ckks::encode(ctx, black_box(&values), scale, top)));
    });
    let mulp = unit_cost(budget, || drop(black_box(ev.mul_plain(&ct, &pt))));
    let relin = unit_cost(budget, || {
        drop(black_box(ev.square(&ct, pipe.relin_key())));
    });
    let resc = unit_cost(budget, || drop(black_box(ev.rescale(&ct))));
    let w = ev.prepare_scalar(0.5, scale, top);
    let mut acc = ev.mul_scalar(&ct, 0.5, scale);
    let mac = unit_cost(budget, || ev.mul_residues_acc(&mut acc, &ct, &w));
    black_box(&acc);
    let table = NttTable::cached(ctx.n(), ctx.chain_moduli()[0]);
    let mut data: Vec<u64> = (0..ctx.n() as u64).collect();
    let ntt = unit_cost(budget, || {
        table.forward(&mut data);
        table.inverse(&mut data);
    });
    black_box(&data);

    m.put("ckks.rotate_unit_s", rot, "s");
    m.put("ckks.encode_unit_s", enc, "s");
    m.put("ckks.mul_plain_unit_s", mulp, "s");
    m.put("ckks.relin_unit_s", relin, "s");
    m.put("ckks.rescale_unit_s", resc, "s");
    m.put("ckks.mac_unit_s", mac, "s");
    m.put("ckks_math.ntt_unit_s", ntt, "s");
}

/// Static node census of a circuit (zeros without one).
fn census(m: &mut Metrics, c: Option<&he_ir::Circuit>) {
    use he_ir::Op;
    let count = |f: fn(&Op) -> bool| c.map_or(0, |c| c.nodes.iter().filter(|n| f(&n.op)).count());
    m.put(
        "he_ir.nodes.rotate",
        count(|o| matches!(o, Op::Rotate { .. })) as f64,
        "count",
    );
    m.put(
        "he_ir.nodes.mul_plain",
        count(|o| matches!(o, Op::MulPlain { .. })) as f64,
        "count",
    );
    m.put(
        "he_ir.nodes.encode_vec",
        count(|o| matches!(o, Op::EncodeVec { .. })) as f64,
        "count",
    );
    m.put(
        "he_ir.nodes.rescale",
        count(|o| matches!(o, Op::Rescale { .. })) as f64,
        "count",
    );
    m.put(
        "he_ir.nodes.total",
        c.map_or(0, |c| c.nodes.len()) as f64,
        "count",
    );
}

/// Walls of one request broken into the public calls
/// `CnnHePipeline::classify` makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub validate: f64,
    pub encrypt: f64,
    /// The encrypted evaluation: `Interpreter::run` on the compiled path,
    /// `HeNetwork::infer_encrypted_with` on the scalar path.
    pub eval: f64,
    pub decrypt: f64,
    /// Wall of the whole decomposed request.
    pub total: f64,
}

impl Split {
    pub fn residual(&self) -> f64 {
        self.total - (self.validate + self.encrypt + self.eval + self.decrypt)
    }
}

/// A one-image compiled request rebuilt from public calls: the
/// benchmark lowers and optimizes the circuit itself and generates its
/// own Galois and public keys from the pipeline's secret key.
pub struct Decomposer {
    packed: PackedNetwork,
    pub circuit: he_ir::Circuit,
    gk: GaloisKeys,
    pk: PublicKey,
    sampler: Sampler,
    pub compile_s: f64,
    pub galois_keygen_s: f64,
}

impl Decomposer {
    pub fn new(pipe: &CnnHePipeline, seed: u64) -> Self {
        let packed = PackedNetwork::from_network(&pipe.network);
        let stride = packed
            .plan_batch(pipe.ctx.slots(), 1)
            .expect("one image fits the ring")
            .layout()
            .stride();
        let (circuit, compile_s) = secs(|| {
            let mut c = lower_packed(
                &packed,
                he_ir::GraphBuilder::for_context(&pipe.ctx),
                stride,
                PackedLowering::Compiled,
            );
            he_ir::PassManager::optimizer()
                .optimize(&mut c)
                .expect("the compiled lowering survives its optimizer");
            c
        });
        let steps: Vec<i64> = he_ir::passes::rotations::required_elements(&circuit)
            .steps
            .into_iter()
            .collect();
        let mut kg = KeyGenerator::new(Arc::clone(&pipe.ctx), seed ^ 0x00DE_C0DE);
        let (gk, galois_keygen_s) = secs(|| kg.gen_galois_keys(pipe.secret_key(), &steps, false));
        let pk = kg.gen_public_key(pipe.secret_key());
        Self {
            packed,
            circuit,
            gk,
            pk,
            sampler: Sampler::from_seed(seed ^ 0x5A3B),
            compile_s,
            galois_keygen_s,
        }
    }

    /// Runs one image through validate → encrypt → interpret → decrypt.
    pub fn request(&mut self, pipe: &CnnHePipeline, image: &[f32]) -> (Vec<f64>, Split) {
        let ev = pipe.evaluator();
        let t0 = Instant::now();
        let (report, validate) = secs(|| pipe.validate_batch(1));
        assert!(!report.has_errors(), "{}", report.render());
        let plan = self
            .packed
            .plan_batch(pipe.ctx.slots(), 1)
            .expect("one image fits the ring");
        let (cts, encrypt) = secs(|| {
            self.packed
                .encrypt_batch(ev, &self.pk, &mut self.sampler, &[image], &plan)
                .expect("the shard plan fits")
        });
        let (outs, eval) = secs(|| {
            let inputs: HashMap<String, ckks::Ciphertext> = cts
                .into_iter()
                .map(|ct| (PACKED_INPUT.to_string(), ct))
                .collect();
            he_ir::Interpreter::new(ev)
                .with_relin(pipe.relin_key())
                .with_galois(&self.gk)
                .run(&self.circuit, &inputs)
                .expect("the optimized circuit executes")
        });
        let (mut logits, decrypt) = secs(|| {
            self.packed
                .decrypt_batch(ev, pipe.secret_key(), &outs, &plan)
        });
        let split = Split {
            validate,
            encrypt,
            eval,
            decrypt,
            total: t0.elapsed().as_secs_f64(),
        };
        (logits.remove(0), split)
    }
}

/// Role names of the five layers, in network order: CNN1 and mini-CNN1
/// are both conv → activation → dense → activation → dense.
pub const LAYER_ROLES: [&str; 5] = ["conv", "act1", "dense1", "act2", "dense2"];

/// What a traced run saw below he-serve: decomposed requests and the
/// untraced requests they alternated with.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub splits: Vec<Split>,
    /// Walls of the untraced requests.
    pub untraced: Vec<f64>,
    /// Per-layer walls the pipeline reported for each untraced request;
    /// empty on the compiled path, which runs the circuit as one unit.
    pub layers: Vec<Vec<f64>>,
    /// Largest logit error of any answer.
    pub err_max: f64,
    /// Wall of `CnnHePipeline::new` (key generation).
    pub keygen_s: f64,
}

impl Breakdown {
    /// Puts the he-lint, cnn-he, he-ir, ckks and ckks-math metrics.
    /// `dec` is the circuit the requests were decomposed over, `None` on
    /// the scalar path, which does not go through he-ir; `ops` is the
    /// counter delta of one request.
    pub fn put(&self, m: &mut Metrics, dec: Option<&Decomposer>, ops: &OpSnapshot) {
        let pick = |f: fn(&Split) -> f64| median(&self.splits.iter().map(f).collect::<Vec<_>>());
        m.put("he_lint.validate_s", pick(|s| s.validate), "s");
        m.put("cnn_he.encrypt_s", pick(|s| s.encrypt), "s");
        m.put("cnn_he.decrypt_s", pick(|s| s.decrypt), "s");
        for (i, role) in LAYER_ROLES.iter().enumerate() {
            let walls: Vec<f64> = self.layers.iter().map(|l| l[i]).collect();
            let v = if walls.is_empty() {
                0.0
            } else {
                median(&walls)
            };
            m.put(&format!("cnn_he.layer.{role}_s"), v, "s");
        }
        m.put("cnn_he.logit_err_max", self.err_max, "abs");
        let interp = if dec.is_some() { pick(|s| s.eval) } else { 0.0 };
        m.put("he_ir.interp_s", interp, "s");
        m.put("he_ir.compile_s", dec.map_or(0.0, |d| d.compile_s), "s");
        census(m, dec.map(|d| &d.circuit));
        m.put("ckks.keygen_s", self.keygen_s, "s");
        let gk = dec.map_or(0.0, |d| d.galois_keygen_s);
        m.put("ckks.galois_keygen_s", gk, "s");
        ops_metrics(m, ops);
        let overhead = pick(|s| s.total) / median(&self.untraced) - 1.0;
        m.put("trace.overhead_share", overhead, "share");
        m.put(
            "trace.residual_share",
            pick(|s| s.residual() / s.total),
            "share",
        );
    }
}
