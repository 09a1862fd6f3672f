//! The closed-loop CNN1 workloads: `cnn1-single` (compiled path, one
//! image per request at N = 2^12) and `cnn1-bulk` (scalar path, 512
//! images per call at N = 2^10).

use crate::check::{argmax, check_answer, Outcome, TOL_PACKED, TOL_SCALAR};
use crate::layers::{secs, unit_costs, Breakdown, Decomposer, Split, LAYER_ROLES};
use crate::report::Metrics;
use crate::stats::{median, tail};
use crate::{Args, Run};
use ckks_math::sampler::Sampler;
use cnn_he::he_tensor::{decrypt_tensor, encrypt_image_batch};
use cnn_he::{Classification, CnnHePipeline, HeNetwork};
use he_trace::OpSnapshot;
use neural::mnist;
use neural::models::{cnn1, ActKind};
use std::sync::Arc;
use std::time::Instant;

const SINGLE_LOG_N: u32 = 12;
const BULK_LOG_N: u32 = 10;
/// Images per bulk call: one per slot of the N = 2^10 ring.
const BULK_IMAGES: usize = 512;
/// Distinct images the single-image client cycles through.
const SINGLE_POOL: usize = 32;

fn network(seed: u64) -> HeNetwork {
    HeNetwork::from_trained(&cnn1(ActKind::slaf3(), seed), mnist::SIDE)
}

struct Inputs {
    net: HeNetwork,
    images: Vec<Vec<f32>>,
    plain: Vec<Vec<f64>>,
}

fn inputs(seed: u64, count: usize) -> Inputs {
    let net = network(seed);
    let data = mnist::synthetic(count, seed ^ 0xD161_7000);
    let images: Vec<Vec<f32>> = (0..count).map(|i| data.image(i).to_vec()).collect();
    let plain = images.iter().map(|img| net.infer_plain(img)).collect();
    Inputs { net, images, plain }
}

/// Builds the pipeline the workload serves from, `reps` times (keeping
/// the last), and returns it with every set-up wall and keygen wall.
fn setup(
    inp: &Inputs,
    log_n: u32,
    seed: u64,
    compiled: bool,
    reps: usize,
) -> (CnnHePipeline, Vec<f64>, f64) {
    let mut walls = Vec::new();
    let mut keygen = Vec::new();
    let mut pipe = None;
    for _ in 0..reps {
        // one pipeline alive at a time, so peak RSS is one pipeline's
        drop(pipe.take());
        let t0 = Instant::now();
        let (mut p, kg) = secs(|| CnnHePipeline::new(inp.net.clone(), 1 << log_n, seed));
        if compiled {
            p.compile().expect("CNN1 packs into the ring");
            p.compiled_stats(1).expect("compiled path enabled");
        }
        walls.push(t0.elapsed().as_secs_f64());
        keygen.push(kg);
        pipe = Some(p);
    }
    (pipe.expect("at least one set-up"), walls, median(&keygen))
}

/// Checks a classification against the plaintext logits of the images
/// it carried and records each image in the run's tally; returns whether
/// every image was correct, and the largest logit error.
fn grade(
    run: &mut Run,
    cls: &Classification,
    plain: &[&Vec<f64>],
    tol: f64,
    wall: f64,
) -> (bool, f64) {
    let mut all_ok = true;
    let mut err_max = 0.0f64;
    for (b, want) in plain.iter().enumerate() {
        match check_answer(&cls.logits[b], cls.predictions[b], want, tol) {
            Ok(e) => {
                err_max = err_max.max(e);
                run.tally.record(
                    Outcome::Correct {
                        latency: std::time::Duration::from_secs_f64(wall),
                    },
                    None,
                );
            }
            Err(why) => {
                all_ok = false;
                run.tally.record(Outcome::Wrong, None);
                run.errors.push(format!("image {b}: {why}"));
            }
        }
    }
    (all_ok, err_max)
}

/// Requires every per-request counter delta to equal the first.
fn same_counts(run: &mut Run, ops: &[OpSnapshot], what: &str) {
    if let Some(first) = ops.first() {
        if let Some(i) = ops.iter().position(|o| o != first) {
            run.errors.push(format!(
                "{what} {i} op counts {:?} differ from the first {:?}",
                ops[i], first
            ));
        }
    }
}

fn closed_loop_e2e(m: &mut Metrics, setups: &[f64], walls: &[f64], images: u64, calls_ok: u64) {
    let total: f64 = walls.iter().sum();
    let p50 = median(walls);
    m.put("setup_s", median(setups), "s");
    m.put("latency_p50_s", p50, "s");
    m.put("throughput_img_s", images as f64 / total, "img/s");
    m.put("serve_p50_s", p50, "s");
    m.put(
        "serve_p95_s",
        tail(walls, 0.95).expect("a request ran").value,
        "s",
    );
    m.put("goodput_rps", calls_ok as f64 / total, "req/s");
}

/// he-serve metrics of a closed loop: no queue, and each call is one
/// batch of `images` images.
fn closed_loop_serve(m: &mut Metrics, walls: &[f64], images: usize, ok_calls: u64) {
    m.put("he_serve.queue_wait_p50_s", 0.0, "s");
    m.put("he_serve.batch_wall_p50_s", median(walls), "s");
    m.put("he_serve.batch_size_mean", images as f64, "count");
    let useful = ok_calls as f64 / walls.len() as f64;
    m.put("he_serve.useful_share", useful, "share");
    m.put("he_serve.refused_share", 0.0, "share");
    m.put("he_serve.expired_share", 0.0, "share");
}

/// `cnn1-single`: one client sends one image at a time through the
/// compiled path.
pub fn single(args: &Args, run: &mut Run) {
    let inp = inputs(args.seed, SINGLE_POOL);
    let reps = if args.trace { 1 } else { 3 };
    let (mut pipe, setups, keygen_s) = setup(&inp, SINGLE_LOG_N, args.seed, true, reps);
    let stats = pipe.compiled_stats(1).expect("compiled path enabled");
    let mut dec = args.trace.then(|| Decomposer::new(&pipe, args.seed));
    if args.trace {
        unit_costs(&mut run.metrics, &pipe, args.seed);
    }

    let mut ops = Vec::new();
    let mut ok_calls = 0u64;
    let mut bd = Breakdown {
        keygen_s,
        ..Breakdown::default()
    };
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds || bd.untraced.is_empty() {
        let i = bd.untraced.len() % SINGLE_POOL;
        let img = inp.images[i].as_slice();
        let o0 = OpSnapshot::now();
        let (cls, wall) = secs(|| pipe.classify(&[img]));
        let delta = OpSnapshot::now().delta(&o0);
        let (ok, e) = grade(run, &cls, &[&inp.plain[i]], TOL_PACKED, wall);
        ok_calls += u64::from(ok);
        bd.err_max = bd.err_max.max(e);
        bd.untraced.push(wall);
        ops.push(delta);
        let Some(dec) = dec.as_mut() else { continue };
        let o0 = OpSnapshot::now();
        let (logits, split) = dec.request(&pipe, img);
        let traced = OpSnapshot::now().delta(&o0);
        if traced != delta {
            run.errors.push(format!(
                "traced request counted {traced:?}, untraced {delta:?}"
            ));
        }
        match check_answer(&logits, argmax(&logits), &inp.plain[i], TOL_PACKED) {
            Ok(e) => bd.err_max = bd.err_max.max(e),
            Err(why) => run.errors.push(format!("traced request: {why}")),
        }
        bd.splits.push(split);
    }
    same_counts(run, &ops, "request");
    // the runtime counters agree with the static count of the circuit
    let c = stats.compiled;
    if ops[0].rotations != c.rotations || ops[0].rescales != c.rescales {
        run.errors.push(format!(
            "runtime counted {} rotations / {} rescales, circuit has {} / {}",
            ops[0].rotations, ops[0].rescales, c.rotations, c.rescales
        ));
    }
    run.notes.push(format!(
        "requests {}, ops/request {:?}",
        bd.untraced.len(),
        ops[0]
    ));
    run.notes.push(format!("request walls {:.3?}", bd.untraced));

    let m = &mut run.metrics;
    if args.trace {
        closed_loop_serve(m, &bd.untraced, 1, ok_calls);
        bd.put(m, dec.as_ref(), &ops[0]);
    } else {
        closed_loop_e2e(m, &setups, &bd.untraced, run.tally.within_limit, ok_calls);
    }
}

/// One bulk call made one public call at a time, with a public key of
/// the pipeline's secret key (the pipeline keeps its own private).
fn bulk_request(
    pipe: &CnnHePipeline,
    pk: &ckks::PublicKey,
    sampler: &mut Sampler,
    images: &[&[f32]],
) -> (Vec<Vec<f64>>, Split) {
    let ev = pipe.evaluator();
    let t0 = Instant::now();
    let (report, validate) = secs(|| pipe.validate_batch(images.len()));
    assert!(!report.has_errors(), "{}", report.render());
    let level = pipe.network.required_levels();
    let (x, encrypt) = secs(|| encrypt_image_batch(ev, pk, sampler, images, mnist::SIDE, level));
    let ((y, _), eval) = secs(|| {
        pipe.network
            .infer_encrypted_with(ev, pipe.relin_key(), x, pipe.exec_mode())
    });
    let (logits, decrypt) = secs(|| decrypt_tensor(ev, pipe.secret_key(), &y, images.len()));
    let split = Split {
        validate,
        encrypt,
        eval,
        decrypt,
        total: t0.elapsed().as_secs_f64(),
    };
    (logits, split)
}

/// `cnn1-bulk`: one client classifies 512 images per call on the scalar
/// path.
pub fn bulk(args: &Args, run: &mut Run) {
    let inp = inputs(args.seed, BULK_IMAGES);
    let reps = if args.trace { 1 } else { 5 };
    let (mut pipe, setups, keygen_s) = setup(&inp, BULK_LOG_N, args.seed, false, reps);
    let refs: Vec<&[f32]> = inp.images.iter().map(Vec::as_slice).collect();
    let plain: Vec<&Vec<f64>> = inp.plain.iter().collect();
    if args.trace {
        unit_costs(&mut run.metrics, &pipe, args.seed);
    }
    let mut kg = ckks::KeyGenerator::new(Arc::clone(&pipe.ctx), args.seed ^ 0xB01C);
    let pk = kg.gen_public_key(pipe.secret_key());
    let mut sampler = Sampler::from_seed(args.seed ^ 0xB01D);

    let mut ops = Vec::new();
    let mut ok_calls = 0u64;
    let mut bd = Breakdown {
        keygen_s,
        ..Breakdown::default()
    };
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds || bd.untraced.is_empty() {
        let o0 = OpSnapshot::now();
        let (cls, wall) = secs(|| pipe.classify(&refs));
        let delta = OpSnapshot::now().delta(&o0);
        let (ok, e) = grade(run, &cls, &plain, TOL_SCALAR, wall);
        ok_calls += u64::from(ok);
        bd.err_max = bd.err_max.max(e);
        bd.untraced.push(wall);
        ops.push(delta);
        let layers: Vec<f64> = cls
            .timing
            .layers
            .iter()
            .map(|l| l.wall.as_secs_f64())
            .collect();
        if layers.len() != LAYER_ROLES.len() {
            run.errors
                .push(format!("scalar path reported {} layers", layers.len()));
            return;
        }
        bd.layers.push(layers);
        if !args.trace {
            continue;
        }
        let o0 = OpSnapshot::now();
        let (logits, split) = bulk_request(&pipe, &pk, &mut sampler, &refs);
        let traced = OpSnapshot::now().delta(&o0);
        if traced != delta {
            run.errors.push(format!(
                "traced call counted {traced:?}, untraced {delta:?}"
            ));
        }
        for (b, want) in plain.iter().enumerate() {
            if let Err(why) = check_answer(&logits[b], argmax(&logits[b]), want, TOL_SCALAR) {
                run.errors.push(format!("traced call, image {b}: {why}"));
            }
        }
        bd.splits.push(split);
    }
    same_counts(run, &ops, "call");
    if ops[0].rotations != 0 {
        run.errors
            .push(format!("scalar path rotated {} times", ops[0].rotations));
    }
    run.notes.push(format!(
        "calls {}, ops/call {:?}",
        bd.untraced.len(),
        ops[0]
    ));

    let m = &mut run.metrics;
    if args.trace {
        closed_loop_serve(m, &bd.untraced, BULK_IMAGES, ok_calls);
        bd.put(m, None, &ops[0]);
    } else {
        closed_loop_e2e(m, &setups, &bd.untraced, run.tally.within_limit, ok_calls);
    }
}
