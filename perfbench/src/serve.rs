//! The open-loop serving workload on mini-CNN1: `mini-serve`, Poisson
//! arrivals at 5 rps with no deadline.

use crate::check::{argmax, check_answer, Outcome, Tally, TOL_PACKED};
use crate::layers::{secs, unit_costs, Breakdown, Decomposer};
use crate::schedule::{poisson, Arrival};
use crate::stats::{median, nearest_rank, sorted, tail};
use crate::{Args, Run};
use cnn_he::{CnnHePipeline, HeNetwork};
use he_serve::{Packing, ServeConfig, ServeEngine, ServeError, ServeResult};
use he_trace::OpSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const LOG_N: u32 = 10;
/// Distinct images the generator draws from.
const POOL: usize = 32;
/// The latency limit a response must meet to count towards goodput.
pub const LIMIT: Duration = Duration::from_millis(500);
/// Lane counts one packed ciphertext of mini-CNN1 can carry at N = 2^10.
const LANES: [usize; 4] = [1, 2, 4, 8];

/// Arrivals per second. Below saturation: one thread runs a batch of 1
/// to 8 lanes in about 45 ms, so the worker is busy about a fifth of the
/// time.
const RATE: f64 = 5.0;

fn pipeline(net: &HeNetwork, seed: u64) -> CnnHePipeline {
    let mut p = CnnHePipeline::new(net.clone(), 1 << LOG_N, seed);
    p.compile().expect("mini-CNN1 packs into the ring");
    // compile every lane stride now, so no request pays for it
    for b in LANES {
        p.compiled_stats(b).expect("compiled path enabled");
    }
    p
}

fn start(net: &HeNetwork, seed: u64) -> ServeEngine {
    let cfg = ServeConfig {
        packing: Packing::PackedBatch,
        ..Default::default()
    };
    let net = net.clone();
    ServeEngine::start(cfg, move || pipeline(&net, seed)).expect("mini-CNN1 passes admission")
}

/// What the collector saw of one answered request.
struct Answer {
    latency: Duration,
    result: ServeResult,
}

struct Phase {
    tally: Tally,
    answers: Vec<Answer>,
    wall: f64,
    lateness: Vec<f64>,
    errors: Vec<String>,
}

/// Sends `schedule` open loop from this thread while one collector
/// thread waits for the responses in send order. The engine has one
/// worker draining a FIFO queue, so responses complete in send order
/// and the collector stamps each one when it is ready.
fn drive(
    engine: &ServeEngine,
    schedule: &[Arrival],
    images: &[Vec<f32>],
    plain: &[Vec<f64>],
) -> Phase {
    type Sent = (Instant, usize, Result<he_serve::ResponseHandle, ServeError>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let t0 = Instant::now();
    let (collected, lateness) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut tally = Tally::default();
            let mut answers = Vec::new();
            let mut errors = Vec::new();
            let mut last = t0;
            for (due, input, sent) in rx {
                let outcome = match sent.map(he_serve::ResponseHandle::wait) {
                    Ok(Ok(result)) => {
                        let latency = Instant::now().duration_since(due);
                        match check_answer(
                            &result.logits,
                            result.prediction,
                            &plain[input],
                            TOL_PACKED,
                        ) {
                            Ok(_) => {
                                answers.push(Answer { latency, result });
                                Outcome::Correct { latency }
                            }
                            Err(why) => {
                                errors.push(format!("input {input}: {why}"));
                                Outcome::Wrong
                            }
                        }
                    }
                    Err(ServeError::Overloaded { .. }) | Ok(Err(ServeError::Overloaded { .. })) => {
                        Outcome::Refused
                    }
                    Err(ServeError::DeadlineExceeded { .. })
                    | Ok(Err(ServeError::DeadlineExceeded { .. })) => Outcome::Expired,
                    Err(e) | Ok(Err(e)) => {
                        errors.push(format!("input {input}: {e}"));
                        Outcome::Other
                    }
                };
                last = last.max(Instant::now());
                tally.record(outcome, Some(LIMIT));
            }
            (tally, answers, errors, last)
        });
        let mut lateness = Vec::with_capacity(schedule.len());
        for a in schedule {
            let due = t0 + a.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lateness.push(Instant::now().duration_since(due).as_secs_f64());
            let sent = engine.submit(images[a.input].clone());
            tx.send((due, a.input, sent)).expect("collector alive");
        }
        drop(tx);
        (collector.join().expect("collector finished"), lateness)
    });
    let (tally, answers, errors, last) = collected;
    // the phase runs from the first scheduled send, so the seeded offset
    // of the first arrival does not count towards its wall
    let first = t0 + schedule.first().map_or(Duration::ZERO, |a| a.at);
    Phase {
        tally,
        answers,
        wall: last.duration_since(first).as_secs_f64(),
        lateness,
        errors,
    }
}

/// Seeded mini-CNN1 inputs: the network, its image pool and the
/// plaintext logits of every pooled image.
fn inputs(seed: u64) -> (HeNetwork, Vec<Vec<f32>>, Vec<Vec<f64>>) {
    let net = bench::smoke::mini_cnn1(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A6E_5000);
    let images: Vec<Vec<f32>> = (0..POOL)
        .map(|_| {
            (0..net.input_side * net.input_side)
                .map(|_| rng.gen::<f32>())
                .collect()
        })
        .collect();
    let plain = images.iter().map(|img| net.infer_plain(img)).collect();
    (net, images, plain)
}

/// Counter deltas of one batch of each size the engine can form, from
/// a pipeline built the way the workers build theirs.
fn batch_counts(net: &HeNetwork, seed: u64, images: &[Vec<f32>]) -> Vec<OpSnapshot> {
    let mut p = pipeline(net, seed);
    (1..=LANES[LANES.len() - 1])
        .map(|b| {
            let refs: Vec<&[f32]> = images[..b].iter().map(Vec::as_slice).collect();
            let o0 = OpSnapshot::now();
            p.classify(&refs);
            OpSnapshot::now().delta(&o0)
        })
        .collect()
}

/// Every counter of a snapshot, in `OpSnapshot::named` order.
fn counts(o: &OpSnapshot) -> Vec<u64> {
    o.named().iter().map(|&(_, v)| v).collect()
}

/// Checks the phase's counter delta against the batches the answers
/// show: `n` answers carrying `batch_size == n` are one batch of `n`.
fn check_phase_counts(run: &mut Run, phase: &Phase, delta: &OpSnapshot, per_batch: &[OpSnapshot]) {
    let mut want = vec![0u64; counts(delta).len()];
    for (i, unit) in per_batch.iter().enumerate() {
        let n = i + 1;
        let members = phase
            .answers
            .iter()
            .filter(|a| a.result.batch_size == n)
            .count();
        if members % n != 0 {
            run.errors
                .push(format!("{members} answers from batches of {n}"));
            return;
        }
        for (w, u) in want.iter_mut().zip(counts(unit)) {
            *w += u * (members / n) as u64;
        }
    }
    if want != counts(delta) {
        run.errors.push(format!(
            "phase counted {:?}, its batches account for {want:?}",
            counts(delta)
        ));
    }
}

pub fn run(args: &Args, run: &mut Run) {
    let (net, images, plain) = inputs(args.seed);
    // before any engine starts, so that the probe pipeline is gone by the
    // time the worker's is built and peak RSS counts one pipeline
    let per_batch = (!args.trace).then(|| batch_counts(&net, args.seed, &images));
    let reps = if args.trace { 1 } else { 5 };
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..reps {
        if let Some(e) = engine.take() {
            ServeEngine::shutdown(e);
        }
        let (e, s) = secs(|| start(&net, args.seed));
        setups.push(s);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    let schedule = poisson(args.seed, RATE, args.seconds, POOL);
    let o0 = OpSnapshot::now();
    let phase = drive(&engine, &schedule, &images, &plain);
    let report = engine.shutdown();
    let delta = OpSnapshot::now().delta(&o0);
    run.tally = phase.tally;
    for e in &phase.errors {
        run.errors.push(e.clone());
    }
    if phase.tally.refused != report.overloaded || phase.tally.expired != report.timed_out {
        run.errors.push(format!(
            "client saw {} refused / {} expired, engine {} / {}",
            phase.tally.refused, phase.tally.expired, report.overloaded, report.timed_out
        ));
    }
    if let Some(per_batch) = &per_batch {
        check_phase_counts(run, &phase, &delta, per_batch);
    }
    let late = sorted(&phase.lateness);
    run.notes.push(format!(
        "{}; phase {:.3} s; generator lateness p99 {:.6} s max {:.6} s; batches {} mean size {:.3}",
        phase.tally.render(),
        phase.wall,
        nearest_rank(&late, 0.99),
        late[late.len() - 1],
        report.batches,
        report.mean_batch(),
    ));

    let latencies: Vec<f64> = phase
        .answers
        .iter()
        .map(|a| a.latency.as_secs_f64())
        .collect();
    if !args.trace {
        if latencies.is_empty() {
            run.errors.push("no request was answered".into());
            return;
        }
        let p50 = median(&latencies);
        let p95 = tail(&latencies, 0.95).expect("answers exist");
        run.notes.push(format!(
            "serve tail: p{:.1} of {} answers",
            p95.q * 100.0,
            p95.n
        ));
        let m = &mut run.metrics;
        m.put("setup_s", median(&setups), "s");
        m.put("latency_p50_s", p50, "s");
        m.put(
            "throughput_img_s",
            latencies.len() as f64 / phase.wall,
            "img/s",
        );
        m.put("serve_p50_s", p50, "s");
        m.put("serve_p95_s", p95.value, "s");
        m.put(
            "goodput_rps",
            phase.tally.within_limit as f64 / phase.wall,
            "req/s",
        );
        return;
    }

    let of = |f: fn(&Answer) -> f64| {
        let v: Vec<f64> = phase.answers.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let sent = phase.tally.sent as f64;
    let m = &mut run.metrics;
    m.put(
        "he_serve.queue_wait_p50_s",
        of(|a| {
            a.result
                .request_latency
                .saturating_sub(a.result.batch_wall)
                .as_secs_f64()
        }),
        "s",
    );
    m.put(
        "he_serve.batch_wall_p50_s",
        of(|a| a.result.batch_wall.as_secs_f64()),
        "s",
    );
    m.put("he_serve.batch_size_mean", report.mean_batch(), "count");
    m.put(
        "he_serve.useful_share",
        phase.tally.within_limit as f64 / report.batched_images.max(1) as f64,
        "share",
    );
    m.put(
        "he_serve.refused_share",
        report.overloaded as f64 / sent,
        "share",
    );
    m.put(
        "he_serve.expired_share",
        report.timed_out as f64 / sent,
        "share",
    );
    decomposed(args, run, &net, &images, &plain);
}

/// The per-layer half of a traced serve run: one-image requests on a
/// pipeline built like a worker's, alternating the pipeline's own
/// `classify` with the same request made one public call at a time.
fn decomposed(
    args: &Args,
    run: &mut Run,
    net: &HeNetwork,
    images: &[Vec<f32>],
    plain: &[Vec<f64>],
) {
    let (_, keygen_s) = secs(|| CnnHePipeline::new(net.clone(), 1 << LOG_N, args.seed));
    let mut pipe = pipeline(net, args.seed);
    let mut dec = Decomposer::new(&pipe, args.seed);
    unit_costs(&mut run.metrics, &pipe, args.seed);
    let mut bd = Breakdown {
        keygen_s,
        ..Breakdown::default()
    };
    let mut ops: Option<OpSnapshot> = None;
    for i in 0..2 * POOL {
        let i = i % POOL;
        let img = images[i].as_slice();
        let o0 = OpSnapshot::now();
        let (cls, wall) = secs(|| pipe.classify(&[img]));
        let untraced = OpSnapshot::now().delta(&o0);
        let o0 = OpSnapshot::now();
        let (logits, split) = dec.request(&pipe, img);
        let traced = OpSnapshot::now().delta(&o0);
        if traced != untraced || ops.is_some_and(|o| o != untraced) {
            run.errors.push(format!(
                "request counted {untraced:?}, traced {traced:?}, first {ops:?}"
            ));
        }
        ops = Some(untraced);
        for (l, p) in [
            (&cls.logits[0], cls.predictions[0]),
            (&logits, argmax(&logits)),
        ] {
            match check_answer(l, p, &plain[i], TOL_PACKED) {
                Ok(e) => bd.err_max = bd.err_max.max(e),
                Err(why) => run.errors.push(format!("probe request {i}: {why}")),
            }
        }
        bd.untraced.push(wall);
        bd.splits.push(split);
    }
    bd.put(&mut run.metrics, Some(&dec), &ops.expect("probe ran"));
}
