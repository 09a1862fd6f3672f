//! Seeded open-loop arrival schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One scheduled request: when it is due (offset from the start of the
/// phase) and which pooled input it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at: Duration,
    pub input: usize,
}

/// Poisson arrivals at `rate` per second over `window`, each picking one
/// of `inputs` pooled inputs. The arrival count is fixed at
/// `rate · window` and the times are that many uniform draws, sorted: a
/// Poisson process conditioned on its count, so that runs with different
/// seeds offer the same load. The same arguments give the same schedule.
pub fn poisson(seed: u64, rate: f64, window: Duration, inputs: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && inputs > 0, "empty schedule");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
    let count = (rate * window.as_secs_f64()).round() as usize;
    let mut at: Vec<f64> = (0..count)
        .map(|_| rng.gen::<f64>() * window.as_secs_f64())
        .collect();
    at.sort_by(f64::total_cmp);
    at.into_iter()
        .map(|t| Arrival {
            at: Duration::from_secs_f64(t),
            input: rng.gen_range(0..inputs),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_gives_the_same_schedule() {
        let w = Duration::from_secs(20);
        assert_eq!(poisson(7, 5.0, w, 32), poisson(7, 5.0, w, 32));
        assert_ne!(poisson(7, 5.0, w, 32), poisson(8, 5.0, w, 32));
    }

    #[test]
    fn arrivals_are_ordered_inside_the_window_at_about_the_rate() {
        let w = Duration::from_secs(100);
        let s = poisson(3, 20.0, w, 4);
        assert!(s.windows(2).all(|p| p[0].at <= p[1].at));
        assert!(s.iter().all(|a| a.at < w && a.input < 4));
        assert_eq!(s.len(), 2000);
        // exponential gaps: their mean is 1/rate and their sd about equal
        let gaps: Vec<f64> = s
            .windows(2)
            .map(|p| (p[1].at - p[0].at).as_secs_f64())
            .collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!(
            (m - 0.05).abs() < 0.005 && (sd - 0.05).abs() < 0.01,
            "{m} {sd}"
        );
    }
}
