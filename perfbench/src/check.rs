//! Answer checking against the plaintext network, and request
//! accounting.

use std::time::Duration;

/// Logit tolerance of the scalar CryptoNets path (the repository's
/// scalar end-to-end parity tests use the same bound).
pub const TOL_SCALAR: f64 = 0.05;
/// Logit tolerance of the packed and compiled paths (the packed-batch
/// parity tests use the same bound).
pub const TOL_PACKED: f64 = 0.02;

pub fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Checks one decrypted answer against its plaintext logits. Returns the
/// largest logit error, or why the answer is wrong: a logit is off by
/// more than `tol`, or the class differs from the plaintext argmax while
/// the plaintext top-2 margin exceeds `2·tol` (a closer call may flip
/// under admissible noise).
pub fn check_answer(he: &[f64], predicted: usize, plain: &[f64], tol: f64) -> Result<f64, String> {
    if he.len() != plain.len() {
        return Err(format!("{} logits, expected {}", he.len(), plain.len()));
    }
    let mut err = 0.0f64;
    for (i, (a, b)) in he.iter().zip(plain).enumerate() {
        let e = (a - b).abs();
        if e.is_nan() || e > tol {
            return Err(format!("logit {i}: {a} vs plaintext {b} (tolerance {tol})"));
        }
        err = err.max(e);
    }
    let want = argmax(plain);
    let mut rest: Vec<f64> = plain.to_vec();
    rest.sort_by(|a, b| b.total_cmp(a));
    let margin = if rest.len() > 1 {
        rest[0] - rest[1]
    } else {
        f64::INFINITY
    };
    if predicted != want && margin > 2.0 * tol {
        return Err(format!(
            "class {predicted}, plaintext argmax {want} with margin {margin:.4}"
        ));
    }
    Ok(err)
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered correctly after `latency` (from its scheduled send).
    Correct { latency: Duration },
    /// Answered, but the answer failed [`check_answer`].
    Wrong,
    /// Refused at submission (`ServeError::Overloaded`).
    Refused,
    /// Shed or answered past its deadline (`ServeError::DeadlineExceeded`).
    Expired,
    /// Any other error.
    Other,
}

/// Request accounting for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub answered: u64,
    pub within_limit: u64,
    pub wrong: u64,
    pub refused: u64,
    pub expired: u64,
    pub other: u64,
}

impl Tally {
    /// Records one outcome against a latency `limit` (`None`: no limit).
    pub fn record(&mut self, outcome: Outcome, limit: Option<Duration>) {
        self.sent += 1;
        match outcome {
            Outcome::Correct { latency } => {
                self.answered += 1;
                if limit.is_none_or(|l| latency <= l) {
                    self.within_limit += 1;
                }
            }
            Outcome::Wrong => {
                self.answered += 1;
                self.wrong += 1;
            }
            Outcome::Refused => self.refused += 1,
            Outcome::Expired => self.expired += 1,
            Outcome::Other => self.other += 1,
        }
    }

    /// Failed operations: wrong answers, refusals, expiries and errors.
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.expired + self.other
    }

    pub fn render(&self) -> String {
        format!(
            "sent {} answered {} within-limit {} wrong {} refused {} expired {} other {}",
            self.sent,
            self.answered,
            self.within_limit,
            self.wrong,
            self.refused,
            self.expired,
            self.other
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logit_error_over_tolerance_fails() {
        let plain = [1.0, 0.0, -1.0];
        assert!(check_answer(&[1.01, 0.0, -1.0], 0, &plain, 0.02).is_ok());
        assert!(check_answer(&[1.03, 0.0, -1.0], 0, &plain, 0.02).is_err());
        assert!(check_answer(&[f64::NAN, 0.0, -1.0], 0, &plain, 0.02).is_err());
        assert!(check_answer(&[1.0, 0.0], 0, &plain, 0.02).is_err());
    }

    #[test]
    fn class_flip_fails_only_past_twice_the_tolerance() {
        // margin 0.03 ≤ 2·0.02: a flipped class is admissible noise
        let close = [0.50, 0.47, 0.0];
        assert!(check_answer(&[0.49, 0.48, 0.0], 1, &close, 0.02).is_ok());
        // margin 0.05 > 0.04: the class must match
        let clear = [0.50, 0.45, 0.0];
        assert!(check_answer(&clear, 1, &clear, 0.02).is_err());
        assert!(check_answer(&clear, 0, &clear, 0.02).is_ok());
    }

    #[test]
    fn refused_expired_and_wrong_count_as_failed_and_miss_the_limit() {
        let limit = Some(Duration::from_millis(500));
        let mut t = Tally::default();
        let fast = Duration::from_millis(100);
        let slow = Duration::from_millis(900);
        t.record(Outcome::Correct { latency: fast }, limit);
        t.record(Outcome::Correct { latency: slow }, limit);
        t.record(Outcome::Wrong, limit);
        t.record(Outcome::Refused, limit);
        t.record(Outcome::Expired, limit);
        t.record(Outcome::Other, limit);
        assert_eq!(t.sent, 6);
        assert_eq!(t.answered, 3);
        assert_eq!(t.within_limit, 1);
        assert_eq!(t.failed(), 4);
        // without a limit every correct answer counts
        let mut u = Tally::default();
        u.record(Outcome::Correct { latency: slow }, None);
        assert_eq!((u.within_limit, u.failed()), (1, 0));
    }
}
