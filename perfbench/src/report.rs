//! The metric set of a run and the result line the benchmark prints.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_img_s", "img/s"),
    ("serve_p50_s", "s"),
    ("serve_p95_s", "s"),
    ("goodput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("he_serve.queue_wait_p50_s", "s"),
    ("he_serve.batch_wall_p50_s", "s"),
    ("he_serve.batch_size_mean", "count"),
    ("he_serve.useful_share", "share"),
    ("he_serve.refused_share", "share"),
    ("he_serve.expired_share", "share"),
    ("he_lint.validate_s", "s"),
    ("cnn_he.encrypt_s", "s"),
    ("cnn_he.decrypt_s", "s"),
    ("cnn_he.layer.conv_s", "s"),
    ("cnn_he.layer.act1_s", "s"),
    ("cnn_he.layer.dense1_s", "s"),
    ("cnn_he.layer.act2_s", "s"),
    ("cnn_he.layer.dense2_s", "s"),
    ("cnn_he.logit_err_max", "abs"),
    ("he_ir.interp_s", "s"),
    ("he_ir.compile_s", "s"),
    ("he_ir.nodes.rotate", "count"),
    ("he_ir.nodes.mul_plain", "count"),
    ("he_ir.nodes.encode_vec", "count"),
    ("he_ir.nodes.rescale", "count"),
    ("he_ir.nodes.total", "count"),
    ("ckks.keygen_s", "s"),
    ("ckks.galois_keygen_s", "s"),
    ("ckks.rotate_unit_s", "s"),
    ("ckks.encode_unit_s", "s"),
    ("ckks.mul_plain_unit_s", "s"),
    ("ckks.relin_unit_s", "s"),
    ("ckks.rescale_unit_s", "s"),
    ("ckks.mac_unit_s", "s"),
    ("ckks.rotations_per_req", "count"),
    ("ckks.keyswitches_per_req", "count"),
    ("ckks.relins_per_req", "count"),
    ("ckks.rescales_per_req", "count"),
    ("ckks.ct_mults_per_req", "count"),
    ("ckks.scalar_macs_per_req", "count"),
    ("ckks_math.ntt_unit_s", "s"),
    ("ckks_math.ntt_fwd_per_req", "count"),
    ("ckks_math.ntt_inv_per_req", "count"),
    ("ckks_math.modmul_limbs_per_req", "count"),
    ("trace.overhead_share", "share"),
    ("trace.residual_share", "share"),
];

/// Metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// Checks that the run measured exactly `expected`, once each, with
    /// the listed units and finite values.
    pub fn check(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        for (name, value, unit) in &self.0 {
            match expected.iter().find(|(n, _)| n == name) {
                None => return Err(format!("unexpected metric {name}")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric {name} in {unit}, expected {u}"));
                }
                _ if !value.is_finite() => return Err(format!("metric {name} = {value}")),
                _ => {}
            }
        }
        for (name, _) in expected {
            match self.0.iter().filter(|(n, ..)| n == name).count() {
                1 => {}
                0 => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} measured twice")),
            }
        }
        Ok(())
    }

    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:34} {v:>14.6} {u}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_the_metrics_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let rest = &json[start..];
            rest[..rest.find(']').expect("list end")].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            let declared = s.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: {declared} declared");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn check_rejects_missing_extra_and_non_finite_metrics() {
        let expected = [("a", "s"), ("b", "count")];
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        assert!(m.check(&expected).is_err());
        m.put("b", 2.0, "count");
        assert!(m.check(&expected).is_ok());
        m.put("c", 2.0, "count");
        assert!(m.check(&expected).is_err());
        let mut n = Metrics::default();
        n.put("a", f64::NAN, "s");
        n.put("b", 2.0, "count");
        assert!(n.check(&expected).is_err());
        let mut r = Metrics::default();
        r.put("a", 0.5, "s");
        assert_eq!(
            r.result_json(true, 3, 1),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"a\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
