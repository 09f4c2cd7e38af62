//! The metric tables (names and units, as `BENCHMARK.json` declares
//! them) and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run. "op" is the
/// workload's primary operation: scan (scan_cold), get (get_warm),
/// append (ingest_long).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("compression_ratio", "x"),
    ("peak_rss_mb", "MiB"),
    ("mbases_per_s", "Mbase/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.parse_us_per_chunk", "us"),
    ("core.decode_mbases_per_s", "Mbase/s"),
    ("core.quality_mbases_per_s", "Mbase/s"),
    ("core.quality_share", "ratio"),
    ("core.encode_mbases_per_s", "Mbase/s"),
    ("io.pread_us_per_extent", "us"),
    ("io.pread_mb_per_s", "MB/s"),
    ("io.file_reads_per_op", "count"),
    ("io.ring_push_pop_ns", "ns"),
    ("io.reactor_roundtrip_us", "us"),
    ("store.engine_get_us", "us"),
    ("store.engine_scan_ms", "ms"),
    ("store.engine_append_ms", "ms"),
    ("store.cache_probe_ns", "ns"),
    ("store.cache_hit_rate", "ratio"),
    ("store.hits_per_op", "count"),
    ("store.misses_per_op", "count"),
    ("store.chunks_decoded_per_op", "count"),
    ("store.decode_busy_s", "s"),
    ("store.decode_parallelism", "ratio"),
    ("store.dedup_decodes", "count"),
    ("store.bytes_copied_per_op", "bytes"),
    ("client.submit_us", "us"),
    ("client.wait_us", "us"),
    ("client.handoff_us", "us"),
    ("ssd.virtual_device_s", "s"),
    ("ssd.virtual_device_s_per_op", "s"),
    ("trace.e2e_untraced_us", "us"),
    ("trace.e2e_traced_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.layer_sum_us", "us"),
    ("trace.remainder_us", "us"),
];

/// The run's verdict and metrics, rendered as the last output line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Takes every metric of `table` from `values`; a missing or
    /// non-finite value is an error, so a run never prints a partial
    /// result.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
    ) -> Result<Outcome, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = *values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            metrics.push((name, v, unit));
        }
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
