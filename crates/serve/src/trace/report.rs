//! Merging per-run stats artifacts into one comparative markdown table.
//!
//! Every binary in the workspace writes its stats as flat-ish JSON
//! (`ServeStats::to_json`, `ClusterStats::to_json`, the `TRACE_ESTIMATE`
//! JSON from sampled replays). `asdr-trace report` pulls the top-level
//! numeric fields out of each artifact with a tolerant scanner — no JSON
//! parser dependency, same spirit as the workload parser — and lays runs
//! out as table columns so a nightly job uploads one comparison instead
//! of N blobs.

use std::collections::BTreeMap;

/// Metric names pinned to the top of the table, in this order; everything
/// else follows alphabetically.
const PREFERRED_ORDER: [&str; 16] = [
    "requests",
    "frames",
    "throughput_fps",
    "p50_latency_ms",
    "p95_latency_ms",
    "mean_queue_wait_ms",
    "deadlined_requests",
    "deadline_misses",
    "miss_rate",
    "total_fits",
    // counted evaluations, each beside what the renderer skipped of it
    "density_evals",
    "skipped_density",
    "color_evals",
    "skipped_color",
    "est_miss_rate",
    "miss_err",
];

/// Extracts top-level `"key": number` pairs from a JSON text.
///
/// The scanner is deliberately shallow: keys inside nested objects or
/// arrays (per-shard breakdowns, scale-event lists) are skipped, and on
/// duplicate keys the first occurrence wins. Booleans, strings, and
/// malformed values are ignored rather than rejected — a report should
/// merge what it can.
pub fn scan_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b'"' if depth == 1 => {
                let Some(end) = text[i + 1..].find('"') else { break };
                let key = &text[i + 1..i + 1 + end];
                i += end + 2;
                // Only `"key":` at depth 1 is a candidate; a string *value*
                // is skipped here because no colon follows it.
                let rest = text[i..].trim_start();
                let Some(after_colon) = rest.strip_prefix(':') else { continue };
                let val = after_colon.trim_start();
                let num_len = val
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(val.len());
                if num_len > 0 {
                    if let Ok(x) = val[..num_len].parse::<f64>() {
                        out.entry(key.to_string()).or_insert(x);
                    }
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Formats a metric value: integers plainly, everything else to 4 digits.
fn fmt_value(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// Merges labelled stats artifacts into one markdown table, metrics as
/// rows and runs as columns. Metrics a run lacks render as `-`.
pub fn merge_report(artifacts: &[(String, BTreeMap<String, f64>)]) -> String {
    let mut keys: Vec<&str> = Vec::new();
    for name in PREFERRED_ORDER {
        if artifacts.iter().any(|(_, m)| m.contains_key(name)) {
            keys.push(name);
        }
    }
    let mut rest: Vec<&str> = artifacts
        .iter()
        .flat_map(|(_, m)| m.keys())
        .map(String::as_str)
        .filter(|k| !PREFERRED_ORDER.contains(k))
        .collect();
    rest.sort_unstable();
    rest.dedup();
    keys.extend(rest);

    let mut out = String::from("| metric |");
    for (label, _) in artifacts {
        out.push_str(&format!(" {label} |"));
    }
    out.push_str("\n|---|");
    out.push_str(&"---|".repeat(artifacts.len()));
    out.push('\n');
    for key in keys {
        out.push_str(&format!("| {key} |"));
        for (_, metrics) in artifacts {
            match metrics.get(key) {
                Some(&x) => out.push_str(&format!(" {} |", fmt_value(x))),
                None => out.push_str(" - |"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_takes_top_level_numbers_only() {
        let json = r#"{
            "requests": 12, "miss_rate": 0.25,
            "store": {"fits": 3, "disk_hits": 1},
            "shards": [{"requests": 6}],
            "label": "warm run",
            "requests": 99
        }"#;
        let m = scan_metrics(json);
        assert_eq!(m.get("requests"), Some(&12.0), "first occurrence wins");
        assert_eq!(m.get("miss_rate"), Some(&0.25));
        assert!(!m.contains_key("fits"), "nested keys skipped");
        assert!(!m.contains_key("label"), "string values skipped");
    }

    #[test]
    fn scanner_survives_garbage() {
        assert!(scan_metrics("").is_empty());
        assert!(scan_metrics("not json at all").is_empty());
        assert_eq!(scan_metrics(r#"{"a": 1, "broken"#).get("a"), Some(&1.0));
        assert_eq!(scan_metrics(r#"{"e": 1.5e3}"#).get("e"), Some(&1500.0));
    }

    #[test]
    fn merged_table_aligns_runs_as_columns() {
        let a = scan_metrics(
            r#"{"requests": 4, "miss_rate": 0.5, "zeta": 7,
                "skipped_color": 2, "color_evals": 5, "skipped_density": 9, "density_evals": 12}"#,
        );
        let b = scan_metrics(r#"{"requests": 4, "est_miss_rate": 0.45, "miss_err": 0.08}"#);
        let md = merge_report(&[("full".to_string(), a), ("sampled".to_string(), b)]);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| metric | full | sampled |");
        assert_eq!(lines[1], "|---|---|---|");
        assert!(lines[2].starts_with("| requests | 4 | 4 |"), "{md}");
        assert!(md.contains("| miss_rate | 0.5000 | - |"), "{md}");
        assert!(md.contains("| est_miss_rate | - | 0.4500 |"), "{md}");
        let at = |row: &str| lines.iter().position(|l| l.starts_with(row)).expect(row);
        assert_eq!(at("| skipped_density | 9 |"), at("| density_evals | 12 |") + 1, "{md}");
        assert_eq!(at("| skipped_color | 2 |"), at("| color_evals | 5 |") + 1, "{md}");
        assert_eq!(lines.last().unwrap(), &"| zeta | 7 | - |", "extras sort after preferred");
    }
}
