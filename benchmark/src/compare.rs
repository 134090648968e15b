//! `compare` and `selfcheck`: what two sets of runs say about each other.

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::report::Stored;
use crate::stats;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// The medians differ by no more than side A's inter-quartile distance:
    /// the runs cannot tell the sides apart.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: [f64; 3],
    pub b: [f64; 3],
    pub bound: f64,
    pub verdict: Verdict,
    /// B's median is worse than A's by more than the bound.
    pub beyond_bound: bool,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(def: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// One metric of one workload: quartiles of each side and the verdict.
pub fn judge(def: &EndToEnd, workload: &'static str, a: &[f64], b: &[f64]) -> Row {
    let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
    let worse_by = worsening(def, qa[1], qb[1]);
    let resolved = (qb[1] - qa[1]).abs() > qa[2] - qa[0];
    let verdict = match (resolved, worse_by > 0.0) {
        (false, _) => Verdict::Unresolved,
        (true, true) => Verdict::Worse,
        (true, false) => Verdict::Better,
    };
    Row {
        workload,
        metric: def.name,
        a: qa,
        b: qb,
        bound: def.bound,
        verdict,
        beyond_bound: worse_by > def.bound,
    }
}

fn values(runs: &[Stored], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.end_to_end.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

fn failed_share(runs: &[Stored], workload: &str) -> f64 {
    let (failed, attempted) = runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Reasons the comparison fails: a regression beyond a bound, a higher
    /// failed share, an incorrect run.
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
}

/// One row per workload × metric present on both sides.
pub fn compare(a: &[Stored], b: &[Stored]) -> Comparison {
    let mut c = Comparison { rows: Vec::new(), failures: Vec::new(), warnings: Vec::new() };
    if let (Some(fa), Some(fb)) = (a.first(), b.first()) {
        let (fa, fb) = (&fa.fingerprint, &fb.fingerprint);
        if (&fa.cpu_model, fa.nproc, &fa.rustc) != (&fb.cpu_model, fb.nproc, &fb.rustc) {
            c.warnings.push(format!(
                "the sides ran on different machines or compilers ({} x{} {} | {} x{} {}): host-time rows compare hosts, not code",
                fa.cpu_model, fa.nproc, fa.rustc, fb.cpu_model, fb.nproc, fb.rustc
            ));
        }
    }
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (values(a, w.name, def.name), values(b, w.name, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(def, w.name, &va, &vb);
            if row.verdict == Verdict::Worse && row.beyond_bound {
                c.failures.push(format!(
                    "{} {}: median {:.4} -> {:.4} is worse by more than {} %",
                    w.name,
                    def.name,
                    row.a[1],
                    row.b[1],
                    def.bound * 100.0
                ));
            }
            c.rows.push(row);
        }
        let (fa, fb) = (failed_share(a, w.name), failed_share(b, w.name));
        if fb > fa {
            c.failures.push(format!("{}: failed share rose from {fa:.4} to {fb:.4}", w.name));
        }
    }
    for (side, runs) in [("A", a), ("B", b)] {
        for r in runs.iter().filter(|r| !r.correct) {
            c.failures.push(format!("side {side} holds a {} run whose checks failed", r.workload));
        }
    }
    c
}

pub fn table(rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | bound | verdict |\n|---|---|---|---|---|---|"
    );
    for r in rows {
        let verdict = match (r.verdict, r.beyond_bound) {
            (Verdict::Better, _) => "better",
            (Verdict::Worse, true) => "WORSE beyond bound",
            (Verdict::Worse, false) => "worse, within bound",
            (Verdict::Unresolved, _) => "unresolved",
        };
        let _ = writeln!(
            s,
            "| {} | {} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {} % | {verdict} |",
            r.workload,
            r.metric,
            r.a[1],
            r.a[0],
            r.a[2],
            r.b[1],
            r.b[0],
            r.b[2],
            r.bound * 100.0
        );
    }
    s
}

/// `selfcheck`: two sets of runs of one build must agree within half of
/// each bound, or the bound means nothing.
pub struct SelfRow {
    pub workload: &'static str,
    pub metric: &'static str,
    /// One median per set.
    pub medians: Vec<f64>,
    /// Inter-quartile distance over all runs of both sets, as a share of
    /// their median: the spread the acceptance driver computes.
    pub spread: f64,
    /// Largest distance between two set medians, as a share of the first.
    pub difference: f64,
    pub allowed: f64,
}

impl SelfRow {
    pub fn passes(&self) -> bool {
        self.difference <= self.allowed
    }
}

pub fn selfcheck_rows(sets: &[Vec<Stored>]) -> Vec<SelfRow> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let per_set: Vec<Vec<f64>> = sets.iter().map(|s| values(s, w.name, def.name)).collect();
            if per_set.iter().any(Vec::is_empty) {
                continue;
            }
            let medians: Vec<f64> = per_set.iter().map(|v| stats::median(v)).collect();
            let (lo, hi) =
                medians.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
            rows.push(SelfRow {
                workload: w.name,
                metric: def.name,
                spread: stats::iqr_share(&per_set.concat()),
                difference: (hi - lo) / medians[0].abs().max(f64::MIN_POSITIVE),
                allowed: def.bound / 2.0,
                medians,
            });
        }
    }
    rows
}

pub fn selfcheck_table(rows: &[SelfRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| workload | metric | set medians | difference | allowed (bound/2) | IQR/median, all runs | |\n|---|---|---|---|---|---|---|"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {} | {:.2} % | {:.2} % | {:.2} % | {} |",
            r.workload,
            r.metric,
            r.medians.iter().map(|m| format!("{m:.4}")).collect::<Vec<_>>().join(" / "),
            r.difference * 100.0,
            r.allowed * 100.0,
            r.spread * 100.0,
            if r.passes() { "ok" } else { "FAIL" }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::Fingerprint;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_table() {
        let lat = def("cpu_ms_per_frame"); // lower is better, bound 15 %
                                           // inter-quartile distance 1.75
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // inside it: unresolved, whichever way
        assert_eq!(judge(lat, "w", &a, &[101.0; 5]).verdict, Verdict::Unresolved);
        assert_eq!(judge(lat, "w", &a, &[99.0; 5]).verdict, Verdict::Unresolved);
        // resolved and slower, but inside the bound
        let r = judge(lat, "w", &a, &[104.0; 5]);
        assert_eq!((r.verdict, r.beyond_bound), (Verdict::Worse, false));
        // resolved and beyond the bound
        let r = judge(lat, "w", &a, &[116.0; 5]);
        assert_eq!((r.verdict, r.beyond_bound), (Verdict::Worse, true));
        assert_eq!(judge(lat, "w", &a, &[90.0; 5]).verdict, Verdict::Better);
        // a higher-is-better metric flips the direction
        let fps = def("frames_per_s");
        assert_eq!(judge(fps, "w", &a, &[110.0; 5]).verdict, Verdict::Better);
        let r = judge(fps, "w", &a, &[84.0; 5]);
        assert_eq!((r.verdict, r.beyond_bound), (Verdict::Worse, true));
        // a wide side A resolves nothing, however far B's median is
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0];
        assert_eq!(judge(lat, "w", &noisy, &[125.0; 5]).verdict, Verdict::Unresolved);
    }

    fn stored(workload: &str, p50: f64, failed: f64) -> Stored {
        Stored {
            workload: workload.into(),
            correct: true,
            attempted: 100.0,
            failed,
            fingerprint: Fingerprint {
                cpu_model: "cpu".into(),
                nproc: 2,
                rustc: "rustc".into(),
                commit: "abc".into(),
                profile: "p".into(),
            },
            end_to_end: vec![("cpu_ms_per_frame".into(), p50), ("psnr_db".into(), 25.0)],
        }
    }

    #[test]
    fn compare_fails_on_a_regression_beyond_its_bound_or_more_failures() {
        let a: Vec<Stored> =
            [100.0, 100.5, 99.5].iter().map(|&v| stored("serve_mix", v, 0.0)).collect();
        let same = compare(&a, &a);
        assert!(same.failures.is_empty());
        assert_eq!(same.rows.len(), 2);
        assert!(same.rows.iter().all(|r| r.verdict == Verdict::Unresolved));

        let slow: Vec<Stored> =
            [117.0, 118.0, 116.0].iter().map(|&v| stored("serve_mix", v, 0.0)).collect();
        let c = compare(&a, &slow);
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        assert!(c.failures[0].contains("cpu_ms_per_frame"));
        assert!(table(&c.rows).contains("WORSE beyond bound"));

        let failing: Vec<Stored> = a.iter().map(|r| Stored { failed: 1.0, ..r.clone() }).collect();
        assert!(compare(&a, &failing).failures.iter().any(|f| f.contains("failed share")));
        assert!(compare(&failing, &a).failures.is_empty());

        let other_host: Vec<Stored> = a
            .iter()
            .map(|r| Stored {
                fingerprint: Fingerprint { nproc: 64, ..r.fingerprint.clone() },
                ..r.clone()
            })
            .collect();
        assert_eq!(compare(&a, &other_host).warnings.len(), 1);
    }

    #[test]
    fn selfcheck_allows_half_the_bound() {
        let one: Vec<Stored> =
            [100.0, 101.0, 99.0].iter().map(|&v| stored("fleet_mix", v, 0.0)).collect();
        let near: Vec<Stored> =
            [102.0, 103.0, 101.0].iter().map(|&v| stored("fleet_mix", v, 0.0)).collect();
        let far: Vec<Stored> =
            [108.0, 109.0, 107.0].iter().map(|&v| stored("fleet_mix", v, 0.0)).collect();
        let rows = selfcheck_rows(&[one.clone(), near]);
        assert!(rows.iter().all(SelfRow::passes)); // 2 % of a 15 % bound
        let rows = selfcheck_rows(&[one, far]);
        let p50 = rows.iter().find(|r| r.metric == "cpu_ms_per_frame").unwrap();
        assert!(!p50.passes()); // 8 % > 7.5 %
        assert!(selfcheck_table(&rows).contains("FAIL"));
    }
}
