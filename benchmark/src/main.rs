//! `asdr-benchmark` — the repository's benchmark: four workloads through
//! the public APIs, ten end-to-end metrics with every host-time metric
//! divided by an interleaved frozen reference kernel, and per-layer
//! metrics from the benchmark's own spans. See README.md.
//!
//! ```text
//! asdr-benchmark run --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]
//! asdr-benchmark compare DIR_A DIR_B
//! asdr-benchmark selfcheck [--sets 2] [--runs 5] [--seconds S] [--out DIR]
//! asdr-benchmark manifest
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod proc;
mod quality;
mod reference;
mod render;
mod report;
mod run;
mod serving;
mod spans;
mod stats;

use metrics::{WorkloadId, WORKLOADS};
use run::{Ctx, RunArgs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Below this a window holds too few blocks to see a host plateau from
/// both sides.
const MIN_SECONDS: f64 = 15.0;
const DEFAULT_SECONDS: f64 = 30.0;
/// Where runs put their files unless told otherwise; relative, so the
/// Unix-socket paths under it stay inside `sun_path`.
const OUT_ROOT: &str = ".bench_out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: asdr-benchmark run --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      asdr-benchmark compare DIR_A DIR_B\n\
         \x20      asdr-benchmark selfcheck [--sets 2] [--runs 5] [--seconds S] [--out DIR]\n\
         \x20      asdr-benchmark manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.push((key.as_str(), value.as_str()));
    }
    Ok(out)
}

/// The measured window, between [`MIN_SECONDS`] and two minutes.
fn parse_seconds(value: &str) -> Result<f64, String> {
    let seconds: f64 = value.parse().map_err(|_| format!("--seconds {value:?} is not a number"))?;
    if !(MIN_SECONDS..=120.0).contains(&seconds) {
        return Err(format!("--seconds must be between {MIN_SECONDS} and 120"));
    }
    Ok(seconds)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, None, DEFAULT_SECONDS, false, None);
    for (key, value) in flags(args)? {
        match key {
            "--workload" => {
                workload = Some(
                    WorkloadId::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value.parse().map_err(|_| format!("--seed {value:?} is not a whole number"))?,
                )
            }
            "--seconds" => seconds = parse_seconds(value)?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_command(args: RunArgs) -> Result<bool, String> {
    let name = args.workload.def().name;
    let out_dir = args.out.clone().unwrap_or_else(|| {
        Path::new(OUT_ROOT).join(format!("{name}-s{}-t{}", args.seed, u8::from(args.trace)))
    });
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let scratch = Scratch(Path::new(OUT_ROOT).join(format!("w{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;

    let ctx = Ctx {
        args,
        reference: reference::Reference::new(),
        recorder: spans::Recorder::new(),
        workdir: scratch.0.clone(),
    };
    // first touches of the table and weights are not the unit's cost
    for _ in 0..5 {
        ctx.reference.timed_ms(ctx.threads());
    }
    let measured =
        if ctx.args.workload.is_serving() { serving::run(&ctx) } else { render::run(&ctx) }?;
    // the raw chain, so a surprising number can be traced to its blocks
    let path = out_dir.join("blocks.tsv");
    std::fs::write(&path, host::blocks_tsv(&measured.blocks))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let result = run::finish(&ctx, measured);

    print!("{}", report::listing(&result));
    if ctx.args.trace {
        for line in run::span_listing(&ctx.recorder) {
            println!("  {line}");
        }
        let path = out_dir.join("spans.jsonl");
        ctx.recorder
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    let path = out_dir.join("result.json");
    std::fs::write(&path, report::result_file(&result))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", report::result_line(&result));
    Ok(result.correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("compare takes two directories".into()) };
    let (runs_a, runs_b) = (report::load_dir(Path::new(a))?, report::load_dir(Path::new(b))?);
    if runs_a.is_empty() || runs_b.is_empty() {
        return Err("a side holds no untraced result".into());
    }
    let c = compare::compare(&runs_a, &runs_b);
    println!("A = {a} ({} runs), B = {b} ({} runs)", runs_a.len(), runs_b.len());
    print!("{}", compare::table(&c.rows));
    for w in &c.warnings {
        println!("warning: {w}");
    }
    for f in &c.failures {
        println!("FAIL: {f}");
    }
    Ok(c.failures.is_empty())
}

fn selfcheck_command(args: &[String]) -> Result<bool, String> {
    let (mut sets, mut runs, mut seconds, mut out) =
        (2usize, 5usize, metrics::RUN_SECONDS as f64, Path::new(OUT_ROOT).join("selfcheck"));
    for (key, value) in flags(args)? {
        let count =
            || value.parse::<usize>().map_err(|_| format!("{key} {value:?} is not a count"));
        match key {
            "--sets" => sets = count()?.max(2),
            "--runs" => runs = count()?.max(1),
            "--seconds" => seconds = parse_seconds(value)?,
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    // sets interleave, so a slow stretch of the host lands on all of them
    for run in 0..runs {
        for set in 0..sets {
            for w in &WORKLOADS {
                let seed = 1 + run * sets + set;
                let dir = out.join(format!("set{set}")).join(format!("{}-s{seed}", w.name));
                eprintln!("selfcheck: set {set} run {run} {} seed {seed}", w.name);
                let status = std::process::Command::new(&exe)
                    .args(["run", "--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--out"])
                    .arg(&dir)
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                if !status.success() {
                    return Err(format!("the {} run with seed {seed} failed ({status})", w.name));
                }
            }
        }
    }
    let loaded: Vec<Vec<report::Stored>> = (0..sets)
        .map(|set| report::load_dir(&out.join(format!("set{set}"))))
        .collect::<Result<_, _>>()?;
    let rows = compare::selfcheck_rows(&loaded);
    println!("{sets} interleaved sets of {runs} runs of {seconds} s on one build");
    print!("{}", compare::selfcheck_table(&rows));
    Ok(rows.iter().all(compare::SelfRow::passes))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else { return usage() };
    let outcome = match command.as_str() {
        "run" => match parse_run(rest) {
            Ok(args) => run_command(args),
            Err(why) => {
                eprintln!("asdr-benchmark: {why}");
                return usage();
            }
        },
        "compare" => compare_command(rest),
        "selfcheck" => selfcheck_command(rest),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("asdr-benchmark: {why}");
            ExitCode::from(1)
        }
    }
}
