//! The repository benchmark: validated authorization decisions, write
//! churn and coalition discovery against real loopback wallet daemons.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload authz-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) installs an
//! in-memory span recorder and prints the per-layer metrics. Every
//! decision is checked against ground truth. The last stdout line is
//! the result object; the line before it is the full run record (host,
//! commit, seed, offered rate, generator lateness, ledger, spans), also
//! written under `perfbench/results/`. `BENCHMARK.json` at the root
//! lists the workloads and metrics; `perfbench/METRICS.md` says what
//! each metric measures and which end-to-end metric each layer moves.

mod authz;
mod check;
mod discovery;
mod layers;
mod openloop;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metrics;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for on-disk stores, inside the checkout.
    pub workdir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <authz-hot|authz-churn|coalition-discovery> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        workdir: PathBuf::from("perfbench/work"),
    })
}

/// First line of a command's stdout, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// FNV-1a over the workspace sources, in path order: identifies the
/// code measured when the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance(m: &mut Metrics, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    m.provenance_str("workload", &args.workload);
    m.provenance("seed", args.seed as f64);
    m.provenance("seconds", args.seconds);
    m.provenance("traced", f64::from(u8::from(args.trace)));
    m.provenance("nproc", nproc as f64);
    m.provenance_str("cpu", &cpu);
    m.provenance_str(
        "rustc",
        &command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    m.provenance_str(
        "git_commit",
        &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
    );
    m.provenance_str("source_digest", &source_digest());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    provenance(&mut metrics, &args);
    let tally = match args.workload.as_str() {
        "authz-hot" => authz::run(authz::Flavor::Hot, &args, &mut metrics),
        "authz-churn" => authz::run(authz::Flavor::Churn, &args, &mut metrics),
        "coalition-discovery" => discovery::run(&args, &mut metrics),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.workdir);
    let correct = tally.correct();
    let (attempted, failed) = (tally.attempted.max(1), tally.failed());
    if args.trace {
        metrics.layer("fail_ratio", stats::ratio(failed as f64, attempted as f64));
    }
    let record = metrics.record(args.trace, correct, attempted, failed);
    let results = PathBuf::from("perfbench/results");
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&file, &record))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{record}");
    println!(
        "{}",
        metrics.result_line(args.trace, correct, attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong decisions — the run is not valid");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload authz-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "authz-hot");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse(&argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload x --seed 1 --trace 0")).is_err());
    }
}
