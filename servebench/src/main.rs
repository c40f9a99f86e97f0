//! servebench — the served-stack benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload annotate --seed 1 --seconds 6 --trace 0
//! ```
//!
//! Drives `RouterClient` → two shard `ClusterServer`s → `Cluster` → shard
//! `DurableStore` (WAL, `FsyncPolicy::EveryOp`) → `Store` → prevalidation
//! gate / GODDAG / extended XPath from one closed-loop client thread, with
//! every reply checked against an in-memory oracle. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same script down a ladder of
//! replicas and prints per-layer metrics instead. The last stdout line is
//! the JSON result. See `servebench/README.md`.

mod inputs;
mod run;
mod stack;
mod stats;
mod trace;

use inputs::{Inputs, Workload};
use run::{Cursor, Kind};
use stack::{Result, Served};
use stats::{block_percentile, median, Report};

/// Set-ups per timed run at least (`setup_s` is their median), and the
/// chunks the script is run in between them.
const SETUPS: usize = 3;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 6u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload annotate|query|edit_query \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = measure(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds when no other run is using it.
    let _ = std::fs::remove_dir(".bench_run");
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            // A wrong answer fails the run on its exit status too.
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line, and whether every check passed.
fn measure(args: &Args, dir: &std::path::Path) -> Result<(String, bool)> {
    let inputs = inputs::build(args.workload, args.seed, args.seconds);
    let (docs, words) = args.workload.corpus();
    println!(
        "servebench {}: seed {}, {docs} docs x {words} words (phys+ling+edit, standard DTDs), \
         {} shards, FsyncPolicy::EveryOp, 1 closed-loop client, nproc {}, script {} steps",
        args.workload.name(),
        args.seed,
        stack::SHARDS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs.script.steps.len(),
    );
    let (report, attempted, failed, errors) =
        if args.trace { trace::traced(&inputs, dir, args.seed)? } else { timed(&inputs, dir)? };
    print!("{}", report.table());
    for e in &errors {
        eprintln!("servebench: check failed: {e}");
    }
    Ok((report.json(failed == 0, attempted, failed), failed == 0))
}

type Outcome = (Report, u64, u64, Vec<String>);

fn timed(inputs: &Inputs, dir: &std::path::Path) -> Result<Outcome> {
    // The script runs in `SETUPS` chunks with a fresh set-up (torn down
    // again) between them, so the measured pass spans most of the run and
    // a slow spell of the host reaches one block of it, not all of it.
    let served = Served::setup(inputs, &dir.join("setup-0"))?;
    let mut setup_s = vec![served.setup.as_secs_f64()];
    let fresh_setup = |setup_s: &mut Vec<f64>| -> Result<()> {
        let fresh = Served::setup(inputs, &dir.join(format!("setup-{}", setup_s.len())))?;
        setup_s.push(fresh.setup.as_secs_f64());
        fresh.teardown();
        Ok(())
    };
    let mut cursor = Cursor::new(inputs);
    let steps = &inputs.script.steps;
    let mut pass = run::Pass::default();
    for (i, chunk) in run::blocks(steps, steps.len(), SETUPS).into_iter().enumerate() {
        if i > 0 {
            fresh_setup(&mut setup_s)?;
        }
        pass.absorb(run::run(&served, inputs, &mut cursor, chunk, |_, _| {}));
    }
    let mut bad = served.verify_exports(inputs);
    let (script_dir, ids) = served.stop();

    // The single-shot phases, repeated and interleaved so that each
    // metric's samples span the whole phase rather than one slice of it:
    // a recovery of the scripted stack's directories, a follower catch-up
    // from the recovered cluster, and the remaining set-ups.
    let reps = inputs.workload.repeats();
    let (mut recover_s, mut catch_up_s) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        if setup_s.len() < reps {
            fresh_setup(&mut setup_s)?;
        }
        let (took, cluster, recovered_bad) = stack::recover(&script_dir, &ids, inputs)?;
        recover_s.push(took.as_secs_f64());
        bad.extend(recovered_bad);
        let caught = stack::catch_up(&cluster, &ids, inputs)?;
        catch_up_s.push(caught.time.as_secs_f64());
        bad.extend(caught.mismatches);
    }
    let _ = std::fs::remove_dir_all(&script_dir);

    let mut r = Report::default();
    r.put("setup_s", "s", median(&setup_s));
    r.put("ops_per_s", "1/s", pass.ops_per_s());
    let checks = (1 + 2 * reps as u64) * inputs.docs.len() as u64;
    let attempted = pass.attempted + checks;
    let failed = pass.failed + bad.len() as u64;
    r.note("error_ratio", "ratio", failed as f64 / attempted as f64);
    // Latency rows for the op kinds this workload's mix has.
    let kinds = [
        (Kind::Edit, "edit_p50_ms", "edit_p99_ms", 99.0),
        (Kind::Query, "query_p50_ms", "query_p99_ms", 99.0),
        (Kind::Fanout, "fanout_p50_ms", "fanout_p90_ms", 90.0),
    ];
    for (kind, p50, tail, p) in kinds {
        let samples = pass.samples(kind);
        if !samples.is_empty() {
            r.note(p50, "ms", block_percentile(samples, 50.0));
            r.note(tail, "ms", block_percentile(samples, p));
        }
    }
    r.put("recover_s", "s", median(&recover_s));
    r.put("repl_catchup_s", "s", median(&catch_up_s));
    r.put("peak_rss_mb", "MiB", stack::peak_rss_mb());
    println!(
        "samples: edit {} query {} fanout {}; set-ups {setup_s:?} s",
        pass.samples(Kind::Edit).len(),
        pass.samples(Kind::Query).len(),
        pass.samples(Kind::Fanout).len(),
    );
    let errors = [pass.errors, bad].concat();
    Ok((r, attempted, failed, errors))
}
