//! Command-line entry point; see the crate docs for usage.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, json_num, json_str};
use perfbench::workloads::{self, Ctx};
use perfbench::{host, stats, trace};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        smoke,
    })
}

#[global_allocator]
static GLOBAL: perfbench::alloc::Counting = perfbench::alloc::Counting;

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let tag = format!(
        "{}-seed{}-trace{}{}",
        args.workload,
        args.seed,
        u8::from(args.traced),
        if args.smoke { "-smoke" } else { "" }
    );
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        work_dir: out_dir.join(format!("work-{tag}-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::from(1);
    }
    trace::set_enabled(args.traced);
    let outcome = workloads::run(&ctx).expect("workload name was validated");
    trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);

    let spans = trace::spans();
    let counts = trace::counts();
    let e2e = report::end_to_end(&outcome);
    let layer = report::per_layer(&outcome, &spans, &counts);
    let printed = if args.traced { &layer } else { &e2e };
    let correct =
        outcome.failed == 0 && outcome.attempted > 0 && printed.iter().all(|m| m.value.is_finite());
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let params: Vec<String> = outcome
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let own_layer: Vec<String> = outcome
        .layer
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let record = format!(
        "{{\"stamp\": {}, \"params\": {{{}}}, \"setup_s\": {}, \
         \"pass_s\": {}, \"traced_pass_s\": {}, \"classes\": {}, \"workload_layer\": {{{}}}, \
         \"peak_rss_mb\": {}, \"error_rate\": {}, \"digest\": {}, \"failures\": [{}], \
         \"end_to_end\": {}, \"per_layer\": {}}}",
        host::stamp(
            &args.workload,
            args.seed,
            args.seconds,
            args.traced,
            args.smoke
        ),
        params.join(", "),
        report::list_json(&outcome.setup_s),
        report::list_json(&outcome.pass_s),
        report::list_json(&outcome.traced_pass_s),
        report::classes_json(&outcome),
        own_layer.join(", "),
        stats::peak_rss_mb().map_or("null".into(), json_num),
        json_num(error_rate),
        outcome.digest.as_deref().map_or("null".into(), json_str),
        notes.join(", "),
        report::metrics_json(&e2e),
        if args.traced {
            report::metrics_json(&layer)
        } else {
            "null".into()
        },
    );
    let _ = std::fs::write(out_dir.join(format!("record-{tag}.json")), &record);
    if args.traced {
        let _ = std::fs::write(
            out_dir.join(format!("trace-{tag}.jsonl")),
            trace::to_json_lines(&spans, &counts),
        );
    }
    for n in &outcome.notes {
        eprintln!("perfbench: FAILED: {n}");
    }
    println!("{record}");
    println!(
        "{}",
        report::result_line(correct, outcome.attempted.max(1), outcome.failed, printed)
    );
    ExitCode::SUCCESS
}
