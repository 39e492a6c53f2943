//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [OPTIONS] <COMMAND>...
//!
//! Commands:
//!   table1..table9   one table each
//!   fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!   conclusions      extension: the paper's §7 claims as executable checks
//!   oracle           extension: heuristics vs the exact (min-cost-flow) optimum
//!   export           write the generated datasets as TSV under --out
//!   all              everything, written under --out
//!
//! Options:
//!   --scale <f>      dataset scale factor (default 0.03; 1.0 = paper size)
//!   --seed <n>       generation seed (default 17)
//!   --reps <n>       timing repetitions (default 3; paper: 10)
//!   --quick          scale 0.015, 2 reps (smoke mode)
//!   --fresh          ignore the run-data cache
//!   --out <dir>      output directory (default target/repro)
//!   --datasets D1,D4 restrict to specific datasets
//! ```
//!
//! Time efficiency beyond the paper's per-algorithm run-times (construction,
//! sweeps, out-of-core builds, the resident service) is measured by the
//! repository benchmark, `perfbench/`, not here.

use std::path::PathBuf;

use er_bench::context::{load_or_run, ReproConfig};
use er_bench::experiments::{self, Metric};
use er_bench::records::RunData;
use er_datasets::DatasetId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro [--scale f] [--seed n] [--reps n] [--quick] [--fresh] [--out dir] [--datasets D1,D2] <command>...");
        eprintln!("commands: table1..table9, fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10,");
        eprintln!("          conclusions oracle export, all");
        std::process::exit(2);
    }

    let mut cfg = ReproConfig {
        verbose: true,
        ..ReproConfig::default()
    };
    let mut out_dir = PathBuf::from("target/repro");
    let mut fresh = false;
    let mut commands: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => cfg.scale = parse(it.next(), "--scale"),
            "--seed" => cfg.seed = parse(it.next(), "--seed"),
            "--reps" => cfg.timing_reps = parse(it.next(), "--reps"),
            "--quick" => {
                cfg.scale = 0.015;
                cfg.timing_reps = 2;
            }
            "--fresh" => fresh = true,
            "--out" => out_dir = PathBuf::from(expect(it.next(), "--out")),
            "--datasets" => {
                let list = expect(it.next(), "--datasets");
                cfg.datasets = list
                    .split(',')
                    .map(|s| {
                        DatasetId::ALL
                            .into_iter()
                            .find(|d| d.label().eq_ignore_ascii_case(s.trim()))
                            .unwrap_or_else(|| die(&format!("unknown dataset {s}")))
                    })
                    .collect();
            }
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => die(&format!("unknown option {other}")),
        }
    }
    if commands.is_empty() {
        die("no command given");
    }
    // Reject typos before load_or_run spends minutes computing run data.
    if let Some(bad) = commands.iter().find(|c| !is_known_command(c)) {
        die(&format!("unknown command {bad}"));
    }

    // The export command writes datasets and exits.
    if commands.iter().any(|c| c == "export") {
        let dir = out_dir.join("datasets");
        for &id in &cfg.datasets {
            let dataset = er_datasets::Dataset::generate(id, cfg.scale, cfg.seed);
            er_datasets::export::export_dataset(&dataset, &dir)
                .unwrap_or_else(|e| die(&format!("export failed: {e}")));
            eprintln!("[repro] exported {id} to {}", dir.display());
        }
        commands.retain(|c| c != "export");
        if commands.is_empty() {
            return;
        }
    }

    // Table 1, Figure 6 and the oracle extension are self-contained;
    // only load run data when something needs it.
    let needs_data = commands
        .iter()
        .any(|c| !matches!(c.as_str(), "table1" | "fig6" | "oracle"));
    let data = if needs_data {
        Some(load_or_run(&cfg, &out_dir, fresh))
    } else {
        None
    };

    let expanded: Vec<String> = if commands.iter().any(|c| c == "all") {
        ALL_EXPANSION.iter().map(|s| s.to_string()).collect()
    } else {
        commands
    };

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for cmd in expanded {
        let output = run_command(&cmd, data.as_ref());
        println!("{output}");
        let path = out_dir.join(format!("{cmd}.txt"));
        std::fs::write(&path, &output).expect("write experiment output");
        eprintln!("[repro] wrote {}", path.display());
    }
}

/// What `all` expands to, in the paper's presentation order. This is the
/// single roster of dispatchable commands: the upfront typo check accepts
/// exactly these plus the meta commands `export` and `all`.
const ALL_EXPANSION: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "table5",
    "table6",
    "fig4",
    "fig5",
    "fig6",
    "table7",
    "table8",
    "table9",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "oracle",
    "conclusions",
];

fn is_known_command(cmd: &str) -> bool {
    cmd == "export" || cmd == "all" || ALL_EXPANSION.contains(&cmd)
}

/// Run one command and return its rendered text.
fn run_command(cmd: &str, data: Option<&RunData>) -> String {
    let data =
        |name: &str| -> &RunData { data.unwrap_or_else(|| die(&format!("{name} needs run data"))) };
    match cmd {
        "table1" => experiments::table1::render(),
        "table2" => experiments::table2::render(data("table2")),
        "table3" => experiments::table3::render(data("table3")),
        "table4" => experiments::table4::render(data("table4")),
        "table5" => experiments::table5::render(data("table5")),
        "table6" => experiments::table6::render(data("table6")),
        "table7" => experiments::table7::render(data("table7")),
        "table8" => experiments::table8::render(data("table8")),
        "table9" => experiments::table9::render(data("table9")),
        "fig2" => experiments::nemenyi_figs::render(data("fig2"), Metric::F1),
        "fig3" => experiments::fig3::render(data("fig3")),
        "fig4" => experiments::fig4::render(data("fig4")),
        "fig5" => experiments::tradeoff::render_fig5(data("fig5")),
        "fig6" => experiments::fig6::render(),
        "fig7" => experiments::nemenyi_figs::render(data("fig7"), Metric::Precision),
        "fig8" => experiments::nemenyi_figs::render(data("fig8"), Metric::Recall),
        "fig9" => experiments::fig9::render(data("fig9")),
        "fig10" => experiments::tradeoff::render_fig10(data("fig10")),
        "oracle" => experiments::oracle::render(17),
        "conclusions" => experiments::conclusions::render(data("conclusions")),
        other => die(&format!("unknown command {other}")),
    }
}

fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    expect(v, flag)
        .parse()
        .unwrap_or_else(|_| die(&format!("invalid value for {flag}")))
}

fn expect(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| die(&format!("{flag} requires a value")))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
