//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//!   reproduce [--full] [--list] [--metrics PATH] [--events PATH]
//!             [--prometheus PATH] [--cache-dir DIR] [EXPERIMENT ...]
//!
//! Without experiment names every experiment runs; `--full` switches from
//! the Quick scale to the DESIGN.md resolution schedule. `--list` prints
//! the experiment names and exits. `--metrics` dumps the final metrics
//! registry as JSON, `--events` streams structured JSONL events during the
//! run, and `--prometheus` writes the registry in Prometheus text format.
//! `--cache-dir` passes a persistent snapshot cache to every experiment's
//! ESS compiles, so repeated reproduction runs skip the optimizer sweeps.
//! Unknown experiment names or flags are rejected.
//!
//! Stdout carries only results, so a Quick-scale run is byte-identical
//! from run to run (`make reproduce-check` diffs it against
//! `crates/bench/golden/quick.txt`). Wall-clock lines (the serving
//! section's run time, registry hit/wait split, throughput and latency,
//! and the final total) go to stderr.

use rqp_bench::*;
use std::time::Instant;

struct Cli {
    scale: Scale,
    wanted: Vec<String>,
    obs: ObsOptions,
    cache: Option<rqp_ess::CompileCache>,
}

fn usage() -> String {
    format!(
        "usage: reproduce [--full] [--list] [--metrics PATH] [--events PATH] \
         [--prometheus PATH] [--cache-dir DIR] [EXPERIMENT ...]\nexperiments: {}",
        EXPERIMENTS.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut scale = Scale::Quick;
    let mut wanted = Vec::new();
    let mut obs = ObsOptions::default();
    let mut cache = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--list" => {
                for name in EXPERIMENTS {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--metrics" | "--events" | "--prometheus" => {
                let path = it
                    .next()
                    .ok_or_else(|| format!("{arg} requires a file path argument"))?
                    .clone();
                match arg.as_str() {
                    "--metrics" => obs.metrics_path = Some(path),
                    "--events" => obs.events_path = Some(path),
                    _ => obs.prometheus_path = Some(path),
                }
            }
            "--cache-dir" => {
                let dir = it
                    .next()
                    .ok_or_else(|| format!("{arg} requires a directory argument"))?
                    .clone();
                cache = Some(
                    rqp_ess::CompileCache::new(&dir)
                        .map_err(|e| format!("cannot enable compile cache: {e}"))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag: {flag}\n{}", usage()));
            }
            name => {
                if !EXPERIMENTS.contains(&name) {
                    return Err(format!(
                        "unknown experiment: {name}\nvalid experiments: {}",
                        EXPERIMENTS.join(" ")
                    ));
                }
                wanted.push(name.to_string());
            }
        }
    }
    Ok(Some(Cli { scale, wanted, obs, cache }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    if let Err(e) = rqp_bench::obs::init(&cli.obs) {
        eprintln!("error: failed to set up observability outputs: {e}");
        std::process::exit(1);
    }

    let scale = cli.scale;
    let cache = cli.cache.as_ref();
    let want = |name: &str| cli.wanted.is_empty() || cli.wanted.iter().any(|w| w == name);

    println!("robust-qp reproduction harness (scale: {:?})\n", scale);

    let t0 = Instant::now();
    if want("fig7") {
        section("Fig 7: SpillBound execution trace (2D_Q91)");
        println!("{}", fig7_trace(scale, cache));
    }
    if want("fig8") {
        section("Fig 8: MSO guarantees");
        println!(
            "{}",
            render_guarantees(
                "Fig 8: MSO guarantees (PB vs SB)",
                &fig8_mso_guarantees(scale, cache)
            )
        );
    }
    if want("fig9") {
        section("Fig 9: guarantee vs dimensionality (Q91)");
        println!(
            "{}",
            render_guarantees(
                "Fig 9: MSOg vs dimensionality (Q91, D=2..6)",
                &fig9_dimensionality(scale, cache)
            )
        );
    }
    if want("fig10") || want("fig11") {
        section("Fig 10 & 11: empirical MSO and ASO");
        println!("{}", render_empirical(&fig10_11_empirical(scale, cache)));
    }
    if want("fig12") {
        section("Fig 12: sub-optimality distribution");
        println!("{}", render_histogram(&fig12_distribution(scale, cache)));
    }
    if want("fig13") || want("table4") {
        section("Fig 13 & Table 4: AlignedBound");
        println!("{}", render_aligned(&fig13_table4_aligned(scale, cache)));
    }
    if want("table2") {
        section("Table 2: contour alignment cost");
        println!("{}", render_alignment(&table2_alignment(scale, cache)));
    }
    if want("table3") {
        section("Table 3 / §6.3: wall-clock drill-down");
        println!("{}", render_wall_clock(&table3_wall_clock(scale, cache)));
    }
    if want("job") {
        section("§6.5: JOB benchmark");
        println!("{}", render_job(&job_q1a(scale, cache)));
    }
    if want("ratio") {
        section("Ablation: contour cost ratio");
        println!("{}", render_ratio(&ablation_cost_ratio(scale, cache)));
    }
    if want("anorexic") {
        section("Ablation: anorexic reduction");
        println!("{}", render_anorexic(&ablation_anorexic(scale, cache)));
    }
    if want("baselines") {
        section("§8 comparison: reoptimization heuristics");
        println!("{}", render_baselines(&baselines_comparison(scale, cache)));
    }
    if want("random") {
        section("Robustness sweep: random workloads");
        println!("{}", render_random(&random_workload_sweep(scale, cache, 9)));
    }
    if want("cost_error") {
        section("Ablation: cost-model error (§7)");
        println!("{}", render_cost_error(&ablation_cost_error(scale, cache)));
    }
    if want("resolution") {
        section("Ablation: grid resolution");
        println!("{}", render_resolution(&ablation_resolution(scale, cache)));
    }
    if want("chaos") {
        section("Robustness: deterministic fault-injection sweep (2D_Q91)");
        println!("{}", chaos_sweep_experiment(scale, cache));
    }
    if want("serve") {
        section("Serving: concurrent sessions over a shared POSP registry");
        let out = serve_experiment(scale);
        eprint!("{}", out.timings);
        println!("{}", out.results);
    }
    eprintln!("total: {:.1?}", t0.elapsed());

    if let Err(e) = rqp_bench::obs::finish(&cli.obs) {
        eprintln!("error: failed to write observability outputs: {e}");
        std::process::exit(1);
    }
    if cli.obs.any() {
        for (label, path) in [
            ("metrics", &cli.obs.metrics_path),
            ("events", &cli.obs.events_path),
            ("prometheus", &cli.obs.prometheus_path),
        ] {
            if let Some(p) = path {
                println!("{label}: {p}");
            }
        }
    }
}

fn section(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}
