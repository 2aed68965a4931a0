//! `rqp` — command-line front end to the robust query processing library.
//!
//! ```text
//! rqp list
//! rqp compile  --query 4D_Q91 [--resolution N] [--out posp.rqpc]
//! rqp run      --query 4D_Q91 [--algo sb|ab|pb|native|reopt] [--qa s1,s2,..] [--resolution N] [--lazy true]
//! rqp report   --query 3D_Q15 [--resolution N]
//! rqp atlas    --query 2D_Q91 [--resolution N]
//! rqp sql      --catalog tpcds|imdb --file query.sql [--algo sb] [--resolution N]
//! rqp chaos    --query 2D_Q91 [--resolution N] [--seed S] [--schedules K]
//!              [--rate P] [--metrics PATH]
//! rqp serve    --workload FILE | --query 2D_Q91 [--sessions K] [--algo sb]
//!              [--workers N] [--queue M] [--resolution N] [--deadline-ms T]
//!              [--budget-cap X] [--chaos-seed S] [--rate P] [--cache-dir DIR]
//!              [--strict true] [--telemetry-addr HOST:PORT]
//!              [--trace-out FILE] [--flame-out FILE]
//!              [--compile-rate P] [--degrade true] [--lazy true]
//!              [--drill crash-recover|storm]
//!              [--listen HOST:PORT [--shard K/N] [--addr-file FILE]]
//!              [--stable-out FILE]
//! rqp connect  --addr HOST:PORT[,HOST:PORT..] --workload FILE [--resolution N]
//!              [--stable-out FILE] [--shutdown true]
//! rqp trace-check --file trace.json
//! ```

use robust_qp::core::native::native_mso_worst_estimate;
use robust_qp::ess::{compile_fingerprint, PospSnapshot};
use robust_qp::prelude::*;
use std::collections::HashMap;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "list" => list(),
        "compile" => compile(&flags),
        "run" => run(&flags),
        "report" => report(&flags),
        "atlas" => atlas(&flags),
        "sql" => sql(&flags),
        "chaos" => chaos(&flags),
        "serve" => serve(&flags),
        "connect" => connect(&flags),
        "trace-check" => trace_check(&flags),
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "rqp — robust query processing\n\
         commands:\n\
         \x20 list                                   list named workloads\n\
         \x20 compile --query NAME [--resolution N] [--out FILE]\n\
         \x20         [--cache-dir DIR] [--mode exact|recost|recost:STRIDE]\n\
         \x20 run     --query NAME [--algo sb|ab|pb|native|reopt] [--qa s1,s2,..]\n\
         \x20         [--lazy true]   compile contour bands only as discovery pulls them\n\
         \x20 report  --query NAME [--resolution N]\n\
         \x20 atlas   --query NAME [--resolution N]   (2-epp queries)\n\
         \x20 sql     --catalog tpcds|imdb --file FILE [--algo sb]\n\
         \x20 chaos   --query NAME [--seed S] [--schedules K] [--rate P] [--metrics FILE]\n\
         \x20 serve   --workload FILE | --query NAME [--sessions K] [--algo sb]\n\
         \x20         [--workers N] [--queue M] [--deadline-ms T] [--budget-cap X]\n\
         \x20         [--chaos-seed S] [--rate P] [--cache-dir DIR] [--strict true]\n\
         \x20         [--telemetry-addr HOST:PORT] [--trace-out FILE] [--flame-out FILE]\n\
         \x20         [--compile-rate P] [--degrade true] [--lazy true]\n\
         \x20         [--drill crash-recover|storm]\n\
         \x20         [--listen HOST:PORT [--shard K/N] [--addr-file FILE]]\n\
         \x20         [--stable-out FILE]\n\
         \x20 connect --addr HOST:PORT[,HOST:PORT...] (in shard order)\n\
         \x20         --workload FILE | --query NAME [--sessions K] [--algo sb]\n\
         \x20         [--resolution N] [--stable-out FILE] [--shutdown true]\n\
         \x20 trace-check --file FILE                validate a Chrome trace export"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("expected --flag, got {a:?}");
            exit(2);
        };
        let Some(v) = it.next() else {
            eprintln!("flag --{key} needs a value");
            exit(2);
        };
        flags.insert(key.to_string(), v.clone());
    }
    flags
}

fn workload_by_name(name: &str) -> Workload {
    Workload::by_name(name).unwrap_or_else(|e| match e {
        RqpError::Config(msg) => {
            eprintln!("{msg}; try `rqp list`");
            exit(2);
        }
        other => {
            eprintln!("cannot build workload {name:?}: {other}");
            exit(1);
        }
    })
}

/// Compile a runtime eagerly, through the `--cache-dir` cache if given.
fn compile_or_exit<'a>(
    catalog: &'a Catalog,
    query: &'a Query,
    cfg: EssConfig,
    flags: &HashMap<String, String>,
) -> RobustRuntime<'a> {
    let cache = compile_cache(flags);
    RobustRuntime::compile_cached(catalog, query, CostModel::default(), cfg, cache.as_ref())
        .unwrap_or_else(|e| {
            eprintln!("ESS compilation failed: {e}");
            exit(1)
        })
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{key}");
        exit(2);
    })
}

fn parse_or<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags.get(key).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad --{key} {v:?}");
            exit(2);
        })
    })
}

fn config_for(flags: &HashMap<String, String>, dims: usize) -> EssConfig {
    let mut cfg = EssConfig::coarse(dims);
    if let Some(r) = flags.get("resolution") {
        cfg.resolution = r.parse().unwrap_or_else(|_| {
            eprintln!("bad --resolution {r:?}");
            exit(2);
        });
    }
    if let Some(mode) = flags.get("mode") {
        cfg.mode = match mode.to_ascii_lowercase().as_str() {
            "exact" => CompileMode::Exact,
            "recost" => CompileMode::default(),
            other => match other.strip_prefix("recost:").and_then(|s| s.parse().ok()) {
                Some(stride) => CompileMode::Recost { seed_stride: stride },
                None => {
                    eprintln!("bad --mode {mode:?} (exact|recost|recost:STRIDE)");
                    exit(2);
                }
            },
        };
    }
    cfg
}

/// The `--cache-dir` compile cache, if one was asked for.
fn compile_cache(flags: &HashMap<String, String>) -> Option<CompileCache> {
    flags.get("cache-dir").map(|dir| {
        CompileCache::new(dir).unwrap_or_else(|e| {
            eprintln!("cannot enable compile cache: {e}");
            exit(2)
        })
    })
}

/// One-line summary of the persistent-cache counters for this process.
fn cache_summary() -> String {
    let g = robust_qp::obs::global();
    format!(
        "compile cache: {} hit(s), {} miss(es), {} store(s)",
        g.counter(robust_qp::obs::names::ESS_CACHE_HITS).get(),
        g.counter(robust_qp::obs::names::ESS_CACHE_MISSES).get(),
        g.counter(robust_qp::obs::names::ESS_CACHE_STORES).get()
    )
}

fn algo_by_name(name: &str) -> Box<dyn Discovery> {
    robust_qp::serve::algo_by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn list() {
    println!("named workloads:");
    for &bq in BenchQuery::all() {
        println!("  {:<8} TPC-DS, {} error-prone join predicates", bq.name(), bq.dims());
    }
    for d in 2..=6 {
        println!("  {d}D_Q91   TPC-DS Q91 with {d} epps (dimensionality sweep)");
    }
    println!("  JOB_Q1a  Join Order Benchmark Q1a, 3 epps");
}

fn compile(flags: &HashMap<String, String>) {
    let w = workload_by_name(required(flags, "query"));
    let cfg = config_for(flags, w.query.dims());
    let t0 = std::time::Instant::now();
    let rt = compile_or_exit(&w.catalog, &w.query, cfg, flags);
    let ess = rt.ess().unwrap_or_else(|e| {
        eprintln!("surface materialization failed: {e}");
        exit(1)
    });
    println!(
        "compiled {}: {} cells, {} plans, {} contours in {:.2?}",
        w.query.name,
        ess.grid().num_cells(),
        ess.posp.num_plans(),
        ess.contours.num_bands(),
        t0.elapsed()
    );
    if flags.contains_key("cache-dir") {
        println!("{}", cache_summary());
    }
    if let Some(out) = flags.get("out") {
        let fp = compile_fingerprint(&w.catalog, &w.query, &CostModel::default(), &cfg);
        std::fs::write(out, PospSnapshot::capture(&ess).encode(fp)).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1);
        });
        println!("snapshot written to {out}");
    }
}

fn run(flags: &HashMap<String, String>) {
    let w = workload_by_name(required(flags, "query"));
    let cfg = config_for(flags, w.query.dims());
    let lazy = flags.get("lazy").is_some_and(|v| v == "true" || v == "1");
    let rt = if lazy {
        w.runtime_lazy(cfg).unwrap_or_else(|e| {
            eprintln!("lazy ESS admission failed: {e}");
            exit(1)
        })
    } else {
        compile_or_exit(&w.catalog, &w.query, cfg, flags)
    };
    let grid = rt.grid();
    let qa = match flags.get("qa") {
        None => grid.num_cells() / 2,
        Some(spec) => {
            let vals: Vec<f64> = spec
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("bad selectivity {s:?} in --qa");
                        exit(2);
                    })
                })
                .collect();
            if vals.len() != grid.dims() {
                eprintln!("--qa needs {} comma-separated selectivities", grid.dims());
                exit(2);
            }
            let coords: Vec<usize> =
                vals.iter().enumerate().map(|(d, &v)| grid.snap_ceil(d, v)).collect();
            grid.index(&coords)
        }
    };
    let algo = algo_by_name(flags.get("algo").map(String::as_str).unwrap_or("sb"));
    let trace = algo.discover(&rt, qa);
    println!("qa = {} (cell {qa})", grid.location(qa));
    println!("{}", trace.render());
    if lazy {
        println!(
            "lazy compile: {} of {} contour bands materialized",
            rt.bands_compiled(),
            rt.num_bands()
        );
    }
}

fn report(flags: &HashMap<String, String>) {
    let w = workload_by_name(required(flags, "query"));
    let d = w.query.dims();
    let cfg = config_for(flags, d);
    let rt = compile_or_exit(&w.catalog, &w.query, cfg, flags);
    let pb = PlanBouquet::anorexic(&rt, 0.2).unwrap_or_else(|e| {
        eprintln!("anorexic reduction failed: {e}");
        exit(1)
    });
    let rho = pb.rho(&rt);
    println!("{}: D = {d}, ρ_red = {rho}", w.query.name);
    println!(
        "  guarantees: PB {:>7.1}   SB {:>7.1}   AB [{:.0}, {:.0}]",
        pb_guarantee(rho, 0.2),
        sb_guarantee(d),
        ab_guarantee_range(d).0,
        ab_guarantee_range(d).1,
    );
    let pb_ev = evaluate(&rt, &pb);
    let sb_ev = evaluate(&rt, &SpillBound::new());
    let ab_ev = evaluate(&rt, &AlignedBound::new());
    println!(
        "  empirical:  PB MSO {:>5.1} ASO {:>5.2} | SB MSO {:>5.1} ASO {:>5.2} | AB MSO {:>5.1} ASO {:>5.2}",
        pb_ev.mso, pb_ev.aso, sb_ev.mso, sb_ev.aso, ab_ev.mso, ab_ev.aso
    );
    println!("  native worst-case MSO: {:.0}", native_mso_worst_estimate(&rt));
}

fn atlas(flags: &HashMap<String, String>) {
    let w = workload_by_name(required(flags, "query"));
    if w.query.dims() != 2 {
        eprintln!("atlas needs a 2-epp query (try 2D_Q91)");
        exit(2);
    }
    let cfg = config_for(flags, 2);
    let rt = compile_or_exit(&w.catalog, &w.query, cfg, flags);
    let ess = rt.ess().unwrap_or_else(|e| {
        eprintln!("surface materialization failed: {e}");
        exit(1)
    });
    let grid = ess.grid();
    let res = grid.res(0);
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    println!("plan diagram ({} plans):", ess.posp.num_plans());
    for y in (0..res).rev() {
        let row: String = (0..res)
            .map(|x| {
                let id = ess.posp.plan_id(grid.index(&[x, y])).0 as usize;
                GLYPHS[id % GLYPHS.len()] as char
            })
            .collect();
        println!("  {row}");
    }
    println!("contour bands (digit = band mod 10):");
    for y in (0..res).rev() {
        let row: String = (0..res)
            .map(|x| {
                char::from_digit((ess.contours.band_of(grid.index(&[x, y])) % 10) as u32, 10)
                    .unwrap_or('?')
            })
            .collect();
        println!("  {row}");
    }
}

fn chaos(flags: &HashMap<String, String>) {
    use robust_qp::chaos::{probe_cells, standard_schedules, sweep, ChaosReport, FaultPlan};

    let w = workload_by_name(required(flags, "query"));
    let cfg = config_for(flags, w.query.dims());
    let seed: u64 = parse_or(flags, "seed", 1);
    let schedules_n: u64 = parse_or(flags, "schedules", 4);
    let rate: f64 = parse_or(flags, "rate", 0.35);
    if schedules_n == 0 {
        eprintln!("--schedules must be at least 1 (a zero-run sweep verifies nothing)");
        exit(2);
    }
    if !(0.0..=1.0).contains(&rate) {
        eprintln!("--rate must lie in [0, 1], got {rate}");
        exit(2);
    }

    robust_qp::executor::register_metrics();
    robust_qp::core::register_metrics();

    let plan = FaultPlan::idle();
    let mut rt = compile_or_exit(&w.catalog, &w.query, cfg, flags);
    rt.set_fault_injector(&plan);
    let cells = probe_cells(&rt);
    println!(
        "chaos sweep on {}: {} schedules x 6 fault classes x 5 algorithms x {} instances \
         (seed {seed}, rate {rate})",
        w.query.name,
        schedules_n,
        cells.len()
    );
    let mut all = ChaosReport::default();
    for k in 0..schedules_n {
        let schedules = standard_schedules(seed.wrapping_add(k), rate);
        match sweep(&rt, &plan, &cells, &schedules) {
            Ok(mut r) => all.runs.append(&mut r.runs),
            Err(e) => {
                eprintln!("chaos invariant violated: {e}");
                exit(1);
            }
        }
    }
    println!("{}", all.render());
    println!(
        "all invariants held (degraded charge factor {:.1}x per logical execution)",
        degraded_factor()
    );
    if let Some(path) = flags.get("metrics") {
        let json = robust_qp::obs::global().to_json_pretty().unwrap_or_else(|e| {
            eprintln!("cannot serialize metrics snapshot: {e}");
            exit(1);
        });
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("metrics: {path}");
    }
}

fn sql(flags: &HashMap<String, String>) {
    let catalog = match required(flags, "catalog") {
        c if c.eq_ignore_ascii_case("tpcds") => robust_qp::workloads::tpcds_catalog(),
        c if c.eq_ignore_ascii_case("imdb") => robust_qp::workloads::imdb_catalog(),
        other => {
            eprintln!("unknown catalog {other:?} (tpcds|imdb)");
            exit(2);
        }
    };
    let file = required(flags, "file");
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1);
    });
    let query = robust_qp::catalog::parse_query(&catalog, "adhoc", &text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    println!("parsed {:?}: {} relations, {} epps", file, query.relations.len(), query.dims());
    let cfg = config_for(flags, query.dims());
    let rt = compile_or_exit(&catalog, &query, cfg, flags);
    let algo = algo_by_name(flags.get("algo").map(String::as_str).unwrap_or("sb"));
    let qa = rt.grid().num_cells() / 2;
    let trace = algo.discover(&rt, qa);
    println!("{}", trace.render());
}

fn serve(flags: &HashMap<String, String>) {
    use robust_qp::serve::{serve_workload, ServeConfig};

    // Scripted resilience drills short-circuit the normal serve path.
    if let Some(which) = flags.get("drill") {
        robust_qp::serve::register_metrics();
        let drill = match which.as_str() {
            "crash-recover" => {
                let dir = flags.get("cache-dir").map_or_else(
                    || std::env::temp_dir().join(format!("rqp-drill-{}", std::process::id())),
                    std::path::PathBuf::from,
                );
                robust_qp::serve::crash_recover_drill(&dir)
            }
            "storm" => robust_qp::serve::storm_drill(
                parse_or(flags, "chaos-seed", 0x00C0_FFEE_u64),
                parse_or(flags, "sessions", 120usize),
            ),
            other => {
                eprintln!("unknown drill {other:?} (crash-recover|storm)");
                exit(2);
            }
        };
        let drill = drill.unwrap_or_else(|e| {
            eprintln!("drill failed to run: {e}");
            exit(1);
        });
        print!("{}", drill.render());
        if !drill.passed() {
            exit(1);
        }
        return;
    }

    // `--listen` servers carry no workload of their own — sessions
    // arrive as wire frames — so resolve entries only for local runs.
    let listen = flags.get("listen");
    let entries = if listen.is_some() { Vec::new() } else { session_entries(flags) };
    let total: usize = entries.iter().map(|e| e.count).sum();

    let rate: f64 = parse_or(flags, "rate", 0.0);
    if !(0.0..=1.0).contains(&rate) {
        eprintln!("--rate must lie in [0, 1], got {rate}");
        exit(2);
    }
    let chaos = flags.get("chaos-seed").map(|s| {
        let seed: u64 = s.parse().unwrap_or_else(|_| {
            eprintln!("bad --chaos-seed {s:?}");
            exit(2);
        });
        if rate > 0.0 {
            robust_qp::chaos::FaultConfig::storm(seed, rate)
        } else {
            robust_qp::chaos::FaultConfig::quiet(seed)
        }
    });

    let config = ServeConfig {
        workers: parse_or(flags, "workers", 4usize),
        queue_cap: parse_or(flags, "queue", 64usize),
        resolution: flags.get("resolution").map(|r| {
            r.parse().unwrap_or_else(|_| {
                eprintln!("bad --resolution {r:?}");
                exit(2);
            })
        }),
        deadline: flags.get("deadline-ms").map(|v| {
            let ms: u64 = v.parse().unwrap_or_else(|_| {
                eprintln!("bad --deadline-ms {v:?}");
                exit(2);
            });
            std::time::Duration::from_millis(ms)
        }),
        budget_cap: flags.get("budget-cap").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad --budget-cap {v:?}");
                exit(2);
            })
        }),
        chaos,
        compile_chaos: flags.get("compile-rate").map(|p| {
            let rate: f64 = p.parse().unwrap_or_else(|_| {
                eprintln!("bad --compile-rate {p:?}");
                exit(2);
            });
            if !(0.0..=1.0).contains(&rate) {
                eprintln!("--compile-rate must lie in [0, 1], got {rate}");
                exit(2);
            }
            let seed = parse_or(flags, "chaos-seed", 0u64);
            if rate > 0.0 {
                robust_qp::chaos::CompileFaultConfig::storm(seed, rate)
            } else {
                robust_qp::chaos::CompileFaultConfig::quiet(seed)
            }
        }),
        degrade: flags.get("degrade").map(String::as_str) == Some("true"),
        lazy: flags.get("lazy").map(String::as_str) == Some("true"),
        keep_traces: false,
        cache_dir: flags.get("cache-dir").map(std::path::PathBuf::from),
        // Any trace consumer (live endpoint or file export) turns tracing on.
        tracing: flags.contains_key("telemetry-addr")
            || flags.contains_key("trace-out")
            || flags.contains_key("flame-out"),
        telemetry_addr: flags.get("telemetry-addr").cloned(),
        ..ServeConfig::default()
    };

    robust_qp::serve::register_metrics();

    // `--listen` turns this invocation into a long-lived network server.
    if let Some(addr) = listen {
        serve_listen(flags, addr, config);
        return;
    }

    let tracing_on = config.tracing;
    println!(
        "serving {total} session(s) with {} worker(s), queue capacity {}",
        config.workers, config.queue_cap
    );
    let report = serve_workload(config, &entries).unwrap_or_else(|e| {
        eprintln!("serve failed: {e}");
        exit(1);
    });
    print!("{}", report.render());
    write_stable_out(flags, &report);
    if flags.contains_key("cache-dir") {
        println!("{}", cache_summary());
    }

    if let Some(path) = flags.get("trace-out") {
        let traces: Vec<Vec<robust_qp::obs::SpanRecord>> =
            report.results.iter().map(|r| r.spans.clone()).collect();
        let json = robust_qp::obs::chrome_trace_json_multi(&traces).to_json_pretty();
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("trace: {path} (load in Perfetto / chrome://tracing)");
    }
    if let Some(path) = flags.get("flame-out") {
        let all: Vec<robust_qp::obs::SpanRecord> =
            report.results.iter().flat_map(|r| r.spans.iter().cloned()).collect();
        std::fs::write(path, robust_qp::obs::folded_stacks(&all)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("flamegraph stacks: {path}");
    }

    if tracing_on {
        let traced = report.count(|r| !r.spans.is_empty());
        println!("tracing: {traced} session trace(s) captured");
    }

    if flags.get("strict").map(String::as_str) == Some("true") {
        let distinct: std::collections::HashSet<String> =
            entries.iter().map(|e| e.query.to_ascii_lowercase()).collect();
        let mut violations = Vec::new();
        if report.rejected() > 0 {
            violations.push(format!("{} session(s) rejected", report.rejected()));
        }
        let other = report.results.len() as u64 - report.completed() - report.rejected();
        if other > 0 {
            violations.push(format!("{other} session(s) failed"));
        }
        if report.non_finite_subopts() > 0 {
            violations.push(format!("{} non-finite subopt(s)", report.non_finite_subopts()));
        }
        if report.registry.compiles != distinct.len() as u64 {
            violations.push(format!(
                "{} compile(s) for {} distinct fingerprint(s)",
                report.registry.compiles,
                distinct.len()
            ));
        }
        if !violations.is_empty() {
            eprintln!("strict serve failed: {}", violations.join("; "));
            exit(1);
        }
        println!("strict serve passed: every session completed, one compile per fingerprint");
    }
}

/// Resolve the session workload for `serve` / `connect`: either a
/// session file (`--workload`) or an ad-hoc `--query/--algo/--sessions`
/// group.
fn session_entries(flags: &HashMap<String, String>) -> Vec<robust_qp::workloads::SessionEntry> {
    use robust_qp::workloads::{parse_session_file, SessionEntry};
    if let Some(file) = flags.get("workload") {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("cannot read {file}: {e}");
            exit(1);
        });
        parse_session_file(&text).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        })
    } else {
        let query = required(flags, "query").to_string();
        let algo = flags.get("algo").cloned().unwrap_or_else(|| "sb".to_string());
        let count = parse_or(flags, "sessions", 8usize);
        vec![SessionEntry { query, algo, count, qa: None }]
    }
}

/// `--stable-out FILE`: persist the timing-free report rendering, the
/// byte-comparable artifact the remote-parity smoke diffs.
fn write_stable_out(flags: &HashMap<String, String>, report: &robust_qp::serve::ServeReport) {
    if let Some(path) = flags.get("stable-out") {
        std::fs::write(path, report.stable_render()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("stable report: {path}");
    }
}

/// `rqp serve --listen ADDR [--shard K/N]`: host one registry shard over
/// TCP until a client sends a shutdown frame, then drain and report.
fn serve_listen(
    flags: &HashMap<String, String>,
    addr: &str,
    config: robust_qp::serve::ServeConfig,
) {
    use robust_qp::serve::TcpServeHost;

    let shard = flags.get("shard").map(|spec| {
        let parts: Vec<&str> = spec.split('/').collect();
        let parsed = match parts.as_slice() {
            [k, n] => k.parse::<usize>().ok().zip(n.parse::<usize>().ok()),
            _ => None,
        };
        parsed.unwrap_or_else(|| {
            eprintln!("bad --shard {spec:?} (use K/N, e.g. 0/2)");
            exit(2);
        })
    });
    let host = TcpServeHost::bind(addr, config, shard).unwrap_or_else(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        exit(1);
    });
    let local = host.local_addr();
    if let Some(path) = flags.get("addr-file") {
        // Write-then-rename so a polling launcher never reads a torn
        // address (the remote smoke waits on this file).
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, local.to_string())
            .and_then(|()| std::fs::rename(&tmp, path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
    }
    let (k, n) = shard.unwrap_or((0, 1));
    println!("listening on {local} (shard {k}/{n}); send `rqp connect --shutdown true` to stop");
    let report = host.run_until_shutdown().unwrap_or_else(|e| {
        eprintln!("serve --listen failed: {e}");
        exit(1);
    });
    print!("{}", report.render());
}

/// `rqp connect`: drive a remote `rqp serve --listen` deployment as a
/// persistent-session client, routing each session to its owning shard.
fn connect(flags: &HashMap<String, String>) {
    use robust_qp::serve::{run_entries, Frame, FrameObserver, TcpTransport};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let addrs: Vec<String> = required(flags, "addr")
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        eprintln!("--addr needs HOST:PORT[,HOST:PORT...] in shard order");
        exit(2);
    }
    let resolution: Option<usize> = flags.get("resolution").map(|r| {
        r.parse().unwrap_or_else(|_| {
            eprintln!("bad --resolution {r:?}");
            exit(2);
        })
    });
    robust_qp::serve::register_metrics();

    if flags.get("shutdown").map(String::as_str) == Some("true") {
        let mut transport = TcpTransport::connect(&addrs, resolution).unwrap_or_else(|e| {
            eprintln!("connect failed: {e}");
            exit(1);
        });
        transport.send_shutdown().unwrap_or_else(|e| {
            eprintln!("shutdown request failed: {e}");
            exit(1);
        });
        println!("shutdown requested on {} shard(s)", addrs.len());
        return;
    }

    let entries = session_entries(flags);
    let total: usize = entries.iter().map(|e| e.count).sum();
    let progress = Arc::new(AtomicUsize::new(0));
    let observer: FrameObserver = {
        let progress = Arc::clone(&progress);
        Arc::new(move |frame: &Frame| {
            if matches!(frame, Frame::Progress { .. }) {
                progress.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    println!("dispatching {total} session(s) across {} shard(s)", addrs.len());
    let transport =
        TcpTransport::connect_with(&addrs, resolution, Some(observer)).unwrap_or_else(|e| {
            eprintln!("connect failed: {e}");
            exit(1);
        });
    let report = run_entries(Box::new(transport), &entries).unwrap_or_else(|e| {
        eprintln!("remote serve failed: {e}");
        exit(1);
    });
    print!("{}", report.render());
    println!("progress: {} streamed frame(s)", progress.load(Ordering::Relaxed));
    write_stable_out(flags, &report);
}

/// Validate a Chrome trace-event export produced by `serve --trace-out`:
/// it must reparse through the obs JSON codec, carry a `traceEvents`
/// array, and contain at least one compile span and one single-flight
/// wait span — the causal shape the trace-smoke CI job asserts.
fn trace_check(flags: &HashMap<String, String>) {
    use robust_qp::obs::JsonValue;

    let file = required(flags, "file");
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        exit(1);
    });
    let parsed = robust_qp::obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{file} is not valid trace JSON: {e}");
        exit(1);
    });
    let JsonValue::Object(doc) = &parsed else {
        eprintln!("{file}: top level must be an object");
        exit(1);
    };
    let Some(JsonValue::Array(events)) = doc.get("traceEvents") else {
        eprintln!("{file}: missing traceEvents array");
        exit(1);
    };
    let mut by_cat: HashMap<String, usize> = HashMap::new();
    let mut sessions = std::collections::HashSet::new();
    for ev in events {
        let JsonValue::Object(ev) = ev else {
            eprintln!("{file}: non-object trace event");
            exit(1);
        };
        match (ev.get("cat"), ev.get("ph"), ev.get("tid")) {
            (Some(JsonValue::Str(cat)), Some(JsonValue::Str(_)), Some(tid)) => {
                *by_cat.entry(cat.clone()).or_insert(0) += 1;
                sessions.insert(format!("{tid:?}"));
            }
            _ => {
                eprintln!("{file}: trace event missing cat/ph/tid");
                exit(1);
            }
        }
    }
    let mut cats: Vec<(&String, &usize)> = by_cat.iter().collect();
    cats.sort();
    println!("{file}: {} event(s) across {} session lane(s)", events.len(), sessions.len());
    for (cat, n) in cats {
        println!("  {cat:<14} {n}");
    }
    let compiles = by_cat.get("compile").copied().unwrap_or(0);
    let waits = by_cat.get("wait").copied().unwrap_or(0);
    if compiles == 0 || waits == 0 {
        eprintln!(
            "trace check failed: need at least one compile span and one wait span \
             (got {compiles} compile, {waits} wait)"
        );
        exit(1);
    }
    println!("trace check passed: {compiles} compile span(s), {waits} wait span(s)");
}
