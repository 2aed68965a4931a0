//! Integration tests for the `rqp` command-line binary.

use std::process::Command;

fn rqp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rqp")).args(args).output().expect("binary runs")
}

#[test]
fn list_names_every_workload() {
    let out = rqp(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["3D_Q15", "4D_Q91", "6D_Q18", "JOB_Q1a", "2D_Q91"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn run_prints_a_trace() {
    let out = rqp(&["run", "--query", "2D_Q91", "--resolution", "8", "--algo", "sb"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SB at cell"));
    assert!(text.contains("done"));
}

#[test]
fn run_accepts_explicit_qa() {
    let out =
        rqp(&["run", "--query", "2D_Q91", "--resolution", "8", "--qa", "0.01,0.1", "--algo", "ab"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("AB at cell"));
}

#[test]
fn compile_writes_a_loadable_snapshot() {
    let dir = std::env::temp_dir().join(format!("rqp_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("snap.rqpc");
    let out = rqp(&[
        "compile",
        "--query",
        "2D_Q91",
        "--resolution",
        "8",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&out_file).unwrap();
    let (_, snap) = robust_qp::ess::PospSnapshot::decode(&bytes).unwrap();
    let ess = snap.restore().unwrap();
    assert_eq!(ess.grid().num_cells(), 64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_sweep_reports_held_invariants() {
    let out = rqp(&[
        "chaos",
        "--query",
        "2D_Q91",
        "--resolution",
        "6",
        "--seed",
        "1",
        "--schedules",
        "1",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all invariants held"), "missing verdict in:\n{text}");
    assert!(text.contains("storm"), "missing storm schedule in:\n{text}");
}

#[test]
fn atlas_requires_two_epps() {
    let out = rqp(&["atlas", "--query", "4D_Q91", "--resolution", "5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("2-epp"));
}

#[test]
fn unknown_workload_fails_cleanly() {
    let out = rqp(&["run", "--query", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn traced_serve_exports_pass_trace_check() {
    let dir = std::env::temp_dir().join(format!("rqp_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let flame = dir.join("stacks.folded");
    let out = rqp(&[
        "serve",
        "--query",
        "2D_Q91",
        "--sessions",
        "8",
        "--workers",
        "8",
        "--trace-out",
        trace.to_str().unwrap(),
        "--flame-out",
        flame.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("8 session trace(s) captured"), "{text}");

    let check = rqp(&["trace-check", "--file", trace.to_str().unwrap()]);
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stderr));
    let verdict = String::from_utf8_lossy(&check.stdout);
    assert!(verdict.contains("trace check passed"), "{verdict}");

    let folded = std::fs::read_to_string(&flame).unwrap();
    assert!(folded.contains("session;ess_compile"), "compile path missing in:\n{folded}");

    // A non-trace JSON file is refused with a structured failure.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"traceEvents\": []}").unwrap();
    let fail = rqp(&["trace-check", "--file", bogus.to_str().unwrap()]);
    assert!(!fail.status.success());
    assert!(String::from_utf8_lossy(&fail.stderr).contains("trace check failed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sql_subcommand_parses_and_runs() {
    let dir = std::env::temp_dir().join(format!("rqp_cli_sql_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sql_file = dir.join("q.sql");
    std::fs::write(
        &sql_file,
        "SELECT * FROM store_sales, date_dim \
         WHERE store_sales.ss_sold_date_sk ?= date_dim.d_date_sk \
           AND sel(date_dim.d_year) = 0.005",
    )
    .unwrap();
    let out = rqp(&[
        "sql",
        "--catalog",
        "tpcds",
        "--file",
        sql_file.to_str().unwrap(),
        "--resolution",
        "8",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 epps") || text.contains("1 epp"));
    std::fs::remove_dir_all(&dir).unwrap();
}
