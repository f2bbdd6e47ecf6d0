//! Regression tests for `bfsim bench --baseline` failure handling.
//!
//! A bad baseline must fail *gracefully*: one logged diagnostic, a
//! distinct exit code from the taxonomy (2 usage, 3 connect, 4 busy,
//! 5 service, 6 bad data file, 7 fingerprint-parity violation), and —
//! crucially — *before* the sweep runs, never as a panic mid-way through
//! it. These tests drive the real binary (`CARGO_BIN_EXE_bfsim`) the way
//! CI does.

use backfill_sim::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bfsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfsim"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfsim-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The sweep must not have started: bench cells log at info and print
/// per-cell results to stdout, so an aborted-before-sweep run has none.
fn assert_no_sweep_ran(out: &Output) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("ev/s"),
        "sweep output present, bench ran before failing: {stdout}"
    );
}

#[test]
fn missing_baseline_file_exits_6_before_the_sweep() {
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--baseline",
            "/nonexistent/никогда/BENCH.json",
            "-o",
            tmp("missing-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("reading baseline"),
        "want one diagnostic naming the failure, got: {}",
        stderr_of(&out)
    );
    assert_no_sweep_ran(&out);
}

#[test]
fn truncated_baseline_json_exits_6_before_the_sweep() {
    // A torn write: valid prefix of a real report, cut mid-document.
    let path = tmp("truncated.json");
    std::fs::write(&path, r#"{"version": 4, "tool": "bfsim bench", "tiny": false, "cells": [{"label": "CTC Cons/FCFS rho=0.9 est=exact", "config"#)
        .expect("write truncated baseline");
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--baseline",
            path.to_str().unwrap(),
            "-o",
            tmp("truncated-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("parsing baseline"),
        "want a parse diagnostic, got: {}",
        stderr_of(&out)
    );
    assert_no_sweep_ran(&out);
}

/// A structurally valid report whose single cell reproduces `config` with
/// an arbitrary fingerprint — enough to exercise cell-set matching.
fn report_with_cell(config: &RunConfig, fingerprint: u64) -> String {
    format!(
        r#"{{"version": 4, "tool": "bfsim bench", "tiny": true,
            "cells": [{{"label": "crafted", "config": {}, "fingerprint": {fingerprint},
                        "jobs": 1, "events": 10, "wall_ms": 1.0,
                        "events_per_sec": 10000.0, "profile": null}}],
            "baseline": null, "comparison": []}}"#,
        serde_json::to_string(config).expect("config serializes")
    )
}

/// A config deliberately outside the pinned sweep (job count no sweep
/// cell uses).
fn foreign_config() -> RunConfig {
    RunConfig {
        scenario: Scenario::high_load(TraceSource::Ctc { jobs: 77, seed: 1 }),
        kind: SchedulerKind::Easy,
        policy: Policy::Fcfs,
    }
}

/// A config that IS in the tiny sweep (see `bench_cells`).
fn tiny_sweep_config() -> RunConfig {
    RunConfig {
        scenario: Scenario::high_load(TraceSource::Ctc {
            jobs: 3_000,
            seed: 7,
        }),
        kind: SchedulerKind::Conservative,
        policy: Policy::Fcfs,
    }
}

#[test]
fn disjoint_cell_set_exits_6_before_the_sweep() {
    let path = tmp("disjoint.json");
    std::fs::write(&path, report_with_cell(&foreign_config(), 1)).expect("write baseline");
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--baseline",
            path.to_str().unwrap(),
            "-o",
            tmp("disjoint-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("shares no cell"),
        "want a cell-set diagnostic, got: {}",
        stderr_of(&out)
    );
    assert_no_sweep_ran(&out);
}

#[test]
fn enforce_parity_with_incomplete_baseline_exits_6_before_the_sweep() {
    // One real sweep cell present, five missing: plain --baseline would
    // proceed with partial comparison, --enforce-parity must refuse.
    let path = tmp("incomplete.json");
    std::fs::write(&path, report_with_cell(&tiny_sweep_config(), 1)).expect("write baseline");
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--enforce-parity",
            "--baseline",
            path.to_str().unwrap(),
            "-o",
            tmp("incomplete-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("missing"),
        "want a missing-cells diagnostic, got: {}",
        stderr_of(&out)
    );
    assert_no_sweep_ran(&out);
}

#[test]
fn enforce_parity_without_baseline_is_a_usage_error() {
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--enforce-parity",
            "-o",
            tmp("noparity-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert_no_sweep_ran(&out);
}

#[test]
fn fingerprint_mismatch_under_enforce_parity_exits_7_after_writing_the_report() {
    // Run the real tiny sweep once to get a genuine report...
    let good = tmp("parity-base.json");
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--reps",
            "1",
            "-o",
            good.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));

    // ...tamper exactly one fingerprint to simulate a decision change...
    let text = std::fs::read_to_string(&good).expect("read report");
    let needle = r#""fingerprint": "#;
    let at = text.find(needle).expect("report has fingerprints") + needle.len();
    let end = text[at..]
        .find([',', '\n'])
        .map(|i| at + i)
        .expect("fingerprint value terminates");
    let tampered_path = tmp("parity-tampered.json");
    let tampered = format!("{}12345{}", &text[..at], &text[end..]);
    std::fs::write(&tampered_path, tampered).expect("write tampered baseline");

    // ...and the parity gate must fail with exit 7, report still written.
    let report_out = tmp("parity-out.json");
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--reps",
            "1",
            "--enforce-parity",
            "--baseline",
            tampered_path.to_str().unwrap(),
            "-o",
            report_out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(7), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("changed schedule fingerprint"),
        "want a parity diagnostic, got: {}",
        stderr_of(&out)
    );
    let written = std::fs::read_to_string(&report_out).expect("report written despite exit 7");
    assert!(written.contains("\"comparison\""));

    // The untampered baseline passes the same gate: the new code changes
    // no scheduling decision on these cells.
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--reps",
            "1",
            "--enforce-parity",
            "--baseline",
            good.to_str().unwrap(),
            "-o",
            tmp("parity-clean-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

/// The committed baseline report, written before the profile dropped its
/// slab arena: its per-cell profile counters still carry
/// `slab_slot_reuses`.
fn bench5() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_5.json")
}

#[test]
fn profile_stats_with_a_retired_counter_still_deserialize() {
    let text = std::fs::read_to_string(bench5()).expect("read BENCH_5.json");
    let at = text
        .find(r#""profile": {"#)
        .expect("BENCH_5.json has profile counters");
    let object = &text[at + r#""profile": "#.len()..];
    let object = &object[..=object.find('}').expect("profile object closes")];
    assert!(object.contains("\"slab_slot_reuses\""), "{object}");
    let stats: sched::ProfileStats =
        serde_json::from_str(object).expect("old counters deserialize");
    assert_eq!(stats.find_anchor_calls, 3000);
    assert_eq!(stats.order_bytes_shifted, 719_352);
    assert_eq!(stats.scratch_reuses, 6742);
}

#[test]
fn committed_bench5_baseline_still_loads_and_holds_parity() {
    let out = bfsim()
        .args([
            "bench",
            "--tiny",
            "--reps",
            "1",
            "--enforce-parity",
            "--baseline",
            bench5().to_str().unwrap(),
            "-o",
            tmp("bench5-out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}
