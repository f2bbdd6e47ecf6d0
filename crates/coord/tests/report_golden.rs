//! Golden test: the serialized `RunReport` of every tiny-grid cell is
//! pinned byte for byte.
//!
//! The daemon answers a `Submit` with `RunReport::from_schedule`, and
//! the report's statistics (per-category slowdowns, fairness, capacity,
//! profile counters) are the paper's product. A faster report builder
//! must serialize exactly what the old one did; one FNV-1a hash per
//! cell turns any drift in a float, a field or its order into a loud
//! failure.

use backfill_sim::canon::fnv1a_64;
use bench_lib::sweep::tiny_spec;
use service::RunReport;

/// FNV-1a of each tiny-grid cell's `serde_json` report, in expansion
/// order (Conservative then EASY, each under FCFS/SJF/XFactor).
const TINY_REPORT_HASHES: [u64; 6] = [
    0x3d93_48c4_6090_d342, // Conservative / Fcfs
    0x36cb_5e45_85de_912b, // Conservative / Sjf
    0x82fa_83eb_f5f4_eab4, // Conservative / XFactor
    0x85b2_c7ad_4001_b2f3, // Easy / Fcfs
    0x7e7d_3ce4_441f_5f65, // Easy / Sjf
    0x1693_c1f7_92ce_b65a, // Easy / XFactor
];

#[test]
fn tiny_grid_reports_are_pinned() {
    let hashes: Vec<u64> = tiny_spec()
        .expand()
        .iter()
        .map(|config| {
            let report = RunReport::from_schedule(config, &config.run());
            fnv1a_64(serde_json::to_string(&report).unwrap().as_bytes())
        })
        .collect();
    assert_eq!(
        hashes,
        TINY_REPORT_HASHES.to_vec(),
        "a tiny-grid report no longer serializes byte-identically"
    );
}
