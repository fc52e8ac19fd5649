//! Golden-figure regression gates.
//!
//! Each test reruns a headline figure of the paper's evaluation at the
//! dedicated `ExperimentConfig::conform_test()` scale, renders the result
//! to JSON and compares it against the blessed snapshot in
//! `tests/golden/` with figure tolerances (the Fig. 17 event cells to
//! the bit). `ZR_BLESS=1` re-blesses.
//!
//! The benchmark slice is chosen to pin the figure's *shape*, not just a
//! mean: the two best reducers (gemsFDTD, sphinx3), two of the worst
//! (omnetpp, sp.C), the most memory-bound workload (mcf) and one TPC-H
//! query (tpch-q6).

use zr_bench::figures;
use zr_conform::{golden_check, Tolerance};
use zr_sim::experiments::{ipc_sim, ExperimentConfig};
use zr_types::json::{Json, ToJson};
use zr_workloads::Benchmark;

fn subset() -> [Benchmark; 6] {
    [
        Benchmark::GemsFdtd,
        Benchmark::Sphinx3,
        Benchmark::Omnetpp,
        Benchmark::SpC,
        Benchmark::Mcf,
        Benchmark::TpchQ6,
    ]
}

fn exp() -> ExperimentConfig {
    ExperimentConfig::conform_test()
}

fn alloc_rows_to_json(rows: &[(String, [f64; 4])]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(name, cells)| {
                (
                    name.clone(),
                    Json::Arr(cells.iter().map(|&v| Json::Num(v)).collect()),
                )
            })
            .collect(),
    )
}

#[test]
fn golden_fig14_refresh_reduction() {
    let rows = figures::fig14_refresh_reduction_for(&subset(), &exp()).expect("fig14");
    let doc = alloc_rows_to_json(&rows);
    // Beyond the snapshot: the figure's own semantics must hold — the
    // mechanism only ever *removes* refreshes, so every normalized value
    // is in (0, 1], and lower allocation never refreshes more.
    for (name, cells) in &rows {
        for &v in cells {
            assert!(
                (0.0..=1.0).contains(&v),
                "{name}: normalized {v} out of range"
            );
        }
        for w in cells.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "{name}: lower allocation increased refreshes: {cells:?}"
            );
        }
    }
    if let Err(e) = golden_check("fig14_refresh_reduction", &doc, Tolerance::figures()) {
        panic!("{e}");
    }
}

#[test]
fn golden_fig15_energy() {
    let rows = figures::fig15_energy_for(&subset(), &exp()).expect("fig15");
    let doc = alloc_rows_to_json(&rows);
    for (name, cells) in &rows {
        for &v in cells {
            assert!(v > 0.0, "{name}: energy share {v} must stay positive");
        }
    }
    if let Err(e) = golden_check("fig15_energy", &doc, Tolerance::figures()) {
        panic!("{e}");
    }
}

#[test]
fn golden_fig16_temperature() {
    let rows = figures::fig16_temperature_for(&subset(), &exp()).expect("fig16");
    let doc = Json::Obj(
        rows.iter()
            .map(|(name, ext, norm)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("ext_32ms".to_string(), Json::Num(*ext)),
                        ("norm_64ms".to_string(), Json::Num(*norm)),
                    ]),
                )
            })
            .collect(),
    );
    if let Err(e) = golden_check("fig16_temperature", &doc, Tolerance::figures()) {
        panic!("{e}");
    }
}

#[test]
fn golden_fig17_ipc_event() {
    // The event-driven Fig. 17 cells come out of zr-timing's request
    // generator and bank simulator; every field is pinned to the bit.
    let doc = Json::Obj(
        subset()
            .iter()
            .map(|&bench| {
                let m = ipc_sim::measure(bench, &exp()).expect("fig17 event cell");
                (m.benchmark.to_string(), m.to_json())
            })
            .collect(),
    );
    if let Err(e) = golden_check("fig17_ipc_event", &doc, Tolerance::exact()) {
        panic!("{e}");
    }
}

#[test]
fn golden_table_overheads() {
    let rows = figures::table_overheads();
    let doc = Json::Arr(
        rows.iter()
            .map(
                |&(cap_gb, naive_bytes, access_bytes, naive_mw, access_mw)| {
                    Json::Obj(vec![
                        ("capacity_gb".to_string(), Json::Num(cap_gb as f64)),
                        ("naive_bytes".to_string(), Json::Num(naive_bytes as f64)),
                        ("access_bytes".to_string(), Json::Num(access_bytes as f64)),
                        ("naive_leak_mw".to_string(), Json::Num(naive_mw)),
                        ("access_leak_mw".to_string(), Json::Num(access_mw)),
                    ])
                },
            )
            .collect(),
    );
    // The table is analytic: structure sizes are exact integers and the
    // leakage model is a closed form, so the gate is tight.
    if let Err(e) = golden_check(
        "table_overheads",
        &doc,
        Tolerance {
            rel: 1e-9,
            abs: 0.0,
        },
    ) {
        panic!("{e}");
    }
}
