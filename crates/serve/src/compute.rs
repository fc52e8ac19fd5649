//! The figure kernels: compute a [`SweepRequest`]'s result bytes.
//!
//! These are the same Fig. 14/15/16 sweeps the batch figure builders
//! call (`zr_sim::experiments::{refresh, energy}`), so the cells run on
//! the same pool in the same order — but they are rendered to a
//! dependency-free JSON document instead of stdout tables, because a
//! service's stdout belongs to its protocol.
//!
//! # Determinism contract
//!
//! [`simulate`] is a pure function of the request's canonical string:
//! same request → byte-identical output, at every `ZR_THREADS` /
//! `config.threads` (the pool merges in submission order) and across
//! processes (the document contains no wall times, paths or env). This
//! is the property the zr-conform `serve_determinism` gate pins.

use zr_sim::experiments::{energy, refresh};
use zr_types::json::{Json, ToJson};
use zr_types::Result;

use crate::request::{Figure, SweepRequest};

/// Result document format version.
pub const RESULT_SCHEMA: u64 = 1;

/// Computes the request's result document and returns its bytes — the
/// bytes the cache stores, the manifest checksums and the protocol
/// serves.
///
/// # Errors
///
/// Propagates request validation and experiment errors.
pub fn simulate(request: &SweepRequest) -> Result<Vec<u8>> {
    request.validate()?;
    let (benches, exp) = (&request.benches, &request.config);
    let table = match request.figure {
        Figure::Fig14Refresh => refresh::allocation_sweep(benches, request.scenario.allocs(), exp)?,
        Figure::Fig15Energy => energy::allocation_sweep(benches, request.scenario.allocs(), exp)?,
        Figure::Fig16Temperature => refresh::temperature_sweep(benches, exp)?,
    };
    Ok(render(request, &table).to_pretty().into_bytes())
}

/// Renders the result document. Self-describing: it carries the figure
/// name, scenario, column meaning, the request's content-address and
/// its full canonical string, so a cached artifact can be understood —
/// and re-keyed — without the request that produced it.
fn render(request: &SweepRequest, table: &[Vec<f64>]) -> Json {
    let columns: Vec<Json> = match request.figure {
        Figure::Fig16Temperature => {
            vec![Json::Str("32ms".to_string()), Json::Str("64ms".to_string())]
        }
        _ => request
            .scenario
            .allocs()
            .iter()
            .map(|&a| Json::Str(format!("{:.0}%", a * 100.0)))
            .collect(),
    };
    Json::Obj(vec![
        ("schema".to_string(), RESULT_SCHEMA.to_json()),
        ("service".to_string(), Json::Str("zr-serve".to_string())),
        (
            "figure".to_string(),
            Json::Str(request.figure.figure_name().to_string()),
        ),
        (
            "scenario".to_string(),
            Json::Str(request.scenario.name().to_string()),
        ),
        ("key".to_string(), Json::Str(zr_lens::hex64(request.key()))),
        ("request".to_string(), Json::Str(request.canonical_string())),
        ("columns".to_string(), Json::Arr(columns)),
        (
            "rows".to_string(),
            Json::Obj(
                request
                    .benches
                    .iter()
                    .zip(table)
                    .map(|(b, cells)| {
                        (
                            b.name().to_string(),
                            Json::Arr(cells.iter().map(|&v| Json::Num(v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Scenario;
    use zr_sim::experiments::ExperimentConfig;
    use zr_workloads::Benchmark;

    fn tiny_request(figure: Figure) -> SweepRequest {
        SweepRequest::new(
            figure,
            vec![Benchmark::Gcc],
            Scenario::Full,
            ExperimentConfig {
                capacity_bytes: 1 << 20,
                windows: 1,
                ..ExperimentConfig::default()
            },
        )
    }

    #[test]
    fn fig14_bytes_are_reproducible_and_self_describing() {
        let request = tiny_request(Figure::Fig14Refresh);
        let a = simulate(&request).unwrap();
        let b = simulate(&request).unwrap();
        assert_eq!(a, b, "same request must produce identical bytes");
        let doc = Json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        assert_eq!(
            doc.get("key").and_then(Json::as_str),
            Some(zr_lens::hex64(request.key()).as_str())
        );
        assert_eq!(
            doc.get("figure").and_then(Json::as_str),
            Some("fig14_refresh_reduction")
        );
        let rows = doc.get("rows").expect("rows");
        let cells = rows.get("gcc").and_then(Json::as_arr).expect("gcc row");
        assert_eq!(cells.len(), 1);
        let v = cells[0].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&v), "normalized {v} out of range");
    }

    #[test]
    fn fig14_matches_direct_driver_measurement() {
        let request = tiny_request(Figure::Fig14Refresh);
        let bytes = simulate(&request).unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let served = doc
            .get("rows")
            .unwrap()
            .get("gcc")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .as_f64()
            .unwrap();
        let direct = refresh::measure(Benchmark::Gcc, 1.0, &request.config)
            .unwrap()
            .normalized;
        assert_eq!(served, direct);
    }

    #[test]
    fn fig16_rows_have_two_temperature_cells() {
        let request = tiny_request(Figure::Fig16Temperature);
        let bytes = simulate(&request).unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let cells = doc
            .get("rows")
            .unwrap()
            .get("gcc")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(cells.len(), 2);
        let columns = doc.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(columns[0].as_str(), Some("32ms"));
    }

    #[test]
    fn validation_errors_propagate() {
        let mut request = tiny_request(Figure::Fig14Refresh);
        request.benches.clear();
        assert!(simulate(&request).is_err());
    }

    #[test]
    fn degenerate_system_configs_error_instead_of_panicking() {
        // row_bytes = 0 used to divide-by-zero in rows_per_bank()
        // before any validation ran (REVIEW: protocol-reachable panic).
        let mut zero_row = tiny_request(Figure::Fig14Refresh);
        zero_row.config.row_bytes = 0;
        assert!(simulate(&zero_row).is_err());
        let mut odd_row = tiny_request(Figure::Fig15Energy);
        odd_row.config.row_bytes = 3000;
        assert!(simulate(&odd_row).is_err());
        let mut ragged = tiny_request(Figure::Fig16Temperature);
        ragged.config.capacity_bytes = 4096 * 8 + 17;
        assert!(simulate(&ragged).is_err());
    }
}
