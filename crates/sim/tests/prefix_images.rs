//! The property allocation sweeps share images on: for every benchmark,
//! the image populated at each Fig. 14/15 allocation is an exact prefix
//! of the 100% image. Each image here is built on its own, so the test
//! pins the property itself, not the sharing that relies on it.

use zr_dram::RefreshPolicy;
use zr_sim::experiments::population::{build_system, PopulatedSystem};
use zr_sim::experiments::refresh::PAPER_ALLOCS;
use zr_sim::experiments::ExperimentConfig;
use zr_types::geometry::LineAddr;
use zr_workloads::image::LINES_PER_REGION;
use zr_workloads::Benchmark;

/// Every line of `ps`, in address order.
fn lines(ps: &mut PopulatedSystem) -> Vec<Vec<u8>> {
    let total = ps.system.geometry().total_lines();
    (0..total)
        .map(|a| ps.system.read_line(LineAddr(a)).unwrap())
        .collect()
}

#[test]
fn every_paper_alloc_image_is_a_prefix_of_the_full_image() {
    let exp = ExperimentConfig {
        capacity_bytes: 256 << 10,
        ..ExperimentConfig::default()
    };
    exp.validate().unwrap();
    let policy = RefreshPolicy::ChargeAware;
    for &b in Benchmark::all() {
        let mut full = build_system(b, 1.0, policy, &exp).unwrap();
        let full_lines = lines(&mut full);
        for alloc in PAPER_ALLOCS {
            let mut ps = build_system(b, alloc, policy, &exp).unwrap();
            let regions = ps.region_classes.len();
            assert!(regions > 0, "{} at {alloc}: empty image", b.name());
            assert_eq!(
                ps.region_classes,
                full.region_classes[..regions],
                "{} at {alloc}: region classes",
                b.name()
            );
            let boundary = regions * LINES_PER_REGION;
            for (a, line) in lines(&mut ps).iter().enumerate() {
                if a < boundary {
                    assert_eq!(line, &full_lines[a], "{} at {alloc}: line {a}", b.name());
                } else {
                    assert!(
                        line.iter().all(|&x| x == 0),
                        "{} at {alloc}: line {a} above the boundary",
                        b.name()
                    );
                }
            }
        }
    }
}
