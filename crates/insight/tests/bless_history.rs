//! Blessing through `bless_with_history`, file to file: a baseline whose
//! slices are already the newest entries of their rings is not pushed
//! again, so re-blessing from the same outgoing `BENCH_perf.json` cannot
//! fill the ring with copies that flatten the drift detector.

use std::path::Path;

use zr_insight::{bless_with_history, PerfHistory};
use zr_prof::{PerfReport, SliceResult};
use zr_types::json::Json;

fn slice(name: &str, wall: u64) -> SliceResult {
    SliceResult {
        name: name.to_string(),
        wall_ns_runs: vec![wall],
        wall_ns_best: wall,
        work_units: 100,
        unit: "rows".to_string(),
        throughput_per_s: 100.0 / (wall as f64 / 1e9),
        allocs: 42,
        alloc_bytes: 4096,
        threads: 1,
        calibration_wall_ns: 100,
        peak_rss_bytes: 1 << 20,
    }
}

fn report(walls: [u64; 2]) -> PerfReport {
    PerfReport {
        schema: 2,
        quick: true,
        calibration_wall_ns: 1_000_000,
        peak_rss_bytes: 1 << 20,
        slices: vec![slice("a", walls[0]), slice("b", walls[1])],
    }
}

/// The ring lengths of slices `a` and `b` in the document at `path`.
fn rings(path: &Path) -> (usize, usize) {
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read")).expect("json");
    let history = PerfHistory::from_doc(&doc).expect("history parses");
    let len = |name| history.slice(name).map_or(0, <[_]>::len);
    (len("a"), len("b"))
}

#[test]
fn blessing_twice_with_the_same_outgoing_baseline_adds_one_entry() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bless-history-twice");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("BENCH_perf.json");
    let _ = std::fs::remove_file(&path);

    let baseline = report([1000, 2000]);
    bless_with_history(&path, &baseline).expect("bless");
    // The outgoing baseline is `baseline` for both of the next two
    // blesses: the first carries it into the rings, the second finds it
    // there already.
    bless_with_history(&path, &baseline).expect("bless");
    assert_eq!(rings(&path), (1, 1));
    bless_with_history(&path, &report([1100, 2000])).expect("bless");
    assert_eq!(rings(&path), (1, 1));
    // A new outgoing baseline is a new entry, in every slice's ring.
    bless_with_history(&path, &baseline).expect("bless");
    assert_eq!(rings(&path), (2, 2));
}
