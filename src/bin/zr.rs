//! `zr` — command-line front end to the ZERO-REFRESH reproduction.
//!
//! ```text
//! zr info [capacity_mb]          geometry + config summary
//! zr benchmarks                  the modeled workload suite
//! zr traces                      the data-center trace models
//! zr transform <preset> [row]    walk one cacheline through the pipeline
//! zr measure <bench> [alloc%] [row_bytes] [normal|extended]
//! zr compare <bench> [alloc%] [row_bytes] [normal|extended]
//!                                ZERO-REFRESH vs prior work
//! ```
//!
//! Every env knob is checked before any work. Output goes through
//! [`Stdout`], so a reader that stops early (`zr info | head`) only cuts
//! it short.

use std::io::Write;

use zero_refresh_suite::prelude::*;
use zr_sim::experiments::{energy, priorwork};
use zr_transform::ValueTransformer;
use zr_types::geometry::RowIndex;
use zr_types::{Stdout, TemperatureMode};

/// What a command returns: a usage or simulation error, or a failed write.
type CmdResult = Result<(), Box<dyn std::error::Error>>;

const USAGE: &str = "\
zr — ZERO-REFRESH (HPCA 2020) reproduction

  zr info [capacity_mb]          geometry + config summary
  zr benchmarks                  the modeled workload suite
  zr traces                      the data-center trace models
  zr transform <preset> [row]    presets: pointer smallint zero text random
  zr measure <bench> [alloc%] [row_bytes] [normal|extended]
  zr compare <bench> [alloc%] [row_bytes] [normal|extended]
                                 ZERO-REFRESH vs prior work
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut Stdout::new();
    if let Err(e) = run(&args, out).and_then(|()| Ok(out.flush()?)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String], out: &mut Stdout) -> CmdResult {
    zr_types::knobs::check()?;
    match args.first().map(String::as_str) {
        Some("info") => info(args.get(1), out),
        Some("benchmarks") => benchmarks(out),
        Some("traces") => traces(out),
        Some("transform") => transform(args.get(1), args.get(2), out),
        Some("measure") => measure(&args[1..], out),
        Some("compare") => compare(&args[1..], out),
        _ => Ok(out.write_all(USAGE.as_bytes())?),
    }
}

fn info(capacity_mb: Option<&String>, out: &mut Stdout) -> CmdResult {
    let mut cfg = SystemConfig::paper_default();
    if let Some(arg) = capacity_mb {
        let mb: u64 = arg.parse().map_err(|_| {
            Error::invalid_config(format!("capacity_mb={arg:?} is not a whole number"))
        })?;
        cfg.dram.capacity_bytes = mb.checked_mul(1 << 20).ok_or_else(|| {
            Error::invalid_config(format!("capacity_mb={mb} overflows u64 bytes"))
        })?;
    }
    cfg.validate()?;
    let geom = cfg.geometry();
    let mib = geom.capacity_bytes() >> 20;
    writeln!(out, "ZERO-REFRESH system configuration (Table II, scaled)")?;
    writeln!(out, "  capacity:        {mib} MiB")?;
    writeln!(
        out,
        "  organization:    {} chips x {} banks, {} B rank rows",
        geom.num_chips(),
        geom.num_banks(),
        geom.row_bytes()
    )?;
    writeln!(
        out,
        "  rows/bank:       {} ({} per AR set, {} sets)",
        geom.rows_per_bank(),
        geom.ar_rows(),
        geom.ar_sets_per_bank()
    )?;
    writeln!(
        out,
        "  cell blocks:     {} rows per true/anti block",
        cfg.dram.cell_block_rows
    )?;
    writeln!(
        out,
        "  retention:       {} ms ({:?}), tREFI {:.2} us",
        cfg.timing.t_ret().to_millis(),
        cfg.timing.temperature,
        cfg.timing.t_refi().0 / 1000.0
    )?;
    writeln!(
        out,
        "  access-bit SRAM: {} bytes ({} bits)",
        geom.access_bit_count().div_ceil(8),
        geom.access_bit_count()
    )?;
    Ok(())
}

fn benchmarks(out: &mut Stdout) -> CmdResult {
    writeln!(
        out,
        "{:<12} {:>7} {:>7} {:>7} {:>9} {:>8}",
        "benchmark", "mpki", "writes", "ws(MB)", "bdi-frac", "exp.red"
    )?;
    for b in Benchmark::all() {
        let p = b.profile();
        let w = p.effective_fractions();
        writeln!(
            out,
            "{:<12} {:>7.1} {:>6.0}% {:>7} {:>8.0}% {:>7.0}%",
            p.name,
            p.mpki,
            100.0 * p.write_fraction,
            p.working_set_bytes >> 20,
            100.0 * (w[1] + w[2]),
            100.0 * p.expected_reduction(),
        )?;
    }
    Ok(())
}

fn traces(out: &mut Stdout) -> CmdResult {
    writeln!(
        out,
        "{:<12} {:>10} {:>8} {:>8} {:>8}",
        "trace", "mean", "p10", "p50", "p90"
    )?;
    for t in DatacenterTrace::all() {
        writeln!(
            out,
            "{:<12} {:>9.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            t.name(),
            100.0 * t.mean_utilization(),
            100.0 * t.quantile(0.1),
            100.0 * t.quantile(0.5),
            100.0 * t.quantile(0.9),
        )?;
    }
    Ok(())
}

fn preset_line(preset: &str) -> Result<[u8; 64], Error> {
    let mut line = [0u8; 64];
    match preset {
        "zero" => {}
        "pointer" => {
            for (i, w) in line.chunks_exact_mut(8).enumerate() {
                w.copy_from_slice(&(0x0000_7f12_3456_0000u64 + 24 * i as u64).to_le_bytes());
            }
        }
        "smallint" => {
            for (i, w) in line.chunks_exact_mut(8).enumerate() {
                w.copy_from_slice(&((i as u64 * 3) % 100).to_le_bytes());
            }
        }
        "text" => {
            line.copy_from_slice(
                b"the quick brown fox jumps over the lazy dog; dram refresh sleeps",
            );
        }
        "random" => {
            let mut s = 0x1234_5678u64;
            for b in line.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (s >> 56) as u8;
            }
        }
        other => {
            return Err(Error::UnknownName {
                name: other.to_string(),
            })
        }
    }
    Ok(line)
}

fn transform(preset: Option<&String>, row: Option<&String>, out: &mut Stdout) -> CmdResult {
    let preset = preset.map(String::as_str).unwrap_or("pointer");
    let cfg = SystemConfig::paper_default();
    let row = match row {
        None => RowIndex(0),
        Some(v) => {
            let row: u64 = v
                .parse()
                .map_err(|_| Error::invalid_config(format!("row={v:?} is not a whole number")))?;
            let rows = cfg.geometry().rows_per_bank();
            if row >= rows {
                return Err(Error::invalid_config(format!(
                    "row={row} is out of range: a bank has {rows} rows"
                ))
                .into());
            }
            RowIndex(row)
        }
    };
    let tf = ValueTransformer::new(&cfg)?;
    let line = preset_line(preset)?;
    let encoded = tf.encode(&line, row)?;
    let zeros_before = line.iter().filter(|&&b| b == 0).count();
    let pattern = tf.cell_type(row).discharged_byte();
    let discharged = encoded.iter().filter(|&&b| b == pattern).count();
    writeln!(
        out,
        "preset '{preset}' stored in row {} ({:?} cells):",
        row.0,
        tf.cell_type(row)
    )?;
    writeln!(out, "  original  zero bytes: {zeros_before}/64")?;
    writeln!(out, "  encoded   discharged bytes: {discharged}/64")?;
    for (c, seg) in encoded.chunks_exact(8).enumerate() {
        let disch = seg.iter().all(|&b| b == pattern);
        write!(out, "  chip {c}: ")?;
        for b in seg {
            write!(out, "{b:02x} ")?;
        }
        writeln!(out, "{}", if disch { " <- discharged" } else { "" })?;
    }
    let back = tf.decode(&encoded, row)?;
    assert_eq!(back, line.to_vec());
    writeln!(out, "  inverse verified: decode(encode(x)) == x")?;
    Ok(())
}

/// Parses `<bench> [alloc%] [row_bytes] [normal|extended]`. An absent
/// argument takes its default (100%, 4096 B rows, extended); a present
/// one that cannot be used is an error naming it and its value.
fn parse_measure_args(args: &[String]) -> Result<(Benchmark, f64, ExperimentConfig), Error> {
    let benchmark = match args.first() {
        Some(name) => Benchmark::by_name(name)?,
        None => Benchmark::Mcf,
    };
    let alloc = match args.get(1) {
        None => 1.0,
        Some(v) => match v.parse::<f64>() {
            Ok(p) if (0.0..=100.0).contains(&p) => p / 100.0,
            _ => {
                return Err(Error::invalid_config(format!(
                    "alloc%={v:?} is not a number in 0-100"
                )))
            }
        },
    };
    let row_bytes = match args.get(2) {
        None => 4096,
        Some(v) => v
            .parse()
            .map_err(|_| Error::invalid_config(format!("row_bytes={v:?} is not a whole number")))?,
    };
    let temperature = match args.get(3).map(String::as_str) {
        None | Some("extended") => TemperatureMode::Extended,
        Some("normal") => TemperatureMode::Normal,
        Some(other) => {
            return Err(Error::invalid_config(format!(
                "temperature={other:?} is not normal or extended"
            )))
        }
    };
    let exp = ExperimentConfig {
        capacity_bytes: 16 << 20,
        windows: 4,
        row_bytes,
        temperature,
        ..ExperimentConfig::default()
    };
    // The row size is the only field the arguments set that can fail.
    exp.validate().map_err(|e| match e {
        Error::InvalidConfig { reason } => {
            Error::invalid_config(format!("row_bytes={row_bytes}: {reason}"))
        }
        other => other,
    })?;
    Ok((benchmark, alloc, exp))
}

fn measure(args: &[String], out: &mut Stdout) -> CmdResult {
    let (benchmark, alloc, exp) = parse_measure_args(args)?;
    let e = energy::measure(benchmark, alloc, &exp)?;
    writeln!(
        out,
        "{} @ {:.0}% alloc, {} B rows, {:?}:",
        benchmark.name(),
        100.0 * alloc,
        exp.row_bytes,
        exp.temperature
    )?;
    writeln!(
        out,
        "  refresh ops:  {:.3} normalized ({:.1}% reduction)",
        e.normalized_refreshes,
        100.0 * (1.0 - e.normalized_refreshes)
    )?;
    writeln!(
        out,
        "  energy:       {:.3} normalized ({:.1}% saved, overheads included)",
        e.normalized_energy,
        100.0 * (1.0 - e.normalized_energy)
    )?;
    Ok(())
}

fn compare(args: &[String], out: &mut Stdout) -> CmdResult {
    let (benchmark, alloc, exp) = parse_measure_args(args)?;
    let c = priorwork::compare(benchmark, alloc, &exp)?;
    writeln!(
        out,
        "{} @ {:.0}% alloc — normalized refresh operations:",
        c.benchmark,
        100.0 * alloc
    )?;
    writeln!(out, "  zero-refresh:    {:.3}", c.zero_refresh)?;
    writeln!(
        out,
        "  zib:             {:.3}  (+{:.1}% DRAM capacity overhead)",
        c.zib,
        100.0 * c.zib_overhead
    )?;
    writeln!(
        out,
        "  validity oracle: {:.3}  (needs OS-DRAM interface)",
        c.validity_oracle
    )?;
    writeln!(out, "  smart refresh:   {:.3}  (at 32 GB)", c.smart_refresh)?;
    Ok(())
}
