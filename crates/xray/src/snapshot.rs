//! The capture document: a deterministic, sorted view of everything the
//! recorder saw, plus its `xray.json` (schema 1) and CSV encodings.

use zr_types::json::Json;

/// `xray.json` schema version written by this crate.
pub const SCHEMA_VERSION: u64 = 1;

/// Number of attributed transform stages.
pub const STAGE_COUNT: usize = 4;

/// Stage names in pipeline order; index into [`StageCapture::deltas`].
pub const STAGE_NAMES: [&str; STAGE_COUNT] = ["ebdi", "bit_plane", "inversion", "rotation"];

/// Number of stage combinations (every subset of the four stages).
pub const COMBO_COUNT: usize = 1 << STAGE_COUNT;

/// Packs a stage configuration into the combo index used by
/// [`StageCapture::combo`]: bit 0 = EBDI, bit 1 = bit-plane
/// transposition, bit 2 = cell-aware inversion, bit 3 = per-row
/// rotation.
pub fn stage_combo(ebdi: bool, bit_plane: bool, cell_aware: bool, rotation: bool) -> u8 {
    (ebdi as u8) | (bit_plane as u8) << 1 | (cell_aware as u8) << 2 | (rotation as u8) << 3
}

/// Human-readable name of a combo, e.g. `ebdi+inversion`; `identity`
/// for the empty combination.
pub fn combo_name(combo: u8) -> String {
    let names: Vec<&str> = STAGE_NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| combo & (1 << i) != 0)
        .map(|(_, &name)| name)
        .collect();
    if names.is_empty() {
        "identity".to_string()
    } else {
        names.join("+")
    }
}

/// One (window, bank, AR-set) cell of an engine's refresh time series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArRow {
    /// First window index of this row's (possibly downsampled) bucket.
    pub window: u64,
    /// Bank the AR command addressed.
    pub bank: u32,
    /// AR set within the bank (§IV-C staggered schedule position).
    pub set: u64,
    /// Chip rows actually refreshed.
    pub rows_refreshed: u64,
    /// Chip rows skipped by the charge-aware policy.
    pub rows_skipped: u64,
    /// Chip rows of the set holding the fully-discharged pattern when
    /// the AR command was processed.
    pub discharged: u64,
}

/// A bank's discharged chip-row count at the end of a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStateRow {
    /// First window index of the bucket this state belongs to.
    pub window: u64,
    /// Bank.
    pub bank: u32,
    /// Discharged chip rows across the whole bank at end of window.
    pub discharged_rows: u64,
}

/// One refresh engine's identity and windowed series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineCapture {
    /// Telemetry scope path at construction (e.g.
    /// `fig14_refresh_reduction/mcf`), or `engine` outside any scope.
    pub label: String,
    /// Refresh policy name (`conventional`, `charge_aware`, ...).
    pub policy: String,
    /// Banks per rank.
    pub num_banks: u32,
    /// AR sets per bank (the §IV-C stagger granularity).
    pub ar_sets_per_bank: u64,
    /// Windows merged into each bucket (1 until downsampling kicks in).
    pub window_stride: u64,
    /// Sorted by (window, bank, set).
    pub windows: Vec<ArRow>,
    /// Sorted by (window, bank).
    pub bank_discharged: Vec<BankStateRow>,
}

impl EngineCapture {
    /// Total (refreshed, skipped) chip rows over the whole capture.
    pub fn totals(&self) -> (u64, u64) {
        self.windows.iter().fold((0, 0), |(r, s), row| {
            (r + row.rows_refreshed, s + row.rows_skipped)
        })
    }
}

/// Aggregated attribution for one transform-stage combination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCapture {
    /// Stage combination (see [`stage_combo`]).
    pub combo: u8,
    /// Lines encoded under this combination.
    pub lines: u64,
    /// Charged cells summed over those lines before any stage ran.
    pub charged_before: u64,
    /// Charged cells after the full pipeline.
    pub charged_after: u64,
    /// Signed charged-cell reduction per stage, pipeline order
    /// ([`STAGE_NAMES`]); the telescoping sum equals
    /// `charged_before - charged_after` exactly.
    pub deltas: [i64; STAGE_COUNT],
}

impl StageCapture {
    /// `charged_before - charged_after`, the combination's total
    /// charged-cell reduction (negative if the pipeline added charge).
    pub fn total_reduction(&self) -> i64 {
        self.charged_before as i64 - self.charged_after as i64
    }

    /// Whether the per-stage deltas telescope exactly to the total.
    pub fn deltas_sum_to_total(&self) -> bool {
        self.deltas.iter().sum::<i64>() == self.total_reduction()
    }
}

/// The full capture document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XraySnapshot {
    /// Per-engine window-bucket cap the capture ran with.
    pub window_cap: u64,
    /// Engines in announce order (submission order under a pooled
    /// sweep, which is what makes the document thread-count invariant).
    pub engines: Vec<EngineCapture>,
    /// Stage-combination aggregates, sorted by combo index.
    pub stages: Vec<StageCapture>,
}

impl XraySnapshot {
    /// Encodes the capture as the `xray.json` schema-1 document.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let engines = self
            .engines
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("label".into(), Json::Str(e.label.clone())),
                    ("policy".into(), Json::Str(e.policy.clone())),
                    ("num_banks".into(), num(e.num_banks as u64)),
                    ("ar_sets_per_bank".into(), num(e.ar_sets_per_bank)),
                    ("window_stride".into(), num(e.window_stride)),
                    (
                        "windows".into(),
                        Json::Arr(
                            e.windows
                                .iter()
                                .map(|r| {
                                    Json::Obj(vec![
                                        ("window".into(), num(r.window)),
                                        ("bank".into(), num(r.bank as u64)),
                                        ("set".into(), num(r.set)),
                                        ("rows_refreshed".into(), num(r.rows_refreshed)),
                                        ("rows_skipped".into(), num(r.rows_skipped)),
                                        ("discharged".into(), num(r.discharged)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "bank_discharged".into(),
                        Json::Arr(
                            e.bank_discharged
                                .iter()
                                .map(|r| {
                                    Json::Obj(vec![
                                        ("window".into(), num(r.window)),
                                        ("bank".into(), num(r.bank as u64)),
                                        ("discharged_rows".into(), num(r.discharged_rows)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("combo".into(), num(s.combo as u64)),
                    ("stages".into(), Json::Str(combo_name(s.combo))),
                    ("lines".into(), num(s.lines)),
                    ("charged_before".into(), num(s.charged_before)),
                    ("charged_after".into(), num(s.charged_after)),
                ];
                for (name, delta) in STAGE_NAMES.iter().zip(s.deltas) {
                    fields.push(((*name).into(), Json::Num(delta as f64)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), num(SCHEMA_VERSION)),
            ("window_cap".into(), num(self.window_cap)),
            ("engines".into(), Json::Arr(engines)),
            ("stages".into(), Json::Arr(stages)),
        ])
    }

    /// Decodes a schema-1 document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<XraySnapshot, String> {
        let field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let field_u32 = |obj: &Json, key: &str| -> Result<u32, String> {
            let value = field(obj, key)?;
            u32::try_from(value).map_err(|_| format!("field `{key}` = {value} exceeds u32"))
        };
        let schema = field(doc, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported xray schema {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let mut snap = XraySnapshot {
            window_cap: field(doc, "window_cap")?,
            ..XraySnapshot::default()
        };
        for e in doc
            .get("engines")
            .and_then(Json::as_arr)
            .ok_or("missing `engines` array")?
        {
            let mut engine = EngineCapture {
                label: e
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("missing engine `label`")?
                    .to_string(),
                policy: e
                    .get("policy")
                    .and_then(Json::as_str)
                    .ok_or("missing engine `policy`")?
                    .to_string(),
                num_banks: field_u32(e, "num_banks")?,
                ar_sets_per_bank: field(e, "ar_sets_per_bank")?,
                window_stride: field(e, "window_stride")?,
                ..EngineCapture::default()
            };
            for r in e
                .get("windows")
                .and_then(Json::as_arr)
                .ok_or("missing engine `windows` array")?
            {
                engine.windows.push(ArRow {
                    window: field(r, "window")?,
                    bank: field_u32(r, "bank")?,
                    set: field(r, "set")?,
                    rows_refreshed: field(r, "rows_refreshed")?,
                    rows_skipped: field(r, "rows_skipped")?,
                    discharged: field(r, "discharged")?,
                });
            }
            for r in e
                .get("bank_discharged")
                .and_then(Json::as_arr)
                .ok_or("missing engine `bank_discharged` array")?
            {
                engine.bank_discharged.push(BankStateRow {
                    window: field(r, "window")?,
                    bank: field_u32(r, "bank")?,
                    discharged_rows: field(r, "discharged_rows")?,
                });
            }
            snap.engines.push(engine);
        }
        for s in doc
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or("missing `stages` array")?
        {
            let combo = field(s, "combo")?;
            let mut capture = StageCapture {
                combo: u8::try_from(combo)
                    .ok()
                    .filter(|&c| usize::from(c) < COMBO_COUNT)
                    .ok_or_else(|| format!("field `combo` = {combo} is not below {COMBO_COUNT}"))?,
                lines: field(s, "lines")?,
                charged_before: field(s, "charged_before")?,
                charged_after: field(s, "charged_after")?,
                deltas: [0; STAGE_COUNT],
            };
            for (i, name) in STAGE_NAMES.iter().enumerate() {
                capture.deltas[i] = s
                    .get(name)
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("missing stage field `{name}`"))?;
            }
            snap.stages.push(capture);
        }
        Ok(snap)
    }

    /// Encodes the windowed refresh series as CSV (one row per
    /// (engine, window, bank, set) cell) for spreadsheet plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "engine,label,policy,window,bank,set,rows_refreshed,rows_skipped,discharged\n",
        );
        for (i, e) in self.engines.iter().enumerate() {
            // Labels are telemetry scope paths (no quoting characters),
            // but escape defensively so the CSV always stays rectangular.
            let label = e.label.replace([',', '\n', '\r'], "_");
            for r in &e.windows {
                out.push_str(&format!(
                    "{i},{label},{},{},{},{},{},{},{}\n",
                    e.policy,
                    r.window,
                    r.bank,
                    r.set,
                    r.rows_refreshed,
                    r.rows_skipped,
                    r.discharged,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_packing_matches_names() {
        assert_eq!(stage_combo(false, false, false, false), 0);
        assert_eq!(combo_name(0), "identity");
        assert_eq!(stage_combo(true, false, false, false), 1);
        assert_eq!(combo_name(1), "ebdi");
        assert_eq!(stage_combo(true, true, true, true), 15);
        assert_eq!(combo_name(15), "ebdi+bit_plane+inversion+rotation");
        assert_eq!(stage_combo(false, true, false, true), 0b1010);
        assert_eq!(combo_name(0b1010), "bit_plane+rotation");
        assert_eq!(COMBO_COUNT, 16);
    }

    #[test]
    fn stage_capture_checks_telescoping_sum() {
        let good = StageCapture {
            combo: 5,
            lines: 2,
            charged_before: 100,
            charged_after: 60,
            deltas: [30, 0, 10, 0],
        };
        assert_eq!(good.total_reduction(), 40);
        assert!(good.deltas_sum_to_total());
        let bad = StageCapture {
            deltas: [1, 0, 0, 0],
            ..good
        };
        assert!(!bad.deltas_sum_to_total());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = XraySnapshot {
            window_cap: 64,
            ..XraySnapshot::default()
        };
        let back = XraySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            snap.to_csv(),
            "engine,label,policy,window,bank,set,rows_refreshed,rows_skipped,discharged\n"
        );
    }

    #[test]
    fn rejects_wrong_schema() {
        let mut doc = XraySnapshot::default().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Num(99.0);
        }
        assert!(XraySnapshot::from_json(&doc)
            .unwrap_err()
            .contains("schema 99"));
    }

    /// One engine with one row of each kind, and one stage row.
    fn one_of_each() -> XraySnapshot {
        XraySnapshot {
            window_cap: 4,
            engines: vec![EngineCapture {
                label: "fig14.gcc".into(),
                policy: "charge_aware".into(),
                num_banks: 8,
                ar_sets_per_bank: 2,
                window_stride: 1,
                windows: vec![ArRow {
                    window: 0,
                    bank: 7,
                    set: 1,
                    rows_refreshed: 3,
                    rows_skipped: 1,
                    discharged: 1,
                }],
                bank_discharged: vec![BankStateRow {
                    window: 0,
                    bank: 7,
                    discharged_rows: 1,
                }],
            }],
            stages: vec![StageCapture {
                combo: 15,
                lines: 2,
                charged_before: 100,
                charged_after: 60,
                deltas: [30, 0, 10, 0],
            }],
        }
    }

    /// The member `key` of an object, or the item at index `key` of an
    /// array.
    fn at<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
        match doc {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Json::Arr(items) => &mut items[key.parse::<usize>().expect(key)],
            _ => panic!("no `{key}` in a scalar"),
        }
    }

    /// `one_of_each`'s document with the value at `path` replaced by
    /// `value` must fail to load with an error containing `message`.
    fn assert_rejected(path: &[&str], value: u64, message: &str) {
        let mut doc = one_of_each().to_json();
        assert_eq!(XraySnapshot::from_json(&doc), Ok(one_of_each()));
        *path.iter().fold(&mut doc, |doc, key| at(doc, key)) = Json::Int(value.into());
        let err = XraySnapshot::from_json(&doc).expect_err(message);
        assert!(err.contains(message), "{err}");
    }

    #[test]
    fn rejects_num_banks_beyond_u32() {
        assert_rejected(
            &["engines", "0", "num_banks"],
            1 << 32,
            "field `num_banks` = 4294967296 exceeds u32",
        );
    }

    #[test]
    fn rejects_window_row_bank_beyond_u32() {
        assert_rejected(
            &["engines", "0", "windows", "0", "bank"],
            (1 << 32) + 7,
            "field `bank` = 4294967303 exceeds u32",
        );
    }

    #[test]
    fn rejects_bank_state_bank_beyond_u32() {
        assert_rejected(
            &["engines", "0", "bank_discharged", "0", "bank"],
            1 << 33,
            "field `bank` = 8589934592 exceeds u32",
        );
    }

    #[test]
    fn rejects_combo_outside_the_stage_combinations() {
        // 256 used to load as 0 ("identity") and 17 as 1 ("ebdi").
        for combo in [16, 17, 256] {
            assert_rejected(
                &["stages", "0", "combo"],
                combo,
                &format!("field `combo` = {combo} is not below 16"),
            );
        }
    }

    #[test]
    fn csv_escapes_label_separators() {
        let mut snap = one_of_each();
        snap.engines[0].label = "weird,label".into();
        let csv = snap.to_csv();
        assert!(
            csv.contains("0,weird_label,charge_aware,0,7,1,3,1,1\n"),
            "{csv}"
        );
    }
}
