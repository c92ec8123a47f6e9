//! Declarative sweep specs and their deterministic expansion.
//!
//! A [`SweepSpec`] names a base scenario preset, a design list, fixed
//! parameter overrides, parameter axes (list / arithmetic range /
//! log-spaced range), and a seed list. [`SweepSpec::expand`] turns it
//! into an ordered run manifest: designs outermost, then the axes in
//! declaration order (first axis slowest), seeds innermost. Expansion is
//! a pure function of the spec — same spec, same manifest, every time —
//! which is what lets the parallel runner merge results by manifest
//! index and still be byte-identical to a serial run.

use tn_sim::json::{self, num_f64, num_u64, Json};

/// Schema marker for serialized specs.
pub const SPEC_SCHEMA: &str = "tn-lab-spec/v1";

/// The most runs one spec may expand to (and so the most values one axis
/// may have). Specs arrive from outside through `tn-lab run --spec FILE`;
/// a runaway one is refused with an error instead of exhausting memory.
pub const MAX_RUNS: usize = 1_000_000;

/// How an axis enumerates its values.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Explicit values, used verbatim.
    List(Vec<f64>),
    /// `start, start+step, …` while `<= stop` (arithmetic grid).
    Range {
        /// First value.
        start: f64,
        /// Inclusive upper bound.
        stop: f64,
        /// Positive increment.
        step: f64,
    },
    /// `points` log-spaced values from `start` to `stop` inclusive.
    LogRange {
        /// First value (must be positive).
        start: f64,
        /// Last value (must be positive).
        stop: f64,
        /// Number of points (≥ 1).
        points: usize,
    },
}

impl AxisValues {
    /// The concrete value list this axis expands to.
    pub fn materialize(&self) -> Result<Vec<f64>, String> {
        match self {
            AxisValues::List(vs) => {
                if vs.is_empty() {
                    return Err("axis list is empty".into());
                }
                if vs.iter().any(|v| !v.is_finite()) {
                    return Err("axis list has a non-finite value".into());
                }
                Ok(vs.clone())
            }
            AxisValues::Range { start, stop, step } => {
                if !(start.is_finite() && stop.is_finite() && step.is_finite()) {
                    return Err("range bounds must be finite".into());
                }
                if *step <= 0.0 || stop < start {
                    return Err(format!("bad range {start}..={stop} step {step}"));
                }
                // Count before building: the values are start + i·step, so
                // there are floor(span) + 1 of them.
                let span = (stop - start) / step;
                if span >= MAX_RUNS as f64 {
                    return Err(format!(
                        "range {start}..={stop} step {step} has more than {MAX_RUNS} values"
                    ));
                }
                // Integer stepping (start + i*step) avoids accumulating
                // rounding error; the epsilon admits a stop that is an
                // exact multiple of step. A step lost in the precision of
                // `start` may never pass `stop`, so the walk is capped at
                // two values past the count.
                let mut out = Vec::new();
                for i in 0..=span as u64 + 2 {
                    let v = start + i as f64 * step;
                    if v > stop + step * 1e-9 {
                        return Ok(out);
                    }
                    out.push(v);
                }
                Err(format!(
                    "range {start}..={stop} step {step} does not advance: \
                     the step is below the precision of the bounds"
                ))
            }
            AxisValues::LogRange {
                start,
                stop,
                points,
            } => {
                if !(start.is_finite() && stop.is_finite()) || *start <= 0.0 || *stop <= 0.0 {
                    return Err("log range bounds must be positive and finite".into());
                }
                if *points == 0 {
                    return Err("log range needs at least one point".into());
                }
                if *points > MAX_RUNS {
                    return Err(format!("log range has more than {MAX_RUNS} points"));
                }
                if *points == 1 {
                    return Ok(vec![*start]);
                }
                let ratio = stop / start;
                Ok((0..*points)
                    .map(|i| start * ratio.powf(i as f64 / (*points - 1) as f64))
                    .collect())
            }
        }
    }
}

/// One swept parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Scenario parameter name (see `runner::build_config` for the map).
    pub param: String,
    /// Values to sweep.
    pub values: AxisValues,
}

/// A declarative sweep over scenario configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (lands in the report).
    pub name: String,
    /// Base preset every cell starts from: `"small"` or `"paper"`.
    pub base: String,
    /// Designs to run each cell over (aliases: `traditional`, `cloud`,
    /// `l1`, `fpga`).
    pub designs: Vec<String>,
    /// Fixed parameter overrides applied to every cell, before the axes.
    pub overrides: Vec<(String, f64)>,
    /// Swept axes, first axis slowest.
    pub axes: Vec<Axis>,
    /// Seed replication: every cell runs once per seed.
    pub seeds: Vec<u64>,
}

/// One planned run: a fully-resolved point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Position in the manifest (and in the merged results).
    pub index: usize,
    /// Base preset name (from the spec).
    pub base: String,
    /// Design alias.
    pub design: String,
    /// Seed for this replicate.
    pub seed: u64,
    /// Resolved parameters: overrides first, then one value per axis, in
    /// spec order. Identical across the seeds of one cell.
    pub params: Vec<(String, f64)>,
}

impl RunPlan {
    /// The cell key: everything except the seed. Runs with equal keys are
    /// replicates of the same sweep cell.
    pub fn cell_key(&self) -> (&str, &[(String, f64)]) {
        (&self.design, &self.params)
    }
}

impl SweepSpec {
    /// The CI smoke grid: the trimmed quickstart scenario swept over
    /// 3 strategy counts × 3 momentum thresholds × 2 tick intervals on
    /// design 1, one seed — 18 runs. The first cell (6, 100, 200 µs) *is*
    /// the trimmed quickstart, so its digest is pinned against the golden
    /// 0xc9ef3e6d16dadef0 in the divergence registry.
    pub fn smoke() -> SweepSpec {
        SweepSpec {
            name: "smoke".into(),
            base: "small".into(),
            designs: vec!["traditional".into()],
            overrides: vec![
                ("duration_us".into(), 8_000.0),
                ("warmup_us".into(), 1_000.0),
            ],
            axes: vec![
                Axis {
                    param: "strategies".into(),
                    values: AxisValues::List(vec![6.0, 8.0, 10.0]),
                },
                Axis {
                    param: "momentum_threshold".into(),
                    values: AxisValues::Range {
                        start: 100.0,
                        stop: 180.0,
                        step: 40.0,
                    },
                },
                Axis {
                    param: "tick_interval_us".into(),
                    values: AxisValues::LogRange {
                        start: 200.0,
                        stop: 400.0,
                        points: 2,
                    },
                },
            ],
            seeds: vec![42],
        }
    }

    /// Expand into the ordered run manifest. Deterministic, duplicate-free
    /// (given distinct axis values/seeds), and complete:
    /// `len == designs × Π(axis lengths) × seeds`, which may not pass
    /// [`MAX_RUNS`].
    pub fn expand(&self) -> Result<Vec<RunPlan>, String> {
        if self.designs.is_empty() {
            return Err("spec has no designs".into());
        }
        if self.seeds.is_empty() {
            return Err("spec has no seeds".into());
        }
        let too_many = || format!("the sweep would pass {MAX_RUNS} runs");
        let mut runs = self
            .designs
            .len()
            .checked_mul(self.seeds.len())
            .filter(|&n| n <= MAX_RUNS)
            .ok_or_else(too_many)?;
        let mut axes: Vec<(String, Vec<f64>)> = Vec::new();
        for a in &self.axes {
            let values = a
                .values
                .materialize()
                .map_err(|e| format!("axis `{}`: {e}", a.param))?;
            runs = runs
                .checked_mul(values.len())
                .filter(|&n| n <= MAX_RUNS)
                .ok_or_else(|| format!("axis `{}`: {}", a.param, too_many()))?;
            axes.push((a.param.clone(), values));
        }
        let mut manifest = Vec::new();
        for design in &self.designs {
            // Odometer over the axes: first axis slowest.
            let mut idx = vec![0usize; axes.len()];
            loop {
                let mut params = self.overrides.clone();
                for (k, (param, values)) in axes.iter().enumerate() {
                    params.push((param.clone(), values[idx[k]]));
                }
                for &seed in &self.seeds {
                    manifest.push(RunPlan {
                        index: manifest.len(),
                        base: self.base.clone(),
                        design: design.clone(),
                        seed,
                        params: params.clone(),
                    });
                }
                // Advance the odometer (last axis fastest).
                let mut k = axes.len();
                loop {
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                    idx[k] += 1;
                    if idx[k] < axes[k].1.len() {
                        break;
                    }
                    idx[k] = 0;
                }
                if idx.iter().all(|&i| i == 0) {
                    break;
                }
            }
        }
        Ok(manifest)
    }

    /// Serialize as `tn-lab-spec/v1`.
    pub fn to_json(&self) -> String {
        let axes = self
            .axes
            .iter()
            .map(|a| {
                let mut members = vec![("param".to_string(), Json::Str(a.param.clone()))];
                match &a.values {
                    AxisValues::List(vs) => members.push((
                        "list".into(),
                        Json::Arr(vs.iter().map(|&v| num_f64(v)).collect()),
                    )),
                    AxisValues::Range { start, stop, step } => members.push((
                        "range".into(),
                        Json::Obj(vec![
                            ("start".into(), num_f64(*start)),
                            ("stop".into(), num_f64(*stop)),
                            ("step".into(), num_f64(*step)),
                        ]),
                    )),
                    AxisValues::LogRange {
                        start,
                        stop,
                        points,
                    } => members.push((
                        "log_range".into(),
                        Json::Obj(vec![
                            ("start".into(), num_f64(*start)),
                            ("stop".into(), num_f64(*stop)),
                            ("points".into(), num_u64(*points as u64)),
                        ]),
                    )),
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SPEC_SCHEMA.into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("base".into(), Json::Str(self.base.clone())),
            (
                "designs".into(),
                Json::Arr(self.designs.iter().map(|d| Json::Str(d.clone())).collect()),
            ),
            (
                "overrides".into(),
                Json::Arr(
                    self.overrides
                        .iter()
                        .map(|(p, v)| {
                            Json::Obj(vec![
                                ("param".into(), Json::Str(p.clone())),
                                ("value".into(), num_f64(*v)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("axes".into(), Json::Arr(axes)),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| num_u64(s)).collect()),
            ),
        ])
        .render()
    }

    /// Parse a `tn-lab-spec/v1` document.
    pub fn parse(src: &str) -> Result<SweepSpec, String> {
        let doc = json::parse(src)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SPEC_SCHEMA) {
            return Err(format!("not a {SPEC_SCHEMA} document"));
        }
        let name = req_str(&doc, "name")?;
        let base = req_str(&doc, "base")?;
        let designs = req_arr(&doc, "designs")?
            .iter()
            .map(|d| {
                d.as_str()
                    .map(String::from)
                    .ok_or("design must be a string")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let overrides = req_arr(&doc, "overrides")?
            .iter()
            .map(parse_param_value)
            .collect::<Result<Vec<_>, _>>()?;
        let axes = req_arr(&doc, "axes")?
            .iter()
            .map(parse_axis)
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = req_arr(&doc, "seeds")?
            .iter()
            .map(|s| s.as_u64().ok_or("seed must be a u64"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepSpec {
            name,
            base,
            designs,
            overrides,
            axes,
            seeds,
        })
    }
}

/// The string field `key` of `doc`, or an error naming it.
pub(crate) fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or(format!("missing string field `{key}`"))
}

/// The array field `key` of `doc`, or an error naming it.
pub(crate) fn req_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("missing array field `{key}`"))
}

fn parse_param_value(v: &Json) -> Result<(String, f64), String> {
    let param = req_str(v, "param")?;
    let value = v
        .get("value")
        .and_then(Json::as_f64)
        .ok_or(format!("override `{param}` missing numeric `value`"))?;
    Ok((param, value))
}

fn parse_axis(v: &Json) -> Result<Axis, String> {
    let param = req_str(v, "param")?;
    let values = if let Some(list) = v.get("list").and_then(Json::as_arr) {
        AxisValues::List(
            list.iter()
                .map(|x| x.as_f64().ok_or("axis list value must be a number"))
                .collect::<Result<Vec<_>, _>>()?,
        )
    } else if let Some(r) = v.get("range") {
        AxisValues::Range {
            start: num_field(r, "start")?,
            stop: num_field(r, "stop")?,
            step: num_field(r, "step")?,
        }
    } else if let Some(r) = v.get("log_range") {
        AxisValues::LogRange {
            start: num_field(r, "start")?,
            stop: num_field(r, "stop")?,
            points: r
                .get("points")
                .and_then(Json::as_u64)
                .ok_or("log_range missing `points`")? as usize,
        }
    } else {
        return Err(format!(
            "axis `{param}` needs one of `list`, `range`, `log_range`"
        ));
    };
    Ok(Axis { param, values })
}

fn num_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing numeric field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_and_log_range_materialize() {
        let r = AxisValues::Range {
            start: 100.0,
            stop: 180.0,
            step: 40.0,
        };
        assert_eq!(r.materialize().unwrap(), vec![100.0, 140.0, 180.0]);
        let l = AxisValues::LogRange {
            start: 200.0,
            stop: 400.0,
            points: 2,
        };
        assert_eq!(l.materialize().unwrap(), vec![200.0, 400.0]);
        let l3 = AxisValues::LogRange {
            start: 1.0,
            stop: 100.0,
            points: 3,
        };
        let vs = l3.materialize().unwrap();
        assert_eq!(vs.len(), 3);
        assert!((vs[1] - 10.0).abs() < 1e-9, "{vs:?}");
    }

    #[test]
    fn bad_axes_are_rejected() {
        assert!(AxisValues::List(vec![]).materialize().is_err());
        assert!(AxisValues::List(vec![f64::NAN]).materialize().is_err());
        assert!(AxisValues::Range {
            start: 5.0,
            stop: 1.0,
            step: 1.0
        }
        .materialize()
        .is_err());
        assert!(AxisValues::Range {
            start: 1.0,
            stop: 5.0,
            step: 0.0
        }
        .materialize()
        .is_err());
        assert!(AxisValues::LogRange {
            start: 0.0,
            stop: 5.0,
            points: 3
        }
        .materialize()
        .is_err());
    }

    #[test]
    fn smoke_expands_to_the_documented_grid() {
        let manifest = SweepSpec::smoke().expand().unwrap();
        assert_eq!(manifest.len(), 18, "3 × 3 × 2 × 1 seed × 1 design");
        // First run is the trimmed quickstart cell.
        let first = &manifest[0];
        assert_eq!(first.index, 0);
        assert_eq!(first.design, "traditional");
        assert_eq!(first.seed, 42);
        let get = |name: &str| {
            first
                .params
                .iter()
                .find(|(p, _)| p == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(get("strategies"), Some(6.0));
        assert_eq!(get("momentum_threshold"), Some(100.0));
        assert_eq!(get("tick_interval_us"), Some(200.0));
        assert_eq!(get("duration_us"), Some(8_000.0));
        // Manifest order: last axis fastest.
        let tick = |i: usize| {
            manifest[i]
                .params
                .iter()
                .find(|(p, _)| p == "tick_interval_us")
                .map(|&(_, v)| v)
        };
        assert_eq!(tick(0), Some(200.0));
        assert_eq!(tick(1), Some(400.0));
    }

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let spec = SweepSpec::smoke();
        let a = spec.expand().unwrap();
        let b = spec.expand().unwrap();
        assert_eq!(a, b);
        for (i, plan) in a.iter().enumerate() {
            assert_eq!(plan.index, i);
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = SweepSpec::smoke();
        let j = spec.to_json();
        assert!(j.starts_with("{\"schema\":\"tn-lab-spec/v1\""), "{j}");
        let back = SweepSpec::parse(&j).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), j, "emit→parse→emit must be byte-stable");
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(SweepSpec::parse("{\"schema\":\"tn-report/v1\"}").is_err());
        assert!(SweepSpec::parse("not json").is_err());
    }

    /// A one-design, one-seed spec over `axes` named `a`, `b`, ….
    fn spec_over(axes: Vec<AxisValues>) -> SweepSpec {
        SweepSpec {
            axes: axes
                .into_iter()
                .zip(["a", "b", "c"])
                .map(|(values, param)| Axis {
                    param: param.into(),
                    values,
                })
                .collect(),
            ..SweepSpec::smoke()
        }
    }

    #[test]
    fn a_runaway_range_is_refused_before_it_is_built() {
        let huge = AxisValues::Range {
            start: 0.0,
            stop: 1e12,
            step: 1.0,
        };
        let err = spec_over(vec![huge]).expand().unwrap_err();
        assert!(
            err.starts_with("axis `a`:") && err.contains("1000000"),
            "{err}"
        );
        // Past 2^32 points a u32 step counter would wrap back to `start`.
        let wraps = AxisValues::Range {
            start: 0.0,
            stop: 5e9,
            step: 1.0,
        };
        assert!(wraps.materialize().is_err());
        // A step absorbed by the bounds' precision never reaches `stop`.
        let stuck = AxisValues::Range {
            start: 1e300,
            stop: 1e300,
            step: 1e-300,
        };
        assert!(stuck
            .materialize()
            .unwrap_err()
            .contains("does not advance"));
        let widest = AxisValues::Range {
            start: 1.0,
            stop: MAX_RUNS as f64,
            step: 1.0,
        };
        assert_eq!(widest.materialize().unwrap().len(), MAX_RUNS);
    }

    #[test]
    fn log_range_points_are_bounded() {
        let points = |points| AxisValues::LogRange {
            start: 1.0,
            stop: 10.0,
            points,
        };
        let err = spec_over(vec![points(1 << 40)]).expand().unwrap_err();
        assert!(err.starts_with("axis `a`:"), "{err}");
        assert!(points(usize::MAX).materialize().is_err());
        assert_eq!(points(MAX_RUNS).materialize().unwrap().len(), MAX_RUNS);
    }

    #[test]
    fn the_manifest_is_bounded_and_names_the_axis_that_passes_it() {
        let thousand = || AxisValues::List((0..1000).map(f64::from).collect());
        let err = spec_over(vec![thousand(), thousand(), thousand()])
            .expand()
            .unwrap_err();
        assert_eq!(err, "axis `c`: the sweep would pass 1000000 runs");
        let mut spec = spec_over(vec![thousand(), thousand()]);
        spec.seeds = vec![1, 2];
        assert!(spec.expand().unwrap_err().starts_with("axis `b`:"));
    }

    #[test]
    fn empty_designs_or_seeds_refuse_to_expand() {
        let mut spec = SweepSpec::smoke();
        spec.designs.clear();
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::smoke();
        spec.seeds.clear();
        assert!(spec.expand().is_err());
    }
}
