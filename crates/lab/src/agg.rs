//! Cross-run aggregation and the versioned `tn-lab/v1` report.
//!
//! Runs that differ only in seed are replicates of one sweep *cell*.
//! The aggregator pools their raw latency samples (exact percentiles
//! over the pooled distribution, not averages of per-run percentiles)
//! and reports the cross-seed spread of the per-run medians. The report
//! deliberately contains *no* wall-clock times and *no* thread count:
//! the document must be a pure function of the spec, or the
//! parallel-vs-serial byte-identity the divergence registry pins would
//! be meaningless.

use tn_stats::Summary;

use crate::runner::RunOutcome;
use crate::spec::{req_arr, req_str, RunPlan};
use tn_sim::json::{self, num_f64, num_u64, Json};

/// Schema marker for lab reports.
pub const REPORT_SCHEMA: &str = "tn-lab/v1";

/// One executed run, as recorded in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Manifest index.
    pub index: usize,
    /// Design alias.
    pub design: String,
    /// Replicate seed.
    pub seed: u64,
    /// Resolved parameters (overrides + axes).
    pub params: Vec<(String, f64)>,
    /// Trace digest of the run.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
    /// Latency sample count.
    pub samples: u64,
    /// Median of this run's own samples (ps; 0 when sampleless).
    pub p50_ps: u64,
    /// Executor-defined named scalars.
    pub metrics: Vec<(String, f64)>,
}

/// Pooled statistics for one sweep cell (same design + params, all
/// seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct CellStat {
    /// Design alias.
    pub design: String,
    /// Cell parameters (seed excluded by construction).
    pub params: Vec<(String, f64)>,
    /// Manifest indices of the member runs, ascending.
    pub runs: Vec<usize>,
    /// Seeds of the member runs, in manifest order.
    pub seeds: Vec<u64>,
    /// Pooled sample count.
    pub count: u64,
    /// Pooled minimum (ps).
    pub min_ps: u64,
    /// Pooled median (ps).
    pub p50_ps: u64,
    /// Pooled 99th percentile (ps).
    pub p99_ps: u64,
    /// Pooled 99.9th percentile (ps); `None` below 1,000 samples.
    pub p999_ps: Option<u64>,
    /// Pooled maximum (ps).
    pub max_ps: u64,
    /// Max − min of the per-seed medians (ps): how much the cell moves
    /// across seeds.
    pub seed_spread_ps: u64,
}

/// The full outcome of a sweep: per-run records plus per-cell pooled
/// statistics, serializable as `tn-lab/v1`.
#[derive(Debug, Clone, PartialEq)]
pub struct LabReport {
    /// Spec name.
    pub spec: String,
    /// Base preset.
    pub base: String,
    /// One record per manifest entry, in manifest order.
    pub runs: Vec<RunRecord>,
    /// One entry per cell, in order of first appearance in the manifest.
    pub cells: Vec<CellStat>,
}

impl LabReport {
    /// Aggregate `outcomes` (parallel `manifest`) into a report.
    pub fn build(
        spec_name: &str,
        base: &str,
        manifest: &[RunPlan],
        outcomes: &[RunOutcome],
    ) -> LabReport {
        assert_eq!(
            manifest.len(),
            outcomes.len(),
            "one outcome per manifest entry"
        );
        let runs: Vec<RunRecord> = manifest
            .iter()
            .zip(outcomes)
            .map(|(plan, out)| {
                let mut s = Summary::new();
                s.extend(out.samples_ps.iter().copied());
                RunRecord {
                    index: plan.index,
                    design: plan.design.clone(),
                    seed: plan.seed,
                    params: plan.params.clone(),
                    digest: out.digest,
                    events: out.events,
                    samples: s.count() as u64,
                    p50_ps: s.p50(),
                    metrics: out.metrics.clone(),
                }
            })
            .collect();

        // Group replicates by cell key, preserving first-appearance
        // order. Cells are few; a linear scan avoids any map type.
        let mut cells: Vec<CellStat> = Vec::new();
        for plan in manifest {
            let key = plan.cell_key();
            if !cells
                .iter()
                .any(|c| (c.design.as_str(), c.params.as_slice()) == key)
            {
                let members: Vec<(&RunPlan, &RunOutcome)> = manifest
                    .iter()
                    .zip(outcomes)
                    .filter(|(p, _)| p.cell_key() == key)
                    .collect();
                let mut pooled = Summary::new();
                let mut medians = Summary::new();
                for (_, o) in &members {
                    pooled.extend(o.samples_ps.iter().copied());
                    let mut per_run = Summary::new();
                    per_run.extend(o.samples_ps.iter().copied());
                    medians.record(per_run.p50());
                }
                cells.push(CellStat {
                    design: plan.design.clone(),
                    params: plan.params.clone(),
                    runs: members.iter().map(|(p, _)| p.index).collect(),
                    seeds: members.iter().map(|(p, _)| p.seed).collect(),
                    count: pooled.count() as u64,
                    min_ps: pooled.min(),
                    p50_ps: pooled.p50(),
                    p99_ps: pooled.p99(),
                    p999_ps: pooled.p999(),
                    max_ps: pooled.max(),
                    seed_spread_ps: medians.spread(),
                });
            }
        }

        LabReport {
            spec: spec_name.to_string(),
            base: base.to_string(),
            runs,
            cells,
        }
    }

    /// Serialize as `tn-lab/v1` (compact, newline-terminated). Contains
    /// no thread count and no wall-clock data by design.
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("index".into(), num_u64(r.index as u64)),
                    ("design".into(), Json::Str(r.design.clone())),
                    ("seed".into(), num_u64(r.seed)),
                    ("params".into(), params_json(&r.params)),
                    ("digest".into(), Json::Str(format!("{:016x}", r.digest))),
                    ("events".into(), num_u64(r.events)),
                    ("samples".into(), num_u64(r.samples)),
                    ("p50_ps".into(), num_u64(r.p50_ps)),
                    (
                        "metrics".into(),
                        Json::Arr(
                            r.metrics
                                .iter()
                                .map(|(name, value)| {
                                    Json::Obj(vec![
                                        ("name".into(), Json::Str(name.clone())),
                                        ("value".into(), num_f64(*value)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("design".into(), Json::Str(c.design.clone())),
                    ("params".into(), params_json(&c.params)),
                    (
                        "runs".into(),
                        Json::Arr(c.runs.iter().map(|&i| num_u64(i as u64)).collect()),
                    ),
                    (
                        "seeds".into(),
                        Json::Arr(c.seeds.iter().map(|&s| num_u64(s)).collect()),
                    ),
                    ("count".into(), num_u64(c.count)),
                    ("min_ps".into(), num_u64(c.min_ps)),
                    ("p50_ps".into(), num_u64(c.p50_ps)),
                    ("p99_ps".into(), num_u64(c.p99_ps)),
                    ("p999_ps".into(), c.p999_ps.map_or(Json::Null, num_u64)),
                    ("max_ps".into(), num_u64(c.max_ps)),
                    ("seed_spread_ps".into(), num_u64(c.seed_spread_ps)),
                ])
            })
            .collect();
        let mut out = Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            ("spec".into(), Json::Str(self.spec.clone())),
            ("base".into(), Json::Str(self.base.clone())),
            ("runs".into(), Json::Arr(runs)),
            ("cells".into(), Json::Arr(cells)),
        ])
        .render();
        out.push('\n');
        out
    }

    /// Parse a `tn-lab/v1` document.
    pub fn parse(src: &str) -> Result<LabReport, String> {
        let doc = json::parse(src.trim_end())?;
        if doc.get("schema").and_then(Json::as_str) != Some(REPORT_SCHEMA) {
            return Err(format!("not a {REPORT_SCHEMA} document"));
        }
        let spec = req_str(&doc, "spec")?;
        let base = req_str(&doc, "base")?;
        let runs = req_arr(&doc, "runs")?
            .iter()
            .map(parse_run)
            .collect::<Result<Vec<_>, _>>()?;
        let cells = req_arr(&doc, "cells")?
            .iter()
            .map(parse_cell)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LabReport {
            spec,
            base,
            runs,
            cells,
        })
    }

    /// Human summary: one row per cell.
    pub fn table(&self) -> String {
        let mut out = format!(
            "sweep `{}` (base {}): {} runs, {} cells\n{:<56} {:>6} {:>12} {:>12} {:>12} {:>10}\n",
            self.spec,
            self.base,
            self.runs.len(),
            self.cells.len(),
            "cell",
            "count",
            "p50",
            "p99",
            "max",
            "spread",
        );
        for c in &self.cells {
            let mut label = c.design.clone();
            for (p, v) in &c.params {
                label.push_str(&format!(" {p}={v}"));
            }
            if label.len() > 56 {
                label.truncate(53);
                label.push_str("...");
            }
            out.push_str(&format!(
                "{label:<56} {:>6} {:>12} {:>12} {:>12} {:>10}\n",
                c.count,
                format!("{:.2}us", c.p50_ps as f64 / 1e6),
                format!("{:.2}us", c.p99_ps as f64 / 1e6),
                format!("{:.2}us", c.max_ps as f64 / 1e6),
                format!("{:.2}us", c.seed_spread_ps as f64 / 1e6),
            ));
        }
        out
    }
}

fn params_json(params: &[(String, f64)]) -> Json {
    Json::Arr(
        params
            .iter()
            .map(|(p, v)| {
                Json::Obj(vec![
                    ("param".into(), Json::Str(p.clone())),
                    ("value".into(), num_f64(*v)),
                ])
            })
            .collect(),
    )
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing u64 field `{key}`"))
}

fn parse_params(v: &Json) -> Result<Vec<(String, f64)>, String> {
    req_arr(v, "params")?
        .iter()
        .map(|m| {
            let p = req_str(m, "param")?;
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("param `{p}` missing numeric value"))?;
            Ok((p, value))
        })
        .collect()
}

fn parse_run(v: &Json) -> Result<RunRecord, String> {
    let digest_hex = req_str(v, "digest")?;
    let digest =
        u64::from_str_radix(&digest_hex, 16).map_err(|_| format!("bad digest `{digest_hex}`"))?;
    Ok(RunRecord {
        index: u64_field(v, "index")? as usize,
        design: req_str(v, "design")?,
        seed: u64_field(v, "seed")?,
        params: parse_params(v)?,
        digest,
        events: u64_field(v, "events")?,
        samples: u64_field(v, "samples")?,
        p50_ps: u64_field(v, "p50_ps")?,
        metrics: req_arr(v, "metrics")?
            .iter()
            .map(|m| {
                let name = req_str(m, "name")?;
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric `{name}` missing numeric value"))?;
                Ok((name, value))
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

fn parse_cell(v: &Json) -> Result<CellStat, String> {
    let p999 = match v.get("p999_ps") {
        Some(Json::Null) | None => None,
        Some(n) => Some(n.as_u64().ok_or("bad p999_ps")?),
    };
    Ok(CellStat {
        design: req_str(v, "design")?,
        params: parse_params(v)?,
        runs: req_arr(v, "runs")?
            .iter()
            .map(|i| i.as_u64().map(|i| i as usize).ok_or("bad run index"))
            .collect::<Result<Vec<_>, _>>()?,
        seeds: req_arr(v, "seeds")?
            .iter()
            .map(|s| s.as_u64().ok_or("bad seed"))
            .collect::<Result<Vec<_>, _>>()?,
        count: u64_field(v, "count")?,
        min_ps: u64_field(v, "min_ps")?,
        p50_ps: u64_field(v, "p50_ps")?,
        p99_ps: u64_field(v, "p99_ps")?,
        p999_ps: p999,
        max_ps: u64_field(v, "max_ps")?,
        seed_spread_ps: u64_field(v, "seed_spread_ps")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn fake_outcome(i: usize) -> RunOutcome {
        RunOutcome {
            digest: 0x1000 + i as u64,
            events: 10 * (i as u64 + 1),
            samples_ps: (0..1_200u64).map(|k| (i as u64 + 1) * 1_000 + k).collect(),
            metrics: vec![("orders_sent".into(), i as f64)],
        }
    }

    fn two_seed_report() -> LabReport {
        let mut spec = SweepSpec::smoke();
        spec.seeds = vec![42, 43];
        let manifest = spec.expand().unwrap();
        let outcomes: Vec<RunOutcome> = (0..manifest.len()).map(fake_outcome).collect();
        LabReport::build(&spec.name, &spec.base, &manifest, &outcomes)
    }

    #[test]
    fn cells_pool_across_seeds() {
        let report = two_seed_report();
        assert_eq!(report.runs.len(), 36);
        assert_eq!(report.cells.len(), 18, "two seeds collapse into cells");
        let cell = &report.cells[0];
        assert_eq!(cell.runs, vec![0, 1]);
        assert_eq!(cell.seeds, vec![42, 43]);
        assert_eq!(cell.count, 2_400, "pooled across both replicates");
        // Per-run medians are 1000+599 and 2000+599 → spread 1000.
        assert_eq!(cell.seed_spread_ps, 1_000);
        assert!(cell.p999_ps.is_some(), "pooled tail has >= 1000 samples");
        assert!(cell.min_ps < cell.p50_ps && cell.p50_ps < cell.max_ps);
        // The run record carries the run's own median, not the pooled one.
        assert_eq!(report.runs[0].p50_ps, 1_599);
    }

    #[test]
    fn report_round_trips_byte_exactly() {
        let report = two_seed_report();
        let j = report.to_json();
        assert!(j.starts_with("{\"schema\":\"tn-lab/v1\""), "{j}");
        assert!(j.ends_with('\n'));
        assert!(!j.contains("thread"), "report must not encode thread count");
        let back = LabReport::parse(&j).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), j, "emit→parse→emit must be byte-stable");
    }

    #[test]
    fn p999_null_round_trips() {
        let spec = SweepSpec::smoke();
        let manifest = spec.expand().unwrap();
        let outcomes: Vec<RunOutcome> = manifest
            .iter()
            .map(|_| RunOutcome {
                digest: 1,
                events: 1,
                samples_ps: vec![5; 10], // too few for p999
                metrics: vec![],
            })
            .collect();
        let report = LabReport::build("smoke", "small", &manifest, &outcomes);
        assert!(report.cells[0].p999_ps.is_none());
        let back = LabReport::parse(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        assert!(LabReport::parse("{\"schema\":\"tn-report/v1\"}").is_err());
    }

    #[test]
    fn table_lists_every_cell() {
        let report = two_seed_report();
        let t = report.table();
        assert!(t.contains("18 cells"), "{t}");
        assert!(t.lines().count() >= 20, "{t}");
        assert!(t.contains("traditional duration_us=8000"), "{t}");
    }
}
