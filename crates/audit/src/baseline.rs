//! Baseline gating: validate and diff `tn-audit/v1` reports.
//!
//! CI commits a known-good report (`AUDIT_BASELINE.json`) and fails when
//! a *new* finding appears — including suppressed ones, so suppression
//! creep is caught in review even though `audit:allow` keeps the exit
//! code green. Documents are parsed with the workspace's one JSON tree,
//! [`tn_sim::json`].

use tn_sim::json::Json;

use crate::lints::Finding;

/// Validate that `doc` is a well-formed `tn-audit/v1` report: schema
/// marker, finding fields with the right types, and self-consistent
/// counts. Returns a description of the first violation.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("tn-audit/v1") {
        return Err("missing or wrong `schema` marker (want \"tn-audit/v1\")".into());
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("`findings` must be an array")?;
    let known: Vec<&str> = crate::lints::LINTS.iter().map(|l| l.id).collect();
    let mut suppressed = 0usize;
    for (i, f) in findings.iter().enumerate() {
        let ctx = |field: &str| format!("finding {i}: bad `{field}`");
        let lint = f
            .get("lint")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("lint"))?;
        if !known.contains(&lint) {
            return Err(format!("finding {i}: unknown lint id `{lint}`"));
        }
        let sev = f
            .get("severity")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("severity"))?;
        if sev != "error" && sev != "warning" {
            return Err(format!("finding {i}: bad severity `{sev}`"));
        }
        f.get("file")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("file"))?;
        f.get("line")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("line"))?;
        f.get("column")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("column"))?;
        f.get("message")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("message"))?;
        if let Some(note) = f.get("note") {
            note.as_str().ok_or_else(|| ctx("note"))?;
        }
        if f.get("suppressed")
            .and_then(Json::as_bool)
            .ok_or_else(|| ctx("suppressed"))?
        {
            suppressed += 1;
        }
    }
    let counts = doc.get("counts").ok_or("missing `counts`")?;
    let n = |k: &str| {
        counts
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("counts: bad `{k}`"))
    };
    let (total, sup, active) = (n("total")?, n("suppressed")?, n("active")?);
    if total as usize != findings.len() || sup as usize != suppressed || total != sup + active {
        return Err(format!(
            "counts are inconsistent with findings (total {total}, suppressed {sup}, \
             active {active}, findings {})",
            findings.len()
        ));
    }
    Ok(())
}

/// The outcome of diffing findings against a committed baseline.
#[derive(Debug)]
pub struct BaselineDiff {
    /// Findings (as `lint @ file:line` keys) absent from the baseline.
    pub new: Vec<String>,
    /// Baseline entries no longer present (progress; never fails).
    pub resolved: usize,
    /// Entries in the baseline.
    pub baseline_total: usize,
}

fn key(lint: &str, file: &str, line: u64) -> String {
    format!("{lint} @ {file}:{line}")
}

/// Keys of every finding in a parsed `tn-audit/v1` document.
fn doc_keys(doc: &Json) -> Result<Vec<String>, String> {
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("`findings` must be an array")?;
    findings
        .iter()
        .map(|f| {
            Ok(key(
                f.get("lint").and_then(Json::as_str).ok_or("bad lint")?,
                f.get("file").and_then(Json::as_str).ok_or("bad file")?,
                f.get("line").and_then(Json::as_u64).ok_or("bad line")?,
            ))
        })
        .collect()
}

/// Diff live findings against a parsed baseline document. A finding is
/// "new" when its `(lint, file, line)` key is not in the baseline.
pub fn diff_against_baseline(
    findings: &[Finding],
    baseline: &Json,
) -> Result<BaselineDiff, String> {
    let base = doc_keys(baseline)?;
    let live: Vec<String> = findings
        .iter()
        .map(|f| key(f.lint, &f.file, f.line as u64))
        .collect();
    let new: Vec<String> = live.iter().filter(|k| !base.contains(k)).cloned().collect();
    let resolved = base.iter().filter(|k| !live.contains(k)).count();
    Ok(BaselineDiff {
        new,
        resolved,
        baseline_total: base.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{Finding, Severity};
    use crate::report::render_json;
    use tn_sim::json::parse;

    fn finding(lint: &'static str, file: &str, line: usize) -> Finding {
        Finding {
            lint,
            severity: Severity::Error,
            file: file.into(),
            line,
            column: 1,
            message: "m".into(),
            snippet: "s".into(),
            note: Some("n".into()),
            suppressed: false,
        }
    }

    #[test]
    fn parse_roundtrips_own_report() {
        let fs = vec![finding("det-wallclock", "a.rs", 3)];
        let doc = parse(&render_json(&fs)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("tn-audit/v1")
        );
        validate_report(&doc).unwrap();
    }

    #[test]
    fn validation_rejects_drift() {
        let doc = parse("{\"schema\":\"tn-audit/v2\",\"findings\":[],\"counts\":{\"total\":0,\"suppressed\":0,\"active\":0}}").unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("schema"));
        let doc = parse("{\"schema\":\"tn-audit/v1\",\"findings\":[],\"counts\":{\"total\":3,\"suppressed\":0,\"active\":3}}").unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("inconsistent"));
        let doc = parse(
            "{\"schema\":\"tn-audit/v1\",\"findings\":[{\"lint\":\"made-up\",\"severity\":\"error\",\
             \"file\":\"a\",\"line\":1,\"column\":1,\"message\":\"m\",\"suppressed\":false}],\
             \"counts\":{\"total\":1,\"suppressed\":0,\"active\":1}}",
        )
        .unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("unknown lint"));
    }

    #[test]
    fn baseline_diff_finds_new_and_resolved() {
        let baseline_doc = parse(&render_json(&[
            finding("det-wallclock", "a.rs", 3),
            finding("hotpath-alloc", "b.rs", 9),
        ]))
        .unwrap();
        let live = vec![
            finding("det-wallclock", "a.rs", 3),
            finding("det-unseeded-rng", "c.rs", 1),
        ];
        let d = diff_against_baseline(&live, &baseline_doc).unwrap();
        assert_eq!(d.new, vec!["det-unseeded-rng @ c.rs:1"]);
        assert_eq!(d.resolved, 1);
        assert_eq!(d.baseline_total, 2);
    }
}
