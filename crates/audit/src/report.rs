//! Rendering: rustc-style terminal output and a stable JSON document.
//!
//! The JSON document self-identifies via the registered `tn-audit/v1`
//! schema marker and is covered by tests — downstream tooling may rely
//! on it:
//!
//! ```json
//! {
//!   "schema": "tn-audit/v1",
//!   "findings": [
//!     {"lint": "...", "severity": "error|warning", "file": "...",
//!      "line": 1, "column": 1, "message": "...",
//!      "note": "call chain (present when taint-gated)",
//!      "suppressed": false}
//!   ],
//!   "counts": {"total": 0, "suppressed": 0, "active": 0}
//! }
//! ```

use std::fmt;

use tn_sim::json::{num_u64, Json};

use crate::lints::{Finding, LintInfo};

/// Aggregate counts over a finding set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// All findings, suppressed or not.
    pub total: usize,
    /// Findings waived by `audit:allow`.
    pub suppressed: usize,
    /// Findings that fail the audit.
    pub active: usize,
}

/// Count findings.
pub fn counts(findings: &[Finding]) -> Counts {
    let suppressed = findings.iter().filter(|f| f.suppressed).count();
    Counts {
        total: findings.len(),
        suppressed,
        active: findings.len() - suppressed,
    }
}

/// One lint's `audit:allow` suppressions against its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Lint id.
    pub lint: &'static str,
    /// Suppressed findings of this lint.
    pub suppressed: usize,
    /// The count [`LintInfo::budget`] allows.
    pub budget: usize,
}

impl Budget {
    /// Exactly on budget: neither creep nor an unclaimed fix.
    pub fn holds(&self) -> bool {
        self.suppressed == self.budget
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lint, n, budget) = (self.lint, self.suppressed, self.budget);
        write!(f, "budget {lint}: {n} suppressed, budget {budget}")?;
        if n > budget {
            write!(
                f,
                " — over budget: fix the new finding instead of waiving it"
            )?;
        } else if n < budget {
            write!(
                f,
                " — under budget: lower it to {n} in crates/audit/src/lints.rs"
            )?;
        }
        Ok(())
    }
}

/// Compare each lint's suppressed-finding count with its budget, in
/// table order.
pub fn budgets(findings: &[Finding], lints: &[LintInfo]) -> Vec<Budget> {
    lints
        .iter()
        .map(|l| Budget {
            lint: l.id,
            suppressed: findings
                .iter()
                .filter(|f| f.suppressed && f.lint == l.id)
                .count(),
            budget: l.budget,
        })
        .collect()
}

/// Sort findings into report order: file, then line, column, lint id.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.column, a.lint).cmp(&(
            b.file.as_str(),
            b.line,
            b.column,
            b.lint,
        ))
    });
}

/// Render findings the way rustc renders diagnostics. Taint-gated
/// findings cite their call chain in a `= note:` line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let sup = if f.suppressed { " (suppressed)" } else { "" };
        out.push_str(&format!(
            "{}[{}]{}: {}\n",
            f.severity.name(),
            f.lint,
            sup,
            f.message
        ));
        let gutter = digits(f.line);
        out.push_str(&format!(
            "{:>gutter$}--> {}:{}:{}\n",
            "", f.file, f.line, f.column
        ));
        out.push_str(&format!("{:>gutter$} |\n", ""));
        out.push_str(&format!("{} | {}\n", f.line, f.snippet));
        out.push_str(&format!(
            "{:>gutter$} | {:>col$}\n",
            "",
            "^",
            col = f.column
        ));
        if let Some(note) = &f.note {
            out.push_str(&format!("{:>gutter$} = note: {}\n", "", note));
        }
        out.push('\n');
    }
    let c = counts(findings);
    out.push_str(&format!(
        "audit: {} finding(s), {} suppressed, {} active\n",
        c.total, c.suppressed, c.active
    ));
    out
}

fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d + 1 // one space of padding, matching rustc's gutter
}

/// Render the versioned JSON document (schema above), newline-terminated.
pub fn render_json(findings: &[Finding]) -> String {
    let text = |s: &str| Json::Str(s.into());
    let count = |n: usize| num_u64(n as u64);
    let findings_json = findings.iter().map(|f| {
        let mut members = vec![
            ("lint", text(f.lint)),
            ("severity", text(f.severity.name())),
            ("file", text(&f.file)),
            ("line", count(f.line)),
            ("column", count(f.column)),
            ("message", text(&f.message)),
        ];
        if let Some(note) = &f.note {
            members.push(("note", text(note)));
        }
        members.push(("suppressed", Json::Bool(f.suppressed)));
        Json::obj(members)
    });
    let c = counts(findings);
    let mut out = Json::obj([
        ("schema", text("tn-audit/v1")),
        ("findings", Json::Arr(findings_json.collect())),
        (
            "counts",
            Json::obj([
                ("total", count(c.total)),
                ("suppressed", count(c.suppressed)),
                ("active", count(c.active)),
            ]),
        ),
    ])
    .render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{Finding, Severity};

    fn finding(suppressed: bool) -> Finding {
        Finding {
            lint: "det-wallclock",
            severity: Severity::Error,
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            column: 13,
            message: "`Instant` reads the wall clock".into(),
            snippet: "    let t = Instant::now();".into(),
            note: None,
            suppressed,
        }
    }

    #[test]
    fn text_report_shape() {
        let out = render_text(&[finding(false)]);
        assert!(out.contains("error[det-wallclock]:"), "{out}");
        assert!(out.contains("--> crates/x/src/lib.rs:7:13"), "{out}");
        assert!(out.contains("7 |     let t = Instant::now();"), "{out}");
        assert!(
            out.contains("1 finding(s), 0 suppressed, 1 active"),
            "{out}"
        );
    }

    #[test]
    fn text_report_cites_the_chain() {
        let mut f = finding(false);
        f.note = Some("feeds the simulator schedule: build -> Simulator::inject_frame".into());
        let out = render_text(&[f]);
        assert!(
            out.contains("= note: feeds the simulator schedule: build -> Simulator::inject_frame"),
            "{out}"
        );
    }

    #[test]
    fn json_is_stable() {
        let out = render_json(&[finding(true)]);
        assert_eq!(
            out,
            "{\"schema\":\"tn-audit/v1\",\"findings\":[{\"lint\":\"det-wallclock\",\"severity\":\"error\",\
             \"file\":\"crates/x/src/lib.rs\",\"line\":7,\"column\":13,\
             \"message\":\"`Instant` reads the wall clock\",\"suppressed\":true}],\
             \"counts\":{\"total\":1,\"suppressed\":1,\"active\":0}}\n"
        );
    }

    #[test]
    fn json_includes_note_when_present() {
        let mut f = finding(false);
        f.note = Some("hot root Node::on_frame".into());
        let out = render_json(&[f]);
        assert!(out.starts_with("{\"schema\":\"tn-audit/v1\","), "{out}");
        assert!(
            out.contains("\"note\":\"hot root Node::on_frame\",\"suppressed\":false"),
            "{out}"
        );
    }

    #[test]
    fn budgets_fail_over_and_under_and_name_the_lint() {
        let lint = |id, budget| LintInfo {
            id,
            severity: Severity::Error,
            summary: "",
            budget,
        };
        let table = [
            lint("det-wallclock", 0),
            lint("hotpath-alloc", 2),
            lint("hotpath-unwrap", 1),
        ];
        let suppressed = |id| Finding {
            lint: id,
            suppressed: true,
            ..finding(true)
        };
        let findings = [
            suppressed("det-wallclock"),
            suppressed("hotpath-alloc"),
            suppressed("hotpath-unwrap"),
            finding(false), // active findings do not count against a budget
        ];
        let got = budgets(&findings, &table);
        assert_eq!(
            got.iter()
                .map(|b| (b.suppressed, b.holds()))
                .collect::<Vec<_>>(),
            [(1, false), (1, false), (1, true)]
        );
        let lines: Vec<String> = got.iter().map(ToString::to_string).collect();
        assert_eq!(
            lines[0],
            "budget det-wallclock: 1 suppressed, budget 0 — over budget: \
             fix the new finding instead of waiving it"
        );
        assert!(lines[1].contains("hotpath-alloc") && lines[1].contains("under budget"));
        assert_eq!(lines[2], "budget hotpath-unwrap: 1 suppressed, budget 1");
    }

    #[test]
    fn sort_orders_by_location() {
        let mut v = vec![finding(false), finding(false)];
        v[0].line = 9;
        sort(&mut v);
        assert_eq!(v[0].line, 7);
    }
}
