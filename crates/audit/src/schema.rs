//! The wire-format schema registry.
//!
//! Every JSON/JSONL artifact the workspace emits self-identifies with a
//! `tn-<family>/v<N>` marker string. This module is the single source of
//! truth for which markers exist; the `schema-version` lint flags any
//! string literal that *looks* like a marker (`tn-…/v<digits>`) but is
//! not registered — catching both typos (`tn-trce/v1`) and silent
//! version bumps that skip the registry.

/// Every wire-format version string the workspace may emit or parse.
/// Keep sorted; adding a format or bumping a version starts here.
pub const SCHEMA_REGISTRY: &[&str] = &[
    "tn-audit/v1",
    "tn-exp/v1",
    "tn-flight/v1",
    "tn-lab-spec/v1",
    "tn-lab/v1",
    "tn-report/v1",
    "tn-trace/v1",
];

/// Is `marker` a registered wire-format version?
pub fn is_registered(marker: &str) -> bool {
    SCHEMA_REGISTRY.contains(&marker)
}

/// Scan one string-literal's text (delimiters included) for version-
/// marker-shaped substrings: `tn-<kebab>/v<digits>`. Returns each marker
/// with its char offset inside `lit`.
pub fn find_markers(lit: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = lit.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let tail_ch = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
    while i + 1 < chars.len() {
        // Candidate start: `tn-` at a non-word boundary.
        let boundary = i == 0 || !tail_ch(chars[i - 1]);
        if !(boundary
            && chars[i] == 't'
            && chars.get(i + 1) == Some(&'n')
            && chars.get(i + 2) == Some(&'-'))
        {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        while j < chars.len() && tail_ch(chars[j]) {
            j += 1;
        }
        // Family must be non-empty and followed by `/v<digits>`.
        if j > i + 3 && chars.get(j) == Some(&'/') && chars.get(j + 1) == Some(&'v') {
            let mut k = j + 2;
            while k < chars.len() && chars[k].is_ascii_digit() {
                k += 1;
            }
            if k > j + 2 {
                out.push((i, chars[i..k].iter().collect()));
                i = k;
                continue;
            }
        }
        i = j.max(i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_registered() {
        let mut sorted = SCHEMA_REGISTRY.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, SCHEMA_REGISTRY);
        assert!(is_registered("tn-trace/v1"));
        assert!(!is_registered("tn-trace/v2"));
    }

    #[test]
    fn markers_are_found_in_literals() {
        let hits = find_markers("\"schema\":\"tn-lab/v1\"");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "tn-lab/v1");
        assert_eq!(find_markers("\"plain text\""), Vec::new());
    }

    #[test]
    fn boundary_prevents_partial_matches() {
        // `btn-lab/v1` is not a marker; `tn-lab/v12` is (version 12).
        assert!(find_markers("\"btn-lab/v1\"").is_empty());
        let hits = find_markers("\"tn-lab/v12\"");
        assert_eq!(hits[0].1, "tn-lab/v12");
    }

    #[test]
    fn multiple_markers_in_one_literal() {
        let hits = find_markers("\"tn-trace/v1 then tn-bogus/v9\"");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[1].1, "tn-bogus/v9");
    }
}
