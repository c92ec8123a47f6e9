//! A lightweight Rust item parser: `fn` / `impl` / `trait` / `struct` /
//! `use` structure recovered from the blanked per-line token view.
//!
//! This is not a grammar-complete parser — it is the minimum structural
//! pass the call-graph needs: every function definition with its
//! enclosing impl/trait context and body span, the call sites inside
//! each body, and the file's `use` imports (so calls to `std`-imported
//! free functions are not mis-resolved onto workspace items). For the
//! `dead` lint's field pass it also records every named struct field and
//! which field names the file reads, writes or mentions
//! ([`FieldUses`]). It is token-level and total: code it cannot make
//! sense of is skipped, never an error.

use crate::source::{tokenize, SourceFile, Tok};
use std::collections::BTreeSet;

/// One token of the dense (whitespace-free) stream, with its location.
#[derive(Debug, Clone)]
pub struct DTok {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// The token.
    pub tok: Tok,
}

/// Flatten a file's blanked code view into one dense token stream.
pub fn dense_tokens(sf: &SourceFile) -> Vec<DTok> {
    let mut out = Vec::new();
    for (idx, line) in sf.lines.iter().enumerate() {
        for (col, tok) in tokenize(&line.code) {
            out.push(DTok {
                line: idx + 1,
                col,
                tok,
            });
        }
    }
    out
}

/// A call site inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// `name(...)` — a free (unqualified, receiver-less) call.
    Free(String),
    /// `.name(...)` — a method call; `on_self` when spelled `self.name(`.
    Method {
        /// Method name.
        name: String,
        /// Whether the receiver is literally `self`.
        on_self: bool,
    },
    /// `Qualifier::name(...)` — `Qualifier` is the last path segment
    /// before the final `::` (a type, module, or `Self`).
    Qual {
        /// Last path segment before the call name.
        qualifier: String,
        /// Called function name.
        name: String,
    },
}

/// One parsed function definition (or trait-method declaration).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, if any.
    pub self_ty: Option<String>,
    /// Trait implemented by the enclosing `impl TRAIT for ..` block, or
    /// the trait's own name for methods declared inside `trait .. { }`.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Dense-token index range of the body (the `{..}` inclusive), or
    /// `None` for a bodiless trait-method declaration.
    pub body: Option<(usize, usize)>,
    /// 1-based source line span `(signature line, body close line)`;
    /// `None` for bodiless declarations.
    pub lines: Option<(usize, usize)>,
    /// Whether the definition sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Whether it is declared plain `pub` (`pub(crate)` and the like
    /// are not: rustc's own dead-code lint already covers them).
    pub is_pub: bool,
    /// Call sites inside the body (nested fn bodies excluded).
    pub calls: Vec<Call>,
}

impl FnDef {
    /// Display name: `Type::name` for methods, bare `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One named field of a `struct` definition.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// The struct that declares it.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: usize,
    /// 1-based column of the field name.
    pub col: usize,
    /// Whether the struct sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// The field names one file uses, by name only (the parser has no types).
#[derive(Debug, Default)]
pub struct FieldUses {
    /// Read outside the file's `#[cfg(test)]` regions: `.name` that is
    /// not a write (an assignment `=`, `+=`, `-=`, or the receiver of
    /// `push`, `insert`, `extend`, `push_back` or `clear`), or a field
    /// named in a `{ name, .. }` pattern.
    pub reads: BTreeSet<String>,
    /// Every field-shaped mention, reads and writes alike: `.name`,
    /// `name: ..` and the shorthand `{ name }`, struct literals included.
    pub mentions: BTreeSet<String>,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function definition, outermost first.
    pub fns: Vec<FnDef>,
    /// Every named struct field, in source order.
    pub fields: Vec<FieldDef>,
    /// The field names this file reads, writes and mentions.
    pub field_uses: FieldUses,
    /// Names imported from `std`/`core`/`alloc` via `use` (leaf segments):
    /// free calls to these must not resolve onto workspace items.
    pub std_imports: Vec<String>,
}

/// Parse one file's item structure: one structural pass to find every
/// `fn` with its impl/trait context and body span, then a call-extraction
/// pass per body that masks out sub-spans owned by nested `fn` items.
pub fn parse_file(sf: &SourceFile) -> ParsedFile {
    let toks = dense_tokens(sf);
    let mut out = ParsedFile::default();
    parse_items(sf, &toks, 0, toks.len(), None, None, &mut out);
    let spans: Vec<(usize, usize)> = out.fns.iter().filter_map(|f| f.body).collect();
    for f in &mut out.fns {
        if let Some((b0, b1)) = f.body {
            let nested: Vec<(usize, usize)> = spans
                .iter()
                .copied()
                .filter(|&(s, e)| s > b0 && e <= b1)
                .collect();
            f.calls = collect_calls(&toks, b0, b1, &nested);
        }
    }
    out.field_uses = field_uses(sf, &toks);
    out
}

fn ident_at(toks: &[DTok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

fn is_punct(toks: &[DTok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is(c))
}

/// Skip a balanced `<...>` starting at `i` (which must be `<`); returns
/// the index just past the matching `>`.
fn skip_angles(toks: &[DTok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if is_punct(toks, i, '<') {
            depth += 1;
        } else if is_punct(toks, i, '>') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if is_punct(toks, i, '(') {
            // `Fn(..)` bounds: parens inside generics are balanced too.
            i = skip_parens(toks, i);
            continue;
        } else if is_punct(toks, i, ';') || is_punct(toks, i, '{') {
            return i; // malformed; bail before the item body
        }
        i += 1;
    }
    i
}

/// Skip a balanced `(...)` starting at `i` (which must be `(`).
fn skip_parens(toks: &[DTok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if is_punct(toks, i, '(') {
            depth += 1;
        } else if is_punct(toks, i, ')') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Read a type path at `i`: `a::b::C<..>` — returns (last segment, index
/// past the path including any trailing generic args).
fn read_path(toks: &[DTok], mut i: usize) -> (Option<String>, usize) {
    // Leading `&`, `mut`, `dyn` are not part of the name.
    while is_punct(toks, i, '&')
        || matches!(ident_at(toks, i), Some("mut") | Some("dyn"))
        || toks
            .get(i)
            .is_some_and(|t| matches!(t.tok, Tok::Punct('\'')))
    {
        i += 1;
    }
    let mut last: Option<String> = None;
    while let Some(seg) = ident_at(toks, i) {
        last = Some(seg.to_string());
        i += 1;
        if is_punct(toks, i, '<') {
            i = skip_angles(toks, i);
        }
        if is_punct(toks, i, ':') && is_punct(toks, i + 1, ':') {
            i += 2;
        } else {
            break;
        }
    }
    (last, i)
}

/// Whether the `fn` keyword at `i` is declared plain `pub`, looking back
/// past `const`, `unsafe`, `async` and `extern "abi"`.
fn is_pub_fn(toks: &[DTok], mut i: usize) -> bool {
    while i > 0 {
        i -= 1;
        match &toks[i].tok {
            Tok::Ident(s) if matches!(s.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            Tok::Punct('"') => {}
            Tok::Ident(s) => return s == "pub",
            Tok::Punct(_) => return false,
        }
    }
    false
}

/// Find the matching `}` for the `{` at `open`; returns its index.
fn match_brace(toks: &[DTok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks, i, '{') {
            depth += 1;
        } else if is_punct(toks, i, '}') {
            depth -= 1;
            if depth <= 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

#[allow(clippy::too_many_arguments)]
fn parse_items(
    sf: &SourceFile,
    toks: &[DTok],
    mut i: usize,
    end: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
    out: &mut ParsedFile,
) {
    while i < end {
        match ident_at(toks, i) {
            Some("fn") => {
                // `fn(` is a function-pointer type, not an item.
                let Some(name) = ident_at(toks, i + 1) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let sig_line = toks[i].line;
                let mut j = i + 2;
                if is_punct(toks, j, '<') {
                    j = skip_angles(toks, j);
                }
                // Scan for the body `{` or a declaration-ending `;` at
                // bracket depth 0 ( `[u8; 4]` keeps its `;` nested).
                let mut depth = 0i32;
                let body_open = loop {
                    if j >= end {
                        break None;
                    }
                    if is_punct(toks, j, '(') || is_punct(toks, j, '[') {
                        depth += 1;
                    } else if is_punct(toks, j, ')') || is_punct(toks, j, ']') {
                        depth -= 1;
                    } else if depth == 0 && is_punct(toks, j, '{') {
                        break Some(j);
                    } else if depth == 0 && is_punct(toks, j, ';') {
                        break None;
                    }
                    j += 1;
                };
                let body = body_open.map(|open| (open, match_brace(toks, open).min(end - 1)));
                let is_test = sf
                    .lines
                    .get(sig_line - 1)
                    .map(|l| l.in_test)
                    .unwrap_or(false);
                out.fns.push(FnDef {
                    name,
                    self_ty: self_ty.map(str::to_string),
                    trait_name: trait_name.map(str::to_string),
                    line: sig_line,
                    body,
                    lines: body.map(|(_, close)| (sig_line, toks[close].line)),
                    is_test,
                    is_pub: is_pub_fn(toks, i),
                    calls: Vec::new(),
                });
                if let Some((open, close)) = body {
                    // Nested fns (and local impls) inside the body.
                    parse_items(sf, toks, open + 1, close, None, None, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            Some("impl") => {
                let mut j = i + 1;
                if is_punct(toks, j, '<') {
                    j = skip_angles(toks, j);
                }
                let (first, after) = read_path(toks, j);
                let (t_name, s_ty, mut k) = if ident_at(toks, after) == Some("for") {
                    let (second, after2) = read_path(toks, after + 1);
                    (first, second, after2)
                } else {
                    (None, first, after)
                };
                // Skip any `where` clause up to the block.
                while k < end && !is_punct(toks, k, '{') && !is_punct(toks, k, ';') {
                    k += 1;
                }
                if is_punct(toks, k, '{') {
                    let close = match_brace(toks, k).min(end - 1);
                    parse_items(
                        sf,
                        toks,
                        k + 1,
                        close,
                        s_ty.as_deref(),
                        t_name.as_deref(),
                        out,
                    );
                    i = close + 1;
                } else {
                    i = k + 1;
                }
            }
            Some("trait") => {
                let name = ident_at(toks, i + 1).map(str::to_string);
                let mut k = i + 2;
                while k < end && !is_punct(toks, k, '{') && !is_punct(toks, k, ';') {
                    k += 1;
                }
                if is_punct(toks, k, '{') {
                    let close = match_brace(toks, k).min(end - 1);
                    parse_items(
                        sf,
                        toks,
                        k + 1,
                        close,
                        name.as_deref(),
                        name.as_deref(),
                        out,
                    );
                    i = close + 1;
                } else {
                    i = k + 1;
                }
            }
            Some("struct") => {
                // Named fields: an identifier before a lone `:` outside
                // any bracket (`->` closes no angle). A tuple or unit
                // struct reaches its `;` first.
                let Some(owner) = ident_at(toks, i + 1).map(str::to_string) else {
                    i += 1;
                    continue;
                };
                let mut k = i + 2;
                while k < end && !is_punct(toks, k, '{') && !is_punct(toks, k, ';') {
                    k += 1;
                }
                if !is_punct(toks, k, '{') {
                    i = k + 1;
                    continue;
                }
                let close = match_brace(toks, k).min(end - 1);
                let mut depth = 0i32;
                for (j, t) in toks.iter().enumerate().take(close).skip(k + 1) {
                    match &t.tok {
                        Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
                        Tok::Punct('>') if !is_punct(toks, j - 1, '-') => depth -= 1,
                        Tok::Punct(')' | ']' | '}') => depth -= 1,
                        Tok::Ident(name) if depth == 0 && is_lone_colon(toks, j + 1) => {
                            out.fields.push(FieldDef {
                                owner: owner.clone(),
                                name: name.clone(),
                                line: t.line,
                                col: t.col,
                                is_test: sf.lines.get(t.line - 1).is_some_and(|l| l.in_test),
                            });
                        }
                        _ => {}
                    }
                }
                i = close + 1;
            }
            Some("use") => {
                // Collect leaf names of std/core/alloc imports; groups
                // (`use std::mem::{take, swap}`) contribute every leaf.
                let root_is_std = matches!(
                    ident_at(toks, i + 1),
                    Some("std") | Some("core") | Some("alloc")
                );
                let mut j = i + 1;
                let mut prev: Option<String> = None;
                while j < end && !is_punct(toks, j, ';') {
                    if let Some(id) = ident_at(toks, j) {
                        prev = Some(id.to_string());
                    } else if (is_punct(toks, j, ',') || is_punct(toks, j, '}')) && root_is_std {
                        if let Some(p) = prev.take() {
                            out.std_imports.push(p);
                        }
                    }
                    j += 1;
                }
                if root_is_std {
                    if let Some(p) = prev.take() {
                        out.std_imports.push(p);
                    }
                }
                i = j + 1;
            }
            _ => i += 1,
        }
    }
}

/// A `:` at `i` that is not half of a `::`.
fn is_lone_colon(toks: &[DTok], i: usize) -> bool {
    is_punct(toks, i, ':') && !is_punct(toks, i + 1, ':') && !is_punct(toks, i.wrapping_sub(1), ':')
}

/// Methods whose receiver field they only fill or empty: `.f.push(x)`
/// writes `f`, it does not read it.
const WRITE_METHODS: &[&str] = &["push", "insert", "extend", "push_back", "clear"];

/// Which field names a file reads and mentions, by name.
///
/// `.name` (not a method call `.name(` nor a range `..name`) is a write
/// when it is assigned (`=`, `+=`, `-=`) or is the receiver of one of
/// [`WRITE_METHODS`], and a read otherwise: a method call on it, a
/// comparison, an operand, a guard before `=>`. A name directly inside
/// braces, between `{` or `,` and `,`, `}` or `:`, is a field of a struct
/// literal or, when [`is_pattern`] says so, a read of a destructuring
/// pattern. Every such shape is a mention.
fn field_uses(sf: &SourceFile, toks: &[DTok]) -> FieldUses {
    let mut uses = FieldUses::default();
    let p = |k: usize, c: char| is_punct(toks, k, c);
    // Open brackets, innermost last: `Some(pattern)` for a brace group,
    // `None` for parentheses and brackets, so `f(a, b)` names no field.
    let mut open: Vec<Option<bool>> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let name = match &t.tok {
            Tok::Ident(name) => name,
            Tok::Punct('{') => {
                open.push(Some(is_pattern(toks, i)));
                continue;
            }
            Tok::Punct('(' | '[') => {
                open.push(None);
                continue;
            }
            Tok::Punct(')' | ']' | '}') => {
                open.pop();
                continue;
            }
            Tok::Punct(_) => continue,
        };
        let read = if p(i.wrapping_sub(1), '.') && !p(i.wrapping_sub(2), '.') {
            if p(i + 1, '(') || (p(i + 1, ':') && p(i + 2, ':')) {
                continue;
            }
            let assigned = (p(i + 1, '=') && !p(i + 2, '=') && !p(i + 2, '>'))
                || ((p(i + 1, '+') || p(i + 1, '-')) && p(i + 2, '='));
            let filled = p(i + 1, '.')
                && ident_at(toks, i + 2).is_some_and(|m| WRITE_METHODS.contains(&m))
                && p(i + 3, '(');
            !(assigned || filled)
        } else {
            let Some(&Some(pattern)) = open.last() else {
                continue;
            };
            let mut b = i.wrapping_sub(1);
            while matches!(ident_at(toks, b), Some("ref" | "mut")) {
                b = b.wrapping_sub(1);
            }
            let ends = p(i + 1, ',') || p(i + 1, '}') || is_lone_colon(toks, i + 1);
            if !((p(b, '{') || p(b, ',')) && ends) {
                continue;
            }
            pattern
        };
        uses.mentions.insert(name.clone());
        if read && !sf.lines.get(t.line - 1).is_some_and(|l| l.in_test) {
            uses.reads.insert(name.clone());
        }
    }
    uses
}

/// Whether the `{` at `open` starts a destructuring pattern: it follows
/// a path, and its group ends in `.. }` or is followed by `=`, `=>`,
/// `in`, `|` or a lone `:`.
fn is_pattern(toks: &[DTok], open: usize) -> bool {
    let p = |k: usize, c: char| is_punct(toks, k, c);
    let before = open.wrapping_sub(1);
    if ident_at(toks, before).is_none() && !p(before, '>') {
        return false;
    }
    let close = match_brace(toks, open);
    (p(close - 1, '.') && p(close.wrapping_sub(2), '.'))
        || (p(close + 1, '=') && !p(close + 2, '='))
        || ident_at(toks, close + 1) == Some("in")
        || p(close + 1, '|')
        || is_lone_colon(toks, close + 1)
}

/// Rust keywords that look like call syntax (`if (..)`, `while (..)`).
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "in", "as", "move", "ref", "let",
    "mut", "box", "await", "break", "continue", "unsafe", "where", "pub",
];

/// Extract call sites from a body token range, skipping sub-ranges that
/// belong to nested `fn` items (those calls belong to the nested fn).
pub fn collect_calls(toks: &[DTok], b0: usize, b1: usize, nested: &[(usize, usize)]) -> Vec<Call> {
    let mut out = Vec::new();
    let mut i = b0;
    while i <= b1 && i < toks.len() {
        if let Some(&(_, nend)) = nested.iter().find(|(ns, _)| *ns == i) {
            i = nend + 1;
            continue;
        }
        let Some(name) = ident_at(toks, i) else {
            i += 1;
            continue;
        };
        // A call is `ident (` or `ident::<..>(` — with `ident !` (macros)
        // excluded. A path `Q::ident` that is not called is a reference
        // (`.and_then(Json::as_arr)`), and a reference counts as a call.
        let prev_is = |c: char| i > b0 && is_punct(toks, i - 1, c);
        let path = prev_is(':') && i >= 2 && is_punct(toks, i - 2, ':');
        let turbofish =
            is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') && is_punct(toks, i + 3, '<');
        let after = if turbofish {
            skip_angles(toks, i + 3)
        } else {
            i + 1
        };
        let called = is_punct(toks, after, '(');
        let referenced = path && !is_punct(toks, after, ':') && !is_punct(toks, after, '!');
        if !(called || referenced) || CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        if prev_is('.') {
            // `recv.name(` — receiver is `self` iff the token before the
            // dot is literally `self` not itself preceded by a dot.
            let on_self = i >= 2
                && ident_at(toks, i - 2) == Some("self")
                && !(i >= 3 && is_punct(toks, i - 3, '.'));
            out.push(Call::Method {
                name: name.to_string(),
                on_self,
            });
        } else if path {
            if let Some(q) = ident_at(toks, i - 3) {
                out.push(Call::Qual {
                    qualifier: q.to_string(),
                    name: name.to_string(),
                });
            }
        } else if ident_at(toks, i.wrapping_sub(1)) != Some("fn") {
            out.push(Call::Free(name.to_string()));
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(text: &str) -> ParsedFile {
        parse_file(&SourceFile::parse("t.rs", text))
    }

    #[test]
    fn fn_in_impl_records_self_ty_and_trait() {
        let p = parse(
            "impl Node for Gateway {\n    fn on_frame(&mut self) { self.route(); }\n}\n\
             impl Gateway {\n    fn route(&mut self) {}\n}\n",
        );
        assert_eq!(p.fns.len(), 2, "{:?}", p.fns);
        let of = &p.fns[0];
        assert_eq!(of.name, "on_frame");
        assert_eq!(of.self_ty.as_deref(), Some("Gateway"));
        assert_eq!(of.trait_name.as_deref(), Some("Node"));
        assert_eq!(
            of.calls,
            vec![Call::Method {
                name: "route".into(),
                on_self: true
            }]
        );
        let r = &p.fns[1];
        assert_eq!(r.trait_name, None);
        assert_eq!(r.self_ty.as_deref(), Some("Gateway"));
    }

    #[test]
    fn generic_impl_headers_parse() {
        let p = parse(
            "impl<L: StrategyLogic + 'static> Node for Strategy<L> {\n    fn on_frame(&mut self) {}\n}\n",
        );
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Strategy"));
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("Node"));
    }

    #[test]
    fn qualified_trait_paths_keep_last_segment() {
        let p = parse("impl tn_sim::Node for Tap {\n    fn on_frame(&mut self) {}\n}\n");
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("Node"));
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Tap"));
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let p = parse("trait Link {\n    fn transmit(&mut self, n: usize) -> u64;\n    fn decompose(&self) -> u64 { 0 }\n}\n");
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("Link"));
    }

    #[test]
    fn array_type_semicolons_do_not_end_the_signature() {
        let p = parse("fn f(x: [u8; 4]) -> u8 { x[0] }\n");
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let p = parse("fn outer() {\n    fn inner() { helper(); }\n    other();\n}\n");
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls, vec![Call::Free("other".into())]);
        assert_eq!(inner.calls, vec![Call::Free("helper".into())]);
    }

    #[test]
    fn call_shapes_are_classified() {
        let p = parse(
            "fn f(sim: &mut Simulator) {\n    sim.inject_frame(1);\n    pitch::decode(2);\n    Self::tick();\n    helper();\n    macro_like!(3);\n    if (x) {}\n}\n",
        );
        let calls = &p.fns[0].calls;
        assert!(calls.contains(&Call::Method {
            name: "inject_frame".into(),
            on_self: false
        }));
        assert!(calls.contains(&Call::Qual {
            qualifier: "pitch".into(),
            name: "decode".into()
        }));
        assert!(calls.contains(&Call::Qual {
            qualifier: "Self".into(),
            name: "tick".into()
        }));
        assert!(calls.contains(&Call::Free("helper".into())));
        assert!(!calls
            .iter()
            .any(|c| matches!(c, Call::Free(n) if n == "macro_like" || n == "if")));
    }

    #[test]
    fn turbofish_calls_and_path_references_count_as_calls() {
        let p = parse("fn f(sim: &mut Simulator) {\n    sim.node_mut::<Tap>(1);\n    v.and_then(Json::as_arr);\n    tn_sim::Simulator::new(1);\n}\n");
        let calls = &p.fns[0].calls;
        assert!(calls.contains(&Call::Method {
            name: "node_mut".into(),
            on_self: false
        }));
        assert!(calls.contains(&Call::Qual {
            qualifier: "Json".into(),
            name: "as_arr".into()
        }));
        // A path prefix is neither a call nor a reference.
        assert!(!calls
            .iter()
            .any(|c| matches!(c, Call::Qual { name, .. } if name == "Simulator")));
    }

    #[test]
    fn std_use_leaves_are_collected() {
        let p = parse("use std::mem::take;\nuse std::collections::{HashMap, HashSet};\nuse tn_sim::Simulator;\nfn f() {}\n");
        assert!(p.std_imports.iter().any(|s| s == "take"));
        assert!(p.std_imports.iter().any(|s| s == "HashMap"));
        assert!(!p.std_imports.iter().any(|s| s == "Simulator"));
    }

    #[test]
    fn only_plain_pub_fns_are_pub() {
        let p = parse(
            "pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\npub const unsafe extern \"C\" fn d() {}\n",
        );
        let public: Vec<&str> = p
            .fns
            .iter()
            .filter(|f| f.is_pub)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(public, ["a", "d"]);
    }

    #[test]
    fn named_struct_fields_are_recorded() {
        let p = parse(
            "pub struct S<T> {\n    #[doc(hidden)]\n    pub(crate) a: Vec<T>,\n    f: Box<dyn Fn(u8) -> u8>,\n    m: FastMap<u32, (u8, i64)>,\n}\nstruct Tuple(u8, u16);\nstruct Unit;\n",
        );
        let fields: Vec<(&str, &str, usize)> = p
            .fields
            .iter()
            .map(|f| (f.owner.as_str(), f.name.as_str(), f.line))
            .collect();
        assert_eq!(fields, [("S", "a", 3), ("S", "f", 4), ("S", "m", 5)]);
    }

    #[test]
    fn field_uses_split_reads_from_writes() {
        let p = parse(
            "fn f(&mut self, w: W) {\n    self.a += 1;\n    self.b.push(2);\n    self.c = 3;\n    \
             let n = self.d.len();\n    if self.e == 0 {}\n    let W { g, h: _, .. } = w;\n    \
             let s = S { i: 1, j };\n    for k in 0..self.l {}\n    self.m.go();\n}\n\
             #[cfg(test)]\nmod t {\n    fn t(x: X) { x.n; }\n}\n",
        );
        let u = &p.field_uses;
        let reads: Vec<&str> = u.reads.iter().map(String::as_str).collect();
        assert_eq!(reads, ["d", "e", "g", "h", "l", "m"]);
        // `x.n` is read only by a unit test: a mention, not a read.
        for name in ["a", "b", "c", "i", "j", "l", "n"] {
            assert!(u.mentions.contains(name), "{name}");
        }
        assert!(!u.mentions.contains("go"), "a method call names no field");
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let p = parse("#[cfg(test)]\nmod t {\n    fn probe() {}\n}\nfn live() {}\n");
        assert!(p.fns.iter().find(|f| f.name == "probe").unwrap().is_test);
        assert!(!p.fns.iter().find(|f| f.name == "live").unwrap().is_test);
    }
}
