//! A lightweight Rust item parser: `fn` / `impl` / `trait` / `struct` /
//! `enum` / `type` / `use` structure recovered from the blanked per-line
//! token view.
//!
//! This is not a grammar-complete parser — it is the minimum structural
//! pass the call-graph needs: every function definition with its
//! enclosing impl/trait context, parameter types and body span, the call
//! sites inside each body (a method call with its receiver's type when
//! the function names it, [`Call::Method`]), the types each body names
//! ([`FnDef::builds`]), and the file's `use` imports (so calls to
//! `std`-imported free functions are not mis-resolved onto workspace
//! items). For the `dead` lint it also records every type definition,
//! every `pub use` re-export and the crate-root paths the file names,
//! every named struct field and which field names the file reads, writes
//! or mentions ([`FieldUses`]). It is token-level and total: code it
//! cannot make sense of is skipped, never an error.

use crate::source::{tokenize, SourceFile, Tok};
use std::collections::{BTreeMap, BTreeSet};

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
    /// `.name(...)` — a method call.
    Method {
        /// Method name.
        name: String,
        /// The receiver's type, when the receiver is `self` (the impl's
        /// self type) or a name every binding of which in the function
        /// gives one type: a parameter `x: T`, `&T`, `&mut T` or
        /// `Box<T>`, or a `let x: T`, `let x = T::f(..)` or
        /// `let x = T { .. }`. Generic arguments are dropped, a generic
        /// parameter is no type, and `Self` reads as the self type.
        recv: Option<String>,
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
    /// Each parameter's bound name and type, as [`Call::Method::recv`]
    /// reads a type; a pattern parameter binds each of its names with no
    /// type, and `self` is left out.
    pub params: Vec<(String, Option<String>)>,
    /// Call sites inside the body (nested fn bodies excluded).
    pub calls: Vec<Call>,
    /// Type names the function names outside its parameter list: every
    /// capitalised name in its body not followed by `::` (a struct
    /// literal, a tuple constructor, a unit value, a `let` annotation, a
    /// turbofish, a pattern) and in its return type, `Self` read as the
    /// self type. A `T::x` path is a [`Call::Qual`] instead.
    pub builds: BTreeSet<String>,
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

/// One `struct`, `enum` or `union` definition.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the name.
    pub line: usize,
    /// 1-based column of the name.
    pub col: usize,
    /// Whether it sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Whether it is declared plain `pub`.
    pub is_pub: bool,
    /// Capitalised names in its fields or variants: built whenever it is,
    /// since a value of it holds them (`#[derive(Default)]` and
    /// `or_default()` build a field's type without naming it).
    pub names: BTreeSet<String>,
}

/// One name a plain `pub use` re-exports (its `as` rename, if any).
#[derive(Debug, Clone)]
pub struct Reexport {
    /// The exported name.
    pub name: String,
    /// 1-based line of the name.
    pub line: usize,
    /// 1-based column of the name.
    pub col: usize,
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
    /// Every `struct`, `enum` and `union` definition.
    pub types: Vec<TypeDef>,
    /// Item-level `type Alias = Target;` pairs, the target read as
    /// [`Call::Method::recv`] reads a type.
    pub aliases: Vec<(String, String)>,
    /// Names re-exported by a plain `pub use` outside `#[cfg(test)]`.
    pub reexports: Vec<Reexport>,
    /// `(crate, name)` for every workspace crate-root path the file
    /// names, in a `use` or in code, tests included: `tn_x::Name` and
    /// `tn_x::{.., Name}` give `("tn_x", "Name")`, as does
    /// `trading_networks::x::Name`; a glob names `*`.
    pub crate_paths: BTreeSet<(String, String)>,
    /// Names in item-level `const` and `static` initialisers and `type`
    /// alias targets: built wherever the item is used.
    pub item_builds: BTreeSet<String>,
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
    let mut generics = Vec::new();
    parse_items(
        sf,
        &toks,
        0,
        toks.len(),
        Outer::default(),
        &mut generics,
        &mut out,
    );
    let spans: Vec<(usize, usize)> = out.fns.iter().filter_map(|f| f.body).collect();
    for (f, generics) in out.fns.iter_mut().zip(&generics) {
        if let Some((b0, b1)) = f.body {
            // Calls, bindings and names inside a nested fn are its own.
            let nested: Vec<(usize, usize)> = spans
                .iter()
                .copied()
                .filter(|&(s, e)| s > b0 && e <= b1)
                .collect();
            let live: Vec<usize> = (b0..=b1)
                .filter(|k| !nested.iter().any(|&(s, e)| (s..=e).contains(k)))
                .collect();
            let self_ty = f.self_ty.as_deref();
            let typed = receiver_types(&toks, &live, &f.params, generics, self_ty);
            f.calls = collect_calls(&toks, &live, &typed, self_ty);
            f.builds
                .extend(live.iter().filter_map(|&k| named_type(&toks, k, self_ty)));
        }
    }
    out.field_uses = field_uses(sf, &toks);
    out.crate_paths = crate_paths(&toks);
    out
}

/// The capitalised name at `k` when it is not the qualifier of a `::`
/// path, with `Self` read as `self_ty`.
fn named_type(toks: &[DTok], k: usize, self_ty: Option<&str>) -> Option<String> {
    let id = ident_at(toks, k)?;
    if !id.starts_with(char::is_uppercase) || is_punct(toks, k + 1, ':') {
        return None;
    }
    if id == "Self" {
        self_ty.map(str::to_string)
    } else {
        Some(id.to_string())
    }
}

/// The item a definition sits in: an `impl` or `trait` block's self type
/// and trait, and the generic parameters in scope.
#[derive(Clone, Copy, Default)]
struct Outer<'a> {
    self_ty: Option<&'a str>,
    trait_name: Option<&'a str>,
    generics: &'a [String],
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

/// Read a type or value path at `i`, past any leading `&`, `mut`,
/// lifetime, `dyn` or `impl`: `a::b::C<..>` or `a::B::<..>::c`. Returns
/// the token index of each segment and the index past the path, generic
/// arguments and turbofish included.
fn read_path(toks: &[DTok], mut i: usize) -> (Vec<usize>, usize) {
    loop {
        if is_punct(toks, i, '\'') {
            i += 2;
        } else if is_punct(toks, i, '&')
            || matches!(ident_at(toks, i), Some("mut" | "dyn" | "impl"))
        {
            i += 1;
        } else {
            break;
        }
    }
    let mut segs = Vec::new();
    while ident_at(toks, i).is_some() {
        segs.push(i);
        i += 1;
        let colons = |k: usize| is_punct(toks, k, ':') && is_punct(toks, k + 1, ':');
        if is_punct(toks, i, '<') {
            i = skip_angles(toks, i);
        } else if colons(i) && is_punct(toks, i + 2, '<') {
            i = skip_angles(toks, i + 2);
        }
        if !colons(i) {
            break;
        }
        i += 2;
    }
    (segs, i)
}

/// The last segment of the path at `i` ([`read_path`]), and the index
/// past it.
fn path_name(toks: &[DTok], i: usize) -> (Option<String>, usize) {
    let (segs, end) = read_path(toks, i);
    let name = segs
        .last()
        .and_then(|&k| ident_at(toks, k))
        .map(str::to_string);
    (name, end)
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
    outer: Outer,
    generics: &mut Vec<Vec<String>>,
    out: &mut ParsedFile,
) {
    let in_test = |k: usize| sf.lines.get(toks[k].line - 1).is_some_and(|l| l.in_test);
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
                let mut own: Vec<String> = outer.generics.to_vec();
                let mut j = i + 2;
                if is_punct(toks, j, '<') {
                    own.extend(generic_names(toks, j));
                    j = skip_angles(toks, j);
                }
                let params = if is_punct(toks, j, '(') {
                    fn_params(toks, j, &own, outer.self_ty)
                } else {
                    Vec::new()
                };
                // Scan for the body `{` or a declaration-ending `;` at
                // bracket depth 0 ( `[u8; 4]` keeps its `;` nested),
                // noting the return type's names on the way.
                let mut depth = 0i32;
                let mut builds = BTreeSet::new();
                let mut ret = false;
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
                    } else if depth == 0 && is_punct(toks, j, '-') && is_punct(toks, j + 1, '>') {
                        ret = true;
                    } else if ident_at(toks, j) == Some("where") {
                        ret = false;
                    } else if ret {
                        builds.extend(named_type(toks, j, outer.self_ty));
                    }
                    j += 1;
                };
                let body = body_open.map(|open| (open, match_brace(toks, open).min(end - 1)));
                out.fns.push(FnDef {
                    name,
                    self_ty: outer.self_ty.map(str::to_string),
                    trait_name: outer.trait_name.map(str::to_string),
                    line: sig_line,
                    body,
                    lines: body.map(|(_, close)| (sig_line, toks[close].line)),
                    is_test: in_test(i),
                    is_pub: is_pub_fn(toks, i),
                    params,
                    calls: Vec::new(),
                    builds,
                });
                generics.push(own);
                if let Some((open, close)) = body {
                    // Nested fns (and local impls) inside the body.
                    parse_items(sf, toks, open + 1, close, Outer::default(), generics, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            Some(kw @ ("impl" | "trait")) => {
                let mut j = i + 1;
                let mut own: Vec<String> = Vec::new();
                if is_punct(toks, j, '<') {
                    own = generic_names(toks, j);
                    j = skip_angles(toks, j);
                }
                let (t_name, s_ty, mut k) = if kw == "trait" {
                    let name = ident_at(toks, j).map(str::to_string);
                    (name.clone(), name, j + 1)
                } else {
                    let (first, after) = path_name(toks, j);
                    if ident_at(toks, after) == Some("for") {
                        let (second, after2) = path_name(toks, after + 1);
                        (first, second, after2)
                    } else {
                        (None, first, after)
                    }
                };
                // Skip any supertraits or `where` clause up to the block.
                while k < end && !is_punct(toks, k, '{') && !is_punct(toks, k, ';') {
                    k += 1;
                }
                if is_punct(toks, k, '{') {
                    let close = match_brace(toks, k).min(end - 1);
                    let inner = Outer {
                        self_ty: s_ty.as_deref(),
                        trait_name: t_name.as_deref(),
                        generics: &own,
                    };
                    parse_items(sf, toks, k + 1, close, inner, generics, out);
                    i = close + 1;
                } else {
                    i = k + 1;
                }
            }
            Some(kw @ ("struct" | "enum" | "union")) => {
                let Some(owner) = ident_at(toks, i + 1).map(str::to_string) else {
                    i += 1;
                    continue;
                };
                let mut k = i + 2;
                while k < end && !is_punct(toks, k, '{') && !is_punct(toks, k, ';') {
                    k += 1;
                }
                let close = if is_punct(toks, k, '{') {
                    match_brace(toks, k).min(end - 1)
                } else {
                    k
                };
                out.types.push(TypeDef {
                    name: owner.clone(),
                    line: toks[i + 1].line,
                    col: toks[i + 1].col,
                    is_test: in_test(i),
                    is_pub: is_pub_fn(toks, i),
                    names: (i + 2..close)
                        .filter_map(|j| named_type(toks, j, None))
                        .collect(),
                });
                i = close + 1;
                if !is_punct(toks, k, '{') {
                    continue;
                }
                if kw != "struct" {
                    continue;
                }
                // Named fields: an identifier before a lone `:` outside
                // any bracket (`->` closes no angle). A tuple or unit
                // struct reached its `;` above.
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
                                is_test: in_test(j),
                            });
                        }
                        _ => {}
                    }
                }
            }
            Some("type") if outer.self_ty.is_none() => {
                // `type Alias<..> = Target;`
                let mut k = i + 2;
                if is_punct(toks, k, '<') {
                    k = skip_angles(toks, k);
                }
                if let (Some(alias), true) = (ident_at(toks, i + 1), is_punct(toks, k, '=')) {
                    if let Some(target) = type_name(toks, k + 1, &[], None) {
                        out.aliases.push((alias.to_string(), target));
                    }
                }
                let close = item_end(toks, k, end);
                out.item_builds
                    .extend((k..close).filter_map(|j| named_type(toks, j, None)));
                i = close + 1;
            }
            // `const NAME: T = ..;` and `static [mut] NAME: T = ..;`, not
            // a `const fn`.
            Some("const" | "static")
                if is_lone_colon(toks, i + 2)
                    || (ident_at(toks, i + 1) == Some("mut") && is_lone_colon(toks, i + 3)) =>
            {
                let close = item_end(toks, i, end);
                out.item_builds
                    .extend((i + 1..close).filter_map(|j| named_type(toks, j, outer.self_ty)));
                i = close + 1;
            }
            Some("use") => {
                let mut paths = Vec::new();
                let after = use_tree(toks, i + 1, &[], &mut paths);
                for p in paths {
                    if matches!(p.path[0].as_str(), "std" | "core" | "alloc") {
                        // Leaf names of std imports: a free call to one
                        // must not resolve onto a workspace item.
                        out.std_imports.push(p.name);
                    } else if is_pub_fn(toks, i) && p.name != "*" && !in_test(i) {
                        out.reexports.push(Reexport {
                            name: p.name,
                            line: toks[p.at].line,
                            col: toks[p.at].col,
                        });
                    }
                }
                i = after.max(i + 1);
            }
            _ => i += 1,
        }
    }
}

/// The `;` that ends the item at `i` (outside any bracket), or `end`.
fn item_end(toks: &[DTok], mut i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    while i < end {
        match &toks[i].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    end
}

/// Names of the generic parameters in the `<..>` at `open`: types and
/// consts, not lifetimes.
fn generic_names(toks: &[DTok], open: usize) -> Vec<String> {
    let close = skip_angles(toks, open);
    let mut out = Vec::new();
    let mut depth = 0i32;
    for k in open..close {
        if is_punct(toks, k, '<') {
            depth += 1;
        } else if is_punct(toks, k, '>') && !is_punct(toks, k - 1, '-') {
            depth -= 1;
        } else if depth == 1 && (is_punct(toks, k - 1, '<') || is_punct(toks, k - 1, ',')) {
            let k = if ident_at(toks, k) == Some("const") {
                k + 1
            } else {
                k
            };
            out.extend(ident_at(toks, k).map(str::to_string));
        }
    }
    out
}

/// Read the type at `i` as a receiver of it resolves: the last path
/// segment ([`read_path`]), through `Box<..>` to its argument. `None` for
/// a slice, tuple, function pointer or one of `generics`; `Self` reads as
/// `self_ty`.
fn type_name(
    toks: &[DTok],
    i: usize,
    generics: &[String],
    self_ty: Option<&str>,
) -> Option<String> {
    let &last = read_path(toks, i).0.last()?;
    match ident_at(toks, last)? {
        "Box" if is_punct(toks, last + 1, '<') => type_name(toks, last + 2, generics, self_ty),
        "Self" => self_ty.map(str::to_string),
        t if generics.iter().any(|g| g == t) || t == "fn" => None,
        t => Some(t.to_string()),
    }
}

/// The parameters of the list whose `(` is at `open`: see
/// [`FnDef::params`].
fn fn_params(
    toks: &[DTok],
    open: usize,
    generics: &[String],
    self_ty: Option<&str>,
) -> Vec<(String, Option<String>)> {
    let close = skip_parens(toks, open) - 1;
    let mut out = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i32;
    for k in open + 1..=close {
        match &toks[k].tok {
            Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
            Tok::Punct('>') if !is_punct(toks, k - 1, '-') => depth -= 1,
            Tok::Punct(')' | ']' | '}') if k < close => depth -= 1,
            Tok::Punct(',') if depth == 0 => {}
            _ if k == close => {}
            _ => continue,
        }
        if !(k == close || (depth == 0 && is_punct(toks, k, ','))) {
            continue;
        }
        let Some(colon) = (start..k).find(|&c| is_lone_colon(toks, c)) else {
            start = k + 1;
            continue;
        };
        let pat: Vec<usize> = (start..colon)
            .filter(|&c| !matches!(ident_at(toks, c), Some("mut" | "ref")))
            .collect();
        match pat.as_slice() {
            [p] if ident_at(toks, *p) == Some("self") => {}
            [p] => out.extend(
                ident_at(toks, *p)
                    .map(|n| (n.to_string(), type_name(toks, colon + 1, generics, self_ty))),
            ),
            _ => out.extend(pattern_names(toks, pat.into_iter()).map(|n| (n, None))),
        }
        start = k + 1;
    }
    out
}

/// The binding-shaped names among tokens `ks`: lower-case identifiers
/// that are not keywords, calls or path qualifiers.
fn pattern_names<'t>(
    toks: &'t [DTok],
    ks: impl Iterator<Item = usize> + 't,
) -> impl Iterator<Item = String> + 't {
    ks.filter_map(move |k| {
        let id = ident_at(toks, k)?;
        let called =
            is_punct(toks, k + 1, '(') || is_punct(toks, k + 1, ':') || is_punct(toks, k + 1, '!');
        let keyword = matches!(id, "mut" | "ref" | "self" | "in" | "if" | "_" | "box");
        (id.starts_with(|c: char| c.is_lowercase() || c == '_')
            && !called
            && !keyword
            && !is_punct(toks, k.wrapping_sub(1), '.'))
        .then(|| id.to_string())
    })
}

/// The receiver types a function's calls resolve against: each name
/// whose every binding in the function — its parameters and, among its
/// body tokens `live`, every `let`, `for`, closure parameter and match
/// arm pattern — gives one type ([`Call::Method::recv`]).
fn receiver_types(
    toks: &[DTok],
    live: &[usize],
    params: &[(String, Option<String>)],
    generics: &[String],
    self_ty: Option<&str>,
) -> BTreeMap<String, String> {
    let mut binds: Vec<(String, Option<String>)> = params.to_vec();
    let p = |k: usize, c: char| is_punct(toks, k, c);
    let (first, last) = (live[0], live[live.len() - 1]);
    let range = |a: usize, b: usize| live.iter().copied().filter(move |&k| k >= a && k < b);
    for &i in live {
        match &toks[i].tok {
            Tok::Ident(kw) if kw == "let" => {
                // The pattern runs to a depth-0 `=`, lone `:`, `;` or `else`.
                let mut depth = 0i32;
                let mut k = i + 1;
                while k < last {
                    match &toks[k].tok {
                        Tok::Punct('(' | '[' | '{') => depth += 1,
                        Tok::Punct(')' | ']' | '}') => depth -= 1,
                        Tok::Punct('=') if depth == 0 && !p(k + 1, '=') && !p(k + 1, '>') => break,
                        Tok::Punct(':') if depth == 0 && is_lone_colon(toks, k) => break,
                        Tok::Punct(';') if depth == 0 => break,
                        Tok::Ident(e) if e == "else" && depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let pat: Vec<usize> = (i + 1..k)
                    .filter(|&c| !matches!(ident_at(toks, c), Some("mut" | "ref")))
                    .collect();
                match pat.as_slice() {
                    [n] if ident_at(toks, *n).is_some() => {
                        let ty = if p(k, ':') {
                            type_name(toks, k + 1, generics, self_ty)
                        } else if p(k, '=') {
                            built_type(toks, k + 1, generics, self_ty)
                        } else {
                            None
                        };
                        binds.extend(ident_at(toks, *n).map(|n| (n.to_string(), ty)));
                    }
                    _ => binds.extend(pattern_names(toks, pat.into_iter()).map(|n| (n, None))),
                }
            }
            Tok::Ident(kw) if kw == "for" => {
                let end = range(i + 1, last + 1)
                    .find(|&k| ident_at(toks, k) == Some("in"))
                    .unwrap_or(i);
                binds.extend(pattern_names(toks, range(i + 1, end)).map(|n| (n, None)));
            }
            Tok::Punct('|') if !p(i - 1, '|') && !p(i + 1, '|') => {
                let opens = matches!(
                    toks[i - 1].tok,
                    Tok::Punct('(' | ',' | '=' | '{' | ';' | ':')
                ) || matches!(ident_at(toks, i - 1), Some("move" | "return"));
                if opens {
                    let end = range(i + 1, last + 1).find(|&k| p(k, '|')).unwrap_or(i);
                    binds.extend(pattern_names(toks, range(i + 1, end)).map(|n| (n, None)));
                }
            }
            Tok::Punct('=') if p(i + 1, '>') => {
                // A match arm's pattern: back to the `{`, `,` or arm body
                // `}` that starts it, stopping at a guard's `if`.
                let mut depth = 0i32;
                let mut k = i;
                let mut end = i;
                while k > first {
                    k -= 1;
                    match &toks[k].tok {
                        Tok::Punct(')' | ']') => depth += 1,
                        Tok::Punct('(' | '[') => depth -= 1,
                        Tok::Punct('}') if depth == 0 => {
                            let open = (first..k)
                                .rev()
                                .find(|&o| p(o, '{') && match_brace(toks, o) == k);
                            match open {
                                Some(o) if !(p(o - 1, '>') && p(o - 2, '=')) => k = o,
                                _ => break,
                            }
                        }
                        Tok::Punct('{' | ',') if depth == 0 => break,
                        Tok::Punct('>') if depth == 0 && p(k - 1, '=') => break,
                        Tok::Ident(g) if g == "if" && depth == 0 => end = k,
                        _ => {}
                    }
                    if depth < 0 {
                        break;
                    }
                }
                binds.extend(pattern_names(toks, range(k + 1, end)).map(|n| (n, None)));
            }
            _ => {}
        }
    }
    let mut one: BTreeMap<String, Option<String>> = BTreeMap::new();
    for (name, ty) in binds {
        one.entry(name)
            .and_modify(|t| {
                if *t != ty {
                    *t = None;
                }
            })
            .or_insert(ty);
    }
    one.into_iter().filter_map(|(n, t)| Some((n, t?))).collect()
}

/// The type a `let` initialiser at `i` builds, when it is all of
/// `T::f(..)`, `T(..)` or `T { .. }` (an enum's `E::V(..)` and
/// `E::V { .. }` build `E`).
fn built_type(
    toks: &[DTok],
    i: usize,
    generics: &[String],
    self_ty: Option<&str>,
) -> Option<String> {
    let (segs, end) = read_path(toks, i);
    let names: Vec<&str> = segs.iter().filter_map(|&k| ident_at(toks, k)).collect();
    let upper = |s: &&str| s.starts_with(char::is_uppercase);
    let (close, ty) = match names.as_slice() {
        [.., q, _] if is_punct(toks, end, '(') && upper(q) => (skip_parens(toks, end), *q),
        [t] if is_punct(toks, end, '(') && upper(t) => (skip_parens(toks, end), *t),
        [.., q, t] if is_punct(toks, end, '{') && upper(q) && upper(t) => {
            (match_brace(toks, end) + 1, *q)
        }
        [.., t] if is_punct(toks, end, '{') && upper(t) => (match_brace(toks, end) + 1, *t),
        _ => return None,
    };
    if !is_punct(toks, close, ';') || generics.iter().any(|g| g == ty) {
        return None;
    }
    if ty == "Self" {
        self_ty.map(str::to_string)
    } else {
        Some(ty.to_string())
    }
}

/// One path a `use` tree names.
struct UsePath {
    /// Its segments, a glob ending in `*`.
    path: Vec<String>,
    /// The name it binds: its `as` rename, else its last segment.
    name: String,
    /// Token index of that name.
    at: usize,
}

/// Expand the use tree (or plain path) at `i` under `prefix` into `out`:
/// `a::{b, c::d as e}` gives `a::b` and `a::c::d` (bound as `e`), a group
/// member `self` the group's own path. Returns the index past the tree.
fn use_tree(toks: &[DTok], mut i: usize, prefix: &[String], out: &mut Vec<UsePath>) -> usize {
    let mut path = prefix.to_vec();
    let mut at = i;
    loop {
        if is_punct(toks, i, '{') {
            let close = match_brace(toks, i);
            let mut m = i + 1;
            while m < close {
                let next = use_tree(toks, m, &path, out);
                m = (next..close)
                    .find(|&c| is_punct(toks, c, ','))
                    .map_or(close, |c| c + 1)
                    .max(m + 1);
            }
            return close + 1;
        }
        if is_punct(toks, i, '*') {
            path.push("*".into());
            at = i;
            i += 1;
            break;
        }
        let Some(seg) = ident_at(toks, i) else {
            break;
        };
        if seg != "self" || path.is_empty() {
            path.push(seg.to_string());
        }
        at = i;
        i += 1;
        if is_punct(toks, i, ':') && is_punct(toks, i + 1, ':') && !is_punct(toks, i + 2, '<') {
            i += 2;
        } else {
            break;
        }
    }
    if path.is_empty() {
        return i;
    }
    if ident_at(toks, i) == Some("as") && ident_at(toks, i + 1).is_some() {
        at = i + 1;
        i += 2;
    }
    let name = ident_at(toks, at).map_or("*", |n| {
        if n == "self" {
            path.last().map_or(n, String::as_str)
        } else {
            n
        }
    });
    out.push(UsePath {
        name: name.to_string(),
        path,
        at,
    });
    i
}

/// The workspace crate-root paths a file names: see
/// [`ParsedFile::crate_paths`].
fn crate_paths(toks: &[DTok]) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(root) = t.tok.ident() else {
            continue;
        };
        let is_root = root.starts_with("tn_") || root == "trading_networks";
        if !is_root || is_punct(toks, i.wrapping_sub(1), ':') {
            continue;
        }
        let mut paths = Vec::new();
        use_tree(toks, i, &[], &mut paths);
        for p in paths {
            let (krate, name) = match p.path.as_slice() {
                [r, m, name, ..] if r == "trading_networks" => (format!("tn_{m}"), name),
                [r, name, ..] if r != "trading_networks" => (r.clone(), name),
                _ => continue,
            };
            out.insert((krate, name.clone()));
        }
    }
    out
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

/// Extract the call sites among a body's tokens `live` (the body less
/// any nested `fn` items, whose calls are their own), typing a method
/// call's receiver through `typed` ([`receiver_types`]).
fn collect_calls(
    toks: &[DTok],
    live: &[usize],
    typed: &BTreeMap<String, String>,
    self_ty: Option<&str>,
) -> Vec<Call> {
    let mut out = Vec::new();
    let b0 = live[0];
    for &i in live {
        let Some(name) = ident_at(toks, i) else {
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
            continue;
        }
        if prev_is('.') {
            // `recv.name(` — the receiver is a plain name when the token
            // before the dot is one not itself reached through `.` or `::`.
            let recv = match ident_at(toks, i.wrapping_sub(2)) {
                _ if is_punct(toks, i.wrapping_sub(3), '.')
                    || is_punct(toks, i.wrapping_sub(3), ':') =>
                {
                    None
                }
                Some("self") => self_ty.map(str::to_string),
                Some(r) => typed.get(r).cloned(),
                None => None,
            };
            out.push(Call::Method {
                name: name.to_string(),
                recv,
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
                recv: Some("Gateway".into())
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
            recv: Some("Simulator".into())
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
            recv: Some("Simulator".into())
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

    /// `(method, receiver type)` for each method call of `p`'s first fn.
    fn receivers(p: &ParsedFile) -> Vec<(&str, Option<&str>)> {
        p.fns[0]
            .calls
            .iter()
            .filter_map(|c| match c {
                Call::Method { name, recv } => Some((name.as_str(), recv.as_deref())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn params_record_their_types() {
        let p = parse(
            "impl Q {\n    fn f<T: Node>(&mut self, a: u64, b: &mut tn_sim::Frame<'_>, c: Box<dyn Link>, \
             d: &'a Self, e: T, (g, h): (u8, u8), m: HashMap<K, V>, f: impl Fn(u8) -> u8) {}\n}\n",
        );
        let params: Vec<(&str, Option<&str>)> = p.fns[0]
            .params
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_deref()))
            .collect();
        assert_eq!(
            params,
            [
                ("a", Some("u64")),
                ("b", Some("Frame")),
                ("c", Some("Link")),
                ("d", Some("Q")),
                ("e", None),
                ("g", None),
                ("h", None),
                ("m", Some("HashMap")),
                ("f", Some("Fn")),
            ]
        );
    }

    #[test]
    fn receivers_are_typed_by_their_one_binding() {
        let p = parse(
            "fn f(kind: EventKind, w: &mut Writer, v: Vec<u8>) {\n    kind.target_node();\n    \
             let b = Book::new(1);\n    let s: Stats = w.stats();\n    let lit = Level { px: 1 };\n    \
             let var = Kind::A(2);\n    let chained = Book::new(1).depth();\n    \
             b.depth();\n    s.merge();\n    lit.px();\n    var.go();\n    chained.go();\n    \
             v.push(1);\n    self.x.go();\n    w.flush();\n    \
             match e {\n        Some(w) => w.flush(),\n        _ => {}\n    }\n}\n",
        );
        assert_eq!(
            receivers(&p),
            [
                ("target_node", Some("EventKind")),
                ("stats", None),
                ("depth", None),
                ("depth", Some("Book")),
                ("merge", Some("Stats")),
                ("px", Some("Level")),
                ("go", Some("Kind")),
                ("go", None),
                ("push", Some("Vec")),
                ("go", None),
                // `w` is rebound by the match arm: no one type.
                ("flush", None),
                ("flush", None),
            ]
        );
    }

    #[test]
    fn closure_for_and_let_patterns_rebind_a_name() {
        let p = parse(
            "fn f(a: A, b: B, c: C, d: D) {\n    xs.iter().map(|a| a.go());\n    for b in bs {}\n    \
             if let Some(c) = o {}\n    let d = 1;\n    a.go();\n    b.go();\n    c.go();\n    d.go();\n}\n",
        );
        assert!(
            receivers(&p).iter().all(|(_, r)| r.is_none()),
            "{:?}",
            receivers(&p)
        );
    }

    #[test]
    fn bodies_and_return_types_name_what_they_build() {
        let p = parse(
            "impl Q {\n    fn f(x: Arg) -> Out<Held> {\n        let l: Ann = Lit { a: Tuple(1) };\n        \
             Kind::Variant;\n        Q::helper();\n        Self { u: Unit };\n    }\n}\n",
        );
        let builds: Vec<&str> = p.fns[0].builds.iter().map(String::as_str).collect();
        assert_eq!(
            builds,
            ["Ann", "Held", "Lit", "Out", "Q", "Tuple", "Unit", "Variant"]
        );
    }

    #[test]
    fn types_aliases_and_items_are_recorded() {
        let p = parse(
            "#[derive(Default)]\npub struct A {\n    b: B,\n    v: Vec<C>,\n}\nenum E {\n    X(D),\n}\n\
             pub struct T(F);\npub type Spec = Wrap<G>;\nstatic ALL: &[H] = &[H { n: 1 }];\npub const fn k() {}\n",
        );
        let types: Vec<(&str, bool, Vec<&str>)> = p
            .types
            .iter()
            .map(|t| {
                (
                    t.name.as_str(),
                    t.is_pub,
                    t.names.iter().map(String::as_str).collect(),
                )
            })
            .collect();
        assert_eq!(
            types,
            [
                ("A", true, vec!["B", "C", "Vec"]),
                ("E", false, vec!["D", "X"]),
                ("T", true, vec!["F"]),
            ]
        );
        assert_eq!(p.aliases, [("Spec".to_string(), "Wrap".to_string())]);
        let items: Vec<&str> = p.item_builds.iter().map(String::as_str).collect();
        assert_eq!(items, ["G", "H", "Wrap"]);
        assert_eq!(p.fns.len(), 1, "`const fn` is a fn");
    }

    #[test]
    fn reexports_and_crate_paths_are_recorded() {
        let p = parse(
            "pub use a::{B, c::D as E};\npub(crate) use f::G;\nuse tn_sim::{json, Simulator as S};\n\
             use trading_networks::wire::{pitch::Msg, Symbol};\nfn f() {\n    tn_obs::chrome_trace(x);\n}\n\
             #[cfg(test)]\nmod t {\n    use tn_feed::*;\n}\n",
        );
        let names: Vec<(&str, usize, usize)> = p
            .reexports
            .iter()
            .map(|r| (r.name.as_str(), r.line, r.col))
            .collect();
        assert_eq!(names, [("B", 1, 13), ("E", 1, 24)]);
        let paths: Vec<(&str, &str)> = p
            .crate_paths
            .iter()
            .map(|(c, n)| (c.as_str(), n.as_str()))
            .collect();
        assert_eq!(
            paths,
            [
                ("tn_feed", "*"),
                ("tn_obs", "chrome_trace"),
                ("tn_sim", "Simulator"),
                ("tn_sim", "json"),
                ("tn_wire", "Symbol"),
                ("tn_wire", "pitch"),
            ]
        );
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
