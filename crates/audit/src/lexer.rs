//! A lossless full-file lexer for Rust source.
//!
//! This is the ground truth the whole analysis pipeline is built on:
//! [`crate::source::SourceFile`] derives its blanked per-line code view
//! from these tokens, and [`crate::items`] parses item structure out of
//! the non-trivia stream. Losslessness is the load-bearing property —
//! the concatenation of every token's `text` reproduces the input byte
//! for byte (property-tested in `tests/lexer_properties.rs`) — because
//! it guarantees the lexer never silently eats source the lints should
//! have seen.
//!
//! The lexer is total: any input produces a token stream. Malformed
//! source (unterminated strings, stray punctuation) degrades into
//! reasonable tokens instead of errors, since the auditor must keep
//! working on code that does not yet compile.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal (alphanumeric/`_` run).
    Ident,
    /// A single punctuation character.
    Punct,
    /// A run of whitespace (may contain newlines).
    Whitespace,
    /// `// ...` to end of line (newline not included).
    LineComment,
    /// `/* ... */`, nesting honoured; may span lines.
    BlockComment,
    /// `"..."` or `b"..."` including delimiters and escapes.
    Str,
    /// `r"..."` / `r#"..."#` raw string including delimiters.
    RawStr,
    /// `'x'` / `'\n'` char literal including quotes.
    Char,
    /// `'label` lifetime (or loop label): quote plus identifier run.
    Lifetime,
}

/// One lossless token: `text` is the exact source slice.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text (concatenating all tokens rebuilds the file).
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
    /// 1-based char column of the first character.
    pub col: usize,
}

/// Lex `input` into a lossless token stream.
pub fn lex(input: &str) -> Vec<Token> {
    Lexer {
        chars: input.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Emit `chars[start..self.i]` as one token anchored at (line, col).
    fn emit(&mut self, kind: TokKind, start: usize, line: usize, col: usize) {
        let text: String = self.chars[start..self.i].iter().collect();
        // Advance the position cursor over the emitted text.
        for c in &self.chars[start..self.i] {
            if *c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while self.i < self.chars.len() {
            let (line, col) = (self.line, self.col);
            let start = self.i;
            let c = self.chars[self.i];
            let kind = if c.is_whitespace() {
                while self.peek(0).is_some_and(|c| c.is_whitespace()) {
                    self.i += 1;
                }
                TokKind::Whitespace
            } else if c == '/' && self.peek(1) == Some('/') {
                while self.peek(0).is_some_and(|c| c != '\n') {
                    self.i += 1;
                }
                TokKind::LineComment
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment()
            } else if c == '"' {
                self.i += 1;
                self.string_body('"');
                TokKind::Str
            } else if c == 'b' && self.peek(1) == Some('"') {
                self.i += 2;
                self.string_body('"');
                TokKind::Str
            } else if c == 'r' && self.raw_str_hashes(1).is_some() {
                self.raw_string(self.raw_str_hashes(1).unwrap())
            } else if (c == 'b') && self.peek(1) == Some('r') && self.raw_str_hashes(2).is_some() {
                let h = self.raw_str_hashes(2).unwrap();
                self.i += 1; // the `b`; raw_string consumes from `r`
                self.raw_string(h)
            } else if c == '\'' {
                self.apostrophe()
            } else if c.is_alphanumeric() || c == '_' {
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    self.i += 1;
                }
                TokKind::Ident
            } else {
                self.i += 1;
                TokKind::Punct
            };
            self.emit(kind, start, line, col);
        }
        self.out
    }

    /// Nested block comment, cursor on the leading `/`.
    fn block_comment(&mut self) -> TokKind {
        let mut depth = 0u32;
        while self.i < self.chars.len() {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.i += 2;
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    break;
                }
            } else {
                self.i += 1;
            }
        }
        TokKind::BlockComment
    }

    /// Consume a (byte) string body after its opening quote, honouring
    /// `\"` escapes; leaves the cursor past the closing quote (or EOF).
    fn string_body(&mut self, close: char) {
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.i += 2.min(self.chars.len() - self.i);
            } else if c == close {
                self.i += 1;
                return;
            } else {
                self.i += 1;
            }
        }
    }

    /// If `chars[i + from..]` opens a raw string (`#*"`), its hash count.
    fn raw_str_hashes(&self, from: usize) -> Option<u32> {
        let mut h = 0u32;
        while self.peek(from + h as usize) == Some('#') {
            h += 1;
        }
        (self.peek(from + h as usize) == Some('"')).then_some(h)
    }

    /// Raw string, cursor on the `r`. Consumes through `"#…#` of `h` hashes.
    fn raw_string(&mut self, h: u32) -> TokKind {
        self.i += 2 + h as usize; // r, hashes, opening quote
        while self.i < self.chars.len() {
            if self.peek(0) == Some('"') && (0..h as usize).all(|k| self.peek(1 + k) == Some('#')) {
                self.i += 1 + h as usize;
                return TokKind::RawStr;
            }
            self.i += 1;
        }
        TokKind::RawStr
    }

    /// `'` disambiguation: char literal vs lifetime/label, cursor on `'`.
    fn apostrophe(&mut self) -> TokKind {
        let next = self.peek(1);
        let is_char = match next {
            Some('\\') => true,
            // `'a'` is a char; `'a` followed by anything else is a lifetime.
            Some(c) if c.is_alphanumeric() || c == '_' => self.peek(2) == Some('\''),
            // `'('`, `' '` etc. — treat as a char literal attempt.
            Some(_) => true,
            None => false,
        };
        if is_char {
            self.i += 1;
            self.string_body('\'');
            TokKind::Char
        } else {
            self.i += 1;
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                self.i += 1;
            }
            TokKind::Lifetime
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rebuild(toks: &[Token]) -> String {
        toks.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let src = "fn main() {\n    let s = \"hi \\\" there\"; // c\n    /* b /* n */ e */ let c = 'x';\n    let r = r#\"raw \"q\" \"#;\n    let lt: &'static str = \"\";\n}\n";
        let toks = lex(src);
        assert_eq!(rebuild(&toks), src);
    }

    #[test]
    fn kinds_are_classified() {
        let toks = lex("let a = b\"x\"; 'l: loop { break 'l; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "b\"x\""));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'l"));
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let toks = lex("ab cd\nef");
        let ef = toks.iter().find(|t| t.text == "ef").unwrap();
        assert_eq!((ef.line, ef.col), (2, 1));
        let cd = toks.iter().find(|t| t.text == "cd").unwrap();
        assert_eq!((cd.line, cd.col), (1, 4));
    }

    #[test]
    fn unterminated_inputs_still_roundtrip() {
        for src in ["\"never closed", "/* open", "r#\"open", "'"] {
            assert_eq!(rebuild(&lex(src)), src, "{src:?}");
        }
    }

    #[test]
    fn byte_raw_strings_and_raw_idents() {
        let src = "br#\"x\"# r#type";
        assert_eq!(rebuild(&lex(src)), src);
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::RawStr);
    }
}
