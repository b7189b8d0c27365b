//! A small SQL parser for the SPJ dialect this system evaluates — the same
//! form the paper writes its view definitions in (Queries (1)–(5)):
//!
//! ```sql
//! SELECT Store.StoreName, Item.Book, ReaderDigest.Comments AS Review
//! FROM Store, Item, Catalog, ReaderDigest
//! WHERE Store.SID = Item.SID AND Item.Book = Catalog.Title
//! ```
//!
//! Supported: qualified columns (`Relation.Attr`), `AS` output aliases,
//! comma-separated FROM lists, and a conjunctive WHERE of equi-joins and
//! column-vs-literal comparisons (`= <> != < <= > >=`). Literals are
//! integers, floats, single-quoted strings (doubled-quote escape), `TRUE`,
//! `FALSE`, `NULL`. Keywords are case-insensitive; identifiers are
//! case-sensitive. `parse_query` accepts a bare `SELECT …`;
//! [`parse_create_view`] additionally accepts the `CREATE VIEW name AS …`
//! wrapper.

use std::fmt;

use crate::query::{CmpOp, Predicate, ProjItem, SpjQuery};
use crate::schema::ColRef;
use crate::value::Value;

/// A parse failure: position (byte offset) plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was detected.
    pub at: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(&'static str), // , . ( ) = <> != < <= > >=
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<(usize, Token)>, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let Some(c) = self.rest().chars().next() else {
            return Ok(None);
        };
        let token = if c.is_ascii_alphabetic() || c == '_' {
            let end = self
                .rest()
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
                .map(|(i, _)| i)
                .unwrap_or(self.rest().len());
            let word = &self.rest()[..end];
            self.pos += end;
            Token::Ident(word.to_string())
        } else if c.is_ascii_digit()
            || (c == '-' && self.rest()[1..].chars().next().is_some_and(|d| d.is_ascii_digit()))
        {
            let end = self
                .rest()
                .char_indices()
                .skip(1)
                .find(|(_, c)| !(c.is_ascii_digit() || *c == '.'))
                .map(|(i, _)| i)
                .unwrap_or(self.rest().len());
            let text = &self.rest()[..end];
            self.pos += end;
            if text.contains('.') {
                Token::Float(text.parse().map_err(|_| ParseError {
                    at: start,
                    message: format!("invalid numeric literal `{text}`"),
                })?)
            } else {
                Token::Int(text.parse().map_err(|_| ParseError {
                    at: start,
                    message: format!("invalid integer literal `{text}`"),
                })?)
            }
        } else if c == '\'' {
            // Single-quoted string; '' escapes a quote.
            let mut out = String::new();
            let mut chars = self.rest().char_indices().skip(1).peekable();
            loop {
                match chars.next() {
                    Some((i, '\'')) => {
                        if let Some(&(_, '\'')) = chars.peek() {
                            out.push('\'');
                            chars.next();
                        } else {
                            self.pos += i + 1;
                            break;
                        }
                    }
                    Some((_, c)) => out.push(c),
                    None => {
                        return Err(ParseError {
                            at: start,
                            message: "unterminated string literal".into(),
                        })
                    }
                }
            }
            Token::Str(out)
        } else {
            // `get`, not slicing: a multi-byte character is not a char
            // boundary at byte 2, and is no symbol either.
            let two = self.rest().get(..2).unwrap_or("");
            let sym: &'static str = match two {
                "<>" => "<>",
                "!=" => "!=",
                "<=" => "<=",
                ">=" => ">=",
                _ => match c {
                    ',' => ",",
                    '.' => ".",
                    '(' => "(",
                    ')' => ")",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    other => {
                        return Err(ParseError {
                            at: start,
                            message: format!("unexpected character `{other}`"),
                        })
                    }
                },
            };
            self.pos += sym.len();
            Token::Symbol(sym)
        };
        Ok(Some((start, token)))
    }
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    idx: usize,
    end: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        while let Some(t) = lexer.next_token()? {
            tokens.push(t);
        }
        Ok(Parser { tokens, idx: 0, end: src.len() })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.idx).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.tokens.get(self.idx).map(|(p, _)| *p).unwrap_or(self.end)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { at: self.here(), message: message.into() }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.idx).map(|(_, t)| t.clone());
        if t.is_some() {
            self.idx += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Symbol(s)) if *s == sym => {
                self.idx += 1;
                Ok(())
            }
            _ => Err(self.error(format!("expected `{sym}`"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(w)) if !is_reserved(w) => {
                let w = w.clone();
                self.idx += 1;
                Ok(w)
            }
            _ => Err(self.error("expected an identifier")),
        }
    }

    fn qualified(&mut self) -> Result<ColRef, ParseError> {
        let relation = self.ident()?;
        self.expect_symbol(".")?;
        let attr = self.ident()?;
        Ok(ColRef::new(relation, attr))
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            Some(Token::Int(i)) => Ok(Value::from(i)),
            Some(Token::Float(f)) => Ok(Value::float(f)),
            Some(Token::Str(s)) => Ok(Value::str(s)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
            _ => {
                self.idx = self.idx.saturating_sub(1);
                Err(self.error("expected a literal"))
            }
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Some(Token::Symbol("=")) => CmpOp::Eq,
            Some(Token::Symbol("<>")) | Some(Token::Symbol("!=")) => CmpOp::Ne,
            Some(Token::Symbol("<")) => CmpOp::Lt,
            Some(Token::Symbol("<=")) => CmpOp::Le,
            Some(Token::Symbol(">")) => CmpOp::Gt,
            Some(Token::Symbol(">=")) => CmpOp::Ge,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.idx += 1;
        Ok(op)
    }

    fn query(&mut self) -> Result<SpjQuery, ParseError> {
        self.expect_keyword("select")?;
        let mut projection = Vec::new();
        loop {
            let col = self.qualified()?;
            let output = if self.keyword("as") { self.ident()? } else { col.attr.clone() };
            projection.push(ProjItem { col, output });
            if !matches!(self.peek(), Some(Token::Symbol(","))) {
                break;
            }
            self.idx += 1;
        }
        self.expect_keyword("from")?;
        let mut tables = Vec::new();
        loop {
            tables.push(self.ident()?);
            if !matches!(self.peek(), Some(Token::Symbol(","))) {
                break;
            }
            self.idx += 1;
        }
        let mut predicates = Vec::new();
        if self.keyword("where") {
            loop {
                predicates.push(self.predicate()?);
                if !self.keyword("and") {
                    break;
                }
            }
        }
        if self.peek().is_some() {
            return Err(self.error("trailing input after the query"));
        }
        Ok(SpjQuery { tables, projection, predicates })
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        // Left side: qualified column or literal.
        if matches!(self.peek(), Some(Token::Ident(w)) if !is_reserved(w)) {
            let left = self.qualified()?;
            let op = self.cmp_op()?;
            if matches!(self.peek(), Some(Token::Ident(w)) if !is_reserved(w)) {
                let right = self.qualified()?;
                if op != CmpOp::Eq {
                    return Err(self.error(
                        "only equality joins between columns are supported in this dialect",
                    ));
                }
                Ok(Predicate::JoinEq(left, right))
            } else {
                Ok(Predicate::Compare(left, op, self.literal()?))
            }
        } else {
            // literal OP column → flip.
            let lit = self.literal()?;
            let op = self.cmp_op()?;
            let right = self.qualified()?;
            let flipped = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                eq => eq,
            };
            Ok(Predicate::Compare(right, flipped, lit))
        }
    }
}

fn is_reserved(word: &str) -> bool {
    ["select", "from", "where", "and", "as", "create", "view", "true", "false", "null"]
        .iter()
        .any(|kw| word.eq_ignore_ascii_case(kw))
}

/// Parses a bare `SELECT … FROM … [WHERE …]` query.
///
/// ```
/// use dyno_relational::parse_query;
/// let q = parse_query(
///     "SELECT Item.Book, Item.Price FROM Item, Catalog \
///      WHERE Item.Book = Catalog.Title AND Item.Price < 40",
/// ).unwrap();
/// assert_eq!(q.tables, vec!["Item", "Catalog"]);
/// assert_eq!(q.predicates.len(), 2);
/// // Display renders the same dialect back:
/// assert_eq!(parse_query(&q.to_string()).unwrap(), q);
/// ```
pub fn parse_query(sql: &str) -> Result<SpjQuery, ParseError> {
    Parser::new(sql)?.query()
}

/// Parses `CREATE VIEW name AS SELECT …`, returning the view name and its
/// query. A bare `SELECT` is also accepted (name `None`).
pub fn parse_create_view(sql: &str) -> Result<(Option<String>, SpjQuery), ParseError> {
    let mut p = Parser::new(sql)?;
    if p.keyword("create") {
        p.expect_keyword("view")?;
        let name = p.ident()?;
        p.expect_keyword("as")?;
        Ok((Some(name), p.query()?))
    } else {
        Ok((None, p.query()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SpjQueryBuilder;

    fn builder_bookinfo() -> SpjQuery {
        SpjQuery::over(["Store", "Item", "Catalog"])
            .select("Store", "StoreName")
            .select("Item", "Book")
            .select("Item", "Price")
            .join_eq(("Store", "SID"), ("Item", "SID"))
            .join_eq(("Item", "Book"), ("Catalog", "Title"))
            .build()
    }

    #[test]
    fn parses_paper_query_one_shape() {
        let q = parse_query(
            "SELECT Store.StoreName, Item.Book, Item.Price \
             FROM Store, Item, Catalog \
             WHERE Store.SID = Item.SID AND Item.Book = Catalog.Title",
        )
        .unwrap();
        assert_eq!(q, builder_bookinfo());
    }

    #[test]
    fn parses_create_view_wrapper() {
        let (name, q) =
            parse_create_view("CREATE VIEW BookInfo AS SELECT Item.Book FROM Item").unwrap();
        assert_eq!(name.as_deref(), Some("BookInfo"));
        assert_eq!(q.tables, vec!["Item"]);
        let (none, _) = parse_create_view("SELECT Item.Book FROM Item").unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn parses_aliases_and_literals() {
        let q = parse_query(
            "select R.Comments as Review from ReaderDigest, R \
             where R.price >= 10 and R.title = 'O''Reilly Guide' \
             and R.active = TRUE and R.score <> 1.5",
        )
        .unwrap();
        assert_eq!(q.projection[0].output, "Review");
        assert!(q.predicates.contains(&Predicate::Compare(
            ColRef::new("R", "price"),
            CmpOp::Ge,
            Value::from(10)
        )));
        assert!(q.predicates.contains(&Predicate::Compare(
            ColRef::new("R", "title"),
            CmpOp::Eq,
            Value::str("O'Reilly Guide")
        )));
        assert!(q.predicates.contains(&Predicate::Compare(
            ColRef::new("R", "active"),
            CmpOp::Eq,
            Value::Bool(true)
        )));
        assert!(q.predicates.contains(&Predicate::Compare(
            ColRef::new("R", "score"),
            CmpOp::Ne,
            Value::float(1.5)
        )));
    }

    #[test]
    fn flips_literal_on_left() {
        let q = parse_query("SELECT R.a FROM R WHERE 10 < R.a").unwrap();
        assert_eq!(
            q.predicates,
            vec![Predicate::Compare(ColRef::new("R", "a"), CmpOp::Gt, Value::from(10))]
        );
    }

    #[test]
    fn negative_numbers() {
        let q = parse_query("SELECT R.a FROM R WHERE R.a > -5").unwrap();
        assert_eq!(
            q.predicates,
            vec![Predicate::Compare(ColRef::new("R", "a"), CmpOp::Gt, Value::from(-5))]
        );
    }

    #[test]
    fn display_round_trips() {
        let q = builder_bookinfo();
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        let with_filter = SpjQuery::over(["Item"])
            .select_as("Item", "Book", "Title")
            .filter("Item", "Book", CmpOp::Eq, "Data Integration Guide")
            .build();
        assert_eq!(parse_query(&with_filter.to_string()).unwrap(), with_filter);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_query("SELECT FROM R").unwrap_err();
        assert!(err.at > 0 && err.message.contains("identifier"));
        let err = parse_query("SELECT R.a FROM R WHERE R.a < R.b").unwrap_err();
        assert!(err.message.contains("equality"));
        let err = parse_query("SELECT R.a FROM R extra").unwrap_err();
        assert!(err.message.contains("trailing"));
        assert!(parse_query("SELECT R.a FROM R WHERE R.s = 'open").is_err());
        assert!(parse_query("SELEC R.a FROM R").is_err());
    }

    #[test]
    fn unqualified_columns_rejected() {
        // The dialect requires Relation.Attr — matching how maintenance
        // queries must know which source each column belongs to.
        assert!(parse_query("SELECT a FROM R").is_err());
    }

    #[test]
    fn a_multi_byte_character_is_an_error_not_a_panic() {
        for sql in ["SELECT 荊ame FROM R", "SELECT R.a FROM R WHERE R.a é 1", "é"] {
            let err = parse_query(sql).unwrap_err();
            assert!(err.message.contains("unexpected character"), "{sql}: {err}");
        }
    }

    // Re-exported builder is exercised too (compile-time shape check).
    #[allow(dead_code)]
    fn builder_type(_: SpjQueryBuilder) {}
}
