//! A small SQL front-end for the query shapes the engine supports — the
//! "integration into existing systems" demonstration (paper Section 5
//! frames the top-k kernel as a drop-in physical operator behind SQL).
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```sql
//! SELECT id FROM tweets
//!   [WHERE tweet_time < <number> | WHERE lang = '<code>' [OR lang = '<code>']…]
//!   ORDER BY retweet_count [+ <weight> * likes_count] [ASC | DESC]
//!   LIMIT <k>;
//!
//! SELECT uid, COUNT(*) FROM tweets
//!   GROUP BY uid ORDER BY COUNT(*) DESC LIMIT <k>;
//! ```
//!
//! [`parse`] is the one validator: the [`Query`] it returns names one of
//! the closed set of [`Shape`]s every engine compiles, so execution never
//! refuses a parsed query. [`execute`] runs it through
//! [`crate::queries`] with any [`Strategy`].

use datagen::{Kv, Rev};
use simt::{AnalysisReport, Device, Source};

use crate::engine::FilterOp;
use crate::error::QdbError;
use crate::queries::{filtered, group_topk, ranked_topk, stage_strategy, QueryResult, Strategy};
use crate::table::GpuTweetTable;

/// Parse/validation errors with byte positions where sensible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Unexpected token (found, expected).
    Unexpected(String, &'static str),
    /// Input ended mid-statement.
    UnexpectedEnd(&'static str),
    /// A column or table name the engine does not know.
    Unknown(String),
    /// LIMIT must be a positive integer.
    BadLimit(String),
    /// Unsupported combination (e.g. GROUP BY with WHERE).
    Unsupported(&'static str),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Unexpected(got, want) => write!(f, "unexpected '{got}', expected {want}"),
            SqlError::UnexpectedEnd(want) => write!(f, "unexpected end of input, expected {want}"),
            SqlError::Unknown(name) => write!(f, "unknown identifier '{name}'"),
            SqlError::BadLimit(v) => write!(f, "LIMIT must be a positive integer, got '{v}'"),
            SqlError::Unsupported(what) => write!(f, "unsupported query shape: {what}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// The closed set of query shapes the engine compiles — the four plans
/// of the paper's MapD integration (§5, §6.8). The parser is their only
/// validator, so every engine runs every shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// `SELECT id FROM tweets [WHERE …] ORDER BY retweet_count DESC` —
    /// Q1/Q3.
    Top(Option<FilterOp>),
    /// `… ORDER BY retweet_count ASC` — Q1/Q3's smallest-k twin.
    Bottom(Option<FilterOp>),
    /// `SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count
    /// DESC` — Q2, the one ranking function the engine compiles (like the
    /// paper's fused kernel).
    Ranked,
    /// `SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*)
    /// DESC` — Q4.
    GroupCount,
}

/// Why a group count cannot be answered from parts of its table.
pub(crate) const GROUP_COUNTS_DO_NOT_MERGE: SqlError =
    SqlError::Unsupported("GROUP BY over parts of a table (per-part group counts do not merge)");

impl Shape {
    /// `Ok` when per-part top-k runs of this shape merge into the top-k
    /// of the whole. Top-k is decomposable (the winners of a union are
    /// among the winners of its parts), so sharded reads and view delta
    /// merges may answer from parts; a uid's rows split across parts, so
    /// per-part group counts do not merge. Every path that answers from
    /// parts asks here.
    pub fn runs_merge(&self) -> Result<(), SqlError> {
        match self {
            Shape::Top(_) | Shape::Bottom(_) | Shape::Ranked => Ok(()),
            Shape::GroupCount => Err(GROUP_COUNTS_DO_NOT_MERGE),
        }
    }
}

/// A parsed, validated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// What the query selects and how it ranks.
    pub shape: Shape,
    /// LIMIT k.
    pub limit: usize,
}

impl Query {
    /// Refuses an empty table, and a LIMIT above its `rows` rows.
    pub(crate) fn check_limit(&self, rows: usize) -> Result<(), QdbError> {
        match rows {
            0 => Err(QdbError::EmptyTable),
            n if self.limit > n => Err(QdbError::InvalidK { k: self.limit, n }),
            _ => Ok(()),
        }
    }

    /// This query over a part of `rows` rows (a shard, or a view's
    /// delta): its LIMIT clamped to the part.
    pub(crate) fn clamped(&self, rows: usize) -> Query {
        Query {
            shape: self.shape.clone(),
            limit: self.limit.min(rows),
        }
    }
}

/// Language code names accepted in `lang = '<code>'`.
fn lang_code(name: &str) -> Option<u8> {
    match name {
        "en" => Some(0),
        "es" => Some(1),
        "pt" => Some(2),
        "ja" => Some(3),
        "ar" => Some(4),
        "other" => Some(5),
        _ => None,
    }
}

/// Tokenizer: lowercased identifiers/keywords, numbers, quoted strings,
/// and single-character punctuation.
fn tokenize(sql: &str) -> Result<Vec<String>, SqlError> {
    let mut out = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(SqlError::UnexpectedEnd("closing quote")),
                    }
                }
                out.push(format!("'{s}'"));
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_alphanumeric() || ch == '_' || ch == '.' {
                        s.push(ch.to_ascii_lowercase());
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(s);
            }
            '(' | ')' | ',' | ';' | '<' | '>' | '=' | '+' | '*' => {
                out.push(c.to_string());
                chars.next();
            }
            other => return Err(SqlError::Unexpected(other.to_string(), "a SQL token")),
        }
    }
    Ok(out)
}

/// Cursor over tokens with expectation helpers.
struct Cursor {
    toks: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(|s| s.as_str())
    }
    fn next(&mut self, want: &'static str) -> Result<&str, SqlError> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or(SqlError::UnexpectedEnd(want))?;
        self.pos += 1;
        Ok(t)
    }
    fn expect(&mut self, kw: &'static str) -> Result<(), SqlError> {
        let t = self.next(kw)?;
        if t == kw {
            Ok(())
        } else {
            Err(SqlError::Unexpected(t.to_string(), kw))
        }
    }
    fn eat(&mut self, kw: &str) -> bool {
        if self.peek() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

/// A parsed top-level statement: a query, or a query wrapped in one of
/// the `EXPLAIN` modes.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A plain `SELECT …` — execute it.
    Select(Query),
    /// `EXPLAIN SELECT …` — price the strategies with the catalog
    /// statistics and cost models (see [`crate::explain`]); nothing runs.
    Explain(Query),
    /// `EXPLAIN SANITIZE SELECT …` ([`Source::Dynamic`]) or
    /// `EXPLAIN LINT SELECT …` ([`Source::Static`]) — run the query with
    /// that analysis pass on and report every kernel launch's findings
    /// (see [`explain_analysis`]). `SANITIZE` observes each replayed
    /// launch (racecheck/memcheck/initcheck/perf findings); `LINT`
    /// judges each launch plan before it runs a single step (launch
    /// validity, occupancy bound, predicted coalescing and bank behavior,
    /// bounds proofs). Modeled on `EXPLAIN ANALYZE`: the query executes
    /// for real, since the plan shape is data-dependent.
    ExplainAnalysis(Source, Query),
}

/// Parses one top-level statement, including the `EXPLAIN`,
/// `EXPLAIN SANITIZE` and `EXPLAIN LINT` prefixes.
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let mut c = Cursor {
        toks: tokenize(sql)?,
        pos: 0,
    };
    if c.eat("explain") {
        if c.eat("sanitize") {
            Ok(Statement::ExplainAnalysis(
                Source::Dynamic,
                parse_query(&mut c)?,
            ))
        } else if c.eat("lint") {
            Ok(Statement::ExplainAnalysis(
                Source::Static,
                parse_query(&mut c)?,
            ))
        } else {
            Ok(Statement::Explain(parse_query(&mut c)?))
        }
    } else {
        Ok(Statement::Select(parse_query(&mut c)?))
    }
}

/// Parses one `SELECT` statement.
pub fn parse(sql: &str) -> Result<Query, SqlError> {
    let mut c = Cursor {
        toks: tokenize(sql)?,
        pos: 0,
    };
    parse_query(&mut c)
}

/// Parses a `SELECT …` from the cursor position to the end.
fn parse_query(c: &mut Cursor) -> Result<Query, SqlError> {
    c.expect("select")?;

    // select list: `id` or `uid , count ( * )`
    let first = c.next("a select column")?.to_string();
    let group_query = match first.as_str() {
        "id" => false,
        "uid" => {
            c.expect(",")?;
            let agg = c.next("COUNT(*)")?.to_string();
            if agg != "count" {
                return Err(SqlError::Unexpected(agg, "COUNT(*)"));
            }
            c.expect("(")?;
            c.eat("*");
            c.expect(")")?;
            // optional `AS alias`
            if c.eat("as") {
                c.next("an alias")?;
            }
            true
        }
        other => return Err(SqlError::Unknown(other.to_string())),
    };

    c.expect("from")?;
    let table = c.next("a table name")?.to_string();
    if table != "tweets" {
        return Err(SqlError::Unknown(table));
    }

    // WHERE
    let mut filter = None;
    if c.eat("where") {
        if group_query {
            return Err(SqlError::Unsupported("GROUP BY with WHERE"));
        }
        let col = c.next("a predicate column")?.to_string();
        match col.as_str() {
            "tweet_time" => {
                c.expect("<")?;
                let num = c.next("a number")?.to_string();
                let cutoff: u32 = num
                    .parse()
                    .map_err(|_| SqlError::Unexpected(num, "a number"))?;
                filter = Some(FilterOp::TimeLess(cutoff));
            }
            "lang" => {
                let mut langs = Vec::new();
                loop {
                    c.expect("=")?;
                    let lit = c.next("a quoted language code")?.to_string();
                    let name = lit
                        .strip_prefix('\'')
                        .and_then(|s| s.strip_suffix('\''))
                        .ok_or_else(|| SqlError::Unexpected(lit.clone(), "a quoted string"))?;
                    langs.push(lang_code(name).ok_or_else(|| SqlError::Unknown(name.to_string()))?);
                    if c.eat("or") {
                        let col2 = c.next("lang")?.to_string();
                        if col2 != "lang" {
                            return Err(SqlError::Unexpected(col2, "lang"));
                        }
                    } else {
                        break;
                    }
                }
                filter = Some(FilterOp::LangIn(langs));
            }
            other => return Err(SqlError::Unknown(other.to_string())),
        }
    }

    // GROUP BY
    let mut group_by_uid = false;
    if c.eat("group") {
        c.expect("by")?;
        let col = c.next("uid")?.to_string();
        if col != "uid" {
            return Err(SqlError::Unknown(col));
        }
        group_by_uid = true;
    }
    if group_query != group_by_uid {
        return Err(SqlError::Unsupported(
            "SELECT uid, COUNT(*) requires GROUP BY uid (and vice versa)",
        ));
    }

    // ORDER BY
    c.expect("order")?;
    c.expect("by")?;
    let mut likes_weight = None;
    if group_by_uid {
        let t = c.next("COUNT(*) or the alias")?.to_string();
        match t.as_str() {
            "count" => {
                c.expect("(")?;
                c.eat("*");
                c.expect(")")?;
            }
            _ if t.chars().all(|ch| ch.is_alphanumeric() || ch == '_') => {} // alias
            _ => return Err(SqlError::Unexpected(t, "COUNT(*)")),
        }
    } else {
        let col = c.next("retweet_count")?.to_string();
        if col != "retweet_count" {
            return Err(SqlError::Unknown(col));
        }
        if c.eat("+") {
            let w = c.next("a weight")?.to_string();
            let weight: f32 = w.parse().map_err(|_| SqlError::Unexpected(w, "a number"))?;
            c.expect("*")?;
            let col2 = c.next("likes_count")?.to_string();
            if col2 != "likes_count" {
                return Err(SqlError::Unknown(col2));
            }
            likes_weight = Some(weight);
        }
    }
    let dir = c.next("ASC or DESC")?.to_string();
    let ascending = match dir.as_str() {
        "desc" => false,
        "asc" => true,
        other => return Err(SqlError::Unexpected(other.to_string(), "ASC or DESC")),
    };
    if ascending && (group_by_uid || likes_weight.is_some()) {
        return Err(SqlError::Unsupported(
            "ASC is only supported for ORDER BY retweet_count",
        ));
    }

    // LIMIT
    c.expect("limit")?;
    let lim = c.next("a limit")?.to_string();
    let limit: usize = lim.parse().map_err(|_| SqlError::BadLimit(lim.clone()))?;
    if limit == 0 {
        return Err(SqlError::BadLimit(lim));
    }
    c.eat(";");
    if let Some(extra) = c.peek() {
        return Err(SqlError::Unexpected(extra.to_string(), "end of statement"));
    }

    // the rank rules apply to a statement read to its end, so a
    // malformed one reports its syntax error first
    let shape = match (group_by_uid, likes_weight) {
        (true, _) => Shape::GroupCount,
        // NaN compares unequal too
        (false, Some(w)) if w != 0.5 => {
            return Err(SqlError::Unsupported("ranking weight other than 0.5"))
        }
        (false, Some(_)) if filter.is_some() => {
            return Err(SqlError::Unsupported(
                "WHERE combined with a ranking function",
            ))
        }
        (false, Some(_)) => Shape::Ranked,
        (false, None) if ascending => Shape::Bottom(filter),
        (false, None) => Shape::Top(filter),
    };
    Ok(Query { shape, limit })
}

/// Executes a parsed query with the given strategy: one plan per
/// [`Shape`]. Device faults surface as [`QdbError::DeviceFault`];
/// nothing on this path panics.
pub fn execute(
    dev: &Device,
    table: &GpuTweetTable,
    q: &Query,
    strategy: Strategy,
) -> Result<QueryResult, QdbError> {
    match &q.shape {
        Shape::Top(f) => {
            filtered::<Kv<u32>>(dev, table, FilterOp::or_every_row(f), q.limit, strategy)
        }
        Shape::Bottom(f) => {
            filtered::<Rev<Kv<u32>>>(dev, table, FilterOp::or_every_row(f), q.limit, strategy)
        }
        Shape::Ranked => ranked_topk(dev, table, q.limit, strategy),
        Shape::GroupCount => group_topk(dev, table, q.limit, stage_strategy(strategy)),
    }
}

/// The output of `EXPLAIN SANITIZE` and `EXPLAIN LINT`: the query's real
/// result plus one [`AnalysisReport`] per kernel launch it made, holding
/// only the findings of the statement's own pass.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The statement's pass: [`Source::Dynamic`] for `SANITIZE`,
    /// [`Source::Static`] for `LINT`.
    pub source: Source,
    /// The executed query's result (the query really runs, like
    /// `EXPLAIN ANALYZE`).
    pub result: QueryResult,
    /// One report per launch, in launch order.
    pub reports: Vec<AnalysisReport>,
}

impl AnalyzedQuery {
    /// True when no launch produced any finding (waived lints count as
    /// clean).
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.is_clean())
    }

    /// Total error-severity findings across all launches.
    pub fn error_count(&self) -> usize {
        self.reports.iter().map(|r| r.error_count()).sum()
    }

    /// Renders the statement's summary: one line per clean launch (under
    /// `LINT` with its static occupancy and coalescing predictions), the
    /// full report for any launch with findings.
    pub fn render(&self) -> String {
        let keyword = match self.source {
            Source::Dynamic => "SANITIZE",
            Source::Static => "LINT",
        };
        let warnings: usize = self.reports.iter().map(|r| r.warning_count()).sum();
        let mut s = format!(
            "EXPLAIN {keyword}: {} launch(es), {} error(s), {} warning(s)\n",
            self.reports.len(),
            self.error_count(),
            warnings
        );
        for rep in &self.reports {
            if !rep.is_clean() {
                for line in rep.render().lines() {
                    s.push_str("  ");
                    s.push_str(line);
                    s.push('\n');
                }
                continue;
            }
            s.push_str(&format!(
                "  `{}` (grid {} x block {}): clean",
                rep.kernel, rep.grid_dim, rep.block_dim
            ));
            if self.source == Source::Static {
                let pred = rep
                    .prediction
                    .as_ref()
                    .map(|p| {
                        format!(
                            ", predicted sectors/access {:.4}, conflict degree {:.4}",
                            p.sectors_per_access(),
                            p.avg_conflict_degree()
                        )
                    })
                    .unwrap_or_default();
                s.push_str(&format!(
                    " (occupancy {:.3}{pred})",
                    rep.occupancy.occupancy
                ));
            }
            s.push('\n');
        }
        s
    }

    /// The launches' reports as a JSON array (the same schema as
    /// [`simt::analysis::reports_to_json`]).
    pub fn to_json(&self) -> String {
        simt::analysis::reports_to_json(&self.reports)
    }
}

/// Executes `q` with the `source` analysis pass enabled for the duration
/// and returns the result together with one report per launch — the
/// engine's `EXPLAIN SANITIZE` ([`Source::Dynamic`]) and `EXPLAIN LINT`
/// ([`Source::Static`]) modes.
///
/// The device's prior enable state of that pass is restored afterwards.
/// The statement reads only the reports its own launches appended, and
/// keeps only its own pass's findings even when the caller has the other
/// pass on too. The device's report log is left untouched.
pub fn explain_analysis(
    dev: &Device,
    table: &GpuTweetTable,
    q: &Query,
    strategy: Strategy,
    source: Source,
) -> Result<AnalyzedQuery, QdbError> {
    let set = |on: bool| match (source, on) {
        (Source::Dynamic, true) => dev.enable_sanitizer(),
        (Source::Dynamic, false) => dev.disable_sanitizer(),
        (Source::Static, true) => dev.enable_lint(),
        (Source::Static, false) => dev.disable_lint(),
    };
    let was_enabled = match source {
        Source::Dynamic => dev.sanitizer_enabled(),
        Source::Static => dev.lint_enabled(),
    };
    set(true);
    let start = dev.analysis_len();
    let result = execute(dev, table, q, strategy);
    let mut reports = dev.analysis_since(start);
    set(was_enabled);
    for rep in &mut reports {
        rep.findings.retain(|f| f.source == source);
        if source == Source::Dynamic {
            // the prediction is the static pass's output
            rep.prediction = None;
            rep.phases.clear();
        }
    }
    Ok(AnalyzedQuery {
        source,
        result: result?,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::filtered_topk;
    use datagen::twitter::TweetTable;

    #[test]
    fn parses_q1() {
        let q = parse(
            "SELECT id FROM tweets WHERE tweet_time < 123456 ORDER BY retweet_count DESC LIMIT 50",
        )
        .unwrap();
        assert_eq!(q.shape, Shape::Top(Some(FilterOp::TimeLess(123456))));
        assert_eq!(q.limit, 50);
    }

    #[test]
    fn parses_q2_ranking() {
        let q = parse(
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q.shape, Shape::Ranked);
    }

    #[test]
    fn parses_q3_lang_disjunction() {
        let q = parse(
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' ORDER BY retweet_count DESC LIMIT 7",
        )
        .unwrap();
        assert_eq!(q.shape, Shape::Top(Some(FilterOp::LangIn(vec![0, 1]))));
    }

    #[test]
    fn parses_q4_group_by() {
        let q = parse(
            "SELECT uid, COUNT(*) AS num_tweets FROM tweets GROUP BY uid ORDER BY num_tweets DESC LIMIT 50",
        )
        .unwrap();
        assert_eq!(q.shape, Shape::GroupCount);
        // and the COUNT(*) spelling in ORDER BY works too
        let q2 =
            parse("SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50")
                .unwrap();
        assert_eq!(q2.shape, Shape::GroupCount);
    }

    #[test]
    fn parses_asc_and_rejects_it_off_retweet_count() {
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 5").unwrap();
        assert_eq!(q.shape, Shape::Bottom(None));
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        assert_eq!(q.shape, Shape::Top(None));
        assert!(matches!(
            parse("SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) ASC LIMIT 5"),
            Err(SqlError::Unsupported(_))
        ));
        assert!(matches!(
            parse("SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count ASC LIMIT 5"),
            Err(SqlError::Unsupported(_))
        ));
        assert!(matches!(
            parse("SELECT id FROM tweets ORDER BY retweet_count sideways LIMIT 5"),
            Err(SqlError::Unexpected(..))
        ));
    }

    #[test]
    fn asc_executes_as_bottom_k() {
        let host = TweetTable::generate(8_000, 126);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 10").unwrap();
        let r = execute(&dev, &table, &q, Strategy::StageBitonic).unwrap();
        let mut expect: Vec<u32> = host.retweet_count.clone();
        expect.sort_unstable();
        expect.truncate(10);
        let keys: Vec<u32> = r
            .ids
            .iter()
            .map(|&id| host.retweet_count[id as usize])
            .collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse("select ID from TWEETS order by RETWEET_COUNT desc limit 3").unwrap();
        assert_eq!(q.limit, 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("DROP TABLE tweets"),
            Err(SqlError::Unexpected(..))
        ));
        assert!(matches!(
            parse("SELECT id FROM users ORDER BY retweet_count DESC LIMIT 5"),
            Err(SqlError::Unknown(_))
        ));
        assert!(matches!(
            parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 0"),
            Err(SqlError::BadLimit(_))
        ));
        assert!(matches!(
            parse("SELECT id FROM tweets ORDER BY retweet_count DESC"),
            Err(SqlError::UnexpectedEnd(_))
        ));
        assert!(matches!(
            parse("SELECT id FROM tweets WHERE lang='xx' ORDER BY retweet_count DESC LIMIT 5"),
            Err(SqlError::Unknown(_))
        ));
        assert!(matches!(
            parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5 extra"),
            Err(SqlError::Unexpected(..))
        ));
    }

    #[test]
    fn executes_all_four_paper_queries() {
        let host = TweetTable::generate(20_000, 123);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let sqls = [
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20".into(),
            "SELECT id FROM tweets WHERE lang='en' OR lang='es' ORDER BY retweet_count DESC LIMIT 30".into(),
            "SELECT uid, COUNT(*) AS num_tweets FROM tweets GROUP BY uid ORDER BY num_tweets DESC LIMIT 50".into(),
        ];
        for sql in &sqls {
            let q = parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            for strat in Strategy::all() {
                let r = execute(&dev, &table, &q, strat).unwrap();
                assert!(!r.ids.is_empty(), "{sql} via {}", strat.name());
                assert!(r.ids.len() <= q.limit);
            }
        }
    }

    #[test]
    fn sql_results_match_direct_api() {
        let host = TweetTable::generate(10_000, 124);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.4);
        let q = parse(&format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 25"
        ))
        .unwrap();
        let via_sql = execute(&dev, &table, &q, Strategy::CombinedBitonic).unwrap();
        let direct = filtered_topk(
            &dev,
            &table,
            &FilterOp::TimeLess(cutoff),
            25,
            Strategy::CombinedBitonic,
        )
        .unwrap();
        assert_eq!(via_sql.ids, direct.ids);
    }

    #[test]
    fn parses_explain_and_analysis_prefixes() {
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5";
        assert!(matches!(
            parse_statement(sql).unwrap(),
            Statement::Select(_)
        ));
        match parse_statement(&format!("EXPLAIN {sql}")).unwrap() {
            Statement::Explain(q) => assert_eq!(q.limit, 5),
            other => panic!("expected Explain, got {other:?}"),
        }
        match parse_statement(&format!("explain sanitize {sql}")).unwrap() {
            Statement::ExplainAnalysis(Source::Dynamic, q) => assert_eq!(q.limit, 5),
            other => panic!("expected EXPLAIN SANITIZE, got {other:?}"),
        }
        match parse_statement(&format!("EXPLAIN LINT {sql}")).unwrap() {
            Statement::ExplainAnalysis(Source::Static, q) => assert_eq!(q.limit, 5),
            other => panic!("expected EXPLAIN LINT, got {other:?}"),
        }
        // the query inside the prefix is still fully validated
        assert!(parse_statement(
            "EXPLAIN SANITIZE SELECT id FROM nope ORDER BY retweet_count DESC LIMIT 5"
        )
        .is_err());
        assert!(parse_statement("EXPLAIN").is_err());
    }

    #[test]
    fn sanitizer_explain_runs_clean_on_paper_queries() {
        let host = TweetTable::generate(20_000, 127);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let sqls = [
            format!("EXPLAIN SANITIZE SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
            "EXPLAIN SANITIZE SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20".into(),
            "EXPLAIN SANITIZE SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50".into(),
        ];
        for sql in &sqls {
            let q = match parse_statement(sql).unwrap() {
                Statement::ExplainAnalysis(Source::Dynamic, q) => q,
                other => panic!("{sql}: parsed as {other:?}"),
            };
            for strat in Strategy::all() {
                let out = explain_analysis(&dev, &table, &q, strat, Source::Dynamic).unwrap();
                assert!(!out.result.ids.is_empty(), "{sql} via {}", strat.name());
                assert!(!out.reports.is_empty(), "{sql}: no launches sanitized");
                assert!(
                    out.is_clean(),
                    "{sql} via {}:\n{}",
                    strat.name(),
                    out.render()
                );
                assert!(out.render().contains("clean"));
            }
        }
        // the temporary enable did not stick
        assert!(!dev.sanitizer_enabled());
    }

    #[test]
    fn lint_explain_runs_clean_on_paper_queries() {
        let host = TweetTable::generate(20_000, 127);
        let dev = Device::titan_x();
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.5);
        let sqls = [
            format!("EXPLAIN LINT SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 50"),
            "EXPLAIN LINT SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20".into(),
            "EXPLAIN LINT SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50".into(),
        ];
        for sql in &sqls {
            let q = match parse_statement(sql).unwrap() {
                Statement::ExplainAnalysis(Source::Static, q) => q,
                other => panic!("{sql}: parsed as {other:?}"),
            };
            for strat in Strategy::all() {
                let out = explain_analysis(&dev, &table, &q, strat, Source::Static).unwrap();
                assert!(!out.result.ids.is_empty(), "{sql} via {}", strat.name());
                assert!(!out.reports.is_empty(), "{sql}: no launches linted");
                assert!(
                    out.is_clean(),
                    "{sql} via {}:\n{}",
                    strat.name(),
                    out.render()
                );
                // every launch carried an access-spec contract
                for rep in &out.reports {
                    assert!(
                        rep.prediction.is_some(),
                        "{sql} via {}: `{}` has no declared spec",
                        strat.name(),
                        rep.kernel
                    );
                }
                assert!(out.render().contains("clean"));
                assert!(out.to_json().starts_with('['));
            }
        }
        // the temporary enable did not stick
        assert!(!dev.lint_enabled());
    }

    /// A device with both passes on and at least 100 analyzed launches
    /// behind it. Its spec has 64× the resident warps of a Titan X, so
    /// every launch trips the occupancy lint in both passes.
    fn busy_device(seed: u64) -> (Device, GpuTweetTable, Query) {
        let dev = Device::new(simt::DeviceSpec {
            max_warps_per_sm: 64 * 64,
            ..simt::DeviceSpec::titan_x_maxwell()
        });
        let table = GpuTweetTable::upload(&dev, &TweetTable::generate(2_000, seed));
        let q = parse("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5").unwrap();
        dev.enable_lint();
        dev.enable_sanitizer();
        while dev.analysis_len() < 100 {
            execute(&dev, &table, &q, Strategy::StageBitonic).unwrap();
        }
        (dev, table, q)
    }

    /// Runs `EXPLAIN` with `source` on a busy device and checks that it
    /// reports exactly its own launches, each with only `source`'s
    /// occupancy finding, while the device log keeps both passes'.
    fn explain_on_busy_device(seed: u64, source: Source) -> AnalyzedQuery {
        let (dev, table, q) = busy_device(seed);
        let (log_start, reports_start) = (dev.log_len(), dev.analysis_len());
        let out = explain_analysis(&dev, &table, &q, Strategy::StageBitonic, source).unwrap();
        assert!(dev.lint_enabled(), "caller's enable must survive");
        assert!(dev.sanitizer_enabled(), "caller's enable must survive");
        let launches = dev.log_since(log_start);
        assert!(!launches.is_empty());
        assert_eq!(
            out.reports.len(),
            launches.len(),
            "exactly its own launches"
        );
        for (rep, launch) in out.reports.iter().zip(&launches) {
            assert_eq!(rep.kernel, launch.name);
            let low = rep.findings_of(simt::FindingKind::LowOccupancy);
            assert_eq!(low.len(), 1, "{}", rep.render());
            assert_eq!(low[0].source, source);
            assert!(rep.findings.iter().all(|f| f.source == source));
        }
        // the device log retains the same launches, with both passes'
        // findings
        let log = dev.analysis_since(reports_start);
        assert_eq!(log.len(), out.reports.len());
        for rep in &log {
            assert_eq!(rep.findings_of(simt::FindingKind::LowOccupancy).len(), 2);
            assert!(rep.prediction.is_some());
        }
        assert!(out.to_json().starts_with('['));
        out
    }

    #[test]
    fn lint_explain_restores_enabled_state() {
        let out = explain_on_busy_device(129, Source::Static);
        assert!(out.reports.iter().all(|r| r.prediction.is_some()));
        assert!(out.render().starts_with("EXPLAIN LINT: "));
    }

    #[test]
    fn sanitizer_explain_restores_enabled_state() {
        let out = explain_on_busy_device(128, Source::Dynamic);
        // the prediction is the static pass's, so SANITIZE drops it
        assert!(out.reports.iter().all(|r| r.prediction.is_none()));
        assert!(out.render().starts_with("EXPLAIN SANITIZE: "));
    }

    #[test]
    fn unsupported_shapes_error_cleanly() {
        assert_eq!(
            parse("SELECT id FROM tweets ORDER BY retweet_count + 0.9 * likes_count DESC LIMIT 5"),
            Err(SqlError::Unsupported("ranking weight other than 0.5"))
        );
        assert_eq!(
            parse(
                "SELECT id FROM tweets WHERE lang = 'en' \
                 ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 5"
            ),
            Err(SqlError::Unsupported(
                "WHERE combined with a ranking function"
            ))
        );
    }

    /// A NaN weight compares false against any tolerance, so it fails the
    /// rank rule like every other weight but 0.5; and the rule applies
    /// only to a statement read to its end, so a syntax error wins.
    #[test]
    fn nan_ranking_weight_fails_in_the_parser() {
        let sql = "SELECT id FROM tweets ORDER BY retweet_count + nan * likes_count DESC LIMIT 8";
        let err = crate::parse_sql(sql).unwrap_err();
        assert_eq!(err, SqlError::Unsupported("ranking weight other than 0.5"));
        assert!(err.to_string().contains("ranking weight other than 0.5"));
        assert!(matches!(
            parse("SELECT id FROM tweets ORDER BY retweet_count + nan * likes_count DESC LIMIT 0"),
            Err(SqlError::BadLimit(_))
        ));
    }

    #[test]
    fn negative_parse_shapes_never_panic() {
        // malformed statements across every clause return typed errors
        let bad = [
            "",
            ";",
            "SELECT",
            "SELECT id",
            "SELECT id FROM",
            "SELECT id, uid FROM tweets ORDER BY retweet_count DESC LIMIT 5",
            "SELECT uid, COUNT(* FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5",
            "SELECT uid, COUNT(*) FROM tweets ORDER BY COUNT(*) DESC LIMIT 5",
            "SELECT id FROM tweets GROUP BY uid ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets WHERE tweet_time < abc ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets WHERE tweet_time > 5 ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets WHERE lang = en ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets WHERE lang = 'en' OR uid = 3 ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets WHERE uid = 3 ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY likes_count DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY retweet_count + x * likes_count DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * uid DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT",
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT -3",
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 1.5",
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5 ; garbage",
            "SELECT id FROM tweets WHERE lang = 'en ORDER BY retweet_count DESC LIMIT 5",
            "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5 #",
        ];
        for sql in bad {
            assert!(parse(sql).is_err(), "{sql:?} must fail to parse");
            assert!(parse_statement(sql).is_err(), "{sql:?} must fail to parse");
        }
    }
}
