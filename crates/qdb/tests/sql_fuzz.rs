//! Fuzzes the SQL front-end. Random token streams over the grammar's
//! keywords, numbers, strings, punctuation and non-ASCII text, and valid
//! queries with one token inserted, replaced or deleted, must each parse
//! to a statement or fail with a typed `SqlError` — never panic. Every
//! `EXPLAIN [SANITIZE | LINT]` prefix of a valid query, in any letter
//! case, parses to the matching statement. The parser is the only
//! validator: every single-token mutation it accepts as a `SELECT` runs
//! on both engines over one resident table and returns the same ids.

use datagen::twitter::TweetTable;
use proptest::prelude::*;
use qdb::{
    execute_cpu, execute_sql, parse_sql, parse_statement, GpuTweetTable, QdbError, Statement,
    Strategy,
};
use simt::{Device, Source};

/// The token pool: the grammar's keywords and identifiers, numbers the
/// parser must reject or bound, quoted and unterminated strings,
/// punctuation inside and outside the grammar, and non-ASCII text.
const TOKENS: &[&str] = &[
    "select",
    "id",
    "uid",
    "count",
    "as",
    "from",
    "tweets",
    "where",
    "tweet_time",
    "lang",
    "or",
    "group",
    "by",
    "order",
    "retweet_count",
    "likes_count",
    "asc",
    "desc",
    "limit",
    "explain",
    "sanitize",
    "lint",
    "num_tweets",
    "nan",
    "inf",
    "-inf",
    "1e40",
    "-3",
    "0",
    "7",
    "0.5",
    "4294967296",
    "18446744073709551616",
    "'en'",
    "'ja'",
    "'zz'",
    "''",
    "'unterminated",
    "'",
    "(",
    ")",
    ",",
    ";",
    "<",
    ">",
    "=",
    "+",
    "*",
    "-",
    ".",
    "/",
    "\"",
    "`",
    "@",
    "é",
    "日本語",
    "ß",
    "İ",
    "🙂",
    "\u{0}",
    "\u{7f}",
    "ǅ",
    "\u{200b}",
];

const LANGS: [&str; 6] = ["en", "es", "pt", "ja", "ar", "other"];

/// A valid query of one of the grammar's shapes.
fn valid_query(shape: usize, cutoff: u32, k: usize, asc: bool, langs: usize) -> String {
    match shape % 4 {
        0 => format!(
            "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count {} LIMIT {k}",
            if asc { "ASC" } else { "DESC" }
        ),
        1 => format!(
            "SELECT id FROM tweets WHERE lang = '{}' OR lang = '{}' ORDER BY retweet_count DESC LIMIT {k}",
            LANGS[langs % 6],
            LANGS[langs / 6 % 6]
        ),
        2 => format!(
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT {k}"
        ),
        _ => format!(
            "SELECT uid, COUNT(*) AS num_tweets FROM tweets GROUP BY uid ORDER BY num_tweets DESC LIMIT {k};"
        ),
    }
}

/// `sql` with the word at `at` (modulo one past the last) replaced by
/// `tok` (op 1) or deleted (op 2), or `tok` inserted there (op 0).
fn mutated(sql: &str, at: usize, op: usize, tok: &str) -> String {
    let mut words: Vec<&str> = sql.split(' ').collect();
    let at = at % (words.len() + 1);
    match op {
        0 => words.insert(at, tok),
        _ if at == words.len() => {}
        1 => words[at] = tok,
        _ => {
            words.remove(at);
        }
    }
    words.join(" ")
}

/// `sql` with the case of each unquoted letter drawn from `bits`.
fn mixed_case(sql: &str, bits: u64) -> String {
    let mut quoted = false;
    sql.chars()
        .enumerate()
        .map(|(i, c)| {
            quoted ^= c == '\'';
            match (quoted, bits >> (i % 64) & 1) {
                (false, 1) => c.to_ascii_uppercase(),
                (false, _) => c.to_ascii_lowercase(),
                (true, _) => c,
            }
        })
        .collect()
}

/// Pool tokens joined by separators drawn from `seps`: a space, nothing,
/// a newline or a tab.
fn token_stream(tokens: &[usize], seps: u64) -> String {
    let mut sql = String::new();
    for (i, &t) in tokens.iter().enumerate() {
        sql.push_str(["", " ", "\n", "\t"][(seps >> (2 * (i % 32)) & 3) as usize]);
        sql.push_str(TOKENS[t]);
    }
    sql
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_token_streams_parse_or_fail_typed(
        tokens in prop::collection::vec(0..TOKENS.len(), 0..24),
        case_bits in any::<u64>(),
        seps in any::<u64>(),
    ) {
        let sql = mixed_case(&token_stream(&tokens, seps), case_bits);
        if let Err(e) = parse_statement(&sql) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn mutated_valid_queries_parse_or_fail_typed(
        shape in 0usize..4,
        k in 1usize..100,
        prefix in 0usize..4,
        at in 0usize..64,
        op in 0usize..3,
        tok in 0..TOKENS.len(),
    ) {
        let sql = format!(
            "{}{}",
            ["", "EXPLAIN ", "EXPLAIN SANITIZE ", "EXPLAIN LINT "][prefix],
            valid_query(shape, 500_000, k, false, 1)
        );
        if let Err(e) = parse_statement(&mutated(&sql, at, op, TOKENS[tok])) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every single-token mutation of every valid shape that the parser
    /// accepts as a `SELECT` runs on the simulator and on the CPU engine
    /// over the same resident 4,096-row table: neither refuses it, and
    /// both return the same ids (`StageBitonic` breaks key ties by row id
    /// on both).
    #[test]
    fn accepted_selects_run_identically_on_both_engines(
        k in 1usize..100,
        asc in any::<bool>(),
        langs in 0usize..36,
    ) {
        let host = TweetTable::generate(4_096, 7);
        let dev = Device::titan_x();
        let gpu = GpuTweetTable::upload(&dev, &host);
        let mut accepted = 0;
        for shape in 0..4 {
            let sql = valid_query(shape, 500_000, k, asc, langs);
            let words = sql.split(' ').count();
            for (at, op, tok) in (0..=words).flat_map(|at| {
                (0..3).flat_map(move |op| TOKENS.iter().map(move |&tok| (at, op, tok)))
            }) {
                let sql = mutated(&sql, at, op, tok);
                let Ok(Statement::Select(q)) = parse_statement(&sql) else {
                    continue;
                };
                accepted += 1;
                let on_device = execute_sql(&dev, &gpu, &q, Strategy::StageBitonic);
                let on_cpu = execute_cpu(&gpu, &q, Strategy::StageBitonic, 1);
                match (on_device, on_cpu) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a.ids, b.ids, "{}", sql),
                    // the device's bitonic stage holds at most 2048
                    // candidates per block: a larger LIMIT over more rows
                    // is a typed launch-limit fault, not a refused shape
                    (Err(QdbError::DeviceFault { transient: false, .. }), Ok(_))
                        if q.limit > 2048 => {}
                    (a, b) => prop_assert!(
                        false,
                        "{sql}: parsed but refused: {:?} / {:?}",
                        a.err(),
                        b.err()
                    ),
                }
            }
        }
        prop_assert!(accepted > 40, "only {accepted} mutations parsed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn explain_prefixes_parse_to_the_matching_statement(
        shape in 0usize..4,
        cutoff in any::<u32>(),
        k in 1usize..1_000_000,
        asc in any::<bool>(),
        langs in 0usize..36,
        case_bits in any::<u64>(),
    ) {
        let sql = mixed_case(&valid_query(shape, cutoff, k, asc, langs), case_bits);
        let q = parse_sql(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(parse_statement(&sql).unwrap(), Statement::Select(q.clone()));
        let prefixes = [
            ("EXPLAIN", Statement::Explain(q.clone())),
            ("EXPLAIN SANITIZE", Statement::ExplainAnalysis(Source::Dynamic, q.clone())),
            ("EXPLAIN LINT", Statement::ExplainAnalysis(Source::Static, q.clone())),
        ];
        for (prefix, want) in prefixes {
            let stmt = format!("{} {sql}", mixed_case(prefix, case_bits.rotate_left(17)));
            prop_assert_eq!(parse_statement(&stmt).unwrap(), want, "{}", stmt);
        }
    }
}
