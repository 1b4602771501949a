//! Fuzzing the SQL front door: [`normalize`] and [`parse`] see raw request
//! bodies, so no input may panic or overflow the stack, and normalizing
//! must never turn a query that parses into one that does not — the
//! serving path parses only the normalized text.
//!
//! Properties, over arbitrary bytes, token soup from the SQL vocabulary,
//! and valid queries in random spellings:
//!
//! 1. `normalize(s)` and `parse(s)` return (`Ok` or `Err`) without panicking.
//! 2. If `parse(s)` succeeds, so does `parse(normalize(s))`, and both
//!    describe the same query (aggregate names aside: normalization folds
//!    alias case by design).
//! 3. `normalize` is idempotent.

use std::panic::{catch_unwind, AssertUnwindSafe};

use engine::sql::{normalize, parse};
use engine::GroupByQuery;
use proptest::prelude::*;
use relation::{DataType, RelationBuilder, Schema};

fn schema() -> Schema {
    RelationBuilder::new()
        .column("l_id", DataType::Int)
        .column("l_returnflag", DataType::Str)
        .column("l_shipdate", DataType::Date)
        .column("l_quantity", DataType::Float)
        .column("l_extendedprice", DataType::Float)
        .finish()
        .schema()
        .clone()
}

/// A query's meaning: everything but the output names of its aggregates.
fn meaning(q: &GroupByQuery) -> String {
    let aggs: Vec<_> = q.aggregates.iter().map(|a| (a.func, &a.expr)).collect();
    let having = q.having.as_ref().map(|h| (h.op, h.value.to_bits()));
    format!("{:?} {:?} {:?} {:?}", q.grouping, aggs, q.predicate, having)
}

/// Check properties 1–3 on `text`, returning whether it parsed.
fn check(schema: &Schema, text: &str) -> Result<bool, TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| (normalize(text), parse(schema, text))));
    let Ok((normalized, parsed)) = outcome else {
        return Err(TestCaseError::fail(format!("panicked on {text:?}")));
    };
    if let Ok(key) = &normalized {
        let again = catch_unwind(|| normalize(key))
            .map_err(|_| TestCaseError::fail(format!("normalize panicked on {key:?}")))?;
        prop_assert_eq!(again.as_ref().ok(), Some(key), "idempotence on {:?}", text);
    }
    let Ok(query) = parsed else {
        return Ok(false);
    };
    let Ok(key) = normalized else {
        return Err(TestCaseError::fail(format!(
            "{text:?} parses but does not normalize"
        )));
    };
    let reparsed = catch_unwind(|| parse(schema, &key))
        .map_err(|_| TestCaseError::fail(format!("parse panicked on {key:?}")))?;
    match reparsed {
        Ok(q) => prop_assert_eq!(meaning(&q), meaning(&query), "{:?} vs {:?}", text, key),
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "{text:?} parses but its normalized form {key:?} does not: {e}"
            )))
        }
    }
    Ok(true)
}

/// Vocabulary for token soup: keywords in mixed case, the schema's
/// columns, an unknown column, literals in every spelling the lexer
/// reads (and some it rejects), operators, and stray bytes.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "SELECT", "select", "FROM", "lineitem", "WHERE", "where", "GROUP", "BY", "group by",
    "HAVING", "AS", "AND", "or", "NOT", "BETWEEN", "SUM", "count", "Avg", "MIN", "MAX",
    "l_id", "L_RETURNFLAG", "l_shipdate", "l_quantity", "l_extendedprice", "nope",
    "(", ")", "(*)", ",", ";", "*", "+", "-", "/", "=", "<>", "!=", "<", "<=", ">", ">=", "!",
    "0", "25", "2.5e1", ".5", "1e", "1e999", "1e-999", "3.", "1.2.3",
    "'A'", "'01-SEP-98'", "'it''s'", "'Zürich'", "'東京'", "'", "''",
    "é", "@", "\u{85}", "\u{a0}", "\t", "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..160)) {
        let text = String::from_utf8_lossy(&bytes);
        check(&schema(), &text)?;
    }

    #[test]
    fn token_soup_never_panics_and_normalizes_soundly(
        picks in proptest::collection::vec((0..TOKENS.len(), 0usize..4), 0..40),
    ) {
        let mut text = String::new();
        for (t, sep) in picks {
            text.push_str(TOKENS[t]);
            text.push_str(["", " ", "  ", "\n"][sep]);
        }
        check(&schema(), &text)?;
    }
}

/// A random spelling of one part of a valid query.
fn pick<'a>(options: &[&'a str], i: usize) -> &'a str {
    options[i % options.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// Valid queries in random spellings: every one must parse, and its
    /// normalized form must parse to the same query.
    #[test]
    fn valid_queries_survive_normalization(
        choices in proptest::collection::vec(0usize..64, 8),
        ws in proptest::collection::vec(0usize..4, 12),
    ) {
        let sp = |i: usize| [" ", "  ", "\n", " \t "][ws[i] % 4];
        let alias = pick(&["v", "V", "Total_Value"], choices[3]);
        let text = format!(
            "{sel}{s0}l_returnflag,{s1}{agg}({measure}){s2}AS{s3}{alias}{s4}{from}{s5}lineitem{s6}\
             {where_}{s7}{pred}{s8}{group}{s9}l_returnflag{s10}{having}{end}",
            sel = pick(&["SELECT", "select", "SeLeCt"], choices[0]),
            agg = pick(&["SUM", "sum", "AVG", "min", "Max"], choices[1]),
            measure = pick(
                &["l_quantity", "L_QUANTITY * 2", "(l_quantity+1.5e0)/2", "-l_extendedprice", "--l_id"],
                choices[2],
            ),
            alias = alias,
            from = pick(&["FROM", "from"], choices[4]),
            where_ = pick(&["WHERE", "where"], choices[5]),
            pred = pick(
                &[
                    "l_quantity >= 25",
                    "l_quantity>=2.5e1 AND NOT (l_id < 10)",
                    "l_returnflag <> 'Zürich'",
                    "l_returnflag != '東京' OR l_shipdate <= '01-SEP-98'",
                    "l_id BETWEEN .5 AND 1e3",
                    "((l_id = 3))",
                    "l_returnflag = 'it''s'",
                ],
                choices[6],
            ),
            group = pick(&["GROUP BY", "group  by", "Group\nBy"], choices[7]),
            having = match choices[0] % 3 {
                0 => String::new(),
                1 => format!("HAVING {alias} <= 1e2"),
                _ => format!("having {alias}>100.0"),
            },
            end = pick(&["", ";", " ;"], choices[5] + choices[1]),
            s0 = sp(0), s1 = sp(1), s2 = sp(2), s3 = sp(3), s4 = sp(4), s5 = sp(5),
            s6 = sp(6), s7 = sp(7), s8 = sp(8), s9 = sp(9), s10 = sp(10),
        );
        prop_assert!(check(&schema(), &text)?, "valid query rejected: {:?}", text);
    }
}

#[test]
fn literal_edge_cases_normalize_soundly() {
    let schema = schema();
    for text in [
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 1e999",
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 1e308",
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 1e-999",
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity > -0.0",
        "SELECT SUM(l_quantity * 1e300 * 1e300) FROM lineitem",
        "SELECT COUNT(*) FROM lineitem WHERE l_returnflag = 'Zürich ''東京'''",
        "SELECT COUNT(*) FROM lineitem WHERE l_returnflag = ''",
    ] {
        check(&schema, text).unwrap();
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let schema = schema();
    let n = 200_000;
    let parens = format!(
        "SELECT SUM({}l_quantity{}) FROM lineitem",
        "(".repeat(n),
        ")".repeat(n)
    );
    let minus = format!("SELECT SUM({}l_quantity) FROM lineitem", "-".repeat(n));
    let nots = format!(
        "SELECT COUNT(*) FROM lineitem WHERE {}l_id = 1",
        "NOT ".repeat(n)
    );
    let preds = format!(
        "SELECT COUNT(*) FROM lineitem WHERE {}l_id = 1{}",
        "(".repeat(n),
        ")".repeat(n)
    );
    for text in [parens, minus, nots, preds] {
        assert!(parse(&schema, &text).is_err());
        assert!(normalize(&text).is_ok());
    }
    // Moderate nesting still parses.
    let ok = format!(
        "SELECT SUM({}l_quantity{}) FROM lineitem WHERE {}l_id = 1",
        "(".repeat(50),
        ")".repeat(50),
        "NOT ".repeat(50)
    );
    parse(&schema, &ok).unwrap();
}
