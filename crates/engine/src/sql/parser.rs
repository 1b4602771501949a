//! Recursive-descent parser for the SQL subset, resolving names against a
//! schema as it goes.

use relation::predicate::CmpOp;
use relation::{ColumnId, DataType, Expr, Predicate, Schema, Value};

use crate::aggregate::{AggregateFn, AggregateSpec};
use crate::error::{EngineError, Result};
use crate::query::{GroupByQuery, Having};
use crate::sql::lexer::{tokenize, Token};

/// Parse `text` into a [`GroupByQuery`] against `schema`.
///
/// Grammar (case-insensitive keywords):
///
/// ```text
/// query    := SELECT items FROM ident [WHERE pred] [GROUP BY cols] [HAVING hcond] [;]
/// items    := item (',' item)*
/// item     := column | agg [AS ident]
/// agg      := (SUM|AVG|MIN|MAX) '(' expr ')' | COUNT '(' '*' ')'
/// expr     := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)*
/// factor   := number | column | '(' expr ')'
/// pred     := conj (OR conj)* ; conj := unit (AND unit)*
/// unit     := [NOT] ( '(' pred ')' | column cmp literal
///                   | column BETWEEN literal AND literal )
/// hcond    := ident cmp number
/// ```
///
/// # Example
///
/// ```
/// use relation::{DataType, Field, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("state", DataType::Str),
///     Field::new("income", DataType::Float),
/// ]).unwrap();
/// let q = engine::sql::parse(
///     &schema,
///     "SELECT state, AVG(income) AS a FROM census GROUP BY state HAVING a > 50000",
/// ).unwrap();
/// assert_eq!(q.grouping.len(), 1);
/// assert!(q.having.is_some());
/// ```
pub fn parse(schema: &Schema, text: &str) -> Result<GroupByQuery> {
    let tokens = tokenize(text)?;
    let mut p = Parser {
        schema,
        tokens,
        pos: 0,
        depth: 0,
    };
    p.query()
}

/// Deepest nesting of parentheses, unary minus and NOT the parser accepts.
/// Each level is a few stack frames of recursive descent, so a request
/// body of nothing but `(` must become an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    schema: &'a Schema,
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth (see [`MAX_DEPTH`]).
    depth: usize,
}

/// One SELECT-list entry before GROUP BY validation.
enum SelectItem {
    Column(ColumnId, String),
    Aggregate(AggregateSpec),
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(EngineError::Sql(msg.into()))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            self.err(format!("expected `{sym}`, found {:?}", self.peek()))
        }
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_DEPTH {
            return self.err(format!("query nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn column(&mut self, name: &str) -> Result<ColumnId> {
        // Case-insensitive, as SQL identifiers are: the plan cache keys on
        // normalized text with identifier case folded, so resolution must
        // accept any casing for the fold to be sound.
        self.schema
            .column_id_ci(name)
            .map_err(|_| EngineError::Sql(format!("unknown column `{name}`")))
    }

    fn query(&mut self) -> Result<GroupByQuery> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(",") {
            items.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let _table = self
            .ident("table name")
            .map_err(|_| EngineError::Sql("expected table name after FROM".into()))?;

        let predicate = if self.eat_keyword("WHERE") {
            self.predicate()?
        } else {
            Predicate::True
        };

        let mut grouping: Vec<ColumnId> = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                let name = self.ident("grouping column")?;
                grouping.push(self.column(&name)?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.having()?)
        } else {
            None
        };

        let _ = self.eat_symbol(";");
        if let Some(t) = self.peek() {
            return self.err(format!("trailing input starting at {t:?}"));
        }

        // Standard SQL rule: plain columns in the SELECT list must appear
        // in GROUP BY; the query needs at least one aggregate.
        let mut aggregates = Vec::new();
        for item in items {
            match item {
                SelectItem::Aggregate(a) => aggregates.push(a),
                SelectItem::Column(id, name) => {
                    if !grouping.contains(&id) {
                        return self.err(format!(
                            "column `{name}` in SELECT list must appear in GROUP BY"
                        ));
                    }
                }
            }
        }
        if aggregates.is_empty() {
            return self.err("query must contain at least one aggregate");
        }

        let mut q = GroupByQuery::new(grouping, aggregates).with_predicate(predicate);
        if let Some(h) = having {
            q = q.with_having(h);
        }
        Ok(q)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let func = match self.peek() {
            Some(Token::Keyword(k)) => match k.as_str() {
                "SUM" => Some(AggregateFn::Sum),
                "AVG" => Some(AggregateFn::Avg),
                "MIN" => Some(AggregateFn::Min),
                "MAX" => Some(AggregateFn::Max),
                "COUNT" => Some(AggregateFn::Count),
                _ => None,
            },
            _ => None,
        };
        let Some(func) = func else {
            // Plain grouping column.
            let name = self.ident("column or aggregate in SELECT list")?;
            let id = self.column(&name)?;
            return Ok(SelectItem::Column(id, name));
        };
        self.pos += 1; // consume the function keyword
        self.expect_symbol("(")?;
        let (expr, default_name) = if func == AggregateFn::Count {
            if !self.eat_symbol("*") {
                return self.err("COUNT supports only COUNT(*)");
            }
            (None, "count_star".to_string())
        } else {
            let start = self.pos;
            let e = self.expr()?;
            // Default output name: func_firstcolumn if the expression is a
            // bare column, else func_expr<position>.
            let name = match &e {
                Expr::Column(id) => format!(
                    "{}_{}",
                    func.to_string().to_ascii_lowercase(),
                    self.schema.fields()[id.index()].name
                ),
                _ => format!("{}_expr{}", func.to_string().to_ascii_lowercase(), start),
            };
            (Some(e), name)
        };
        self.expect_symbol(")")?;
        let name = if self.eat_keyword("AS") {
            self.ident("alias after AS")?
        } else {
            default_name
        };
        Ok(SelectItem::Aggregate(AggregateSpec { func, expr, name }))
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        loop {
            if self.eat_symbol("+") {
                lhs = lhs.add(self.term()?);
            } else if self.eat_symbol("-") {
                lhs = lhs.sub(self.term()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat_symbol("*") {
                lhs = lhs.mul(self.factor()?);
            } else if self.eat_symbol("/") {
                lhs = lhs.div(self.factor()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Number(v)) => Ok(Expr::lit(v)),
            Some(Token::Ident(name)) => Ok(Expr::col(self.column(&name)?)),
            Some(Token::Symbol("(")) => {
                let e = self.nested(Self::expr)?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Symbol("-")) => Ok(Expr::lit(0.0).sub(self.nested(Self::factor)?)),
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    fn predicate(&mut self) -> Result<Predicate> {
        let mut lhs = self.conjunction()?;
        while self.eat_keyword("OR") {
            lhs = lhs.or(self.conjunction()?);
        }
        Ok(lhs)
    }

    fn conjunction(&mut self) -> Result<Predicate> {
        let mut lhs = self.pred_unit()?;
        while self.eat_keyword("AND") {
            lhs = lhs.and(self.pred_unit()?);
        }
        Ok(lhs)
    }

    fn pred_unit(&mut self) -> Result<Predicate> {
        if self.eat_keyword("NOT") {
            return Ok(self.nested(Self::pred_unit)?.not());
        }
        if self.eat_symbol("(") {
            let p = self.nested(Self::predicate)?;
            self.expect_symbol(")")?;
            return Ok(p);
        }
        let name = self.ident("column in predicate")?;
        let col = self.column(&name)?;
        let dt = self.schema.fields()[col.index()].data_type;
        if self.eat_keyword("BETWEEN") {
            let lo = self.literal(dt)?;
            self.expect_keyword("AND")?;
            let hi = self.literal(dt)?;
            return Ok(Predicate::Between { col, lo, hi });
        }
        let op = self.cmp_op()?;
        let value = self.literal(dt)?;
        Ok(Predicate::Cmp { col, op, value })
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        match self.next() {
            Some(Token::Symbol("=")) => Ok(CmpOp::Eq),
            Some(Token::Symbol("<>")) => Ok(CmpOp::Ne),
            Some(Token::Symbol("<")) => Ok(CmpOp::Lt),
            Some(Token::Symbol("<=")) => Ok(CmpOp::Le),
            Some(Token::Symbol(">")) => Ok(CmpOp::Gt),
            Some(Token::Symbol(">=")) => Ok(CmpOp::Ge),
            other => self.err(format!("expected comparison operator, found {other:?}")),
        }
    }

    /// A literal typed by the column it compares against.
    fn literal(&mut self, dt: DataType) -> Result<Value> {
        match (self.next(), dt) {
            (Some(Token::Number(v)), DataType::Int) => Ok(Value::Int(v as i64)),
            (Some(Token::Number(v)), DataType::Float) => Ok(Value::from(v)),
            (Some(Token::Number(v)), DataType::Date) => Ok(Value::Date(v as i32)),
            // Figure 2 uses Oracle-style date literals: '01-SEP-98'.
            (Some(Token::Str(s)), DataType::Date) => relation::parse_date(&s)
                .map(Value::Date)
                .map_err(|e| EngineError::Sql(e.to_string())),
            (Some(Token::Str(s)), DataType::Str) => Ok(Value::str(s.as_str())),
            (other, dt) => self.err(format!("literal {other:?} does not match column type {dt}")),
        }
    }

    fn having(&mut self) -> Result<Having> {
        let name = self.ident("aggregate alias in HAVING")?;
        let op = self.cmp_op()?;
        let value = match self.next() {
            Some(Token::Number(v)) => v,
            other => return self.err(format!("expected number in HAVING, found {other:?}")),
        };
        Ok(Having::new(name, op, value))
    }
}
