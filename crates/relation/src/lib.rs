#![warn(missing_docs)]

//! In-memory columnar relation substrate.
//!
//! This crate provides the storage layer that the rest of the workspace is
//! built on: typed [`Value`]s, [`Schema`]s, dictionary-encoded columnar
//! [`Relation`]s, a predicate AST ([`Predicate`]) and scalar arithmetic
//! expressions ([`Expr`]) used as aggregation inputs.
//!
//! The design goals mirror what the paper's testbed (Oracle v7 under the Aqua
//! middleware) provided to the authors: a table abstraction that can be
//! scanned, filtered, grouped, and sub-sampled by row index. Nulls are
//! intentionally unsupported — the paper's workload (TPC-D `lineitem` with
//! synthetic skew) never produces them, and omitting them keeps the hot
//! scan/group loops branch-free.
//!
//! # Example
//!
//! ```
//! use relation::{DataType, RelationBuilder, Value};
//!
//! let mut b = RelationBuilder::new()
//!     .column("state", DataType::Str)
//!     .column("income", DataType::Float);
//! b.push_row(&[Value::str("CA"), Value::from(51_000.0)]).unwrap();
//! b.push_row(&[Value::str("WY"), Value::from(48_000.0)]).unwrap();
//! let rel = b.finish();
//! assert_eq!(rel.row_count(), 2);
//! assert_eq!(rel.value(1, rel.schema().column_id("state").unwrap()),
//!            Value::str("WY"));
//! ```

pub mod binio;
pub mod bitmap;
pub mod chunk;
pub mod column;
pub mod csv;
pub mod datatype;
pub mod dates;
pub mod error;
pub mod expr;
pub mod group_key;
pub mod kernels;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod value;

pub use bitmap::Bitmap;
pub use chunk::{
    chunk_count, chunk_range, ChunkStats, ChunkVerdict, DecodeScratch, EncodedColumn,
    EncodedRelation, PruneStats, RowRangeList, ZoneMaps, CHUNK_ROWS,
};
pub use column::Column;
pub use csv::{parse_csv, read_csv, CsvOptions};
pub use datatype::DataType;
pub use dates::{civil_from_days, days_from_civil, parse_date};
pub use error::{RelationError, Result};
pub use expr::Expr;
pub use group_key::GroupKey;
pub use kernels::{with_scratch, ChunkFold, KernelStats};
pub use predicate::Predicate;
pub use relation::{Relation, RelationBuilder};
pub use schema::{ColumnId, Field, Schema};
pub use value::{Value, F64};
