//! Chunked encoded columnar storage (columnar v2).
//!
//! Columns are split into fixed-size chunks of [`CHUNK_ROWS`] rows (aligned
//! with the engine's aggregation chunk so pruning verdicts map 1:1 onto fold
//! chunks). Each chunk is stored encoded:
//!
//! * `Int` / `Date` chunks: frame-of-reference (base = chunk min) plus
//!   bit-packed deltas at the chunk's observed width, with a plain fallback
//!   when packing would not save space.
//! * `Float` chunks: raw IEEE-754 bit patterns (exact round-trip, including
//!   NaN payloads and signed zeros).
//! * `Str` chunks: dictionary codes bit-packed to the chunk's observed code
//!   width; the dictionary itself stays column-wide.
//!
//! Every chunk carries a [`ChunkStats`] zone map (min/max/distinct hint)
//! computed with the *same* `as f64` + `total_cmp` folds the predicate
//! kernels use, so chunk verdicts are exact — a pruned chunk provably
//! contains no matching row, and an all-match chunk needs no row-level work.
//!
//! Decoding is chunk-at-a-time into a reusable [`DecodeScratch`] buffer so
//! the hot fold loops stay branch-free and auto-vectorization friendly.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use crate::column::{Column, StrColumn};
use crate::datatype::DataType;
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{ColumnId, Schema};

/// Rows per storage/aggregation chunk. Must be a multiple of 64 so chunk
/// boundaries are word-aligned in [`crate::Bitmap`]s, letting chunk-local
/// selection bitmaps splice into the full mask by word copy.
pub const CHUNK_ROWS: usize = 16 * 1024;

const _: () = assert!(CHUNK_ROWS.is_multiple_of(64));

/// Number of chunks needed to hold `rows` rows.
pub fn chunk_count(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS)
}

/// Half-open row range `[start, end)` of chunk `chunk` in a column of
/// `rows` rows.
pub fn chunk_range(chunk: usize, rows: usize) -> (usize, usize) {
    let start = chunk * CHUNK_ROWS;
    let end = (start + CHUNK_ROWS).min(rows);
    (start, end)
}

// ---------------------------------------------------------------------------
// Bit-packed integer arrays
// ---------------------------------------------------------------------------

/// Little-endian-within-word bit-packed `u64` values at a fixed width.
///
/// The word buffer always carries one trailing pad word so both the pack and
/// unpack inner loops can touch `words[word + 1]` unconditionally — no
/// per-element branch on whether a value straddles a word boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedInts {
    width: u8,
    len: u32,
    words: Vec<u64>,
}

impl PackedInts {
    /// Pack `values` at the smallest width that holds the largest value.
    pub fn pack(values: &[u64]) -> PackedInts {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (64 - max.leading_zeros()) as u8;
        Self::pack_width(values, width)
    }

    /// Pack `values` at an explicit `width` (0..=64). Values must fit.
    pub fn pack_width(values: &[u64], width: u8) -> PackedInts {
        debug_assert!(width <= 64);
        let len = values.len();
        let total_bits = len * width as usize;
        // +1 pad word; at least one word even when empty/width 0.
        let nwords = total_bits.div_ceil(64) + 1;
        let mut words = vec![0u64; nwords];
        if width > 0 {
            for (i, &v) in values.iter().enumerate() {
                debug_assert!(width == 64 || v < (1u64 << width));
                let bit = i * width as usize;
                let word = bit / 64;
                let off = (bit % 64) as u32;
                words[word] |= v << off;
                // Spill bits into the next word. `(v >> 1) >> (63 - off)` is
                // `v >> (64 - off)` without the undefined 64-bit shift when
                // off == 0.
                words[word + 1] |= (v >> 1) >> (63 - off);
            }
        }
        PackedInts {
            width,
            len: len as u32,
            words,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width per value.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Raw word buffer (includes the trailing pad word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw parts (snapshot decode). Validates the word count
    /// and that the pad word carries no stray high bits beyond the packed
    /// payload (so hostile inputs can't smuggle out-of-width values).
    pub fn from_raw(width: u8, len: u32, words: Vec<u64>) -> Result<PackedInts> {
        if width > 64 {
            return Err(RelationError::CorruptEncoding("packed width > 64".into()));
        }
        let total_bits = len as usize * width as usize;
        let expect = total_bits.div_ceil(64) + 1;
        if words.len() != expect {
            return Err(RelationError::CorruptEncoding(
                "packed word count mismatch".into(),
            ));
        }
        let packed = PackedInts { width, len, words };
        // All bits at or above the payload end must be zero.
        let mut tail_ok = true;
        let end_word = total_bits / 64;
        let end_off = (total_bits % 64) as u32;
        for (w, &word) in packed.words.iter().enumerate() {
            if w < end_word {
                continue;
            }
            let masked = if w == end_word && end_off != 0 {
                word >> end_off
            } else {
                word
            };
            if masked != 0 {
                tail_ok = false;
                break;
            }
        }
        if !tail_ok {
            return Err(RelationError::CorruptEncoding(
                "packed tail bits set".into(),
            ));
        }
        Ok(packed)
    }

    /// Value at index `i`.
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len as usize);
        if self.width == 0 {
            return 0;
        }
        let w = self.width as usize;
        let bit = i * w;
        let word = bit / 64;
        let off = (bit % 64) as u32;
        let lo = self.words[word] >> off;
        let hi = (self.words[word + 1] << 1) << (63 - off);
        (lo | hi) & Self::mask(self.width)
    }

    fn mask(width: u8) -> u64 {
        if width == 64 {
            !0
        } else {
            (1u64 << width) - 1
        }
    }

    /// Decode every value through `f`, appending to `out`.
    pub fn unpack_map_into<T>(&self, out: &mut Vec<T>, mut f: impl FnMut(u64) -> T) {
        out.reserve(self.len as usize);
        if self.width == 0 {
            for _ in 0..self.len {
                out.push(f(0));
            }
            return;
        }
        let w = self.width as usize;
        let mask = Self::mask(self.width);
        for i in 0..self.len as usize {
            let bit = i * w;
            let word = bit / 64;
            let off = (bit % 64) as u32;
            let lo = self.words[word] >> off;
            let hi = (self.words[word + 1] << 1) << (63 - off);
            out.push(f((lo | hi) & mask));
        }
    }

    /// Decode every value, appending to `out`.
    pub fn unpack_into(&self, out: &mut Vec<u64>) {
        self.unpack_map_into(out, |v| v);
    }

    /// Heap bytes used by the packed words.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

// ---------------------------------------------------------------------------
// Encoded chunks and columns
// ---------------------------------------------------------------------------

/// Frame-of-reference packing is skipped when the delta width exceeds this:
/// at >56 bits the packed form saves less than a byte per row over plain
/// storage and the decode adds work for nothing.
const FOR_MAX_WIDTH: u8 = 56;

/// One encoded chunk of up to [`CHUNK_ROWS`] values.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedChunk {
    /// Frame-of-reference: `value[i] = base.wrapping_add(deltas[i] as i64)`.
    For {
        /// Reference value (the chunk minimum).
        base: i64,
        /// Bit-packed unsigned deltas from `base`.
        deltas: PackedInts,
    },
    /// Plain `i64` values (FOR fallback for near-full-range chunks).
    PlainInt(Vec<i64>),
    /// Raw IEEE-754 bit patterns of `f64` values.
    Floats(Vec<u64>),
    /// Bit-packed dictionary codes (string columns).
    Codes(PackedInts),
}

impl EncodedChunk {
    /// Number of values in this chunk.
    pub fn len(&self) -> usize {
        match self {
            EncodedChunk::For { deltas, .. } => deltas.len(),
            EncodedChunk::PlainInt(v) => v.len(),
            EncodedChunk::Floats(v) => v.len(),
            EncodedChunk::Codes(c) => c.len(),
        }
    }

    /// Whether the chunk holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn byte_size(&self) -> usize {
        match self {
            EncodedChunk::For { deltas, .. } => 8 + deltas.byte_size(),
            EncodedChunk::PlainInt(v) => v.len() * 8,
            EncodedChunk::Floats(v) => v.len() * 8,
            EncodedChunk::Codes(c) => c.byte_size(),
        }
    }
}

/// Encode one chunk of `i64` values (also used for `Date` via widening).
pub fn encode_int_chunk(values: &[i64]) -> EncodedChunk {
    let Some(&first) = values.first() else {
        return EncodedChunk::For {
            base: 0,
            deltas: PackedInts::pack(&[]),
        };
    };
    let mut min = first;
    let mut max = first;
    for &v in &values[1..] {
        min = min.min(v);
        max = max.max(v);
    }
    // Range always fits u64: for i64, max - min as unsigned wrap is exact.
    let range = max.wrapping_sub(min) as u64;
    let width = (64 - range.leading_zeros()) as u8;
    if width > FOR_MAX_WIDTH {
        return EncodedChunk::PlainInt(values.to_vec());
    }
    let deltas: Vec<u64> = values.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
    EncodedChunk::For {
        base: min,
        deltas: PackedInts::pack_width(&deltas, width),
    }
}

/// One column stored as a sequence of encoded chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedColumn {
    dtype: DataType,
    len: usize,
    /// Column-wide dictionary (string columns only; empty otherwise).
    dict: Vec<Arc<str>>,
    chunks: Vec<EncodedChunk>,
}

impl EncodedColumn {
    /// Encode a dense column chunk by chunk.
    pub fn from_column(col: &Column) -> EncodedColumn {
        match col {
            Column::Int(v) => Self::from_ints(DataType::Int, v),
            Column::Date(v) => {
                let widened: Vec<i64> = v.iter().map(|&d| d as i64).collect();
                Self::from_ints(DataType::Date, &widened)
            }
            Column::Float(v) => {
                let chunks = v
                    .chunks(CHUNK_ROWS)
                    .map(|c| EncodedChunk::Floats(c.iter().map(|f| f.to_bits()).collect()))
                    .collect();
                EncodedColumn {
                    dtype: DataType::Float,
                    len: v.len(),
                    dict: Vec::new(),
                    chunks,
                }
            }
            Column::Str(s) => {
                let codes = s.codes();
                let chunks = codes
                    .chunks(CHUNK_ROWS)
                    .map(|c| {
                        let wide: Vec<u64> = c.iter().map(|&k| k as u64).collect();
                        EncodedChunk::Codes(PackedInts::pack(&wide))
                    })
                    .collect();
                EncodedColumn {
                    dtype: DataType::Str,
                    len: codes.len(),
                    dict: s.dict().to_vec(),
                    chunks,
                }
            }
        }
    }

    fn from_ints(dtype: DataType, values: &[i64]) -> EncodedColumn {
        let chunks = values.chunks(CHUNK_ROWS).map(encode_int_chunk).collect();
        EncodedColumn {
            dtype,
            len: values.len(),
            dict: Vec::new(),
            chunks,
        }
    }

    /// Rebuild from parts (snapshot decode). Validates chunk lengths against
    /// `len`, the chunk variant against `dtype`, and — for string columns —
    /// that every packed code indexes into `dict`.
    pub fn from_parts(
        dtype: DataType,
        len: usize,
        dict: Vec<Arc<str>>,
        chunks: Vec<EncodedChunk>,
    ) -> Result<EncodedColumn> {
        if chunks.len() != chunk_count(len) {
            return Err(RelationError::CorruptEncoding(
                "encoded chunk count mismatch".into(),
            ));
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let (start, end) = chunk_range(i, len);
            if chunk.len() != end - start {
                return Err(RelationError::CorruptEncoding(
                    "encoded chunk length mismatch".into(),
                ));
            }
            let variant_ok = matches!(
                (dtype, chunk),
                (
                    DataType::Int | DataType::Date,
                    EncodedChunk::For { .. } | EncodedChunk::PlainInt(_)
                ) | (DataType::Float, EncodedChunk::Floats(_))
                    | (DataType::Str, EncodedChunk::Codes(_))
            );
            if !variant_ok {
                return Err(RelationError::CorruptEncoding(
                    "encoded chunk variant does not match column type".into(),
                ));
            }
            if dtype == DataType::Date {
                // Date chunks must decode back into i32 range.
                match chunk {
                    EncodedChunk::For { base, deltas } => {
                        for j in 0..deltas.len() {
                            let v = base.wrapping_add(deltas.get(j) as i64);
                            if i32::try_from(v).is_err() {
                                return Err(RelationError::CorruptEncoding(
                                    "date value out of i32 range".into(),
                                ));
                            }
                        }
                    }
                    EncodedChunk::PlainInt(vals) => {
                        if vals.iter().any(|&v| i32::try_from(v).is_err()) {
                            return Err(RelationError::CorruptEncoding(
                                "date value out of i32 range".into(),
                            ));
                        }
                    }
                    _ => unreachable!(),
                }
            }
            if let EncodedChunk::Codes(codes) = chunk {
                let dict_len = dict.len() as u64;
                for j in 0..codes.len() {
                    if codes.get(j) >= dict_len {
                        return Err(RelationError::CorruptEncoding(
                            "string code out of dictionary range".into(),
                        ));
                    }
                }
            }
        }
        if dtype != DataType::Str && !dict.is_empty() {
            return Err(RelationError::CorruptEncoding(
                "dictionary on non-string column".into(),
            ));
        }
        Ok(EncodedColumn {
            dtype,
            len,
            dict,
            chunks,
        })
    }

    /// The column data type.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The encoded chunks in order.
    pub fn chunks(&self) -> &[EncodedChunk] {
        &self.chunks
    }

    /// The column-wide string dictionary (empty for non-string columns).
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Decode chunk `chunk` as `f64` values (the numeric-kernel view),
    /// appending to `out`. Uses exactly the casts `Column::value_f64` uses
    /// (`i64 as f64`, `i32 as f64`, raw bits for floats) so downstream
    /// arithmetic is bit-identical to the dense path. Not valid for string
    /// columns.
    pub fn decode_chunk_f64(&self, chunk: usize, out: &mut Vec<f64>) {
        match &self.chunks[chunk] {
            EncodedChunk::For { base, deltas } => {
                let base = *base;
                deltas.unpack_map_into(out, |d| base.wrapping_add(d as i64) as f64);
            }
            EncodedChunk::PlainInt(vals) => {
                out.extend(vals.iter().map(|&v| v as f64));
            }
            EncodedChunk::Floats(bits) => {
                out.extend(bits.iter().map(|&b| f64::from_bits(b)));
            }
            EncodedChunk::Codes(_) => {
                unreachable!("decode_chunk_f64 on string column");
            }
        }
    }

    /// Decode chunk `chunk` as raw integer values (codes for strings,
    /// two's-complement-as-u64 for ints/dates, bits for floats), appending
    /// to `out`.
    pub fn decode_chunk_u64(&self, chunk: usize, out: &mut Vec<u64>) {
        match &self.chunks[chunk] {
            EncodedChunk::For { base, deltas } => {
                let base = *base;
                deltas.unpack_map_into(out, |d| base.wrapping_add(d as i64) as u64);
            }
            EncodedChunk::PlainInt(vals) => out.extend(vals.iter().map(|&v| v as u64)),
            EncodedChunk::Floats(bits) => out.extend_from_slice(bits),
            EncodedChunk::Codes(codes) => codes.unpack_into(out),
        }
    }

    /// Decode the whole column back into a dense [`Column`]. Exact inverse
    /// of [`EncodedColumn::from_column`].
    pub fn to_column(&self) -> Result<Column> {
        match self.dtype {
            DataType::Int => {
                let mut out = Vec::with_capacity(self.len);
                for chunk in &self.chunks {
                    match chunk {
                        EncodedChunk::For { base, deltas } => {
                            let base = *base;
                            deltas.unpack_map_into(&mut out, |d| base.wrapping_add(d as i64));
                        }
                        EncodedChunk::PlainInt(vals) => out.extend_from_slice(vals),
                        _ => unreachable!(),
                    }
                }
                Ok(Column::Int(out))
            }
            DataType::Date => {
                let mut out = Vec::with_capacity(self.len);
                for chunk in &self.chunks {
                    match chunk {
                        EncodedChunk::For { base, deltas } => {
                            let base = *base;
                            deltas
                                .unpack_map_into(&mut out, |d| base.wrapping_add(d as i64) as i32);
                        }
                        EncodedChunk::PlainInt(vals) => {
                            out.extend(vals.iter().map(|&v| v as i32));
                        }
                        _ => unreachable!(),
                    }
                }
                Ok(Column::Date(out))
            }
            DataType::Float => {
                let mut out = Vec::with_capacity(self.len);
                for chunk in &self.chunks {
                    match chunk {
                        EncodedChunk::Floats(bits) => {
                            out.extend(bits.iter().map(|&b| f64::from_bits(b)));
                        }
                        _ => unreachable!(),
                    }
                }
                Ok(Column::Float(out))
            }
            DataType::Str => {
                let mut codes = Vec::with_capacity(self.len);
                for chunk in &self.chunks {
                    match chunk {
                        EncodedChunk::Codes(packed) => {
                            packed.unpack_map_into(&mut codes, |c| c as u32);
                        }
                        _ => unreachable!(),
                    }
                }
                let s = StrColumn::from_parts(self.dict.clone(), codes)?;
                Ok(Column::Str(s))
            }
        }
    }

    /// Encoded heap footprint in bytes (payload words + dictionary).
    pub fn encoded_bytes(&self) -> usize {
        let dict: usize = self.dict.iter().map(|s| s.len() + 16).sum();
        let chunks: usize = self.chunks.iter().map(EncodedChunk::byte_size).sum();
        dict + chunks
    }
}

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

/// Per-chunk summary statistics driving predicate pruning.
///
/// Numeric min/max are computed with the same `as f64` widening and
/// `total_cmp` ordering the vectorized predicate kernels use, which makes
/// chunk verdicts *exact* rather than merely sound: `min > lit` under
/// `total_cmp` really does mean no row in the chunk satisfies `v <= lit`.
///
/// Equality compares numeric bounds by bit pattern (so NaN bounds compare
/// equal to themselves), matching the `total_cmp` domain the stats live in.
#[derive(Debug, Clone)]
pub enum ChunkStats {
    /// Stats for Int/Float/Date chunks, in the `as f64` comparison domain.
    Numeric {
        /// Minimum value under `total_cmp` ordering.
        min: f64,
        /// Maximum value under `total_cmp` ordering.
        max: f64,
        /// Distinct-value count within the chunk.
        distinct_hint: u32,
    },
    /// Stats for string chunks, in lexicographic string order.
    Str {
        /// Lexicographically smallest string in the chunk.
        min: Arc<str>,
        /// Lexicographically largest string in the chunk.
        max: Arc<str>,
        /// Distinct-value count within the chunk.
        distinct_hint: u32,
    },
    /// Chunk of an empty column slice (unreachable in practice; kept so the
    /// stats vector always lines up with chunk indices).
    Empty,
}

impl PartialEq for ChunkStats {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                ChunkStats::Numeric {
                    min: a,
                    max: b,
                    distinct_hint: d,
                },
                ChunkStats::Numeric {
                    min: x,
                    max: y,
                    distinct_hint: e,
                },
            ) => a.to_bits() == x.to_bits() && b.to_bits() == y.to_bits() && d == e,
            (
                ChunkStats::Str {
                    min: a,
                    max: b,
                    distinct_hint: d,
                },
                ChunkStats::Str {
                    min: x,
                    max: y,
                    distinct_hint: e,
                },
            ) => a == x && b == y && d == e,
            (ChunkStats::Empty, ChunkStats::Empty) => true,
            _ => false,
        }
    }
}

impl Eq for ChunkStats {}

impl ChunkStats {
    fn numeric_from_f64s(values: impl Iterator<Item = f64>) -> ChunkStats {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut any = false;
        for v in values {
            any = true;
            if v.total_cmp(&min) == std::cmp::Ordering::Less {
                min = v;
            }
            if v.total_cmp(&max) == std::cmp::Ordering::Greater {
                max = v;
            }
            distinct.insert(v.to_bits());
        }
        if !any {
            return ChunkStats::Empty;
        }
        ChunkStats::Numeric {
            min,
            max,
            distinct_hint: distinct.len() as u32,
        }
    }

    fn str_from_codes(codes: impl Iterator<Item = u32>, dict: &[Arc<str>]) -> ChunkStats {
        let mut distinct: HashSet<u32> = HashSet::new();
        for c in codes {
            distinct.insert(c);
        }
        if distinct.is_empty() {
            return ChunkStats::Empty;
        }
        // Codes are insertion-ordered, not sorted: min/max must compare the
        // strings themselves.
        let mut min: Option<&Arc<str>> = None;
        let mut max: Option<&Arc<str>> = None;
        for &c in &distinct {
            let s = &dict[c as usize];
            if min.is_none_or(|m| s.as_ref() < m.as_ref()) {
                min = Some(s);
            }
            if max.is_none_or(|m| s.as_ref() > m.as_ref()) {
                max = Some(s);
            }
        }
        ChunkStats::Str {
            min: min.unwrap().clone(),
            max: max.unwrap().clone(),
            distinct_hint: distinct.len() as u32,
        }
    }

    /// Distinct-value hint for this chunk (upper bound on distinct groups a
    /// chunk can contribute).
    pub fn distinct_hint(&self) -> u32 {
        match self {
            ChunkStats::Numeric { distinct_hint, .. } | ChunkStats::Str { distinct_hint, .. } => {
                *distinct_hint
            }
            ChunkStats::Empty => 0,
        }
    }
}

/// Zone maps for every column of a relation: `per_column[col][chunk]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMaps {
    rows: usize,
    per_column: Vec<Vec<ChunkStats>>,
}

impl ZoneMaps {
    /// Build zone maps from a dense relation.
    pub fn build(rel: &Relation) -> ZoneMaps {
        let rows = rel.row_count();
        let nchunks = chunk_count(rows);
        let per_column = rel
            .columns()
            .iter()
            .map(|col| {
                (0..nchunks)
                    .map(|c| {
                        let (start, end) = chunk_range(c, rows);
                        match col {
                            Column::Int(v) => ChunkStats::numeric_from_f64s(
                                v[start..end].iter().map(|&x| x as f64),
                            ),
                            Column::Float(v) => {
                                ChunkStats::numeric_from_f64s(v[start..end].iter().copied())
                            }
                            Column::Date(v) => ChunkStats::numeric_from_f64s(
                                v[start..end].iter().map(|&x| x as f64),
                            ),
                            Column::Str(s) => ChunkStats::str_from_codes(
                                s.codes()[start..end].iter().copied(),
                                s.dict(),
                            ),
                        }
                    })
                    .collect()
            })
            .collect();
        ZoneMaps { rows, per_column }
    }

    /// Build zone maps from an encoded relation by chunk-decoding. The folds
    /// are identical to [`ZoneMaps::build`], so stats from either path are
    /// equal for round-tripped data. Decoding runs through the per-thread
    /// scratch pool ([`crate::kernels::with_scratch`]) so repeated builds
    /// allocate no per-call buffers.
    pub fn build_encoded(enc: &EncodedRelation) -> ZoneMaps {
        let rows = enc.row_count();
        let nchunks = chunk_count(rows);
        let per_column = crate::kernels::with_scratch(|scratch| {
            enc.columns
                .iter()
                .map(|col| {
                    (0..nchunks)
                        .map(|c| match col.data_type() {
                            DataType::Str => {
                                scratch.u64s.clear();
                                col.decode_chunk_u64(c, &mut scratch.u64s);
                                ChunkStats::str_from_codes(
                                    scratch.u64s.iter().map(|&v| v as u32),
                                    col.dict(),
                                )
                            }
                            _ => {
                                scratch.f64s.clear();
                                col.decode_chunk_f64(c, &mut scratch.f64s);
                                ChunkStats::numeric_from_f64s(scratch.f64s.iter().copied())
                            }
                        })
                        .collect()
                })
                .collect()
        });
        ZoneMaps { rows, per_column }
    }

    /// Row count of the mapped relation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        chunk_count(self.rows)
    }

    /// Stats for one chunk of one column.
    pub fn stats(&self, col: ColumnId, chunk: usize) -> &ChunkStats {
        &self.per_column[col.0][chunk]
    }

    /// All chunk stats for one column.
    pub fn column_stats(&self, col: ColumnId) -> &[ChunkStats] {
        &self.per_column[col.0]
    }

    /// Sum of per-chunk distinct hints for a column — an upper bound on the
    /// column's distinct-value count, used to pre-size group hash maps.
    pub fn distinct_hint(&self, col: ColumnId) -> usize {
        self.per_column[col.0]
            .iter()
            .map(|s| s.distinct_hint() as usize)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Pruning verdicts, row ranges, statistics
// ---------------------------------------------------------------------------

/// Tri-state outcome of evaluating a predicate against one chunk's stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkVerdict {
    /// No row in the chunk can satisfy the predicate.
    NoneMatch,
    /// Some rows may match; row-level evaluation required.
    Maybe,
    /// Every row in the chunk satisfies the predicate.
    AllMatch,
}

impl ChunkVerdict {
    /// Conjunction of two verdicts.
    pub fn and(self, other: ChunkVerdict) -> ChunkVerdict {
        use ChunkVerdict::*;
        match (self, other) {
            (NoneMatch, _) | (_, NoneMatch) => NoneMatch,
            (AllMatch, AllMatch) => AllMatch,
            _ => Maybe,
        }
    }

    /// Disjunction of two verdicts.
    pub fn or(self, other: ChunkVerdict) -> ChunkVerdict {
        use ChunkVerdict::*;
        match (self, other) {
            (AllMatch, _) | (_, AllMatch) => AllMatch,
            (NoneMatch, NoneMatch) => NoneMatch,
            _ => Maybe,
        }
    }

    /// Negation of a verdict.
    pub fn negate(self) -> ChunkVerdict {
        use ChunkVerdict::*;
        match self {
            NoneMatch => AllMatch,
            AllMatch => NoneMatch,
            Maybe => Maybe,
        }
    }
}

/// Sorted, coalesced list of half-open row ranges that survived pruning.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowRangeList {
    ranges: Vec<(usize, usize)>,
}

impl RowRangeList {
    /// Empty list.
    pub fn new() -> RowRangeList {
        RowRangeList::default()
    }

    /// The full-table range list (no pruning).
    pub fn full(rows: usize) -> RowRangeList {
        let mut r = RowRangeList::new();
        if rows > 0 {
            r.ranges.push((0, rows));
        }
        r
    }

    /// Append `[start, end)`; coalesces with the previous range when
    /// adjacent. Ranges must be pushed in ascending order.
    pub fn push(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            debug_assert!(start >= last.1);
            if last.1 == start {
                last.1 = end;
                return;
            }
        }
        self.ranges.push((start, end));
    }

    /// The coalesced ranges in ascending order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total rows covered.
    pub fn covered_rows(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether `row` falls inside any range.
    pub fn contains(&self, row: usize) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if row < s {
                    std::cmp::Ordering::Greater
                } else if row >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }
}

/// Counters from one pruning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Total chunks examined.
    pub chunks: u64,
    /// Chunks skipped entirely (verdict [`ChunkVerdict::NoneMatch`]).
    pub pruned: u64,
    /// Chunks satisfied entirely (verdict [`ChunkVerdict::AllMatch`]) — no
    /// row-level evaluation was needed, the mask was filled wholesale.
    pub full: u64,
}

impl PruneStats {
    /// Fraction of chunks skipped without any row-level work.
    pub fn pruned_frac(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.pruned as f64 / self.chunks as f64
        }
    }
}

/// Reusable per-thread decode buffers, so the decode-on-demand fold loops
/// allocate once per thread instead of once per chunk.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Scratch for decoded `f64` values.
    pub f64s: Vec<f64>,
    /// Scratch for decoded codes / raw integer values.
    pub u64s: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Encoded relations
// ---------------------------------------------------------------------------

/// A relation stored as chunked encoded columns.
#[derive(Debug, Clone)]
pub struct EncodedRelation {
    schema: Schema,
    columns: Vec<EncodedColumn>,
    rows: usize,
    zone_maps: OnceLock<Arc<ZoneMaps>>,
}

impl EncodedRelation {
    /// Encode a dense relation chunk by chunk. If the dense relation has
    /// already computed zone maps they are shared, not recomputed.
    pub fn encode(rel: &Relation) -> EncodedRelation {
        let columns = rel
            .columns()
            .iter()
            .map(EncodedColumn::from_column)
            .collect();
        let enc = EncodedRelation {
            schema: rel.schema().clone(),
            columns,
            rows: rel.row_count(),
            zone_maps: OnceLock::new(),
        };
        if let Some(zm) = rel.zone_maps_if_built() {
            let _ = enc.zone_maps.set(zm);
        }
        enc
    }

    /// Rebuild from parts (snapshot decode). Column count, types, and
    /// lengths are validated against the schema. Zone maps are *never*
    /// accepted from outside — they are rebuilt on demand so a hostile
    /// snapshot cannot poison pruning soundness.
    pub fn from_parts(
        schema: Schema,
        columns: Vec<EncodedColumn>,
        rows: usize,
    ) -> Result<EncodedRelation> {
        if columns.len() != schema.width() {
            return Err(RelationError::CorruptEncoding(
                "encoded column count does not match schema".into(),
            ));
        }
        for (i, col) in columns.iter().enumerate() {
            let field = &schema.fields()[i];
            if col.data_type() != field.data_type {
                return Err(RelationError::CorruptEncoding(
                    "encoded column type does not match schema".into(),
                ));
            }
            if col.len() != rows {
                return Err(RelationError::CorruptEncoding(
                    "encoded column length does not match row count".into(),
                ));
            }
        }
        Ok(EncodedRelation {
            schema,
            columns,
            rows,
            zone_maps: OnceLock::new(),
        })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        chunk_count(self.rows)
    }

    /// The encoded column at `id`.
    pub fn column(&self, id: ColumnId) -> &EncodedColumn {
        &self.columns[id.0]
    }

    /// All encoded columns in schema order.
    pub fn columns(&self) -> &[EncodedColumn] {
        &self.columns
    }

    /// Zone maps, built lazily on first use and shared thereafter.
    pub fn zone_maps(&self) -> &Arc<ZoneMaps> {
        self.zone_maps
            .get_or_init(|| Arc::new(ZoneMaps::build_encoded(self)))
    }

    /// Decode back into a dense relation. Exact inverse of
    /// [`EncodedRelation::encode`]; already-built zone maps carry over.
    pub fn to_relation(&self) -> Result<Relation> {
        let columns: Result<Vec<Column>> = self.columns.iter().map(|c| c.to_column()).collect();
        let rel = Relation::new(self.schema.clone(), columns?)?;
        if let Some(zm) = self.zone_maps.get() {
            rel.set_zone_maps(zm.clone());
        }
        Ok(rel)
    }

    /// Total encoded heap footprint in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.columns.iter().map(EncodedColumn::encoded_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::value::Value;

    #[test]
    fn packed_ints_roundtrip_various_widths() {
        for width in [0u8, 1, 3, 7, 8, 13, 31, 33, 56, 63, 64] {
            let mask = if width == 64 {
                !0u64
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..1000u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let packed = PackedInts::pack_width(&values, width);
            assert_eq!(packed.width(), width);
            let mut out = Vec::new();
            packed.unpack_into(&mut out);
            assert_eq!(out, values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "get({i}) at width {width}");
            }
        }
    }

    #[test]
    fn packed_ints_auto_width() {
        let packed = PackedInts::pack(&[0, 5, 7]);
        assert_eq!(packed.width(), 3);
        let packed = PackedInts::pack(&[0, 0, 0]);
        assert_eq!(packed.width(), 0);
        assert_eq!(packed.get(1), 0);
        let packed = PackedInts::pack(&[]);
        assert_eq!(packed.len(), 0);
    }

    #[test]
    fn packed_from_raw_rejects_bad_tails() {
        let packed = PackedInts::pack_width(&[1, 2, 3], 2);
        let ok = PackedInts::from_raw(2, 3, packed.words().to_vec());
        assert!(ok.is_ok());
        // Stray bit in the pad word.
        let mut words = packed.words().to_vec();
        *words.last_mut().unwrap() = 1;
        assert!(PackedInts::from_raw(2, 3, words).is_err());
        // Wrong word count.
        assert!(PackedInts::from_raw(2, 3, vec![0u64; 5]).is_err());
        // Width out of range.
        assert!(PackedInts::from_raw(65, 0, vec![0]).is_err());
    }

    #[test]
    fn int_chunk_for_and_plain_fallback() {
        // Narrow range -> FOR.
        let narrow: Vec<i64> = (0..100).map(|i| 1_000_000 + i % 17).collect();
        match encode_int_chunk(&narrow) {
            EncodedChunk::For { base, ref deltas } => {
                assert_eq!(base, 1_000_000);
                assert!(deltas.width() <= 5);
            }
            other => panic!("expected FOR, got {other:?}"),
        }
        // Full-range -> plain fallback.
        let wide = vec![i64::MIN, i64::MAX, 0];
        assert!(matches!(encode_int_chunk(&wide), EncodedChunk::PlainInt(_)));
    }

    fn sample_rel(rows: usize) -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("i", DataType::Int)
            .column("f", DataType::Float)
            .column("d", DataType::Date);
        for r in 0..rows {
            let g = ["alpha", "beta", "gamma"][r % 3];
            let f = if r % 97 == 0 {
                f64::NAN
            } else if r % 51 == 0 {
                -0.0
            } else {
                (r as f64) * 0.5 - 100.0
            };
            b.push_row(&[
                Value::str(g),
                Value::Int((r as i64) * 3 - 500),
                Value::from(f),
                Value::Date((r as i32) - 10),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn encode_decode_relation_roundtrip_exact() {
        let rel = sample_rel(CHUNK_ROWS + 123);
        let enc = EncodedRelation::encode(&rel);
        assert_eq!(enc.chunk_count(), 2);
        let back = enc.to_relation().unwrap();
        assert_eq!(back.row_count(), rel.row_count());
        for (a, b) in rel.columns().iter().zip(back.columns().iter()) {
            match (a, b) {
                (Column::Int(x), Column::Int(y)) => assert_eq!(x, y),
                (Column::Date(x), Column::Date(y)) => assert_eq!(x, y),
                (Column::Float(x), Column::Float(y)) => {
                    assert_eq!(x.len(), y.len());
                    for (u, v) in x.iter().zip(y.iter()) {
                        assert_eq!(u.to_bits(), v.to_bits());
                    }
                }
                (Column::Str(x), Column::Str(y)) => {
                    assert_eq!(x.codes(), y.codes());
                    assert_eq!(x.dict(), y.dict());
                }
                _ => panic!("column type changed in roundtrip"),
            }
        }
    }

    #[test]
    fn zone_maps_dense_and_encoded_agree() {
        let rel = sample_rel(CHUNK_ROWS + 123);
        let dense = ZoneMaps::build(&rel);
        let enc = EncodedRelation::encode(&rel);
        let encoded = ZoneMaps::build_encoded(&enc);
        assert_eq!(dense, encoded);
        // Int column chunk 0: rows 0..CHUNK_ROWS, v = r*3 - 500.
        match dense.stats(ColumnId(1), 0) {
            ChunkStats::Numeric { min, max, .. } => {
                assert_eq!(*min, -500.0);
                assert_eq!(*max, ((CHUNK_ROWS - 1) as i64 * 3 - 500) as f64);
            }
            other => panic!("expected numeric stats, got {other:?}"),
        }
        match dense.stats(ColumnId(0), 0) {
            ChunkStats::Str {
                min,
                max,
                distinct_hint,
            } => {
                assert_eq!(min.as_ref(), "alpha");
                assert_eq!(max.as_ref(), "gamma");
                assert_eq!(*distinct_hint, 3);
            }
            other => panic!("expected str stats, got {other:?}"),
        }
    }

    #[test]
    fn zone_maps_nan_ordering_uses_total_cmp() {
        // NaN sorts above +inf under total_cmp; max must be NaN when present.
        let mut b = RelationBuilder::new().column("f", DataType::Float);
        for v in [1.0, f64::NAN, -3.0] {
            b.push_row(&[Value::from(v)]).unwrap();
        }
        let rel = b.finish();
        let zm = ZoneMaps::build(&rel);
        match zm.stats(ColumnId(0), 0) {
            ChunkStats::Numeric { min, max, .. } => {
                assert_eq!(*min, -3.0);
                assert!(max.is_nan());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verdict_algebra() {
        use ChunkVerdict::*;
        assert_eq!(NoneMatch.and(AllMatch), NoneMatch);
        assert_eq!(AllMatch.and(AllMatch), AllMatch);
        assert_eq!(Maybe.and(AllMatch), Maybe);
        assert_eq!(NoneMatch.or(AllMatch), AllMatch);
        assert_eq!(NoneMatch.or(NoneMatch), NoneMatch);
        assert_eq!(Maybe.or(NoneMatch), Maybe);
        assert_eq!(NoneMatch.negate(), AllMatch);
        assert_eq!(AllMatch.negate(), NoneMatch);
        assert_eq!(Maybe.negate(), Maybe);
    }

    #[test]
    fn row_range_list_coalesces_and_queries() {
        let mut r = RowRangeList::new();
        r.push(0, 10);
        r.push(10, 20); // adjacent: coalesce
        r.push(40, 50);
        r.push(50, 50); // empty: ignored
        assert_eq!(r.ranges(), &[(0, 20), (40, 50)]);
        assert_eq!(r.covered_rows(), 30);
        assert!(r.contains(0));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(r.contains(45));
        assert!(!r.contains(50));
        assert_eq!(RowRangeList::full(7).ranges(), &[(0, 7)]);
        assert!(RowRangeList::full(0).is_empty());
    }

    #[test]
    fn prune_stats_frac() {
        let s = PruneStats {
            chunks: 8,
            pruned: 6,
            full: 1,
        };
        assert!((s.pruned_frac() - 0.75).abs() < 1e-12);
        assert_eq!(PruneStats::default().pruned_frac(), 0.0);
    }

    #[test]
    fn encoded_bytes_smaller_than_dense_for_narrow_ints() {
        let mut b = RelationBuilder::new().column("i", DataType::Int);
        for r in 0..CHUNK_ROWS {
            b.push_row(&[Value::Int((r % 100) as i64)]).unwrap();
        }
        let rel = b.finish();
        let enc = EncodedRelation::encode(&rel);
        // 7-bit packing vs 64-bit dense: must be well under a quarter.
        assert!(enc.encoded_bytes() * 4 < CHUNK_ROWS * 8);
        let back = enc.to_relation().unwrap();
        assert_eq!(back.columns()[0].as_int().unwrap()[777], 77);
    }

    #[test]
    fn from_parts_rejects_mismatches() {
        let rel = sample_rel(100);
        let enc = EncodedRelation::encode(&rel);
        // Wrong row count.
        assert!(
            EncodedRelation::from_parts(rel.schema().clone(), enc.columns().to_vec(), 99).is_err()
        );
        // Hostile string code: code >= dict len.
        let bad = EncodedColumn::from_parts(
            DataType::Str,
            2,
            vec![Arc::from("only")],
            vec![EncodedChunk::Codes(PackedInts::pack(&[0, 5]))],
        );
        assert!(bad.is_err());
        // Date out of i32 range.
        let bad = EncodedColumn::from_parts(
            DataType::Date,
            1,
            Vec::new(),
            vec![EncodedChunk::PlainInt(vec![i64::MAX])],
        );
        assert!(bad.is_err());
    }
}
