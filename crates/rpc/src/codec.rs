//! Compact binary encoding for everything that crosses the wire.
//!
//! Dependency-free by design (no serde in-tree): integers are LEB128
//! varints (signed ones zigzagged), strings are length-prefixed UTF-8,
//! floats are their IEEE-754 bits in little-endian order, and structured
//! values compose those primitives field by field in declared order. The
//! protocol version in every frame header ([`crate::frame`]) governs
//! layout evolution — there are no per-field tags to pay for on the hot
//! path.
//!
//! Decoding is total: every read is bounds-checked and every enum tag
//! validated, so a malformed or truncated payload produces a
//! [`CodecError`], never a panic or an out-of-bounds read.

use castor_engine::{ClauseCounts, EngineReport};
use castor_learners::{LearnerParams, LearningTask};
use castor_logic::{Atom, Clause, Definition, Term};
use castor_relational::{
    MutationBatch, MutationOp, MutationSummary, RelationalError, Tuple, Value,
};
use castor_service::ServerReport;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// A decoding failure: what was being decoded and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of the malformed input.
    pub message: String,
}

impl CodecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CodecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed payload: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Growable output buffer with the primitive writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 varint.
    pub fn put_uvarint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzagged LEB128 varint for signed integers.
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// `usize` as a varint.
    pub fn put_usize(&mut self, v: usize) {
        self.put_uvarint(v as u64);
    }

    /// IEEE-754 bits, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// One boolean byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Length-prefixed UTF-8.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Bounds-checked reader over an encoded payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless the payload was consumed exactly — trailing garbage is
    /// as malformed as a truncation.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let Some(&byte) = self.buf.get(self.pos) else {
            return Err(CodecError::new("unexpected end of payload"));
        };
        self.pos += 1;
        Ok(byte)
    }

    /// LEB128 varint (at most 10 bytes).
    pub fn get_uvarint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::new("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::new("varint longer than 10 bytes"));
            }
        }
    }

    /// Zigzagged LEB128 varint.
    pub fn get_ivarint(&mut self) -> Result<i64, CodecError> {
        let v = self.get_uvarint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// `usize` from a varint, rejecting values beyond the platform width.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_uvarint()?)
            .map_err(|_| CodecError::new("length exceeds platform usize"))
    }

    /// A length prefix for a collection about to be decoded: bounded by
    /// the bytes actually remaining, so a forged huge length cannot force
    /// a huge allocation before decoding fails.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_usize()?;
        if len > self.buf.len() - self.pos {
            return Err(CodecError::new(format!(
                "declared length {len} exceeds remaining payload"
            )));
        }
        Ok(len)
    }

    /// IEEE-754 bits, little-endian.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        let end = self.pos + 8;
        let Some(bytes) = self.buf.get(self.pos..end) else {
            return Err(CodecError::new("unexpected end of payload in f64"));
        };
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("slice is 8 bytes"),
        )))
    }

    /// One boolean byte (0 or 1 only).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("invalid bool byte {other}"))),
        }
    }

    /// Length-prefixed UTF-8.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len()?;
        let end = self.pos + len;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::new("string is not UTF-8"))
    }
}

/// A value with a wire encoding. Field order is the struct's declared
/// order; enums lead with a one-byte tag.
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);
    /// Decodes one value, consuming exactly its bytes.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a standalone value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a standalone value, requiring the buffer to be consumed
/// exactly.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl Wire for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_str()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_usize()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::new(format!("invalid Option tag {other}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Wire for Value {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Value::Str(s) => {
                w.put_u8(0);
                w.put_str(s);
            }
            Value::Int(i) => {
                w.put_u8(1);
                w.put_ivarint(*i);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Value::str(r.get_str()?)),
            1 => Ok(Value::Int(r.get_ivarint()?)),
            other => Err(CodecError::new(format!("invalid Value tag {other}"))),
        }
    }
}

impl Wire for Tuple {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.arity());
        for value in self.iter() {
            value.encode(w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let arity = r.get_len()?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(Value::decode(r)?);
        }
        Ok(Tuple::new(values))
    }
}

impl Wire for HashSet<Tuple> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for tuple in self {
            tuple.encode(w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = HashSet::with_capacity(len);
        for _ in 0..len {
            out.insert(Tuple::decode(r)?);
        }
        Ok(out)
    }
}

impl Wire for BTreeSet<String> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for item in self {
            w.put_str(item);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(r.get_str()?);
        }
        Ok(out)
    }
}

impl Wire for Term {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Term::Var(name) => {
                w.put_u8(0);
                w.put_str(name);
            }
            Term::Const(value) => {
                w.put_u8(1);
                value.encode(w);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Term::Var(r.get_str()?)),
            1 => Ok(Term::Const(Value::decode(r)?)),
            other => Err(CodecError::new(format!("invalid Term tag {other}"))),
        }
    }
}

impl Wire for Atom {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.relation);
        self.terms.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let relation = r.get_str()?;
        let terms = Vec::<Term>::decode(r)?;
        Ok(Atom { relation, terms })
    }
}

impl Wire for Clause {
    fn encode(&self, w: &mut ByteWriter) {
        self.head.encode(w);
        self.body.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let head = Atom::decode(r)?;
        let body = Vec::<Atom>::decode(r)?;
        Ok(Clause { head, body })
    }
}

impl Wire for Definition {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.target);
        self.clauses.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let target = r.get_str()?;
        let clauses = Vec::<Clause>::decode(r)?;
        // `Definition::new` asserts this invariant; bytes off the wire
        // must fail typed instead.
        if let Some(c) = clauses.iter().find(|c| c.head.relation != target) {
            return Err(CodecError::new(format!(
                "clause head `{}` does not match target `{target}`",
                c.head.relation
            )));
        }
        Ok(Definition::new(target, clauses))
    }
}

impl Wire for ClauseCounts {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.positive);
        w.put_usize(self.negative);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ClauseCounts {
            positive: r.get_usize()?,
            negative: r.get_usize()?,
        })
    }
}

impl Wire for MutationBatch {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.ops().len());
        for op in self.ops() {
            match op {
                MutationOp::Insert { relation, tuple } => {
                    w.put_u8(0);
                    w.put_str(relation);
                    tuple.encode(w);
                }
                MutationOp::Remove { relation, tuple } => {
                    w.put_u8(1);
                    w.put_str(relation);
                    tuple.encode(w);
                }
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut batch = MutationBatch::new();
        for _ in 0..len {
            let tag = r.get_u8()?;
            let relation = r.get_str()?;
            let tuple = Tuple::decode(r)?;
            batch = match tag {
                0 => batch.insert(relation, tuple),
                1 => batch.remove(relation, tuple),
                other => {
                    return Err(CodecError::new(format!("invalid MutationOp tag {other}")));
                }
            };
        }
        Ok(batch)
    }
}

impl Wire for MutationSummary {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.inserted);
        w.put_usize(self.removed);
        self.changed_relations.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MutationSummary {
            inserted: r.get_usize()?,
            removed: r.get_usize()?,
            changed_relations: BTreeSet::<String>::decode(r)?,
        })
    }
}

impl Wire for RelationalError {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            RelationalError::UnknownRelation(name) => {
                w.put_u8(0);
                w.put_str(name);
            }
            RelationalError::UnknownAttribute {
                relation,
                attribute,
            } => {
                w.put_u8(1);
                w.put_str(relation);
                w.put_str(attribute);
            }
            RelationalError::ArityMismatch {
                relation,
                expected,
                actual,
            } => {
                w.put_u8(2);
                w.put_str(relation);
                w.put_usize(*expected);
                w.put_usize(*actual);
            }
            RelationalError::ConstraintViolation(msg) => {
                w.put_u8(3);
                w.put_str(msg);
            }
            RelationalError::DuplicateRelation(name) => {
                w.put_u8(4);
                w.put_str(name);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => RelationalError::UnknownRelation(r.get_str()?),
            1 => RelationalError::UnknownAttribute {
                relation: r.get_str()?,
                attribute: r.get_str()?,
            },
            2 => RelationalError::ArityMismatch {
                relation: r.get_str()?,
                expected: r.get_usize()?,
                actual: r.get_usize()?,
            },
            3 => RelationalError::ConstraintViolation(r.get_str()?),
            4 => RelationalError::DuplicateRelation(r.get_str()?),
            other => {
                return Err(CodecError::new(format!(
                    "invalid RelationalError tag {other}"
                )));
            }
        })
    }
}

impl Wire for LearnerParams {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.constant_positions.len());
        for (relation, position) in &self.constant_positions {
            w.put_str(relation);
            w.put_usize(*position);
        }
        w.put_usize(self.clause_length);
        w.put_usize(self.max_depth);
        w.put_usize(self.max_iterations);
        w.put_f64(self.min_precision);
        w.put_usize(self.min_pos);
        w.put_usize(self.beam_width);
        w.put_usize(self.sample_size);
        w.put_usize(self.max_recall_per_relation);
        w.put_usize(self.max_distinct_variables);
        w.put_bool(self.allow_constants);
        w.put_usize(self.max_constants_per_attribute);
        w.put_usize(self.threads);
        w.put_usize(self.eval_budget);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut constant_positions = BTreeSet::new();
        for _ in 0..len {
            let relation = r.get_str()?;
            let position = r.get_usize()?;
            constant_positions.insert((relation, position));
        }
        Ok(LearnerParams {
            constant_positions,
            clause_length: r.get_usize()?,
            max_depth: r.get_usize()?,
            max_iterations: r.get_usize()?,
            min_precision: r.get_f64()?,
            min_pos: r.get_usize()?,
            beam_width: r.get_usize()?,
            sample_size: r.get_usize()?,
            max_recall_per_relation: r.get_usize()?,
            max_distinct_variables: r.get_usize()?,
            allow_constants: r.get_bool()?,
            max_constants_per_attribute: r.get_usize()?,
            threads: r.get_usize()?,
            eval_budget: r.get_usize()?,
        })
    }
}

impl Wire for castor_core::CastorConfig {
    fn encode(&self, w: &mut ByteWriter) {
        self.params.encode(w);
        w.put_bool(self.use_general_inds);
        w.put_bool(self.promote_general_inds);
        w.put_bool(self.safe_clauses);
        w.put_bool(self.use_stored_procedures);
        w.put_bool(self.minimize_clauses);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(castor_core::CastorConfig {
            params: LearnerParams::decode(r)?,
            use_general_inds: r.get_bool()?,
            promote_general_inds: r.get_bool()?,
            safe_clauses: r.get_bool()?,
            use_stored_procedures: r.get_bool()?,
            minimize_clauses: r.get_bool()?,
        })
    }
}

impl Wire for LearningTask {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.target);
        w.put_usize(self.target_arity);
        self.positive.encode(w);
        self.negative.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let target = r.get_str()?;
        let target_arity = r.get_usize()?;
        let positive = Vec::<Tuple>::decode(r)?;
        let negative = Vec::<Tuple>::decode(r)?;
        for example in positive.iter().chain(negative.iter()) {
            if example.arity() != target_arity {
                return Err(CodecError::new(format!(
                    "example arity {} does not match target arity {target_arity}",
                    example.arity()
                )));
            }
        }
        Ok(LearningTask {
            target,
            target_arity,
            positive,
            negative,
        })
    }
}

impl Wire for castor_service::LearnAlgorithm {
    fn encode(&self, w: &mut ByteWriter) {
        use castor_service::LearnAlgorithm::*;
        match self {
            Foil(params) => {
                w.put_u8(0);
                params.encode(w);
            }
            Progol(params) => {
                w.put_u8(1);
                params.encode(w);
            }
            Golem(params) => {
                w.put_u8(2);
                params.encode(w);
            }
            ProGolem(params) => {
                w.put_u8(3);
                params.encode(w);
            }
            Castor(config) => {
                w.put_u8(4);
                config.encode(w);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        use castor_service::LearnAlgorithm::*;
        Ok(match r.get_u8()? {
            0 => Foil(LearnerParams::decode(r)?),
            1 => Progol(LearnerParams::decode(r)?),
            2 => Golem(LearnerParams::decode(r)?),
            3 => ProGolem(LearnerParams::decode(r)?),
            4 => Castor(Box::new(castor_core::CastorConfig::decode(r)?)),
            other => {
                return Err(CodecError::new(format!(
                    "invalid LearnAlgorithm tag {other}"
                )));
            }
        })
    }
}

impl Wire for EngineReport {
    fn encode(&self, w: &mut ByteWriter) {
        for field in [
            self.coverage_tests,
            self.cache_hits,
            self.cache_misses,
            self.cross_variant_hits,
            self.cross_variant_translations,
            self.generality_skips,
            self.budget_exhausted,
            self.exhaustions_evicted,
            self.plans_compiled,
            self.plan_cache_hits,
            self.plans_invalidated,
            self.cache_clauses_invalidated,
            self.mutation_batches,
            self.batches,
            self.batch_clauses,
            self.batch_prefix_hits,
            self.batch_suffix_forks,
            self.batch_plans_compiled,
            self.batch_plan_cache_hits,
            self.batch_plans_invalidated,
        ] {
            w.put_usize(field);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(EngineReport {
            coverage_tests: r.get_usize()?,
            cache_hits: r.get_usize()?,
            cache_misses: r.get_usize()?,
            cross_variant_hits: r.get_usize()?,
            cross_variant_translations: r.get_usize()?,
            generality_skips: r.get_usize()?,
            budget_exhausted: r.get_usize()?,
            exhaustions_evicted: r.get_usize()?,
            plans_compiled: r.get_usize()?,
            plan_cache_hits: r.get_usize()?,
            plans_invalidated: r.get_usize()?,
            cache_clauses_invalidated: r.get_usize()?,
            mutation_batches: r.get_usize()?,
            batches: r.get_usize()?,
            batch_clauses: r.get_usize()?,
            batch_prefix_hits: r.get_usize()?,
            batch_suffix_forks: r.get_usize()?,
            batch_plans_compiled: r.get_usize()?,
            batch_plan_cache_hits: r.get_usize()?,
            batch_plans_invalidated: r.get_usize()?,
        })
    }
}

impl Wire for ServerReport {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.sessions_accepted);
        w.put_usize(self.sessions_rejected);
        w.put_usize(self.sessions_active);
        w.put_usize(self.jobs_submitted);
        w.put_usize(self.jobs_rejected);
        w.put_usize(self.queue_drains);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ServerReport {
            sessions_accepted: r.get_usize()?,
            sessions_rejected: r.get_usize()?,
            sessions_active: r.get_usize()?,
            jobs_submitted: r.get_usize()?,
            jobs_rejected: r.get_usize()?,
            queue_drains: r.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn varints_roundtrip_at_the_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut w = ByteWriter::new();
            w.put_uvarint(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_uvarint().unwrap(), v);
            assert!(r.is_exhausted());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut w = ByteWriter::new();
            w.put_ivarint(v);
            let bytes = w.into_bytes();
            assert_eq!(ByteReader::new(&bytes).get_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn logic_types_roundtrip() {
        roundtrip(Value::str("alice"));
        roundtrip(Value::int(-42));
        roundtrip(Tuple::from_strs(&["a", "b"]));
        roundtrip(Term::var("x"));
        roundtrip(Term::constant("k"));
        let clause = Clause::new(
            Atom::vars("head", &["x", "y"]),
            vec![
                Atom::vars("body", &["x", "z"]),
                Atom::new("lit", vec![Term::var("z"), Term::constant("c")]),
            ],
        );
        roundtrip(clause.clone());
        roundtrip(Definition::new("head", vec![clause]));
        roundtrip(ClauseCounts {
            positive: 3,
            negative: 1,
        });
    }

    #[test]
    fn mutation_and_report_types_roundtrip() {
        roundtrip(
            MutationBatch::new()
                .insert("r", Tuple::from_strs(&["a"]))
                .remove("s", Tuple::from_strs(&["b", "c"])),
        );
        roundtrip(MutationSummary {
            inserted: 2,
            removed: 1,
            changed_relations: ["r".to_string(), "s".to_string()].into_iter().collect(),
        });
        roundtrip(RelationalError::ArityMismatch {
            relation: "r".into(),
            expected: 2,
            actual: 3,
        });
        roundtrip(EngineReport {
            coverage_tests: 123,
            exhaustions_evicted: 7,
            batch_plans_invalidated: 9,
            ..Default::default()
        });
        roundtrip(ServerReport {
            sessions_accepted: 1,
            sessions_rejected: 2,
            sessions_active: 3,
            jobs_submitted: 4,
            jobs_rejected: 5,
            queue_drains: 6,
        });
    }

    #[test]
    fn learner_config_types_roundtrip() {
        let mut params = LearnerParams::large_dataset();
        params
            .constant_positions
            .insert(("bond".to_string(), 2usize));
        roundtrip(params.clone());
        let config = castor_core::CastorConfig {
            params,
            use_general_inds: true,
            ..Default::default()
        };
        roundtrip(config);
        roundtrip(LearningTask::new(
            "t",
            1,
            vec![Tuple::from_strs(&["a"])],
            vec![Tuple::from_strs(&["b"])],
        ));
        roundtrip(castor_service::LearnAlgorithm::Foil(
            LearnerParams::default(),
        ));
    }

    #[test]
    fn truncated_and_malformed_payloads_fail_cleanly() {
        let bytes = to_bytes(&Tuple::from_strs(&["abc", "def"]));
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<Tuple>(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(from_bytes::<Tuple>(&padded).is_err());
        // Invalid enum tag.
        assert!(from_bytes::<Term>(&[9]).is_err());
        // A forged huge collection length fails before allocating.
        let mut w = ByteWriter::new();
        w.put_uvarint(u64::MAX - 2);
        assert!(from_bytes::<Vec<String>>(&w.into_bytes()).is_err());
    }
}
