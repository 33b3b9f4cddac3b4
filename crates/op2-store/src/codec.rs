//! Little-endian payload framing shared by every record type in the
//! workspace (checkpoint slices, journal entries). Deliberately boring:
//! fixed-width integers, bit-pattern `f64`s (durability must be *bitwise*
//! — a state value that round-trips through decimal is a silent
//! divergence), and length-prefixed byte strings.

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the field being read.
    ShortPayload {
        /// Bytes still needed.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A length prefix or tag field carries an impossible value.
    BadField(&'static str),
    /// A byte-string field is not valid UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over — a framing mismatch between
    /// writer and reader versions.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::ShortPayload { needed, remaining } => {
                write!(f, "payload too short: needed {needed} bytes, {remaining} remain")
            }
            CodecError::BadField(what) => write!(f, "bad field: {what}"),
            CodecError::BadUtf8 => write!(f, "byte string is not valid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} undecoded trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// An empty writer over `buf`'s allocation: a caller that serializes
    /// one record after another hands the previous [`ByteWriter::finish`]
    /// back here, so a payload of the same size needs no new memory.
    pub fn reuse(mut buf: Vec<u8>) -> ByteWriter {
        buf.clear();
        ByteWriter { buf }
    }

    /// The accumulated payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append a `u32`-count-prefixed slice of `u32`s.
    pub fn u32s(&mut self, vs: &[u32]) -> &mut Self {
        self.u32(vs.len() as u32);
        self.words(vs, |v| v.to_le_bytes())
    }

    /// Append a `u32`-count-prefixed slice of `f64` bit patterns.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u32(vs.len() as u32);
        self.words(vs, |v| v.to_bits().to_le_bytes())
    }

    /// Append `vs` as `N`-byte words: the buffer grows once, then every word
    /// is stored into its slot.
    fn words<T: Copy, const N: usize>(
        &mut self,
        vs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> &mut Self {
        let at = self.buf.len();
        self.buf.resize(at + N * vs.len(), 0);
        for (out, &v) in self.buf[at..].chunks_exact_mut(N).zip(vs) {
            out.copy_from_slice(&le(v));
        }
        self
    }
}

/// Sequential payload reader; every accessor returns a typed error instead
/// of panicking, because the bytes may be attacker-shaped (a torn or
/// bit-flipped record that happened to pass... no — checksums catch those;
/// what this really guards is version skew between writer and reader).
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::ShortPayload {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a count-prefixed slice of `u32`s.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let words = self.words::<4>()?;
        Ok(words
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect())
    }

    /// Read a count-prefixed slice of `f64` bit patterns.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let words = self.words::<8>()?;
        Ok(words
            .chunks_exact(8)
            .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().unwrap())))
            .collect())
    }

    /// The bytes of a count-prefixed run of `N`-byte words, checked once. A
    /// run cut short fails with the error a word-by-word read would have
    /// stopped at: the first word that does not fit.
    fn words<const N: usize>(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        match n.checked_mul(N) {
            Some(len) if len <= self.buf.len() => self.take(len),
            _ => Err(CodecError::ShortPayload {
                needed: N,
                remaining: self.buf.len() % N,
            }),
        }
    }

    /// Assert the payload is fully consumed.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = ByteWriter::new();
        w.u32(7)
            .u64(u64::MAX)
            .f64(-0.0)
            .str("halo ∆")
            .u32s(&[1, 2, 3])
            .f64s(&[1.5, f64::NAN]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "halo ∆");
        assert_eq!(r.u32s().unwrap(), vec![1, 2, 3]);
        let fs = r.f64s().unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_nan(), "NaN bit pattern survives");
        r.done().unwrap();
    }

    #[test]
    fn short_payload_is_typed_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(CodecError::ShortPayload { needed: 4, remaining: 2 })
        ));
    }

    #[test]
    fn huge_count_prefix_cannot_oom() {
        // A corrupt count prefix claims 4 billion entries over a 4-byte
        // buffer: the reader must fail fast, not reserve terabytes.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(r.u32s().is_err());
    }

    /// The reader's runs word by word, as it decoded them before it read
    /// them in bulk: the reference for results and errors alike.
    fn u32s_one_by_one(r: &mut ByteReader) -> Result<Vec<u32>, CodecError> {
        let n = r.u32()? as usize;
        (0..n).map(|_| r.u32()).collect()
    }

    fn f64s_one_by_one(r: &mut ByteReader) -> Result<Vec<f64>, CodecError> {
        let n = r.u32()? as usize;
        (0..n).map(|_| r.f64()).collect()
    }

    /// Every truncation of a run, and every count prefix from 0 past the
    /// bytes present up to `u32::MAX`: bulk decoding returns what word-by-word
    /// decoding returned, the same `CodecError` included.
    #[test]
    fn bulk_runs_decode_like_word_by_word() {
        let fs = [1.5, -0.0, f64::NAN, 1e-310, 7.0];
        let mut w = ByteWriter::new();
        w.f64s(&fs);
        let floats = w.finish();
        let mut w = ByteWriter::new();
        w.u32s(&[9, 8, 7, 6, 5, u32::MAX]);
        let ints = w.finish();
        let bits = |v: Result<Vec<f64>, CodecError>| {
            v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        for cut in 0..=floats.len() {
            let bytes = &floats[..cut];
            assert_eq!(
                bits(ByteReader::new(bytes).f64s()),
                bits(f64s_one_by_one(&mut ByteReader::new(bytes))),
                "f64s cut at {cut}"
            );
        }
        for cut in 0..=ints.len() {
            let bytes = &ints[..cut];
            assert_eq!(
                ByteReader::new(bytes).u32s(),
                u32s_one_by_one(&mut ByteReader::new(bytes)),
                "u32s cut at {cut}"
            );
        }
        for n in (0..12).chain([u32::MAX / 8, u32::MAX / 4, u32::MAX]) {
            let mut forged = floats.clone();
            forged[..4].copy_from_slice(&n.to_le_bytes());
            assert_eq!(
                bits(ByteReader::new(&forged).f64s()),
                bits(f64s_one_by_one(&mut ByteReader::new(&forged))),
                "f64s count {n}"
            );
            let mut forged = ints.clone();
            forged[..4].copy_from_slice(&n.to_le_bytes());
            assert_eq!(
                ByteReader::new(&forged).u32s(),
                u32s_one_by_one(&mut ByteReader::new(&forged)),
                "u32s count {n}"
            );
        }
    }

    /// A reused writer starts empty and keeps its allocation.
    #[test]
    fn reused_writer_starts_empty() {
        let mut w = ByteWriter::new();
        w.f64s(&[1.0; 64]);
        let first = w.finish();
        let cap = first.capacity();
        let mut w = ByteWriter::reuse(first);
        w.u32(3);
        let second = w.finish();
        assert_eq!(second, 3u32.to_le_bytes());
        assert_eq!(second.capacity(), cap);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.u32(1).u32(2);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        r.u32().unwrap();
        assert_eq!(r.done(), Err(CodecError::TrailingBytes(4)));
    }
}
