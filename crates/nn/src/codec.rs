//! The one binary codec behind every byte the workspace stores or sends:
//! kemf-nn checkpoint bundles, run-checkpoint meta, client-store spill
//! files, `QuantizedWeights` wire payloads and KMFT transport frames.
//!
//! Everything is little-endian; vectors carry a `u64` length prefix.
//! [`Writer`] appends to a `Vec<u8>`. [`Reader`] decodes from any
//! [`Read`] and reports every malformed input — short, trailing bytes,
//! impossible lengths — as an [`io::ErrorKind::InvalidData`] error that
//! names the byte offset.
//!
//! **One allocation rule.** No read allocates more than the input still
//! holds, plus one 64 KiB chunk. When the input's length is known (a
//! file, bytes in memory: [`Reader::with_len`]), a field is allocated
//! once, after its length prefix is checked against the bytes left.
//! Otherwise (a socket) a field longer than one chunk grows its buffer
//! only as its bytes actually arrive (`Read::take(n).read_to_end`).
//! Element vectors are sized only after their bytes arrived, and nested
//! counts push element by element. A forged length therefore ends in an
//! error at the end of the input, never in an allocator abort.
//!
//! The module also holds the workspace's one CRC-32 (frame and payload
//! checksums) and its one FNV-1a (run fingerprints, filler seeds).

use crate::serialize::{ModelState, Weights};
use std::fmt::Display;
use std::io::{self, Read};

/// The most a read reserves before its bytes arrive.
const CHUNK: usize = 64 * 1024;

/// The error every malformed input decodes to.
pub fn invalid(msg: impl Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Little-endian encoder over a growing `Vec<u8>`, empty by
/// [`Default`]. Methods chain.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer { buf: Vec::with_capacity(n) }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A `usize`, widened to `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// An `f32` by bit pattern (NaN payloads and `-0.0` survive).
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// An `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.usize(b.len()).raw(b)
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Length-prefixed `i8`s, one byte each.
    pub fn i8s(&mut self, v: &[i8]) -> &mut Self {
        self.usize(v.len());
        self.buf.extend(v.iter().map(|&c| c as u8));
        self
    }

    /// Length-prefixed `f32`s.
    pub fn f32s(&mut self, v: &[f32]) -> &mut Self {
        self.usize(v.len());
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Length-prefixed `usize`s, each widened to `u64`.
    pub fn usizes(&mut self, v: &[usize]) -> &mut Self {
        self.usize(v.len());
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.usize(x);
        }
        self
    }

    /// A [`Weights`]: its `lens`, then its `values`.
    pub fn weights(&mut self, w: &Weights) -> &mut Self {
        self.usizes(&w.lens).f32s(&w.values)
    }

    /// A [`ModelState`]: parameters, then buffers.
    pub fn model_state(&mut self, s: &ModelState) -> &mut Self {
        self.weights(&s.params).weights(&s.buffers)
    }
}

/// Little-endian decoder over any [`Read`], tracking its byte offset.
#[derive(Debug)]
pub struct Reader<R> {
    inner: R,
    pos: u64,
    /// Total input length, when known.
    len: Option<u64>,
    count_log: Option<Vec<u64>>,
}

impl<R: Read> Reader<R> {
    /// Decode from `inner`, whose length is unknown (a stream).
    pub fn new(inner: R) -> Self {
        Reader { inner, pos: 0, len: None, count_log: None }
    }

    /// Decode from `inner`, which holds exactly `len` bytes (a file,
    /// bytes in memory): a field longer than the bytes left is refused
    /// before anything is allocated for it.
    pub fn with_len(inner: R, len: u64) -> Self {
        Reader { len: Some(len), ..Reader::new(inner) }
    }

    /// Decode from `inner`, recording the offset of every length or count
    /// field read (see [`Reader::count_offsets`]); hostile-input tests use
    /// it to aim forged lengths at exactly those fields.
    pub fn logging_counts(inner: R) -> Self {
        Reader { count_log: Some(Vec::new()), ..Reader::new(inner) }
    }

    /// Offsets of the length and count fields read so far (empty unless
    /// built by [`Reader::logging_counts`]).
    pub fn count_offsets(&self) -> &[u64] {
        self.count_log.as_deref().unwrap_or(&[])
    }

    /// The undecoded remainder (for a slice: the rest of the slice).
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.pos += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(invalid(format!(
                "truncated input: {} bytes needed at offset {}",
                buf.len(),
                self.pos
            ))),
            Err(e) => Err(e),
        }
    }

    /// `N` bytes verbatim.
    pub fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(b)
    }

    /// One byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` as a `usize`.
    pub fn usize(&mut self) -> io::Result<usize> {
        Ok(self.u64()? as usize)
    }

    /// An `f32` by bit pattern.
    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An `f64` by bit pattern.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A length prefix or element count: a loop bound or a read length,
    /// never an allocation size the input has not backed.
    pub fn count(&mut self) -> io::Result<u64> {
        if let Some(log) = &mut self.count_log {
            log.push(self.pos);
        }
        self.u64()
    }

    /// Exactly `n` bytes. A field of up to one chunk is read in place. A
    /// longer one is allocated whole when the input is known to hold it,
    /// and otherwise (a stream) grows its buffer only as its bytes arrive.
    pub fn raw(&mut self, n: u64) -> io::Result<Vec<u8>> {
        let left = self.len.map(|len| len.saturating_sub(self.pos));
        if let Some(left) = left.filter(|&left| n > left) {
            return Err(invalid(format!(
                "truncated input: {n}-byte field at offset {} but {left} bytes left",
                self.pos
            )));
        }
        if n <= CHUNK as u64 {
            let mut out = vec![0u8; n as usize];
            self.fill(&mut out)?;
            return Ok(out);
        }
        let mut out = Vec::with_capacity(if left.is_some() { n as usize } else { CHUNK });
        let got = (&mut self.inner).take(n).read_to_end(&mut out)? as u64;
        self.pos += got;
        if got != n {
            return Err(invalid(format!(
                "truncated input: {n}-byte field at offset {} holds only {got} bytes",
                self.pos - got
            )));
        }
        Ok(out)
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.count()?;
        self.raw(n)
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self) -> io::Result<String> {
        let at = self.pos;
        String::from_utf8(self.bytes()?)
            .map_err(|_| invalid(format!("non-UTF-8 string at offset {at}")))
    }

    /// Length-prefixed `i8`s.
    pub fn i8s(&mut self) -> io::Result<Vec<i8>> {
        Ok(self.bytes()?.into_iter().map(|b| b as i8).collect())
    }

    /// `n` fixed-width elements. Their bytes arrive first (under the
    /// growth rule of [`Reader::raw`]); only then is the output sized.
    fn elements<const W: usize, T>(
        &mut self,
        n: u64,
        decode: impl Fn([u8; W]) -> T,
    ) -> io::Result<Vec<T>> {
        let at = self.pos;
        let len = n
            .checked_mul(W as u64)
            .ok_or_else(|| invalid(format!("{n}-element vector at offset {at} overflows")))?;
        let bytes = self.raw(len)?;
        Ok(bytes.chunks_exact(W).map(|c| decode(c.try_into().expect("W-byte chunk"))).collect())
    }

    /// Length-prefixed `f32`s.
    pub fn f32s(&mut self) -> io::Result<Vec<f32>> {
        let n = self.count()?;
        self.elements(n, f32::from_le_bytes)
    }

    /// Length-prefixed `usize`s.
    pub fn usizes(&mut self) -> io::Result<Vec<usize>> {
        let n = self.count()?;
        self.elements(n, |b| u64::from_le_bytes(b) as usize)
    }

    /// A [`Weights`]; the value count must equal the sum of `lens`.
    pub fn weights(&mut self) -> io::Result<Weights> {
        let lens = self.usizes()?;
        let values = self.f32s()?;
        let total = lens.iter().try_fold(0usize, |acc, &l| acc.checked_add(l));
        if total != Some(values.len()) {
            return Err(invalid(format!(
                "{} values do not match parameter lengths summing to {total:?}",
                values.len()
            )));
        }
        Ok(Weights { values, lens })
    }

    /// A [`ModelState`].
    pub fn model_state(&mut self) -> io::Result<ModelState> {
        let params = self.weights()?;
        let buffers = self.weights()?;
        Ok(ModelState { params, buffers })
    }

    /// End of input: any byte left over is corruption.
    pub fn finish(&mut self) -> io::Result<()> {
        match self.inner.read(&mut [0u8; 1])? {
            0 => Ok(()),
            _ => Err(invalid(format!("trailing bytes after offset {}", self.pos))),
        }
    }
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`), fed incrementally
/// from its [`Default`] state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(!0)
    }
}

impl Crc32 {
    /// Feed `bytes`.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u32;
            for _ in 0..8 {
                let mask = (self.0 & 1).wrapping_neg();
                self.0 = (self.0 >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        self
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::default().update(bytes).finish()
}

/// 64-bit FNV-1a, fed incrementally from the offset basis
/// ([`Default`]) or from an existing hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Continue from an existing hash value (e.g. to mix knobs into a
    /// fingerprint).
    pub fn with_state(h: u64) -> Self {
        Fnv1a(h)
    }

    /// Feed `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feed a `u64` as its little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_by_bit_pattern() {
        let w = Weights { values: vec![1.5, -0.0, f32::NAN], lens: vec![2, 1] };
        let empty = Weights { values: vec![], lens: vec![] };
        let state = ModelState { params: w.clone(), buffers: empty };
        let mut out = Writer::default();
        out.u8(7).u32(9).u64(u64::MAX).f32(-0.0).f64(f64::NAN).str("né").i8s(&[-128, 0, 127]);
        out.usizes(&[0, usize::MAX]).model_state(&state);
        let bytes = out.into_bytes();
        let mut r = Reader::new(&bytes[..]);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 9);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "né");
        assert_eq!(r.i8s().unwrap(), vec![-128, 0, 127]);
        assert_eq!(r.usizes().unwrap(), vec![0, usize::MAX]);
        let back = r.model_state().unwrap();
        assert_eq!(back.params.lens, w.lens);
        assert_eq!(back.params.values[2].to_bits(), f32::NAN.to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn malformed_input_is_invalid_data() {
        let kind = |e: io::Error| e.kind();
        // Truncated fixed field.
        assert_eq!(Reader::new(&[1u8, 2][..]).u32().map_err(kind), Err(io::ErrorKind::InvalidData));
        // A forged length asks for more than the input holds.
        let mut forged = Writer::default();
        forged.u64(u64::MAX).raw(b"abc");
        let bytes = forged.into_bytes();
        assert_eq!(Reader::new(&bytes[..]).bytes().map_err(kind), Err(io::ErrorKind::InvalidData));
        assert_eq!(Reader::new(&bytes[..]).f32s().map_err(kind), Err(io::ErrorKind::InvalidData));
        let mut known = Reader::with_len(&bytes[..], bytes.len() as u64);
        assert_eq!(known.bytes().map_err(kind), Err(io::ErrorKind::InvalidData));
        // Values that disagree with their lengths.
        let mut bad = Writer::default();
        bad.usizes(&[usize::MAX, 2]).f32s(&[0.0]);
        let bytes = bad.into_bytes();
        assert!(Reader::new(&bytes[..]).weights().is_err());
        // Trailing bytes.
        let mut r = Reader::new(&[0u8; 9][..]);
        r.u64().unwrap();
        assert_eq!(r.finish().map_err(kind), Err(io::ErrorKind::InvalidData));
    }

    #[test]
    fn logging_reader_records_count_offsets() {
        let mut w = Writer::default();
        w.u32(1).str("ab").f32s(&[1.0]);
        let bytes = w.into_bytes();
        let mut r = Reader::logging_counts(&bytes[..]);
        r.u32().unwrap();
        r.str().unwrap();
        r.f32s().unwrap();
        assert_eq!(r.count_offsets(), &[4, 14]);
    }

    #[test]
    fn checksums_match_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::default().update(b"1234").update(b"56789").finish(), 0xCBF4_3926);
        // FNV-1a test vectors.
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
