//! The one binary codec behind every byte format in the workspace.
//!
//! Six formats travel as bytes — PFNN weight blobs, PFDB detector
//! bundles, PFBB incident dumps, PFDF drift fingerprints, PFIB ingest
//! batches and PFSC session checkpoints — and all of them encode
//! through [`Writer`] and decode through [`Reader`]. The byte-level
//! decisions live here, once:
//!
//! * integers are little-endian;
//! * floats are stored as their raw IEEE-754 bits, so NaN payloads and
//!   signed zeros survive a round trip;
//! * a string is a `u16` byte length plus UTF-8 bytes;
//! * a checksummed format ends in the [`fnv1a64`] of everything before
//!   it, as a `u64`.
//!
//! Decoding never panics and never sizes an allocation from the input:
//! every read is bounds-checked, [`Reader::count`] refuses a decoded
//! element count whose payload cannot fit in the bytes left, and
//! [`Reader::finish`] refuses trailing bytes. Each format keeps its own
//! layout, header, caps and error type, and maps [`CodecError`] into
//! that error type once.
//!
//! [`Fnv1a`] is the same hash fed in pieces; the preprocessing cache
//! keys its segment sets with it.

use std::fmt;

/// FNV-1a 64-bit hash — tiny, dependency-free, stable across builds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming [`fnv1a64`]: feeding the bytes in pieces gives the same
/// hash as hashing them in one slice.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes yet.
    #[inline]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Why bytes could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a field.
    Truncated,
    /// The trailing FNV-1a checksum does not match the body.
    Checksum,
    /// A decoded count needs more bytes than are left.
    Count,
    /// A string field is not UTF-8.
    Utf8,
    /// Bytes remain after the last field.
    Trailing,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CodecError::Truncated => "truncated input",
            CodecError::Checksum => "checksum mismatch",
            CodecError::Count => "count exceeds the bytes left",
            CodecError::Utf8 => "string is not UTF-8",
            CodecError::Trailing => "trailing bytes after the last field",
        })
    }
}

impl std::error::Error for CodecError {}

/// For formats whose decoder reports a plain message (PFIB batches).
impl From<CodecError> for String {
    fn from(e: CodecError) -> Self {
        e.to_string()
    }
}

/// Little-endian encoder into a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Bounds-checked little-endian decoder over a byte slice. Every
/// fixed-width getter fails with [`CodecError::Truncated`] at the end
/// of the input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

/// `Writer::$t` appends a little-endian `$t`; `Reader::$t` reads one.
macro_rules! fixed_width {
    ($($t:ident),*) => {
        impl Writer {
            $(
                #[doc = concat!("Appends a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self, v: $t) {
                    self.bytes(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("Reads a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self) -> Result<$t, CodecError> {
                    self.array().map($t::from_le_bytes)
                }
            )*
        }
    };
}

fixed_width!(u8, u16, u32, u64, i64, i128);

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends a bool as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f32` as its raw bits.
    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its raw bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix).
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u16`-length string, truncated to `u16::MAX` bytes.
    pub fn str16(&mut self, s: &str) {
        let b = &s.as_bytes()[..s.len().min(usize::from(u16::MAX))];
        self.u16(b.len() as u16);
        self.bytes(b);
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes followed by their [`fnv1a64`] as a `u64`.
    pub fn finish_checksummed(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.u64(sum);
        self.buf
    }
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes }
    }

    /// A reader over the body of bytes written by
    /// [`Writer::finish_checksummed`], once the trailer matches.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when there is no room for the trailer,
    /// [`CodecError::Checksum`] when it does not match the body.
    pub fn checksummed(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let split = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
        let (body, tail) = bytes.split_at(split);
        if Reader::new(tail).u64()? != fnv1a64(body) {
            return Err(CodecError::Checksum);
        }
        Ok(Self::new(body))
    }

    /// The next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` bytes are left.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }

    /// Reads a bool: any non-zero byte is `true`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads an `f32` from its raw bits.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        self.u32().map(f32::from_bits)
    }

    /// Reads an `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u16`-length UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::Utf8`].
    pub fn str16(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u16()?;
        std::str::from_utf8(self.bytes(usize::from(n))?).map_err(|_| CodecError::Utf8)
    }

    /// Passes a decoded element count `n` through when `n` elements of
    /// at least `min_elem_bytes` each fit in the bytes left — call it
    /// before sizing any allocation by `n`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Count`] when they cannot fit.
    #[inline]
    pub fn count(&self, n: usize, min_elem_bytes: usize) -> Result<usize, CodecError> {
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.buf.len() => Ok(n),
            _ => Err(CodecError::Count),
        }
    }

    /// Ends decoding.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`] when bytes are left.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn every_primitive_round_trips() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-5);
        w.i128(i128::MIN + 3);
        w.f32(f32::NAN);
        w.f64(-0.0);
        w.str16("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.finish_checksummed();

        let mut r = Reader::checksummed(&bytes).unwrap();
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(-5));
        assert_eq!(r.i128(), Ok(i128::MIN + 3));
        assert_eq!(r.f32().map(f32::to_bits), Ok(f32::NAN.to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.str16(), Ok("héllo"));
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn malformed_input_is_refused() {
        let bytes = {
            let mut w = Writer::new();
            w.u32(9);
            w.finish_checksummed()
        };
        assert_eq!(
            Reader::checksummed(&bytes[..7]).err(),
            Some(CodecError::Truncated)
        );
        let mut flipped = bytes.clone();
        flipped[0] ^= 1;
        assert_eq!(
            Reader::checksummed(&flipped).err(),
            Some(CodecError::Checksum)
        );

        let r = Reader::new(&[0u8; 10]);
        assert_eq!(r.count(5, 2), Ok(5));
        assert_eq!(r.count(6, 2), Err(CodecError::Count));
        assert_eq!(r.count(usize::MAX, 2), Err(CodecError::Count));
        assert_eq!(r.finish(), Err(CodecError::Trailing));

        assert_eq!(
            Reader::new(&[2, 0, 0xFF, 0xFE]).str16(),
            Err(CodecError::Utf8)
        );
        assert_eq!(
            Reader::new(&[9, 0, b'a']).str16(),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn long_strings_truncate_at_the_length_field() {
        let long = "x".repeat(usize::from(u16::MAX) + 10);
        let mut w = Writer::new();
        w.str16(&long);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str16().map(str::len), Ok(usize::from(u16::MAX)));
        assert_eq!(r.finish(), Ok(()));
    }
}
