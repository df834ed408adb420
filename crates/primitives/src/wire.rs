//! Canonical, deterministic binary encoding.
//!
//! Every message that is signed or hashed in the protocol stack must have a
//! single canonical byte representation. The offline dependency set has no
//! serde *serializer*, so this module provides a small, explicit
//! length-prefixed encoding with [`Encode`]/[`Decode`] traits.
//!
//! The format is: fixed-width big-endian integers, `u32` length prefixes for
//! byte strings and sequences, one tag byte for `Option`/enums. Decoding is
//! strict — [`Decode::from_bytes`] rejects trailing bytes, so encodings are
//! injective on the value domain.
//!
//! # Examples
//!
//! ```
//! use proauth_primitives::wire::{Encode, Decode};
//!
//! let v: Vec<u64> = vec![1, 2, 3];
//! let bytes = v.to_bytes();
//! assert_eq!(Vec::<u64>::from_bytes(&bytes)?, v);
//! # Ok::<(), proauth_primitives::wire::WireError>(())
//! ```

use crate::bigint::BigUint;
use crate::sha256::Sha256;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// Bytes remained after a full value was decoded.
    TrailingBytes,
    /// An enum/option tag byte had an unknown value.
    InvalidTag(u8),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A declared length exceeds the remaining input.
    BadLength,
    /// A field's value lies outside its domain.
    OutOfRange,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadLength => write!(f, "declared length exceeds input"),
            WireError::OutOfRange => write!(f, "field value out of range"),
        }
    }
}

impl std::error::Error for WireError {}

/// Accumulates an encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no prefix (caller guarantees fixed width).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over an encoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::BadLength);
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Writes `self` into `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types decodable from the canonical encoding.
pub trait Decode: Sized {
    /// Reads a value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes a complete value, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed or over-long input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

macro_rules! impl_wire_uint {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

impl_wire_uint!(u8, put_u8, get_u8);
impl_wire_uint!(u16, put_u16, get_u16);
impl_wire_uint!(u32, put_u32, get_u32);
impl_wire_uint!(u64, put_u64, get_u64);

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.get_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

// Vec<u8> has a dedicated impl above; generic sequences of multi-byte items.
macro_rules! impl_wire_vec {
    ($item:ty) => {
        impl Encode for Vec<$item> {
            fn encode(&self, w: &mut Writer) {
                w.put_u32(self.len() as u32);
                for item in self {
                    item.encode(w);
                }
            }
        }
        impl Decode for Vec<$item> {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let len = r.get_u32()? as usize;
                // Each item takes at least one byte; reject absurd lengths.
                if len > r.remaining() {
                    return Err(WireError::BadLength);
                }
                let mut out = Vec::with_capacity(len);
                for _ in 0..len {
                    out.push(<$item>::decode(r)?);
                }
                Ok(out)
            }
        }
    };
}

impl_wire_vec!(u16);
impl_wire_vec!(u32);
impl_wire_vec!(u64);
impl_wire_vec!(Vec<u8>);
impl_wire_vec!(String);
impl_wire_vec!(BigUint);

/// Encodes a sequence of arbitrary `Encode` items with a length prefix.
pub fn encode_seq<T: Encode>(items: &[T], w: &mut Writer) {
    w.put_u32(items.len() as u32);
    for item in items {
        item.encode(w);
    }
}

/// Decodes a sequence written by [`encode_seq`].
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let len = r.get_u32()? as usize;
    if len > r.remaining() {
        return Err(WireError::BadLength);
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

impl Encode for BigUint {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.to_bytes_be());
    }
}

impl Decode for BigUint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BigUint::from_bytes_be(&r.get_bytes()?))
    }
}

/// An interned, content-addressed byte blob.
///
/// One allocation (`Arc<[u8]>`) shared by every holder — fan-out envelopes,
/// relay duty, dedup tables, adversary inspection — plus a lazily computed
/// SHA-256 digest cached next to the bytes, so content addressing costs one
/// hash per blob no matter how many parties handle it.
///
/// Encodes byte-identically to `Vec<u8>` (`u32` length prefix + raw bytes):
/// swapping a `Vec<u8>` wire field for an `InternedBlob` changes no encoding.
#[derive(Clone)]
pub struct InternedBlob {
    repr: Arc<BlobRepr>,
}

struct BlobRepr {
    bytes: Arc<[u8]>,
    digest: OnceLock<[u8; 32]>,
}

impl InternedBlob {
    /// Interns `bytes` (no copy when handed an existing `Arc<[u8]>`).
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        InternedBlob {
            repr: Arc::new(BlobRepr {
                bytes: bytes.into(),
                digest: OnceLock::new(),
            }),
        }
    }

    /// The blob contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.repr.bytes
    }

    /// The shared byte allocation (for zero-copy conversion into payload
    /// types like the simulator's `Arc<[u8]>`).
    pub fn share_bytes(&self) -> Arc<[u8]> {
        self.repr.bytes.clone()
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.repr.bytes.len()
    }

    /// Whether the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.repr.bytes.is_empty()
    }

    /// The SHA-256 digest of the contents, computed at most once across all
    /// clones of this blob.
    pub fn digest(&self) -> &[u8; 32] {
        self.repr.digest.get_or_init(|| Sha256::digest(&self.repr.bytes))
    }
}

impl std::ops::Deref for InternedBlob {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for InternedBlob {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<Vec<u8>> for InternedBlob {
    fn from(v: Vec<u8>) -> Self {
        InternedBlob::new(v)
    }
}

impl From<&[u8]> for InternedBlob {
    fn from(v: &[u8]) -> Self {
        InternedBlob::new(v)
    }
}

impl From<Arc<[u8]>> for InternedBlob {
    fn from(v: Arc<[u8]>) -> Self {
        InternedBlob::new(v)
    }
}

impl From<InternedBlob> for Arc<[u8]> {
    fn from(b: InternedBlob) -> Self {
        b.share_bytes()
    }
}

impl PartialEq for InternedBlob {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.repr.bytes, &other.repr.bytes)
            || self.repr.bytes == other.repr.bytes
    }
}

impl Eq for InternedBlob {}

impl std::hash::Hash for InternedBlob {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.repr.bytes.hash(state);
    }
}

impl fmt::Debug for InternedBlob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InternedBlob({} bytes)", self.len())
    }
}

impl Encode for InternedBlob {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
}

impl Decode for InternedBlob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InternedBlob::new(r.get_bytes()?))
    }
}

impl Encode for [u8; 32] {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self);
    }
}

impl Decode for [u8; 32] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.get_raw(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(raw);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uints_roundtrip() {
        let mut w = Writer::new();
        1u8.encode(&mut w);
        2u16.encode(&mut w);
        3u32.encode(&mut w);
        4u64.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 1);
        assert_eq!(u16::decode(&mut r).unwrap(), 2);
        assert_eq!(u32::decode(&mut r).unwrap(), 3);
        assert_eq!(u64::decode(&mut r).unwrap(), 4);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn strict_trailing_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(u32::from_bytes(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn eof_detected() {
        assert_eq!(u64::from_bytes(&[1, 2, 3]), Err(WireError::UnexpectedEof));
        assert_eq!(Vec::<u8>::from_bytes(&[0, 0, 0, 5, 1]), Err(WireError::BadLength));
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u32> = Some(99);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_bytes(&some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u32>::from_bytes(&none.to_bytes()).unwrap(), none);
        assert_eq!(Option::<u32>::from_bytes(&[2]), Err(WireError::InvalidTag(2)));
    }

    #[test]
    fn string_roundtrip() {
        let s = "the public key of N_3 in time unit 7".to_owned();
        assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
        assert_eq!(
            String::from_bytes(&[0, 0, 0, 2, 0xff, 0xfe]),
            Err(WireError::InvalidUtf8)
        );
    }

    #[test]
    fn vec_roundtrip() {
        let v: Vec<u64> = vec![10, 20, 30];
        assert_eq!(Vec::<u64>::from_bytes(&v.to_bytes()).unwrap(), v);
        let nested: Vec<Vec<u8>> = vec![vec![1], vec![], vec![2, 3]];
        assert_eq!(Vec::<Vec<u8>>::from_bytes(&nested.to_bytes()).unwrap(), nested);
    }

    #[test]
    fn biguint_roundtrip() {
        let v = BigUint::from_hex("123456789abcdef00ff").unwrap();
        assert_eq!(BigUint::from_bytes(&v.to_bytes()).unwrap(), v);
        assert_eq!(
            BigUint::from_bytes(&BigUint::zero().to_bytes()).unwrap(),
            BigUint::zero()
        );
    }

    #[test]
    fn array32_roundtrip() {
        let a = [7u8; 32];
        assert_eq!(<[u8; 32]>::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn interned_blob_encodes_like_vec_u8() {
        let v = vec![1u8, 2, 3, 4, 5];
        let blob = InternedBlob::from(v.clone());
        assert_eq!(blob.to_bytes(), v.to_bytes());
        let back = InternedBlob::from_bytes(&blob.to_bytes()).unwrap();
        assert_eq!(back, blob);
        assert_eq!(back.as_bytes(), &v[..]);
    }

    #[test]
    fn interned_blob_digest_cached_across_clones() {
        let blob = InternedBlob::from(vec![7u8; 100]);
        let clone = blob.clone();
        let d1 = *blob.digest();
        // The clone sees the already-computed digest (same cache cell).
        let d2 = *clone.digest();
        assert_eq!(d1, d2);
        assert_eq!(d1, Sha256::digest(&[7u8; 100]));
        // Clones share the underlying allocation.
        assert!(Arc::ptr_eq(&blob.share_bytes(), &clone.share_bytes()));
    }

    #[test]
    fn interned_blob_eq_by_content() {
        let a = InternedBlob::from(vec![1u8, 2]);
        let b = InternedBlob::from(vec![1u8, 2]);
        let c = InternedBlob::from(vec![3u8]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn encoding_is_injective() {
        // ("ab","c") vs ("a","bc") as length-prefixed pairs differ.
        let mut w1 = Writer::new();
        w1.put_bytes(b"ab");
        w1.put_bytes(b"c");
        let mut w2 = Writer::new();
        w2.put_bytes(b"a");
        w2.put_bytes(b"bc");
        assert_ne!(w1.into_bytes(), w2.into_bytes());
    }
}
