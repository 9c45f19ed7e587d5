//! The one checksummed frame: how wire frames, archive pages and
//! checkpoint blocks put a [`crate::ckpt`] payload on bytes.
//!
//! Header, all integers little-endian, 20 bytes:
//!
//! ```text
//! magic u32 | tag u32 | len u32 | fnv1a-64(tag ‖ len ‖ payload) u64 | payload (len bytes)
//! ```
//!
//! The magic names the user ("TCQ!" wire, "TCQA" archive, "TCQK"
//! checkpoint); the tag is the frame kind on the wire and the record count
//! on disk. The checksum ([`Fnv1a`], the workspace's one hash) covers the
//! tag and length as well as the payload, so a flipped length or a tag
//! rewritten into another valid tag is detected, not misparsed.
//!
//! [`decode`] tells a *torn* buffer (`Ok(None)`: the header or payload is
//! not all there yet) from a *corrupt* one (`Err`). What to do about either
//! is the caller's contract, not the format's: the archive skips a bad full
//! page and truncates a partial one, the checkpoint store keeps the valid
//! prefix of blocks, and a connection waits for more bytes on a torn tail
//! and is poisoned on corruption.

use std::fmt;
use std::hash::Hasher;

use crate::hash::Fnv1a;

/// Header size: magic(4) + tag(4) + len(4) + checksum(8).
pub const HEADER_LEN: usize = 20;

/// Why a buffer is not a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first word is not the expected magic.
    BadMagic(u32),
    /// The advertised payload length exceeds the caller's cap.
    TooLong(usize),
    /// The checksum does not match the tag, length and payload.
    Checksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            FrameError::TooLong(n) => write!(f, "payload length {n} exceeds cap"),
            FrameError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

/// One validated frame borrowed from the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// Frame kind (wire) or record count (archive, checkpoint).
    pub tag: u32,
    /// The checksummed payload.
    pub payload: &'a [u8],
}

impl RawFrame<'_> {
    /// Bytes the frame occupies: header plus payload.
    pub fn len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// True for a frame with an empty payload (the header is never empty).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

fn checksum(tag: u32, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&tag.to_le_bytes());
    h.write(&(payload.len() as u32).to_le_bytes());
    h.write(payload);
    h.finish()
}

/// Append one frame — header, then `payload` — to `out`.
pub fn encode(out: &mut Vec<u8>, magic: u32, tag: u32, payload: &[u8]) {
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(tag, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Validate the frame at the front of `buf`. `Ok(None)` means `buf` ends
/// before the frame does (torn); anything past the frame is ignored.
pub fn decode(
    buf: &[u8],
    magic: u32,
    max_payload: usize,
) -> std::result::Result<Option<RawFrame<'_>>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != magic {
        return Err(FrameError::BadMagic(word(0)));
    }
    let tag = word(4);
    let len = word(8) as usize;
    if len > max_payload {
        return Err(FrameError::TooLong(len));
    }
    let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + len) else {
        return Ok(None);
    };
    let want = u64::from_le_bytes(buf[12..HEADER_LEN].try_into().expect("8 bytes"));
    if checksum(tag, payload) != want {
        return Err(FrameError::Checksum);
    }
    Ok(Some(RawFrame { tag, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0x2151_4354;

    #[test]
    fn frames_round_trip_and_report_their_length() {
        let mut buf = Vec::new();
        encode(&mut buf, MAGIC, 7, b"hello");
        encode(&mut buf, MAGIC, u32::MAX, b"");
        let a = decode(&buf, MAGIC, 64).unwrap().unwrap();
        assert_eq!((a.tag, a.payload, a.len()), (7, &b"hello"[..], 25));
        let b = decode(&buf[a.len()..], MAGIC, 64).unwrap().unwrap();
        assert_eq!((b.tag, b.len()), (u32::MAX, HEADER_LEN));
        assert!(b.is_empty());
    }

    #[test]
    fn magic_cap_and_checksum_are_enforced() {
        let mut buf = Vec::new();
        encode(&mut buf, MAGIC, 1, &[9; 10]);
        assert_eq!(
            decode(&buf, MAGIC + 1, 64),
            Err(FrameError::BadMagic(MAGIC))
        );
        assert_eq!(decode(&buf, MAGIC, 9), Err(FrameError::TooLong(10)));
        // The tag is covered: rewriting it into another tag is caught.
        buf[4] = 2;
        assert_eq!(decode(&buf, MAGIC, 64), Err(FrameError::Checksum));
    }
}
