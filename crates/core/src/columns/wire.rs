//! Compact columnar wire encoding for [`VisitColumns`] and the chunk
//! interner — the unit that crosses machine boundaries in a distributed
//! campaign.
//!
//! ## Frame layout
//!
//! Every wire payload travels inside a *sealed frame*:
//!
//! ```text
//! [0..4)   magic  b"HBWF"
//! [4]      version byte (currently 2)
//! [5..13)  payload length, u64 LE
//! [13..n)  payload bytes
//! [n..n+8) XXH64(payload), u64 LE
//! ```
//!
//! [`open_frame`] verifies magic, version, length *and* checksum before a
//! single payload byte is parsed, so corrupt or truncated frames —
//! including a one-bit flip anywhere in the frame — are rejected with a
//! [`WireError`] instead of being trusted (or panicking the decoder).
//! Structural validation (offset monotonicity, symbol bounds, enum tags)
//! still runs during decode as defense in depth: a frame that passes the
//! checksum but violates the format (an encoder bug, a hostile peer with
//! a valid checksum) is rejected, never mis-decoded.
//!
//! ## Payload encoding
//!
//! Deliberately boring: little-endian fixed-width scalars, `u32`
//! length-prefixed flat `Vec` columns in a fixed order, `Option<f64>`
//! as a presence byte + value, enums as one tag byte. The columns are
//! already flat arrays, so encoding is a linear copy — no per-row
//! branching beyond the option tags.

use super::VisitColumns;
use crate::intern::{Interner, Symbol};
use crate::record::{BidSource, DetectedBid, DetectedFacet, DetectedSlot, PartnerLatency};
use std::fmt;

/// Wire format version this build writes and accepts. Version 2 dropped
/// fields from the chunk and fabric message payloads, so a version-1
/// frame is refused rather than decoded with its fields shifted.
pub const WIRE_VERSION: u8 = 2;

/// Frame magic: identifies a sealed hb wire frame.
pub const WIRE_MAGIC: [u8; 4] = *b"HBWF";

/// Bytes of frame overhead around a payload (magic + version + length +
/// checksum).
pub const FRAME_OVERHEAD: usize = 4 + 1 + 8 + 8;

/// Bytes of the frame *header* alone (magic + version + payload length)
/// — what a streaming reader must buffer before it knows how many more
/// bytes the frame occupies. The trailing checksum travels after the
/// payload and is not part of this prefix.
pub const FRAME_HEADER: usize = 4 + 1 + 8;

/// Validate a frame header prefix and return the declared payload
/// length. Magic and version are checked before the length field is
/// trusted, so a stray peer (or a corrupt spool log) cannot steer a
/// streaming reader with a garbage length; the checksum is still
/// verified later by [`open_frame`] once the full frame is buffered.
pub fn frame_payload_len(header: &[u8]) -> Result<usize, WireError> {
    let Some(([m0, m1, m2, m3, version, len @ ..], _)) = header.split_first_chunk::<FRAME_HEADER>()
    else {
        return Err(WireError::Truncated);
    };
    if [*m0, *m1, *m2, *m3] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    if *version != WIRE_VERSION {
        return Err(WireError::BadVersion(*version));
    }
    Ok(u64::from_le_bytes(*len) as usize)
}

/// Decode failure. Every variant is a *rejection* — the decoder never
/// trusts a frame it cannot fully validate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a well-formed frame/payload requires.
    Truncated,
    /// Leading magic bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// Version byte this build does not speak.
    BadVersion(u8),
    /// Declared payload length disagrees with the byte count.
    LengthMismatch,
    /// Payload checksum disagrees with the sealed value.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, non-monotonic offsets,
    /// out-of-range symbol, …) with a static description.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::LengthMismatch => write!(f, "frame length mismatch"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// --- XXH64 -----------------------------------------------------------------

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// One-shot XXH64 with seed 0 — the frame integrity checksum. A 64-bit
/// avalanche hash: any single-bit corruption of the payload flips the
/// digest with overwhelming probability (verified exhaustively for every
/// bit position by the round-trip proptest).
pub fn xxh64(data: &[u8]) -> u64 {
    let len = data.len() as u64;
    let mut h: u64;
    let mut rest = data;
    if rest.len() >= 32 {
        let mut v1 = PRIME64_1.wrapping_add(PRIME64_2);
        let mut v2 = PRIME64_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(PRIME64_1);
        while let Some((stripe, tail)) = rest.split_first_chunk::<32>() {
            let lanes = stripe.as_chunks::<8>().0;
            v1 = xxh_round(v1, u64::from_le_bytes(lanes[0]));
            v2 = xxh_round(v2, u64::from_le_bytes(lanes[1]));
            v3 = xxh_round(v3, u64::from_le_bytes(lanes[2]));
            v4 = xxh_round(v4, u64::from_le_bytes(lanes[3]));
            rest = tail;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh_merge_round(h, v1);
        h = xxh_merge_round(h, v2);
        h = xxh_merge_round(h, v3);
        h = xxh_merge_round(h, v4);
    } else {
        h = PRIME64_5;
    }
    h = h.wrapping_add(len);
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = tail;
    }
    if let Some((word, tail)) = rest.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = tail;
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

// --- Frames ----------------------------------------------------------------

/// Seal `payload` into a checksummed frame appended to `out`.
pub fn seal_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&xxh64(payload).to_le_bytes());
}

/// Seal `payload` into a fresh frame.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    seal_frame_into(payload, &mut out);
    out
}

/// Open a sealed frame, returning the validated payload slice. Magic,
/// version, declared length and checksum are all verified *before* the
/// payload is handed to any parser.
pub fn open_frame(frame: &[u8]) -> Result<&[u8], WireError> {
    if frame.len() < FRAME_OVERHEAD {
        return Err(WireError::Truncated);
    }
    let declared = frame_payload_len(frame)?;
    let (payload, sealed) = frame[FRAME_HEADER..]
        .split_last_chunk::<8>()
        .ok_or(WireError::Truncated)?;
    if declared != payload.len() {
        return Err(WireError::LengthMismatch);
    }
    if xxh64(payload) != u64::from_le_bytes(*sealed) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(payload)
}

// --- Primitive writer/reader ----------------------------------------------

/// Append-only little-endian payload writer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its LE bit pattern (NaN payloads round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write an optional `f64` as a presence byte + value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a `usize` collection length (must fit `u32` — chunk columns
    /// always do).
    pub fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize, "wire collection too large");
        self.u32(n as u32);
    }

    /// Write a length-prefixed byte blob (nested frames, opaque payloads).
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based payload reader; every accessor validates remaining bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The payload is fully consumed (trailing garbage is corruption).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes"))
        }
    }

    fn take_array<const N: usize>(&mut self) -> Result<&'a [u8; N], WireError> {
        let a = self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.pos += N;
        Ok(a)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool tag")),
        }
    }

    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(*self.take_array()?))
    }

    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(*self.take_array()?))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an optional `f64` (presence byte + value).
    pub fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(WireError::Corrupt("option tag")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Corrupt("utf-8"))
    }

    /// Read a length-prefixed byte blob (the declared length is bounded by
    /// the remaining payload, so a corrupt length cannot over-read).
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Read a collection length, bounded by the remaining byte count so a
    /// corrupt length can never drive an over-allocation (`min_item` is
    /// the smallest on-wire footprint of one element).
    pub fn bounded_len(&mut self, min_item: usize) -> Result<usize, WireError> {
        let n = self.len()?;
        if n.saturating_mul(min_item.max(1)) > self.remaining() {
            return Err(WireError::Corrupt("length exceeds payload"));
        }
        Ok(n)
    }

    fn len(&mut self) -> Result<usize, WireError> {
        Ok(self.u32()? as usize)
    }
}

// --- Column encode/decode ---------------------------------------------------

fn facet_tag(f: Option<DetectedFacet>) -> u8 {
    match f {
        None => 0,
        Some(DetectedFacet::Client) => 1,
        Some(DetectedFacet::Server) => 2,
        Some(DetectedFacet::Hybrid) => 3,
    }
}

fn facet_from_tag(tag: u8) -> Result<Option<DetectedFacet>, WireError> {
    Ok(match tag {
        0 => None,
        1 => Some(DetectedFacet::Client),
        2 => Some(DetectedFacet::Server),
        3 => Some(DetectedFacet::Hybrid),
        _ => return Err(WireError::Corrupt("facet tag")),
    })
}

fn write_symbols(w: &mut WireWriter, col: &[Symbol]) {
    w.len(col.len());
    for s in col {
        w.u32(s.index() as u32);
    }
}

fn read_symbols(r: &mut WireReader<'_>, n_strings: usize) -> Result<Vec<Symbol>, WireError> {
    let n = r.bounded_len(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_symbol(r, n_strings)?);
    }
    Ok(out)
}

fn read_symbol(r: &mut WireReader<'_>, n_strings: usize) -> Result<Symbol, WireError> {
    let raw = r.u32()?;
    if raw as usize >= n_strings {
        return Err(WireError::Corrupt("symbol out of range"));
    }
    Ok(Symbol::from_raw(raw))
}

/// Offsets column: `n + 1` monotonically non-decreasing entries ending at
/// the child column length (or empty for never-seeded columns).
fn write_offsets(w: &mut WireWriter, off: &[u32]) {
    w.len(off.len());
    for &o in off {
        w.u32(o);
    }
}

fn read_offsets(
    r: &mut WireReader<'_>,
    n_rows: usize,
    child_len: usize,
) -> Result<Vec<u32>, WireError> {
    let n = r.bounded_len(4)?;
    if n == 0 {
        if n_rows != 0 || child_len != 0 {
            return Err(WireError::Corrupt("missing offsets"));
        }
        return Ok(Vec::new());
    }
    if n != n_rows + 1 {
        return Err(WireError::Corrupt("offsets length"));
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u32;
    for i in 0..n {
        let o = r.u32()?;
        if (i == 0 && o != 0) || o < prev {
            return Err(WireError::Corrupt("offsets not monotonic"));
        }
        prev = o;
        out.push(o);
    }
    if prev as usize != child_len {
        return Err(WireError::Corrupt("offsets do not seal children"));
    }
    Ok(out)
}

/// Encode the chunk-local interner: every string in symbol order. Index 0
/// is always the pre-interned `""`.
pub fn encode_interner(strings: &Interner, w: &mut WireWriter) {
    w.len(strings.len());
    for (_, s) in strings.iter() {
        w.str(s);
    }
}

/// Decode an interner: interning the unique strings in order reproduces
/// the exact symbol numbering they were encoded with.
pub fn decode_interner(r: &mut WireReader<'_>) -> Result<Interner, WireError> {
    let n = r.bounded_len(4)?;
    if n == 0 {
        return Err(WireError::Corrupt("empty interner"));
    }
    let mut strings = Interner::with_capacity(n);
    for i in 0..n {
        let s = r.str()?;
        let sym = strings.intern(s);
        // Duplicate strings would silently renumber every later symbol.
        if sym.index() != i {
            return Err(WireError::Corrupt("interner duplicate"));
        }
    }
    Ok(strings)
}

/// Encode the full column set into `w`. Symbols are written as raw `u32`
/// indexes into the companion interner (encode it alongside with
/// [`encode_interner`]).
pub fn encode_columns(cols: &VisitColumns, w: &mut WireWriter) {
    let n = cols.len();
    w.len(n);
    write_symbols(w, &cols.domain);
    for &v in &cols.rank {
        w.u32(v);
    }
    for &v in &cols.day {
        w.u32(v);
    }
    for &v in &cols.hb_detected {
        w.bool(v);
    }
    for &v in &cols.facet {
        w.u8(facet_tag(v));
    }
    for &v in &cols.slots_auctioned {
        w.u32(v);
    }
    for &v in &cols.hb_latency_ms {
        w.opt_f64(v);
    }
    for &v in &cols.page_load_ms {
        w.opt_f64(v);
    }
    for &v in &cols.bids_dropped {
        w.u32(v);
    }
    for &v in &cols.retries {
        w.u32(v);
    }
    for &v in &cols.timed_out_partners {
        w.u32(v);
    }
    for &v in &cols.passback_served {
        w.bool(v);
    }
    write_symbols(w, &cols.partners);
    write_offsets(w, &cols.partners_off);
    w.len(cols.bids.len());
    for b in &cols.bids {
        w.u32(b.bidder_code.index() as u32);
        w.u32(b.partner_name.index() as u32);
        w.u32(b.slot.index() as u32);
        w.f64(b.cpm);
        w.u32(b.size.index() as u32);
        w.bool(b.late);
        w.opt_f64(b.latency_ms);
        w.u8(match b.source {
            BidSource::ClientVisible => 0,
            BidSource::ServerReported => 1,
        });
    }
    write_offsets(w, &cols.bids_off);
    w.len(cols.partner_latencies.len());
    for l in &cols.partner_latencies {
        w.u32(l.partner_name.index() as u32);
        w.u32(l.bidder_code.index() as u32);
        w.f64(l.latency_ms);
        w.bool(l.late);
    }
    write_offsets(w, &cols.latencies_off);
    w.len(cols.slots.len());
    for s in &cols.slots {
        w.u32(s.slot.index() as u32);
        w.u32(s.size.index() as u32);
        w.u32(s.winner.index() as u32);
        w.f64(s.price);
        w.u32(s.channel.index() as u32);
    }
    write_offsets(w, &cols.slots_off);
    w.len(cols.event_counts.len());
    for (label, count) in &cols.event_counts {
        w.u32(label.index() as u32);
        w.u32(*count);
    }
    write_offsets(w, &cols.events_off);
}

/// Decode a column set encoded by [`encode_columns`]. `n_strings` bounds
/// every symbol (the companion interner's length).
pub fn decode_columns(r: &mut WireReader<'_>, n_strings: usize) -> Result<VisitColumns, WireError> {
    // Scalar columns are at least 1 byte per row each; 4 covers the
    // cheapest (u32) without being exact — bounded_len only guards
    // against allocation bombs, take() still validates every read.
    let n = r.bounded_len(4)?;
    let mut cols = VisitColumns::with_capacity(n);
    cols.domain = read_symbols(r, n_strings)?;
    if cols.domain.len() != n {
        return Err(WireError::Corrupt("domain column length"));
    }
    for _ in 0..n {
        // Ranks are 1-based; reports bin by `rank - 1`.
        match r.u32()? {
            0 => return Err(WireError::Corrupt("rank 0")),
            rank => cols.rank.push(rank),
        }
    }
    for _ in 0..n {
        cols.day.push(r.u32()?);
    }
    for _ in 0..n {
        cols.hb_detected.push(r.bool()?);
    }
    for _ in 0..n {
        cols.facet.push(facet_from_tag(r.u8()?)?);
    }
    for _ in 0..n {
        cols.slots_auctioned.push(r.u32()?);
    }
    for _ in 0..n {
        cols.hb_latency_ms.push(r.opt_f64()?);
    }
    for _ in 0..n {
        cols.page_load_ms.push(r.opt_f64()?);
    }
    for _ in 0..n {
        cols.bids_dropped.push(r.u32()?);
    }
    for _ in 0..n {
        cols.retries.push(r.u32()?);
    }
    for _ in 0..n {
        cols.timed_out_partners.push(r.u32()?);
    }
    for _ in 0..n {
        cols.passback_served.push(r.bool()?);
    }
    cols.partners = read_symbols(r, n_strings)?;
    cols.partners_off = read_offsets(r, n, cols.partners.len())?;
    let n_bids = r.bounded_len(4 * 4 + 8 + 1 + 1 + 1)?;
    for _ in 0..n_bids {
        cols.bids.push(DetectedBid {
            bidder_code: read_symbol(r, n_strings)?,
            partner_name: read_symbol(r, n_strings)?,
            slot: read_symbol(r, n_strings)?,
            cpm: r.f64()?,
            size: read_symbol(r, n_strings)?,
            late: r.bool()?,
            latency_ms: r.opt_f64()?,
            source: match r.u8()? {
                0 => BidSource::ClientVisible,
                1 => BidSource::ServerReported,
                _ => return Err(WireError::Corrupt("bid source tag")),
            },
        });
    }
    cols.bids_off = read_offsets(r, n, cols.bids.len())?;
    let n_lats = r.bounded_len(4 + 4 + 8 + 1)?;
    for _ in 0..n_lats {
        cols.partner_latencies.push(PartnerLatency {
            partner_name: read_symbol(r, n_strings)?,
            bidder_code: read_symbol(r, n_strings)?,
            latency_ms: r.f64()?,
            late: r.bool()?,
        });
    }
    cols.latencies_off = read_offsets(r, n, cols.partner_latencies.len())?;
    let n_slots = r.bounded_len(4 * 4 + 8)?;
    for _ in 0..n_slots {
        cols.slots.push(DetectedSlot {
            slot: read_symbol(r, n_strings)?,
            size: read_symbol(r, n_strings)?,
            winner: read_symbol(r, n_strings)?,
            price: r.f64()?,
            channel: read_symbol(r, n_strings)?,
        });
    }
    cols.slots_off = read_offsets(r, n, cols.slots.len())?;
    let n_events = r.bounded_len(4 + 4)?;
    for _ in 0..n_events {
        let label = read_symbol(r, n_strings)?;
        let count = r.u32()?;
        cols.event_counts.push((label, count));
    }
    cols.events_off = read_offsets(r, n, cols.event_counts.len())?;
    Ok(cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference digests from the XXH64 specification test vectors
    // (seed 0).
    #[test]
    fn xxh64_known_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn frame_round_trip_and_rejections() {
        let payload = b"hello columnar world".to_vec();
        let frame = seal_frame(&payload);
        assert_eq!(open_frame(&frame).unwrap(), &payload[..]);

        // Truncated.
        assert_eq!(open_frame(&frame[..10]), Err(WireError::Truncated));
        // Magic.
        let mut bad = frame.clone();
        bad[0] ^= 1;
        assert_eq!(open_frame(&bad), Err(WireError::BadMagic));
        // Version: an unknown one, and version 1, whose chunk and lease
        // layouts still carried a shard field.
        for v in [9, 1] {
            let mut bad = frame.clone();
            bad[4] = v;
            assert_eq!(open_frame(&bad), Err(WireError::BadVersion(v)));
        }
        // Length.
        let mut bad = frame.clone();
        bad[5] ^= 1;
        assert_eq!(open_frame(&bad), Err(WireError::LengthMismatch));
        // Payload bit flip.
        let mut bad = frame.clone();
        bad[14] ^= 0x40;
        assert_eq!(open_frame(&bad), Err(WireError::ChecksumMismatch));
        // Checksum bit flip.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert_eq!(open_frame(&bad), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn interner_round_trip() {
        let mut strings = Interner::new();
        strings.intern("appnexus");
        strings.intern("AppNexus");
        strings.intern("300x250");
        let mut w = WireWriter::new();
        encode_interner(&strings, &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_interner(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), strings.len());
        for ((sa, ta), (sb, tb)) in strings.iter().zip(back.iter()) {
            assert_eq!(sa, sb);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn empty_columns_round_trip() {
        let cols = VisitColumns::new();
        let mut w = WireWriter::new();
        encode_columns(&cols, &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_columns(&mut r, 1).unwrap();
        r.finish().unwrap();
        assert!(back.is_empty());
    }
}
