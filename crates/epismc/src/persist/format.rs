//! The versioned, checksummed binary record format for run snapshots.
//!
//! One record holds one [`RunSnapshot`]: every scalar the sequential
//! calibrator needs to rebuild a window result, plus the full posterior
//! ensemble with its sharing structure intact. Layout (little-endian
//! throughout):
//!
//! ```text
//! magic u32 | version u16 | window u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The CRC covers every byte before it (header included). Decoding
//! validates in a fixed order — length, magic, **version before CRC**
//! (so a record written by any other format version is reported as
//! [`SmcError::UnsupportedFormat`], not as corruption), then CRC, then
//! payload structure — and any failure yields a typed error, never a
//! wrong ensemble.
//!
//! Sharing survives the round trip: trajectory segments and checkpoints
//! are pooled by allocation identity at encode time (each distinct
//! segment/checkpoint/theta serializes once, however many particles
//! reference it) and re-interned at decode time, so a resumed ensemble
//! has the same structural-sharing counters as the original. Particle
//! rows are written one per slot, and decoding folds identical rows
//! back into one particle, so a resampled posterior comes back holding
//! each distinct particle once (see [`ParticleEnsemble`]).

use std::sync::Arc;

use episim::output::{DailySeries, SharedTrajectory};

use crate::ckpool;
use crate::error::SmcError;
use crate::particle::{Particle, ParticleEnsemble};
use crate::ptr_index::PtrIndex;
use crate::sis::WindowCounters;
use crate::window::TimeWindow;

use super::RunSnapshot;

/// Record magic: the bytes `EPSN` read as a little-endian u32.
pub const MAGIC: u32 = 0x4E53_5045;

/// The record format version: the one version this build writes and
/// reads. Bump on any layout change; decoders reject every other
/// version as [`SmcError::UnsupportedFormat`].
pub const FORMAT_VERSION: u16 = 6;

/// Fixed header length: magic + version + window index + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 4 + 8;

/// Trailing checksum length.
pub const TRAILER_LEN: usize = 4;

/// Sentinel index meaning "no parent" / "no origin checkpoint".
const NONE_IDX: u32 = u32::MAX;

/// Bytes per particle row: theta, segment, checkpoint and origin indices
/// (`u32` each) plus rho, seed and log weight (8 bytes each).
const PARTICLE_LEN: usize = 4 * 4 + 3 * 8;

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-
/// time table; table `j` advances a byte's contribution `j` positions
/// further through the register, so sixteen bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0usize;
    while i < 256 {
        let mut c = tables[0][i];
        let mut j = 1;
        while j < 16 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[j][i] = c;
            j += 1;
        }
        i += 1;
    }
    tables
}

/// The table lookups of one 4-byte little-endian word of a 16-byte
/// step, `lag` (0, 4, 8 or 12) bytes before the step's last word: the
/// step's byte `15 - j` takes table `j`.
fn crc_word(w: u32, lag: usize) -> u32 {
    CRC_TABLES[lag + 3][(w & 0xFF) as usize]
        ^ CRC_TABLES[lag + 2][((w >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[lag + 1][((w >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[lag][(w >> 24) as usize]
}

/// CRC-32 (IEEE 802.3) over `data`, folding sixteen bytes per step
/// (slice-by-16). Bit-identical to the byte-at-a-time definition — the
/// tests pin it against a bytewise reference — and several times
/// faster, which matters because every persisted snapshot is
/// checksummed on the encode hot path and again on every decode.
pub fn crc32(data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for ch in &mut chunks {
        c = crc_word(c ^ word(&ch[0..4]), 12)
            ^ crc_word(word(&ch[4..8]), 8)
            ^ crc_word(word(&ch[8..12]), 4)
            ^ crc_word(word(&ch[12..16]), 0);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn corrupt(msg: impl Into<String>) -> SmcError {
    SmcError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    out.reserve(8 * values.len());
    for &v in values {
        put_u64(out, v);
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Write a zero `u32` to patch later with [`patch_u32`] once its value
/// (a count or length that follows it on the wire) is known; returns its
/// offset.
fn reserve_u32(out: &mut Vec<u8>) -> usize {
    put_u32(out, 0);
    out.len() - 4
}

fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The window counters in record order. Adding a field to
/// [`WindowCounters`] means adding it here *and* in [`read_counters`]
/// and bumping [`FORMAT_VERSION`].
fn counter_words(t: &WindowCounters) -> [u64; 10] {
    [
        t.shared_bytes as u64,
        t.flat_bytes as u64,
        t.unique_segments as u64,
        t.segment_refs as u64,
        t.days_simulated,
        t.unique_checkpoints as u64,
        t.checkpoint_refs as u64,
        t.records_written,
        t.fused_scores,
        t.batched_draws,
    ]
}

/// Write the ensemble: the column names, then the segment, theta and
/// checkpoint pools, then one row per slot, each pool's count patched in
/// once its walk is done.
///
/// The wire form has a row per slot, as if each slot owned its particle,
/// but the work follows the ensemble's distinct particles (see
/// [`ParticleEnsemble`]): the pools are walked once per distinct
/// particle, in the order of each one's first slot — the order a walk
/// over every slot would intern them in, since a repeated particle adds
/// nothing new to any pool — and each slot copies its particle's
/// 40-byte row.
fn write_ensemble(out: &mut Vec<u8>, ensemble: &ParticleEnsemble) {
    let (distinct, slots) = (ensemble.distinct(), ensemble.slots());
    let mut first_seen = vec![false; distinct.len()];
    let order: Vec<&Particle> = slots
        .iter()
        .filter(|&&s| !std::mem::replace(&mut first_seen[s as usize], true))
        .map(|&s| &distinct[s as usize])
        .collect();

    // Global column-name table (one output schema per ensemble).
    let names = order.first().map_or(&[][..], |p| p.trajectory.names());
    put_u32(out, names.len() as u32);
    for n in names {
        put_str(out, n);
    }

    // Segment pool: every distinct trajectory segment once, in first-
    // encounter order walking each particle's chain root-first — a
    // topological order, so a segment's parent always precedes it.
    // Interned segments always form a root-side prefix of a chain (a
    // chain is interned together with its ancestors), so the walk stops
    // at the first interned one.
    let seg_count_at = reserve_u32(out);
    let mut seg_index = PtrIndex::with_capacity(4 * order.len());
    for p in &order {
        let (fresh, stop) = p
            .trajectory
            .unknown_segments(|id| seg_index.get(id).is_some());
        let mut parent_idx = stop.and_then(|id| seg_index.get(id)).unwrap_or(NONE_IDX);
        for (id, series) in fresh {
            let (idx, _) = seg_index.intern(id);
            put_u32(out, parent_idx);
            put_u32(out, series.start_day());
            put_u32(out, series.len() as u32);
            for col in 0..names.len() {
                put_u64s(out, series.column(col).unwrap_or_default());
            }
            parent_idx = idx;
        }
    }
    patch_u32(out, seg_count_at, seg_index.len() as u32);

    // Theta pool: one vector per proposal, shared by its replicates.
    let theta_count_at = reserve_u32(out);
    put_u32(out, order.first().map_or(0, |p| p.theta.len()) as u32);
    let mut theta_index = PtrIndex::with_capacity(order.len());
    for p in &order {
        let id = Arc::as_ptr(&p.theta) as *const f64 as usize;
        if theta_index.intern(id).1 {
            for &v in p.theta.iter() {
                put_f64(out, v);
            }
        }
    }
    patch_u32(out, theta_count_at, theta_index.len() as u32);

    // Checkpoint pool: each distinct allocation (current state and
    // origin alike) serializes once, appended in place via the
    // interning module's sanctioned byte path behind its length.
    let ck_count_at = reserve_u32(out);
    let mut ck_index = PtrIndex::with_capacity(2 * order.len());
    for p in &order {
        for ck in std::iter::once(&p.checkpoint).chain(p.origin.as_ref()) {
            if ck_index.intern(Arc::as_ptr(ck) as usize).1 {
                let len_at = reserve_u32(out);
                ckpool::encode_into(ck, out);
                let len = out.len() - len_at - 4;
                patch_u32(out, len_at, len as u32);
            }
        }
    }
    patch_u32(out, ck_count_at, ck_index.len() as u32);

    // Rows: pool references plus per-particle scalars, written once per
    // distinct particle and copied into every slot that holds it.
    let mut rows = Vec::with_capacity(PARTICLE_LEN * distinct.len());
    for p in distinct {
        let theta_id = Arc::as_ptr(&p.theta) as *const f64 as usize;
        put_u32(&mut rows, theta_index.get(theta_id).unwrap_or(NONE_IDX));
        put_f64(&mut rows, p.rho);
        put_u64(&mut rows, p.seed);
        put_f64(&mut rows, p.log_weight);
        let head_id = p.trajectory.head_id();
        put_u32(&mut rows, seg_index.get(head_id).unwrap_or(NONE_IDX));
        let ck_id = Arc::as_ptr(&p.checkpoint) as usize;
        put_u32(&mut rows, ck_index.get(ck_id).unwrap_or(NONE_IDX));
        let origin_idx = p
            .origin
            .as_ref()
            .and_then(|o| ck_index.get(Arc::as_ptr(o) as usize))
            .unwrap_or(NONE_IDX);
        put_u32(&mut rows, origin_idx);
    }
    put_u32(out, slots.len() as u32);
    out.reserve(PARTICLE_LEN * slots.len());
    for &s in slots {
        let at = s as usize * PARTICLE_LEN;
        out.extend_from_slice(&rows[at..at + PARTICLE_LEN]);
    }
}

/// Encode a snapshot into one framed, checksummed record, in one pass
/// over one buffer: the header's payload length and each pool's count
/// are written as zeros and patched in place once known, and the CRC
/// covers the finished bytes.
pub fn encode_record(snap: &RunSnapshot) -> Vec<u8> {
    // Seed the buffer with the fixed envelope, scalars and counters plus
    // the per-particle tail; the pools, which depend on how much the
    // posterior shares, grow it from there.
    let capacity = HEADER_LEN + 512 + snap.posterior.len() * PARTICLE_LEN + TRAILER_LEN;
    let mut out = Vec::with_capacity(capacity);
    put_u32(&mut out, MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u32(&mut out, snap.window_index);
    put_u64(&mut out, 0); // payload length, patched below
    put_u64(&mut out, snap.seed);
    put_u64(&mut out, snap.fingerprint);
    put_u32(&mut out, snap.window_index);
    put_u32(&mut out, snap.window.start);
    put_u32(&mut out, snap.window.end);
    put_f64(&mut out, snap.ess);
    put_f64(&mut out, snap.log_marginal);
    put_u64(&mut out, snap.unique_ancestors);
    put_u64s(&mut out, &counter_words(&snap.telemetry));
    write_ensemble(&mut out, &snap.posterior);
    put_u64(&mut out, snap.observed_fingerprint);
    let payload_len = (out.len() - HEADER_LEN) as u64;
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor over a record payload. Every read
/// is validated against the remaining bytes, so truncated or
/// length-inflated records surface as [`SmcError::Corrupt`] instead of
/// panicking slices.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SmcError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt(format!("length overflow reading {what}")))?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| corrupt(format!("record truncated reading {what}")))?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self, what: &str) -> Result<u16, SmcError> {
        let s = self.take(2, what)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, SmcError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SmcError> {
        self.take(8, what).map(le_u64)
    }

    fn f64(&mut self, what: &str) -> Result<f64, SmcError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Validate that `count` items of at least `per_item` bytes each can
    /// still fit — the guard that keeps a corrupted count field from
    /// driving a huge allocation before the data runs out.
    fn expect_items(&self, count: usize, per_item: usize, what: &str) -> Result<(), SmcError> {
        let need = count
            .checked_mul(per_item)
            .ok_or_else(|| corrupt(format!("item count overflow in {what}")))?;
        if need > self.remaining() {
            return Err(corrupt(format!(
                "record claims {count} {what} but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn str(&mut self, what: &str) -> Result<String, SmcError> {
        let len = self.u32(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(format!("invalid utf8 in {what}")))
    }
}

/// A little-endian `u64` from exactly eight bytes.
fn le_u64(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(b);
    u64::from_le_bytes(word)
}

fn read_counters(r: &mut Reader<'_>) -> Result<WindowCounters, SmcError> {
    Ok(WindowCounters {
        shared_bytes: r.u64("counters")? as usize,
        flat_bytes: r.u64("counters")? as usize,
        unique_segments: r.u64("counters")? as usize,
        segment_refs: r.u64("counters")? as usize,
        days_simulated: r.u64("counters")?,
        unique_checkpoints: r.u64("counters")? as usize,
        checkpoint_refs: r.u64("counters")? as usize,
        records_written: r.u64("counters")?,
        fused_scores: r.u64("counters")?,
        batched_draws: r.u64("counters")?,
    })
}

fn read_ensemble(r: &mut Reader<'_>) -> Result<ParticleEnsemble, SmcError> {
    let n_names = r.u32("name count")? as usize;
    r.expect_items(n_names, 4, "column names")?;
    let names = (0..n_names)
        .map(|_| r.str("column name"))
        .collect::<Result<Arc<[String]>, _>>()?;

    // Rebuild the segment pool in record order. Parents always precede
    // children (topological encode order), and contiguity/emptiness are
    // validated here so reconstruction can never trip `append`'s
    // panicking contract on corrupted input.
    let n_segs = r.u32("segment count")? as usize;
    r.expect_items(n_segs, 12, "segments")?;
    let mut traj_pool: Vec<SharedTrajectory> = Vec::with_capacity(n_segs);
    for i in 0..n_segs {
        let parent = r.u32("segment parent")?;
        let start_day = r.u32("segment start day")?;
        let n_days = r.u32("segment length")? as usize;
        let cells = n_days
            .checked_mul(names.len())
            .ok_or_else(|| corrupt("segment size overflow"))?;
        r.expect_items(cells, 8, "segment values")?;
        // The record stores a segment column by column, which is the
        // series' own block layout: read it straight into one block.
        let block = r
            .take(cells * 8, "segment values")?
            .chunks_exact(8)
            .map(le_u64)
            .collect();
        let series = DailySeries::from_block(Arc::clone(&names), start_day, n_days, block)
            .map_err(|e| corrupt(format!("segment {i}: {e}")))?;
        let traj = if parent == NONE_IDX {
            SharedTrajectory::root(series)
        } else {
            let parent_traj = traj_pool
                .get(parent as usize)
                .ok_or_else(|| corrupt(format!("segment {i} references parent {parent} >= {i}")))?;
            if n_days == 0 {
                return Err(corrupt(format!("segment {i} is an empty non-root segment")));
            }
            if parent_traj.is_empty() {
                return Err(corrupt(format!("segment {i} descends from an empty root")));
            }
            let expected = parent_traj.start_day() as usize + parent_traj.len();
            if expected != start_day as usize {
                return Err(corrupt(format!(
                    "segment {i} starts at day {start_day}, parent chain ends before day {expected}"
                )));
            }
            parent_traj.append(series)
        };
        traj_pool.push(traj);
    }

    let n_thetas = r.u32("theta count")? as usize;
    let theta_dim = r.u32("theta dim")? as usize;
    let theta_cells = n_thetas
        .checked_mul(theta_dim)
        .ok_or_else(|| corrupt("theta pool overflow"))?;
    r.expect_items(theta_cells, 8, "theta values")?;
    let mut theta_pool: Vec<Arc<[f64]>> = Vec::with_capacity(n_thetas);
    for _ in 0..n_thetas {
        let mut v = Vec::with_capacity(theta_dim);
        for _ in 0..theta_dim {
            v.push(r.f64("theta value")?);
        }
        theta_pool.push(Arc::from(v));
    }

    let n_cks = r.u32("checkpoint count")? as usize;
    r.expect_items(n_cks, 4, "checkpoints")?;
    let mut ck_pool: Vec<ckpool::SharedCheckpoint> = Vec::with_capacity(n_cks);
    for i in 0..n_cks {
        let len = r.u32("checkpoint length")? as usize;
        let raw = r.take(len, "checkpoint bytes")?;
        let ck = ckpool::decode(raw).map_err(|e| corrupt(format!("checkpoint {i}: {e}")))?;
        ck_pool.push(ckpool::share(ck));
    }

    // Rows: a slot whose row repeats an earlier one byte for byte holds
    // the same particle, so identical rows fold back into one distinct
    // particle. Rows are found by a hash of their bytes and confirmed by
    // comparing them; a (vanishingly rare) hash collision only leaves
    // two equal rows unfolded.
    let n_particles = r.u32("particle count")? as usize;
    r.expect_items(n_particles, PARTICLE_LEN, "particles")?;
    let mut distinct: Vec<(&[u8], Particle)> = Vec::new();
    let mut by_row = PtrIndex::with_capacity(n_particles / 4);
    let mut slots = Vec::with_capacity(n_particles);
    for i in 0..n_particles {
        let raw = r.take(PARTICLE_LEN, "particle")?;
        let key = row_key(raw);
        let known = by_row.get(key);
        if let Some(d) = known.filter(|&d| distinct[d as usize].0 == raw) {
            slots.push(d);
            continue;
        }
        let d = distinct.len() as u32;
        if known.is_none() {
            by_row.insert(key, d);
        }
        let particle = read_particle(&mut Reader::new(raw), i, &theta_pool, &traj_pool, &ck_pool)?;
        distinct.push((raw, particle));
        slots.push(d);
    }
    let distinct = distinct.into_iter().map(|(_, p)| p).collect();
    Ok(ParticleEnsemble::from_slots(distinct, slots))
}

/// A particle row's fold key: a multiply-xor hash of its bytes, kept
/// below `usize::MAX` as [`PtrIndex`] keys must be.
fn row_key(row: &[u8]) -> usize {
    let h = row.chunks_exact(8).fold(0u64, |h, w| {
        (h.rotate_left(23) ^ le_u64(w)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    (h >> 1) as usize
}

/// Decode slot `i`'s particle row against the decoded pools.
fn read_particle(
    r: &mut Reader<'_>,
    i: usize,
    theta_pool: &[Arc<[f64]>],
    traj_pool: &[SharedTrajectory],
    ck_pool: &[ckpool::SharedCheckpoint],
) -> Result<Particle, SmcError> {
    let theta_idx = r.u32("particle theta index")? as usize;
    let rho = r.f64("particle rho")?;
    let seed = r.u64("particle seed")?;
    let log_weight = r.f64("particle log weight")?;
    let head_idx = r.u32("particle trajectory head")? as usize;
    let ck_idx = r.u32("particle checkpoint index")? as usize;
    let origin_raw = r.u32("particle origin index")?;
    let theta = theta_pool
        .get(theta_idx)
        .ok_or_else(|| corrupt(format!("particle {i}: theta index {theta_idx} out of pool")))?;
    let trajectory = traj_pool.get(head_idx).ok_or_else(|| {
        corrupt(format!(
            "particle {i}: trajectory head {head_idx} out of pool"
        ))
    })?;
    let checkpoint = ck_pool.get(ck_idx).ok_or_else(|| {
        corrupt(format!(
            "particle {i}: checkpoint index {ck_idx} out of pool"
        ))
    })?;
    let origin = if origin_raw == NONE_IDX {
        None
    } else {
        Some(Arc::clone(ck_pool.get(origin_raw as usize).ok_or_else(
            || {
                corrupt(format!(
                    "particle {i}: origin index {origin_raw} out of pool"
                ))
            },
        )?))
    };
    Ok(Particle {
        theta: Arc::clone(theta),
        rho,
        seed,
        log_weight,
        trajectory: trajectory.clone(),
        checkpoint: Arc::clone(checkpoint),
        origin,
    })
}

/// Decode one framed record back into a [`RunSnapshot`].
///
/// # Errors
/// [`SmcError::UnsupportedFormat`] for any version other than
/// [`FORMAT_VERSION`] (checked before the checksum, so older and newer
/// records are reported as such);
/// [`SmcError::Corrupt`] for any length, magic, checksum, or structural
/// failure. Never returns a silently wrong snapshot.
pub fn decode_record(data: &[u8]) -> Result<RunSnapshot, SmcError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(format!(
            "record of {} bytes is shorter than the {}-byte envelope",
            data.len(),
            HEADER_LEN + TRAILER_LEN
        )));
    }
    let mut header = Reader::new(data);
    let magic = header.u32("magic")?;
    if magic != MAGIC {
        return Err(corrupt(format!(
            "bad magic {magic:#010x} (expected {MAGIC:#010x})"
        )));
    }
    let version = header.u16("version")?;
    if version != FORMAT_VERSION {
        return Err(SmcError::UnsupportedFormat(format!(
            "record format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    let header_window = header.u32("window index")?;
    let payload_len = header.u64("payload length")? as usize;
    let expected_len = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or_else(|| corrupt("payload length overflow"))?;
    if data.len() != expected_len {
        return Err(corrupt(format!(
            "record is {} bytes but header claims {expected_len}",
            data.len()
        )));
    }
    let body_end = data.len() - TRAILER_LEN;
    let stored_crc = u32::from_le_bytes([
        data[body_end],
        data[body_end + 1],
        data[body_end + 2],
        data[body_end + 3],
    ]);
    let actual_crc = crc32(&data[..body_end]);
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }

    let mut r = Reader::new(&data[HEADER_LEN..body_end]);
    let seed = r.u64("seed")?;
    let fingerprint = r.u64("fingerprint")?;
    let window_index = r.u32("window index")?;
    if window_index != header_window {
        return Err(corrupt(format!(
            "header window {header_window} != payload window {window_index}"
        )));
    }
    let w_start = r.u32("window start")?;
    let w_end = r.u32("window end")?;
    if w_start > w_end {
        return Err(corrupt(format!(
            "window start {w_start} is after window end {w_end}"
        )));
    }
    let window = TimeWindow::new(w_start, w_end);
    let ess = r.f64("ess")?;
    let log_marginal = r.f64("log marginal")?;
    let unique_ancestors = r.u64("unique ancestors")?;
    let telemetry = read_counters(&mut r)?;
    let posterior = read_ensemble(&mut r)?;
    let observed_fingerprint = r.u64("observed fingerprint")?;
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the ensemble",
            r.remaining()
        )));
    }
    Ok(RunSnapshot {
        seed,
        fingerprint,
        window_index,
        window,
        ess,
        log_marginal,
        unique_ancestors,
        observed_fingerprint,
        telemetry,
        posterior,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 one bit at a time: the definition the table-driven
    /// [`crc32`] must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// `n` pseudo-random bytes (splitmix64).
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition() {
        // Every length through four 16-byte steps plus every remainder,
        // at every alignment of a longer buffer.
        let bytes = noise(80, 1);
        for len in 0..=64 {
            for start in 0..16 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "len {len} at {start}");
            }
        }
        // Record-sized buffers, one of them not a multiple of 16.
        for (seed, len) in [(2, 330_000), (3, 330_017)] {
            let data = noise(len, seed);
            assert_eq!(crc32(&data), crc32_bitwise(&data), "{len} bytes");
        }
    }

    #[test]
    fn magic_spells_epsn() {
        assert_eq!(&MAGIC.to_le_bytes(), b"EPSN");
    }

    #[test]
    fn short_records_are_corrupt_not_panics() {
        for n in 0..(HEADER_LEN + TRAILER_LEN) {
            let err = decode_record(&vec![0u8; n]).unwrap_err();
            assert!(matches!(err, SmcError::Corrupt(_)), "{n}: {err}");
        }
    }

    #[test]
    fn bad_magic_is_reported_before_anything_else() {
        let data = vec![0u8; HEADER_LEN + TRAILER_LEN];
        let err = decode_record(&data).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }
}
