//! The **codec test corpus** generator: committed wire-format
//! exemplars under `tests/golden/snapshots/`.
//!
//! For every snapshot-capable detector kind the corpus holds one v1
//! JSONL stream and one v2 binary frame stream — produced by the real
//! pipeline + both snapshot sinks over a tiny deterministic trace, so
//! the committed bytes are exactly what the shipping encoders write —
//! plus a `malformed/` directory of v2 frames broken in each
//! documented way (truncation, bad magic, version skew, config-digest
//! mismatch, oversize length prefix).
//!
//! `tests/codec_corpus.rs` decodes every file and asserts the exact
//! [`SnapshotError`](hhh_core::SnapshotError) variants; the CI
//! corpus-freshness step re-runs [`write_corpus`] and diffs the output
//! against the committed tree, so the wire formats cannot drift
//! silently.

use hhh_core::snapshot::binary::SnapshotFrame;
use hhh_core::{
    DetectorSnapshot, ExactHhh, MvPipeHhh, Rhhh, SpaceSavingHhh, TdbfHhh, TdbfHhhConfig, Threshold,
    WireFormat,
};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_nettypes::{Nanos, PacketRecord, TimeSpan};
use hhh_window::{Pipeline, ShardedContinuous, ShardedDisjoint, SnapshotSink};
use std::fs;
use std::io;
use std::path::Path;

/// Report window of the corpus streams.
const WINDOW: TimeSpan = TimeSpan::from_secs(5);

/// Space-Saving counters of the corpus `ss-hhh`/`rhhh` detectors.
const CAPACITY: usize = 32;

/// Majority-vote buckets of the corpus `mvpipe` detector — deliberately
/// small so the committed stream exercises bucket collisions.
const MVPIPE_BUCKETS: usize = 32;

/// The corpus trace: ~200 packets, a couple of heavy sources over a
/// thin tail — small enough to keep the committed files readable,
/// rich enough that every detector has non-trivial state.
fn corpus_trace() -> Vec<PacketRecord> {
    let mut out = Vec::new();
    for i in 0..200u64 {
        let ts = Nanos::from_millis(i * 20); // 0 .. 4 s
        let src: u32 = match i % 10 {
            0..=3 => 0x0A01_0101,                      // 10.1.1.1 — heavy
            4 | 5 => 0x0A01_0202,                      // 10.1.2.2 — moderate
            _ => 0x1400_0000 | ((i as u32 * 37) % 32), // 20.0.0.x — tail
        };
        out.push(PacketRecord::new(ts, src, 1, 100 + (i % 5) as u32 * 50));
    }
    out
}

fn tdbf_config() -> TdbfHhhConfig {
    TdbfHhhConfig {
        cells_per_level: 256,
        hashes: 2,
        half_life: WINDOW / 2,
        candidates_per_level: 16,
        admit_fraction: 0.001,
        seed: 0x7DBF,
    }
}

/// One corpus stream: the tiny trace through the real pipeline and the
/// real sink, in the requested format. `kind` must be one of the five
/// snapshot-capable labels.
pub fn corpus_stream(kind: &str, format: WireFormat) -> Vec<u8> {
    let h = Ipv4Hierarchy::bytes();
    let trace = corpus_trace();
    let threshold = [Threshold::percent(5.0)];
    let sink = SnapshotSink::with_format(Vec::new(), format);
    let (bytes, err) = match kind {
        "exact" => Pipeline::new(trace.iter().copied())
            .engine(ShardedDisjoint::new(vec![ExactHhh::new(h)], WINDOW, WINDOW, &threshold, |p| {
                p.src
            }))
            .sink(sink)
            .run(),
        "ss-hhh" => Pipeline::new(trace.iter().copied())
            .engine(ShardedDisjoint::new(
                vec![SpaceSavingHhh::new(h, CAPACITY)],
                WINDOW,
                WINDOW,
                &threshold,
                |p| p.src,
            ))
            .sink(sink)
            .run(),
        "rhhh" => Pipeline::new(trace.iter().copied())
            .engine(ShardedDisjoint::new(
                vec![Rhhh::new(h, CAPACITY, 0x5EED)],
                WINDOW,
                WINDOW,
                &threshold,
                |p| p.src,
            ))
            .sink(sink)
            .run(),
        "mvpipe" => Pipeline::new(trace.iter().copied())
            .engine(ShardedDisjoint::new(
                vec![MvPipeHhh::new(h, MVPIPE_BUCKETS)],
                WINDOW,
                WINDOW,
                &threshold,
                |p| p.src,
            ))
            .sink(sink)
            .run(),
        "tdbf-hhh" => Pipeline::new(trace.iter().copied())
            .engine(ShardedContinuous::new(
                vec![TdbfHhh::new(h, tdbf_config())],
                &[Nanos::ZERO + WINDOW],
                threshold[0],
                |p| p.src,
            ))
            .sink(sink)
            .run(),
        other => panic!("unknown corpus kind `{other}`"),
    };
    assert!(err.is_none(), "Vec<u8> writes cannot fail");
    bytes
}

/// The five corpus detector kinds, in file order.
pub const CORPUS_KINDS: [&str; 5] = ["exact", "ss-hhh", "rhhh", "mvpipe", "tdbf-hhh"];

/// The malformed-case file names under `malformed/`.
pub const MALFORMED_CASES: [&str; 7] = [
    "truncated.v2.bin",
    "bad_magic.v2.bin",
    "version_skew.v2.bin",
    "config_mismatch.v2.bin",
    "oversize_len.v2.bin",
    "mvpipe_total_skew.v2.bin",
    "mvpipe_vote_overflow.v2.bin",
];

/// The state frame of a kind's v2 corpus stream (skipping any report
/// frames in front of it).
fn frame_of_kind(kind: &str) -> SnapshotFrame {
    let stream = corpus_stream(kind, WireFormat::Binary);
    let mut rest = &stream[..];
    loop {
        let (frame, used) = SnapshotFrame::decode(rest).expect("corpus stream decodes");
        if frame.kind == kind {
            return frame;
        }
        rest = &rest[used..];
    }
}

/// The state frame of the `tdbf-hhh` v2 corpus stream — the donor of
/// the generic malformed cases (it is the kind with the most
/// configuration to corrupt).
fn donor_frame() -> (SnapshotFrame, Vec<u8>) {
    let frame = frame_of_kind("tdbf-hhh");
    let bytes = frame.encode();
    (frame, bytes)
}

/// Write the whole corpus under `dir` (creating `dir` and
/// `dir/malformed/`). Deterministic: re-running reproduces every byte,
/// which is exactly what the CI freshness check asserts.
pub fn write_corpus(dir: &Path) -> io::Result<()> {
    let malformed = dir.join("malformed");
    fs::create_dir_all(&malformed)?;

    for kind in CORPUS_KINDS {
        fs::write(dir.join(format!("{kind}.v1.jsonl")), corpus_stream(kind, WireFormat::Json))?;
        fs::write(dir.join(format!("{kind}.v2.bin")), corpus_stream(kind, WireFormat::Binary))?;
    }

    let (frame, good) = donor_frame();

    // Truncated: the frame cut mid-payload.
    fs::write(malformed.join("truncated.v2.bin"), &good[..good.len() * 3 / 5])?;

    // Bad magic: the first four bytes are not the frame magic.
    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"NOPE");
    fs::write(malformed.join("bad_magic.v2.bin"), &bad_magic)?;

    // Version skew: a frame from a future format version.
    let mut skew = good.clone();
    skew[4] = 3;
    fs::write(malformed.join("version_skew.v2.bin"), &skew)?;

    // Config mismatch: the header digest disagrees with the body's
    // configuration fields.
    let mut mismatch = frame.clone();
    mismatch.digest ^= 0xDEAD_BEEF;
    fs::write(malformed.join("config_mismatch.v2.bin"), mismatch.encode())?;

    // Oversize length prefix: a hostile allocation request.
    let mut oversize =
        good[..SnapshotFrame::decode(&good).map(|(_, n)| n).unwrap_or(9).min(9)].to_vec();
    oversize.resize(9, 0);
    oversize[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    fs::write(malformed.join("oversize_len.v2.bin"), &oversize)?;

    // Envelope-total skew: a well-formed mvpipe frame whose header
    // total no longer equals the sum of its bucket counts — the frame
    // decodes, but rebuilding the detector must refuse it.
    let mut skewed = frame_of_kind("mvpipe");
    skewed.total += 1;
    fs::write(malformed.join("mvpipe_total_skew.v2.bin"), skewed.encode())?;

    // Vote overflow: an mvpipe body claiming a vote margin larger than
    // its bucket count — impossible from an honest encoder, so the
    // restorer must reject the row.
    let geometry = frame_of_kind("mvpipe");
    let overflow = DetectorSnapshot {
        kind: "mvpipe".into(),
        total: 5,
        state_json: "{\"buckets\":8,\"entries\":[[\"10.1.1.1/32\",5,9]]}".to_owned(),
    };
    let overflow_frame =
        overflow.to_frame(geometry.start, geometry.at).expect("shape-valid body transcodes");
    fs::write(malformed.join("mvpipe_vote_overflow.v2.bin"), overflow_frame.encode())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        for kind in CORPUS_KINDS {
            assert_eq!(
                corpus_stream(kind, WireFormat::Json),
                corpus_stream(kind, WireFormat::Json),
                "{kind} v1"
            );
            assert_eq!(
                corpus_stream(kind, WireFormat::Binary),
                corpus_stream(kind, WireFormat::Binary),
                "{kind} v2"
            );
        }
    }

    #[test]
    fn corpus_streams_hold_one_state_record() {
        use hhh_window::SnapshotSource;
        for kind in CORPUS_KINDS {
            for format in [WireFormat::Json, WireFormat::Binary] {
                let bytes = corpus_stream(kind, format);
                let mut src = SnapshotSource::new(bytes.as_slice());
                let states: Vec<_> = (&mut src).collect();
                assert!(src.error().is_none(), "{kind} {format:?}: {:?}", src.error());
                assert_eq!(states.len(), 1, "{kind} {format:?}");
                assert_eq!(states[0].kind(), kind);
            }
        }
    }
}
