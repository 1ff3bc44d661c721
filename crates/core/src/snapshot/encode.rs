//! **Native frame encoding**: detectors write v2 bodies straight from
//! their own state.
//!
//! PR 4 made the *decode* side of wire-format v2 binary-native
//! ([`RestoredDetector::from_frame`](super::RestoredDetector::from_frame)
//! goes frame body → live detector, no JSON anywhere), but encode still
//! went `snapshot()` → JSON body → parse → frame — the hot shard-side
//! path paid a full JSON render *and* re-parse per report point.
//! [`FrameEncode`] closes that gap: a detector appends its v2 body
//! bytes directly, and the provided [`encode_frame`](FrameEncode::encode_frame)
//! wraps them in a [`SnapshotFrame`].
//!
//! ## The byte-identity contract
//!
//! The native path is an *optimization*, never a second format: for
//! every detector kind,
//!
//! ```text
//! FrameEncode::encode_frame(d, start, at).encode()
//!     == d.snapshot().unwrap().to_frame(start, at).unwrap().encode()
//! ```
//!
//! byte for byte. The `snapshot()` → [`DetectorSnapshot::to_frame`]
//! transcode survives as the **reference implementation** the
//! differential proptests pin the native writers against
//! (`tests/snapshot_roundtrip.rs`), and the shared config-digest and
//! cell-delta helpers in [`binary`](super::binary) make divergence a
//! compile-time refactor rather than a silent drift.
//!
//! Pipelines reach the native path through
//! [`StateView::to_frame`](crate::StateView::to_frame): sinks that
//! write v2 frames (binary files, sockets, in-process channels — the
//! `SnapshotTransport` layer in `hhh-window`) call it on the state the
//! engines hand them, and never build a JSON-bodied snapshot.

use super::binary::SnapshotFrame;
use super::SnapshotError;
use hhh_nettypes::Nanos;
use std::borrow::Cow;

/// Write a wire-format v2 state body directly from detector state — no
/// intermediate [`DetectorSnapshot`](super::DetectorSnapshot), no JSON
/// detour.
///
/// Implemented by every snapshot-capable detector (`ExactHhh`,
/// `SpaceSavingHhh`, `Rhhh`, `TdbfHhh`). Implementations must uphold
/// the byte-identity contract (module docs): the body, kind, total and
/// digest must equal what transcoding the detector's `snapshot()`
/// produces.
pub trait FrameEncode {
    /// The stable wire `kind` label of the frame header.
    fn frame_kind(&self) -> &'static str;

    /// The envelope total (undecayed weight covered by the state).
    fn frame_total(&self) -> u64;

    /// The FNV-1a-64 config digest the frame header carries — must use
    /// the same per-kind digest recipe the decoders verify.
    fn frame_digest(&self) -> u64;

    /// Append the v2 state body (layout per kind) to `out`.
    fn write_frame_body(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError>;

    /// Assemble a full [`SnapshotFrame`] carrying the report-window
    /// geometry `start..=at` (provided; built on the four methods
    /// above).
    fn encode_frame(&self, start: Nanos, at: Nanos) -> Result<SnapshotFrame, SnapshotError> {
        let mut body = Vec::with_capacity(256);
        self.write_frame_body(&mut body)?;
        Ok(SnapshotFrame {
            start,
            at,
            kind: Cow::Borrowed(self.frame_kind()),
            total: self.frame_total(),
            digest: self.frame_digest(),
            body,
        })
    }
}
