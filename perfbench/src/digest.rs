//! Determinism digest: a fixed, seedless 64-bit hash of model-level
//! outputs (simulated times, trace contents, checksums, synthesis and
//! board results). Host timings and internal simulator counters stay
//! out of it, so a change that only makes the program faster or simpler
//! must leave it identical.

use cosma_core::Value;
use cosma_cosim::TraceLog;
use std::hash::{Hash, Hasher};

const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time multiplicative hash (FxHash-style). Not
/// collision-resistant against chosen inputs, which the benchmark's own
/// generated outputs are not.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// An empty digest.
    #[must_use]
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in one word.
    pub fn u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    /// Folds in a model value.
    pub fn value(&mut self, v: &Value) {
        v.hash(self);
    }

    /// Folds in a trace log: its length, then every entry's timestamp,
    /// source, label and values.
    pub fn log(&mut self, log: &TraceLog) {
        self.u64(log.len() as u64);
        for e in log.iter() {
            self.u64(e.at);
            self.write(e.source.as_bytes());
            self.write(e.label.as_bytes());
            self.u64(e.values.len() as u64);
            for v in e.values {
                v.hash(self);
            }
        }
    }

    /// The digest value (a final avalanche over the state).
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^ (z >> 33)
    }
}

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        Digest::finish(self)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.u64(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.u64(x);
    }
}
