//! Structural trace fingerprints for the cross-request cache.
//!
//! The obvious key — a single 64-bit FNV-1a-style hash like the tier-seed
//! derivation uses — is wrong for a *serving* cache: a 64-bit collision
//! between two different traces would silently return a placement for the
//! wrong program, and nothing downstream would notice. This fingerprint is
//! structural (byte length + whitespace token count + a 4-lane 256-bit
//! mixed digest), which makes accidental collisions astronomically
//! unlikely — and the cache still does **not** trust it: a fingerprint
//! match only nominates candidates, and [`SessionCache`](crate::cache)
//! compares the stored canonical query text byte-for-byte before serving
//! anything. A mismatched trace therefore *cannot* hit, even against an
//! adversarially colliding digest (pinned by the collision-behavior test
//! in `cache.rs`).
//!
//! Every request is fingerprinted, so [`Fingerprint::of_text`] reads its
//! text once: the four lanes are independent serial chains, interleaved in
//! one byte loop that also counts tokens. Its value is that of the
//! definition — each lane over the whole text in turn, tokens by
//! `split_whitespace` — which the tests keep as a reference and compare
//! on a seeded corpus of ASCII and Unicode whitespace.

use std::fmt;

/// Per-lane mixing constants: distinct odd multipliers and offsets, so the
/// four lanes are independent 64-bit mixes of the same byte stream.
const LANES: [(u64, u64); 4] = [
    (0x9e37_79b9_7f4a_7c15, 0x243f_6a88_85a3_08d3),
    (0xc2b2_ae3d_27d4_eb4f, 0x1319_8a2e_0370_7344),
    (0x1656_67b1_9e37_79f9, 0xa409_3822_299f_31d0),
    (0x27d4_eb2f_1656_67c5, 0x082e_fa98_ec4e_6c89),
];

/// A structural fingerprint of a canonical query text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Byte length of the text.
    pub len: u64,
    /// Whitespace-separated token count (the access count for inline
    /// traces).
    pub tokens: u64,
    /// Four independent 64-bit digest lanes.
    pub digest: [u64; 4],
}

/// Finalizing mix (splitmix64's avalanche), applied per lane.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Fingerprint {
    /// Fingerprints a canonical query text in one pass over its bytes.
    ///
    /// Each digest lane is its own serial rotate-xor-multiply chain, so
    /// the four chains run interleaved in one loop, and the token count
    /// rides along: the six ASCII bytes `char::is_whitespace` accepts
    /// separate tokens, and a text with any non-ASCII byte is recounted
    /// with `split_whitespace`, whose Unicode whitespace the byte loop
    /// does not know.
    pub fn of_text(text: &str) -> Self {
        let len = text.len() as u64;
        let mut lanes = LANES.map(|(mul, offset)| offset ^ len.wrapping_mul(mul));
        let mut tokens = 0u64;
        let mut after_space = true;
        let mut high_bits = 0u8;
        for &b in text.as_bytes() {
            for (h, &(mul, _)) in lanes.iter_mut().zip(&LANES) {
                *h = (h.rotate_left(13) ^ u64::from(b)).wrapping_mul(mul);
            }
            let space = matches!(b, b'\t'..=b'\r' | b' ');
            tokens += u64::from(after_space & !space);
            after_space = space;
            high_bits |= b;
        }
        if !high_bits.is_ascii() {
            tokens = text.split_whitespace().count() as u64;
        }
        Self {
            len,
            tokens,
            digest: lanes.map(avalanche),
        }
    }
}

impl fmt::Display for Fingerprint {
    /// Compact hex form reported in serve responses and stats.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-{:016x}{:016x}{:016x}{:016x}",
            self.len, self.tokens, self.digest[0], self.digest[1], self.digest[2], self.digest[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four-pass definition the one-pass loop must reproduce: each
    /// lane over the whole text in turn, and `split_whitespace` for the
    /// token count.
    fn four_pass(text: &str) -> Fingerprint {
        let mut digest = [0u64; 4];
        for (lane, &(mul, offset)) in LANES.iter().enumerate() {
            let mut h = offset ^ (text.len() as u64).wrapping_mul(mul);
            for &b in text.as_bytes() {
                h = h.rotate_left(13) ^ u64::from(b);
                h = h.wrapping_mul(mul);
            }
            digest[lane] = avalanche(h);
        }
        Fingerprint {
            len: text.len() as u64,
            tokens: text.split_whitespace().count() as u64,
            digest,
        }
    }

    #[test]
    fn one_pass_equals_the_four_pass_definition() {
        // Every ASCII whitespace byte (`\x0B` and `\x0C` included), the
        // Unicode whitespace `split_whitespace` knows and the byte loop
        // does not (U+0085, U+00A0, U+3000), non-whitespace multi-byte
        // characters, and ASCII bytes that only look like separators.
        const ALPHABET: &[&str] = &[
            "a", "b", "x1", ":r", ":w", "_", " ", "\t", "\n", "\x0B", "\x0C", "\r", "\u{85}",
            "\u{A0}", "\u{3000}", "\u{2028}", "é", "λ", "字", "🦀", "\0", "\x1C", "\x7F",
        ];
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            avalanche(state)
        };
        let mut corpus = vec![String::new(), " ".into(), "a".into()];
        corpus.extend(ALPHABET.iter().map(|s| s.to_string()));
        for _ in 0..2000 {
            let len = next() % 40;
            let text: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            corpus.push(text);
        }
        // A 12 KiB trace like the inline ones the daemon serves.
        let mut trace = String::new();
        while trace.len() < 12 * 1024 {
            trace.push_str(&format!("v{} ", next() % 300));
            if next() % 16 == 0 {
                trace.push('\n');
            }
        }
        corpus.push(trace);
        for text in &corpus {
            assert_eq!(Fingerprint::of_text(text), four_pass(text), "{text:?}");
        }
    }

    #[test]
    fn equal_text_equal_fingerprint() {
        let a = Fingerprint::of_text("a b a b c");
        let b = Fingerprint::of_text("a b a b c");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.len, 9);
        assert_eq!(a.tokens, 5);
    }

    #[test]
    fn structure_alone_separates_many_near_misses() {
        // Same length + token count, different content: every lane moves.
        let a = Fingerprint::of_text("a b a b c");
        let b = Fingerprint::of_text("a b a b d");
        assert_eq!((a.len, a.tokens), (b.len, b.tokens));
        for lane in 0..4 {
            assert_ne!(a.digest[lane], b.digest[lane], "lane {lane} collided");
        }
        // Transpositions, extensions, and case changes all separate.
        for other in ["b a a b c", "a b a b c ", "A b a b c", "a b a bc"] {
            assert_ne!(a, Fingerprint::of_text(other), "{other:?}");
        }
    }

    #[test]
    fn lanes_are_independent() {
        // A pair of texts engineered to agree on nothing: the 4 lanes must
        // not be trivial transforms of one another (catching a copy-paste
        // bug that would collapse the 256-bit digest to 64 bits).
        let f = Fingerprint::of_text("x y z w q");
        let mut lanes = f.digest.to_vec();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 4, "duplicate digest lanes in {f}");
    }
}
