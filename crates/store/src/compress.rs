//! A small byte-oriented LZ77 block compressor.
//!
//! Column segments are short (a few KiB) and highly repetitive after
//! delta/varint encoding — long zero runs, repeated varint patterns —
//! so a deliberately simple scheme captures most of the win without
//! pulling in a dependency (the container has none to offer):
//!
//! * token stream: a control byte `t < 0x80` starts a literal run of
//!   `t + 1` bytes; `t >= 0x80` is a back-reference of length
//!   `(t & 0x7f) + 4` (4–131 bytes) followed by a 16-bit little-endian
//!   distance (1–65535 back). Overlapping copies are allowed, so a run
//!   of one repeated byte costs three bytes per 131 emitted.
//! * the compressor is greedy with a 32 Ki-entry hash table over 4-byte
//!   prefixes — deterministic by construction (no randomized state), so
//!   identical input always produces identical stored bytes.
//!
//! Every segment carries a one-byte mode prefix: `0` stores the bytes
//! raw (the compressor never loses), `1` is the token stream above.

/// Shortest back-reference worth a 3-byte token.
const MIN_MATCH: usize = 4;
/// Longest back-reference one token can express.
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
/// Longest literal run one control byte can express.
const MAX_LITERAL: usize = 0x80;
/// Farthest reachable back-reference distance.
const MAX_DISTANCE: usize = u16::MAX as usize;

const MODE_RAW: u8 = 0;
const MODE_LZ: u8 = 1;

const HASH_BITS: u32 = 15;

fn hash4(window: &[u8]) -> usize {
    let w = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (w.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `raw` into a self-describing segment (mode byte +
/// payload). Never grows the payload beyond `raw.len()` (plus the one
/// mode byte): if the token stream would be larger, the segment stores
/// the bytes verbatim.
#[must_use]
pub(crate) fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = vec![MODE_LZ];
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(MAX_LITERAL);
            out.push((run - 1) as u8);
            out.extend_from_slice(&raw[start..start + run]);
            start += run;
        }
    };

    while pos + MIN_MATCH <= raw.len() {
        let slot = hash4(&raw[pos..]);
        let candidate = table[slot];
        table[slot] = pos;
        let found = candidate != usize::MAX
            && pos - candidate <= MAX_DISTANCE
            && raw[candidate..candidate + MIN_MATCH] == raw[pos..pos + MIN_MATCH];
        if found {
            let mut len = MIN_MATCH;
            let cap = (raw.len() - pos).min(MAX_MATCH);
            while len < cap && raw[candidate + len] == raw[pos + len] {
                len += 1;
            }
            flush_literals(&mut out, literal_start, pos);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&((pos - candidate) as u16).to_le_bytes());
            // Seed the table across the matched span so immediately
            // following repeats are found too.
            for p in pos + 1..(pos + len).min(raw.len().saturating_sub(MIN_MATCH - 1)) {
                table[hash4(&raw[p..])] = p;
            }
            pos += len;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, literal_start, raw.len());

    if out.len() > raw.len() + 1 {
        let mut verbatim = Vec::with_capacity(raw.len() + 1);
        verbatim.push(MODE_RAW);
        verbatim.extend_from_slice(raw);
        verbatim
    } else {
        out
    }
}

/// Decompresses a segment produced by [`compress`], validating that the
/// output is exactly `raw_len` bytes. Returns `None` on any
/// malformation: unknown mode, truncated token, out-of-range distance,
/// or a length mismatch.
#[must_use]
pub(crate) fn decompress(segment: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let (&mode, tokens) = segment.split_first()?;
    match mode {
        MODE_RAW => (tokens.len() == raw_len).then(|| tokens.to_vec()),
        MODE_LZ => {
            let mut out = Vec::with_capacity(raw_len);
            let mut pos = 0usize;
            while pos < tokens.len() {
                let control = tokens[pos];
                pos += 1;
                if control < 0x80 {
                    let run = control as usize + 1;
                    let literals = tokens.get(pos..pos + run)?;
                    out.extend_from_slice(literals);
                    pos += run;
                } else {
                    let len = (control & 0x7f) as usize + MIN_MATCH;
                    let lo = *tokens.get(pos)?;
                    let hi = *tokens.get(pos + 1)?;
                    pos += 2;
                    let distance = u16::from_le_bytes([lo, hi]) as usize;
                    if distance == 0 || distance > out.len() {
                        return None;
                    }
                    // Byte-at-a-time copy: overlapping references
                    // (distance < len) replicate the tail, by design.
                    let start = out.len() - distance;
                    for i in 0..len {
                        let byte = out[start + i];
                        out.push(byte);
                    }
                }
                if out.len() > raw_len {
                    return None;
                }
            }
            (out.len() == raw_len).then_some(out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let seg = compress(raw);
        let back = decompress(&seg, raw.len()).expect("valid segment");
        assert_eq!(back, raw);
        seg
    }

    #[test]
    fn round_trips_edge_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0u8; 100_000]);
        round_trip("the quick brown fox ".repeat(400).as_bytes());
        let mixed: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        round_trip(&mixed);
    }

    #[test]
    fn repetitive_input_shrinks_incompressible_does_not_grow() {
        let zeros = compress(&[0u8; 4096]);
        assert!(
            zeros.len() < 4096 / 20,
            "zeros compress >20x: {}",
            zeros.len()
        );
        // A pseudo-random byte stream must not grow beyond raw + mode.
        let mut x = 0x12345678u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let seg = round_trip(&noise);
        assert!(seg.len() <= noise.len() + 1);
    }

    #[test]
    fn long_range_matches_inside_the_window_are_found() {
        let mut raw = vec![0xAA; 8];
        raw.extend(std::iter::repeat_n(0x55, 60_000));
        raw.extend([0xAA; 8]); // matches the prefix, 60 KiB back
        let seg = round_trip(&raw);
        // The 0x55 run costs 3 bytes per 131-byte token; the trailing
        // 0xAA bytes must resolve as one long-range match, not 8
        // literals (which would push past the token-count bound below).
        assert!(seg.len() < 60_000 / 131 * 3 + 64, "got {}", seg.len());
    }

    #[test]
    fn malformed_segments_are_rejected_not_panicked_on() {
        assert_eq!(decompress(&[], 0), None, "missing mode byte");
        assert_eq!(decompress(&[9, 1, 2], 2), None, "unknown mode");
        assert_eq!(decompress(&[MODE_RAW, 1, 2], 3), None, "raw length lies");
        assert_eq!(
            decompress(&[MODE_LZ, 0x05, 1], 6),
            None,
            "truncated literals"
        );
        assert_eq!(decompress(&[MODE_LZ, 0x80], 4), None, "truncated distance");
        assert_eq!(
            decompress(&[MODE_LZ, 0x80, 1, 0], 4),
            None,
            "distance into the void"
        );
        assert_eq!(
            decompress(&[MODE_LZ, 0x00, 7, 0x80, 1, 0], 2),
            None,
            "overlong output"
        );
    }

    #[test]
    fn compression_is_deterministic() {
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| (i / 7).to_le_bytes()).collect();
        assert_eq!(compress(&data), compress(&data));
    }
}
