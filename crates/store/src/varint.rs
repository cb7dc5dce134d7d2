//! LEB128 varints and zigzag/delta transforms: the byte-level
//! vocabulary of schedule traces ([`crate::trace_bytes`]) and of the
//! footer index.
//!
//! A trace is encoded as *deltas between consecutive values*
//! (wrapping), zigzag-folded so small negative jumps stay small, then
//! LEB128 varint-packed. Schedules are near-sorted, so most deltas fit
//! in one byte.

/// Appends `value` as an LEB128 varint (1–10 bytes).
pub(crate) fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `bytes[*pos..]`, advancing `pos`.
/// Returns `None` on truncated input or a varint longer than 10 bytes
/// (which cannot encode a `u64` and therefore marks corruption).
pub(crate) fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for shift in 0..10 {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        // The 10th byte may only carry the final bit of a u64.
        if shift == 9 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

/// Zigzag-folds a signed delta into an unsigned varint-friendly value
/// (`0, -1, 1, -2, … → 0, 1, 2, 3, …`).
#[must_use]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `values` as a delta/zigzag/varint column: each value is
/// encoded as the wrapping difference from its predecessor (the first
/// from zero).
pub(crate) fn put_delta_column(out: &mut Vec<u8>, values: &[u64]) {
    let mut prev = 0u64;
    for &v in values {
        put_u64(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Decodes a delta/zigzag/varint column of exactly `count` values.
/// Returns `None` on truncation/corruption or trailing garbage.
pub(crate) fn get_delta_column(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
    let mut pos = 0usize;
    let mut values = Vec::with_capacity(count);
    let mut prev = 0u64;
    for _ in 0..count {
        let delta = unzigzag(get_u64(bytes, &mut pos)?);
        prev = prev.wrapping_add(delta as u64);
        values.push(prev);
    }
    (pos == bytes.len()).then_some(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        let mut pos = 0;
        assert_eq!(get_u64(&[0x80], &mut pos), None, "truncated continuation");
        let mut pos = 0;
        assert_eq!(
            get_u64(&[0xff; 11], &mut pos),
            None,
            "an 11-byte varint cannot encode a u64"
        );
    }

    #[test]
    fn zigzag_is_involutive_and_small_for_small_magnitudes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-3) < 8, "small negatives stay small");
    }

    #[test]
    fn delta_column_round_trips_and_compresses_repeats() {
        let values = vec![900u64, 900, 900, 901, 3, u64::MAX, 0];
        let mut buf = Vec::new();
        put_delta_column(&mut buf, &values);
        assert_eq!(get_delta_column(&buf, values.len()), Some(values.clone()));
        // Repeated values cost one byte each after the first.
        let mut flat = Vec::new();
        put_delta_column(&mut flat, &[u64::MAX; 64]);
        assert!(flat.len() < 64 + 10, "repeats are one zero byte each");
        // Trailing garbage is detected.
        buf.push(0);
        assert_eq!(get_delta_column(&buf, values.len()), None);
    }
}
