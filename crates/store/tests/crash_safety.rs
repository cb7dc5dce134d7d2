//! Crash-safety: a store file truncated at *every* byte boundary —
//! simulating a crash mid-append or mid-footer-write — must reopen
//! without panicking, recover every record of every complete block, and
//! never serve bytes from a torn tail. A single flipped bit anywhere in
//! the file must never turn into a wrong answer.

use std::path::PathBuf;

use pchls_store::{Store, StoreKey, StoreRecord, STORE_FILE_NAME};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pchls-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(i: u64) -> StoreRecord {
    StoreRecord {
        key: StoreKey {
            fingerprint: 0xabcd_0000 + i / 7,
            latency_bound: 10 + (i % 7) as u32,
            budget_digest: 0x5eed + i,
        },
        feasible: !i.is_multiple_of(3),
        power_bound_bits: (20.0 + i as f64 * 0.25).to_bits(),
        area: 500 + i * 3,
        latency: 9 + (i % 7) as u32,
        peak_power_bits: (19.0 + i as f64 * 0.25).to_bits(),
        units: 3 + i % 4,
        trace: (0..(i % 9) as u8).collect(),
    }
}

#[test]
fn every_byte_truncation_recovers_complete_blocks_and_never_panics() {
    let dir = temp_dir("truncate");
    let path = dir.join(STORE_FILE_NAME);
    let batch_a: Vec<StoreRecord> = (0..12).map(record).collect();
    let batch_b: Vec<StoreRecord> = (100..112).map(record).collect();

    // Capture the two data watermarks: end of block A and end of block
    // B, both *before* any footer covers them (appends write through to
    // the file immediately; only the footer waits for flush).
    let (end_a, end_b) = {
        let mut store = Store::open(&dir).unwrap();
        store.append(&batch_a).unwrap();
        let end_a = std::fs::metadata(&path).unwrap().len();
        store.append(&batch_b).unwrap();
        let end_b = std::fs::metadata(&path).unwrap().len();
        store.flush().unwrap();
        (end_a, end_b)
    };
    let full = std::fs::read(&path).unwrap();
    assert!(end_a > 8 && end_b > end_a && (end_b as usize) < full.len());
    let combined: Vec<StoreRecord> = batch_a.iter().chain(&batch_b).cloned().collect();

    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let opened = Store::open(&dir); // must never panic
        if (cut as u64) < 8 {
            // Not even the magic survived; either outcome is fine as
            // long as a successful open is empty.
            if let Ok(store) = opened {
                assert!(store.is_empty(), "cut {cut}");
            }
            continue;
        }
        let mut store = opened.unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
        let expect: &[StoreRecord] = if (cut as u64) >= end_b {
            &combined
        } else if (cut as u64) >= end_a {
            &batch_a
        } else {
            &[]
        };
        assert_eq!(store.len(), expect.len(), "cut {cut}");
        // Only the final, footer-complete file loads without a scan.
        assert_eq!(store.recovered(), cut != full.len(), "cut {cut}");
        for r in expect {
            assert_eq!(
                store.get(&r.key).unwrap().as_ref(),
                Some(r),
                "cut {cut}: record lost or corrupted"
            );
        }
        let scanned = store.scan_records().unwrap();
        assert_eq!(scanned, expect, "cut {cut}: scan diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn appending_after_recovery_overwrites_the_torn_tail() {
    let dir = temp_dir("heal");
    let path = dir.join(STORE_FILE_NAME);
    let batch_a: Vec<StoreRecord> = (0..8).map(record).collect();
    let batch_b: Vec<StoreRecord> = (50..58).map(record).collect();
    {
        let mut store = Store::open(&dir).unwrap();
        store.append(&batch_a).unwrap();
        store.flush().unwrap();
    }
    // Tear mid-way through what would have been the next block: append
    // B then chop half of its bytes off together with the footer.
    let clean = std::fs::read(&path).unwrap();
    {
        let mut store = Store::open(&dir).unwrap();
        store.append(&batch_b).unwrap();
        let torn_len = std::fs::metadata(&path).unwrap().len() - 5;
        drop(store); // flushes a footer we immediately destroy
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..torn_len as usize]).unwrap();
    }
    assert!(std::fs::metadata(&path).unwrap().len() > clean.len() as u64);

    // Recovery sees only batch A; appending batch B again must land
    // where the torn block was and produce a fully healthy store.
    let mut store = Store::open(&dir).unwrap();
    assert!(store.recovered());
    assert_eq!(store.len(), batch_a.len());
    store.append(&batch_b).unwrap();
    store.flush().unwrap();
    store
        .verify()
        .unwrap_or_else(|e| panic!("healed store fails verify: {e}"));
    drop(store);

    let mut store = Store::open(&dir).unwrap();
    assert!(!store.recovered());
    assert_eq!(store.len(), batch_a.len() + batch_b.len());
    for r in batch_a.iter().chain(&batch_b) {
        assert_eq!(store.get(&r.key).unwrap().as_ref(), Some(r));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_bit_flip_is_refused_or_harmless() {
    let dir = temp_dir("bitflip");
    let path = dir.join(STORE_FILE_NAME);
    let records: Vec<StoreRecord> = (0..6).map(record).collect();
    {
        let mut store = Store::open(&dir).unwrap();
        store.append(&records).unwrap();
        store.flush().unwrap();
    }
    let clean = std::fs::read(&path).unwrap();
    let mut refusals = 0;
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut flipped = clean.clone();
            flipped[byte] ^= 1 << bit;
            std::fs::write(&path, &flipped).unwrap();
            let Ok(mut store) = Store::open(&dir) else {
                continue;
            };
            let mut refused = false;
            for r in &records {
                match store.get(&r.key) {
                    Err(_) => refused = true,
                    Ok(got) => assert_eq!(
                        got.as_ref(),
                        Some(r),
                        "byte {byte} bit {bit}: a flip changed an answer"
                    ),
                }
            }
            if refused {
                refusals += 1;
                assert!(
                    store.compact().is_err(),
                    "byte {byte} bit {bit}: compact rewrote a corrupt block"
                );
            }
        }
    }
    // Every bit of the block body is covered by its checksum.
    assert!(refusals > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
