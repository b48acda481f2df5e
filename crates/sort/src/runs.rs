//! Phase 2 without the received array: arrivals are counting-scattered one
//! cache-resident batch at a time and counted one bucket at a time.
//!
//! The paper's phase 2 sorts "the received array `T`" (§V, Algorithm 3/4).
//! Building that array literally costs a first touch of every page of it,
//! and [`sort_count`]'s first level then reads it back twice and copies it
//! into an equally large, equally fresh scratch before scattering it. The
//! engines never build it. What arrives is staged in a small reused buffer;
//! once that holds [`STAGE_WORDS`] it is handed to [`BucketRuns::absorb`],
//! which histograms it by the top 8 bits of the key window and scatters it
//! into one exactly-sized [`BucketRun`] while it is still in L2. Phase 2
//! ([`BucketRuns::sort_count`]) walks the 256 buckets in order: a bucket is
//! one `extend_from_slice` per run into a reused buffer, counted by
//! [`sort_count`] while it is in cache. Concatenated buckets are globally
//! sorted because the digit is the most significant one of the window, and
//! no key occurs in two buckets.
//!
//! The serial counter deliberately does not use this: it is the oracle, and
//! stays "one array + [`sort_count`]".

use crate::{sort_count, RadixKey};

/// Words an engine stages before it hands them to [`BucketRuns::absorb`].
/// A constant, not a knob: it trades the per-run overhead (a 1 KiB
/// histogram, and 256 slice copies per run at gather time, which are cache
/// misses when a slice is a few words) against keeping the staged words in
/// L2 for the scatter. Phase 2 of a 5 M-key rank is flat from 16 Ki to
/// 64 Ki words and slower on both sides (DESIGN.md, "Phase 2").
pub const STAGE_WORDS: usize = 16 * 1024;

/// One batch of keys, counting-scattered by its 8-bit bucket digit.
#[derive(Debug, Clone)]
pub struct BucketRun<K> {
    /// The batch in ascending bucket order.
    words: Vec<K>,
    /// Words per bucket; prefix sums recover the bucket slices of `words`.
    counts: Box<[u32; 256]>,
    /// The digit's position, so a run cannot join a store keyed otherwise.
    shift: u32,
    /// Where the batch came from (a rank, a thread); see
    /// [`BucketRuns::drop_source`].
    src: usize,
}

/// The position of the bucket digit for keys of `key_bits` significant
/// bits: its top 8 bits, or the whole key when it is narrower than that.
fn digit_shift(key_bits: u32) -> u32 {
    key_bits.saturating_sub(8)
}

impl<K: RadixKey> BucketRun<K> {
    /// Scatters `batch` by the top 8 bits of its `key_bits`-bit keys (for
    /// k-mers, `2k`). Every bit of a key at or above `key_bits` must be
    /// zero — that is what makes the digit the most significant one.
    pub fn scatter(batch: &[K], key_bits: u32, src: usize) -> Self {
        let shift = digit_shift(key_bits);
        debug_assert!(
            batch.iter().all(|x| x.bit_len() <= shift + 8),
            "a key is wider than {key_bits} bits"
        );
        assert!(u32::try_from(batch.len()).is_ok(), "a batch holds at most u32::MAX words");
        let mut counts = Box::new([0u32; 256]);
        for x in batch {
            counts[x.bits_at(shift) as usize] += 1;
        }
        let mut next = [0u32; 256];
        let mut start = 0u32;
        for (n, &c) in next.iter_mut().zip(counts.iter()) {
            *n = start;
            start += c;
        }
        let mut words = vec![K::default(); batch.len()];
        for &x in batch {
            let slot = &mut next[x.bits_at(shift) as usize];
            words[*slot as usize] = x;
            *slot += 1;
        }
        Self { words, counts, shift, src }
    }

    /// Keys in the run.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` for the run of an empty batch.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Everything one owner has received, as bucket-scattered runs. An empty
/// store owns no heap; one that absorbed `n` words owns `n` words plus a
/// 1 KiB histogram per run.
#[derive(Debug, Clone)]
pub struct BucketRuns<K> {
    key_bits: u32,
    runs: Vec<BucketRun<K>>,
    /// Keys held, over all runs.
    len: usize,
}

impl<K: RadixKey> Default for BucketRuns<K> {
    /// A store for keys that may use every bit of `K`.
    fn default() -> Self {
        Self::new(8 * K::LEVELS as u32)
    }
}

impl<K: RadixKey> BucketRuns<K> {
    /// A store for keys of `key_bits` significant bits (see
    /// [`BucketRun::scatter`]).
    pub fn new(key_bits: u32) -> Self {
        Self { key_bits, runs: Vec::new(), len: 0 }
    }

    /// Keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scatters the staged batch into one run from `src` and clears the
    /// staging buffer, which keeps its allocation for the next batch.
    pub fn absorb(&mut self, staged: &mut Vec<K>, src: usize) {
        if !staged.is_empty() {
            self.push(BucketRun::scatter(staged, self.key_bits, src));
            staged.clear();
        }
    }

    /// Takes a run scattered elsewhere (a producer thread's) with this
    /// store's `key_bits`.
    pub fn push(&mut self, run: BucketRun<K>) {
        assert_eq!(run.shift, digit_shift(self.key_bits), "run scattered by another digit");
        if !run.is_empty() {
            self.len += run.len();
            self.runs.push(run);
        }
    }

    /// Drops every run that came from `src`, as if it had never been
    /// received; returns the keys dropped.
    pub fn drop_source(&mut self, src: usize) -> usize {
        let before = self.len;
        self.runs.retain(|run| run.src != src);
        self.len = self.runs.iter().map(BucketRun::len).sum();
        before - self.len
    }

    /// Phase 2: calls `emit(key, occurrences)` once per distinct key in
    /// ascending order — [`sort_count`] of the concatenation of everything
    /// absorbed, one gathered bucket at a time.
    pub fn sort_count(self, mut emit: impl FnMut(K, u32)) {
        let mut bucket: Vec<K> = Vec::new();
        let mut taken = vec![0usize; self.runs.len()];
        for b in 0..256 {
            bucket.clear();
            for (run, off) in self.runs.iter().zip(taken.iter_mut()) {
                let n = run.counts[b] as usize;
                bucket.extend_from_slice(&run.words[*off..*off + n]);
                *off += n;
            }
            sort_count(&mut bucket, &mut emit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_store_owns_no_heap() {
        let mut runs = BucketRuns::<u64>::new(62);
        runs.absorb(&mut Vec::new(), 0);
        runs.push(BucketRun::scatter(&[], 62, 1));
        assert!(runs.is_empty() && runs.runs.capacity() == 0);
        let mut emitted = 0;
        runs.sort_count(|_, _| emitted += 1);
        assert_eq!(emitted, 0);
    }

    #[test]
    fn a_run_is_exactly_sized_and_in_bucket_order() {
        // k = 5: a 10-bit window, the digit is bits 2..10.
        let mut staged: Vec<u32> = vec![0x3FF, 0x004, 0x3FC, 0x007, 0x100];
        staged.reserve(100);
        let mut runs = BucketRuns::new(10);
        runs.absorb(&mut staged, 7);
        assert!(staged.is_empty() && staged.capacity() >= 100, "staging keeps its allocation");
        let run = &runs.runs[0];
        assert_eq!(run.words, [0x004, 0x007, 0x100, 0x3FF, 0x3FC]);
        assert_eq!(run.words.capacity(), 5);
        assert_eq!((run.counts[1], run.counts[0x40], run.counts[0xFF]), (2, 1, 2));
        assert_eq!(runs.drop_source(7), 5);
    }

    #[test]
    #[should_panic(expected = "run scattered by another digit")]
    fn a_run_of_another_digit_is_refused() {
        BucketRuns::<u64>::new(62).push(BucketRun::scatter(&[1], 30, 0));
    }
}
