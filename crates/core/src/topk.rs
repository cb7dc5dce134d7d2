//! A flat bounded "best-k" heap with a reusable buffer.
//!
//! The synthesis kernel offers an iteration's candidate decisions to a
//! [`TopK`] but only ever *attempts* a few of them: each iteration
//! ranks a first block of the best `FIRST_BLOCK` (1), and ranks the
//! best `MAX_ATTEMPTS` (64) into a second heap only when the whole
//! block is rejected. The heap is a flat array of at most `k` items
//! whose **root is the worst kept item**, so each offer either replaces
//! the root (one sift-down) or is discarded with a single comparison. Once
//! the heap is full, [`TopK::worst`] is the bar every later offer must
//! beat: the kernel's pair walk stops scoring candidates whose score
//! bound falls strictly below it, so the smaller `k`, the fewer it
//! scores. The buffer persists across iterations ([`TopK::clear`], not
//! a fresh allocation).
//!
//! Under a **total** order (the kernel's score, start, op, then
//! structural-key comparator) the kept set is exactly the k smallest
//! items offered, whatever the offer order, so `TopK::push` +
//! [`TopK::sorted`] equals a full sort truncated to `k` — element for
//! element. The differential proptest in `crates/core/tests/properties.rs`
//! pins that equivalence.

use std::cmp::Ordering;

/// A bounded max-heap keeping the `k` smallest items under a
/// caller-supplied comparator (`Ordering::Less` = ranks earlier =
/// better). The comparator is passed per call, not stored.
///
/// # Example
///
/// ```
/// use pchls_core::TopK;
///
/// let mut top = TopK::new(3);
/// for x in [5u32, 1, 4, 2, 8, 3] {
///     top.push(x, u32::cmp);
/// }
/// assert_eq!(top.sorted(u32::cmp), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK<T> {
    cap: usize,
    heap: Vec<T>,
}

impl<T: Copy> TopK<T> {
    /// An empty heap keeping at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0 (a top-0 selection is meaningless).
    #[must_use]
    pub fn new(cap: usize) -> TopK<T> {
        assert!(cap > 0, "TopK capacity must be positive");
        TopK {
            cap,
            heap: Vec::with_capacity(cap),
        }
    }

    /// Drops every kept item, retaining the buffer. Call between uses —
    /// required after [`TopK::sorted`], which leaves the buffer sorted
    /// rather than heap-ordered.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Offers `item`: kept if the heap is under capacity or `item` ranks
    /// before the current worst kept item (the root), which it then
    /// replaces. A discarded offer costs exactly one comparison.
    pub fn push(&mut self, item: T, mut cmp: impl FnMut(&T, &T) -> Ordering) {
        if self.heap.len() < self.cap {
            self.heap.push(item);
            self.sift_up(self.heap.len() - 1, &mut cmp);
        } else if cmp(&item, &self.heap[0]) == Ordering::Less {
            self.heap[0] = item;
            self.sift_down(0, &mut cmp);
        }
    }

    /// The worst kept item once the heap holds `cap` items — an offer
    /// must rank strictly before it to be kept — or `None` while there is
    /// still room. Only meaningful between [`TopK::clear`] and
    /// [`TopK::sorted`].
    #[must_use]
    pub(crate) fn worst(&self) -> Option<&T> {
        (self.heap.len() == self.cap).then(|| &self.heap[0])
    }

    /// Sorts the kept items in place (best first) and returns them.
    /// The heap shape is consumed: [`TopK::clear`] before pushing again.
    pub fn sorted(&mut self, mut cmp: impl FnMut(&T, &T) -> Ordering) -> &[T] {
        self.heap.sort_unstable_by(&mut cmp);
        &self.heap
    }

    fn sift_up(&mut self, mut i: usize, cmp: &mut impl FnMut(&T, &T) -> Ordering) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp(&self.heap[i], &self.heap[parent]) != Ordering::Greater {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, cmp: &mut impl FnMut(&T, &T) -> Ordering) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && cmp(&self.heap[l], &self.heap[largest]) == Ordering::Greater {
                largest = l;
            }
            if r < n && cmp(&self.heap[r], &self.heap[largest]) == Ordering::Greater {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_reference(items: &[u32], k: usize) -> Vec<u32> {
        let mut all = items.to_vec();
        all.sort_unstable();
        all.truncate(k);
        all
    }

    #[test]
    fn keeps_the_k_smallest_in_order() {
        let items = [9u32, 3, 7, 1, 8, 2, 6, 0, 5, 4];
        for k in 1..=items.len() + 2 {
            let mut top = TopK::new(k);
            for &x in &items {
                top.push(x, u32::cmp);
            }
            assert_eq!(top.sorted(u32::cmp), select_reference(&items, k), "k={k}");
        }
    }

    #[test]
    fn buffer_reuse_via_clear() {
        let mut top = TopK::new(2);
        top.push(3u32, u32::cmp);
        top.push(1, u32::cmp);
        assert_eq!(top.sorted(u32::cmp), &[1, 3]);
        top.clear();
        assert!(top.heap.is_empty());
        for x in [10u32, 7, 9] {
            top.push(x, u32::cmp);
        }
        assert_eq!(top.sorted(u32::cmp), &[7, 9]);
        assert_eq!(top.heap.len(), 2);
    }

    #[test]
    fn worst_is_the_bar_once_full() {
        let mut top = TopK::new(3);
        for x in [5u32, 1] {
            top.push(x, u32::cmp);
        }
        assert_eq!(top.worst(), None, "room left: no bar yet");
        top.push(4, u32::cmp);
        assert_eq!(top.worst(), Some(&5));
        top.push(2, u32::cmp);
        assert_eq!(top.worst(), Some(&4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = TopK::<u32>::new(0);
    }
}
