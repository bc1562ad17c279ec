//! Thread-local scratch-buffer arena for kernel temporaries.
//!
//! The packed GEMM core needs short-lived f32 buffers (packed B panels,
//! Conv1d's gathered rows and per-tap products, GRU gate blocks) on every
//! call. Allocating them from
//! the global allocator per product dominated small-kernel cost, so this
//! module keeps a per-thread free list of grow-only buffers: [`take`] hands
//! out the best-fitting retired buffer (zeroed to the requested length) and
//! the returned [`WsBuf`] guard puts it back on drop.
//!
//! Only *scratch* memory goes through the arena. Buffers that become
//! [`crate::Tensor`] storage are still allocated fresh — tensor data is
//! owned by the tensor and outlives the op, so pooling it would be a copy,
//! not a win.
//!
//! The arena is deliberately invisible to observability: buffer reuse
//! depends on per-thread call history, which varies with worker count, and
//! the snapshot export is asserted byte-identical across worker counts.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

thread_local! {
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Upper bound on retired buffers kept per thread; beyond this the smallest
/// is dropped so pathological shape churn cannot hoard memory.
const MAX_RETIRED: usize = 16;

/// A scratch buffer checked out of the thread-local arena.
///
/// Dereferences to `[f32]` of exactly the requested length, zero-filled.
/// Dropping it returns the allocation to the arena for reuse.
#[derive(Debug)]
pub struct WsBuf {
    buf: Vec<f32>,
}

impl Deref for WsBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for WsBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for WsBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        FREE.with(|free| {
            let mut free = free.borrow_mut();
            free.push(buf);
            if free.len() > MAX_RETIRED {
                // Drop the smallest capacity: large panels are the ones
                // worth keeping warm.
                if let Some(idx) = (0..free.len()).min_by_key(|&i| free[i].capacity()) {
                    free.swap_remove(idx);
                }
            }
        });
    }
}

/// Checks a zero-filled scratch buffer of length `len` out of the arena.
///
/// Picks the retired buffer whose capacity fits `len` most tightly (growing
/// it if none fits), so one arena serves mixed panel sizes without
/// ballooning every buffer to the largest request seen.
pub fn take(len: usize) -> WsBuf {
    let mut buf = FREE.with(|free| {
        let mut free = free.borrow_mut();
        let best = (0..free.len())
            .filter(|&i| free[i].capacity() >= len)
            .min_by_key(|&i| free[i].capacity())
            .or_else(|| (0..free.len()).max_by_key(|&i| free[i].capacity()));
        match best {
            Some(i) => free.swap_remove(i),
            None => Vec::new(),
        }
    });
    buf.clear();
    buf.resize(len, 0.0);
    WsBuf { buf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        {
            let mut a = take(8);
            a.iter_mut().for_each(|v| *v = 7.0);
        }
        let b = take(5);
        assert_eq!(b.len(), 5);
        assert!(b.iter().all(|&v| v == 0.0), "stale data leaked");
    }

    #[test]
    fn allocation_is_reused_when_it_fits() {
        let ptr = {
            let mut a = take(1024);
            a[0] = 1.0;
            a.as_ptr() as usize
        };
        let b = take(512);
        assert_eq!(b.as_ptr() as usize, ptr, "expected arena reuse");
    }

    #[test]
    fn nested_buffers_are_distinct() {
        let mut a = take(16);
        let mut b = take(16);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn retired_list_is_bounded() {
        let held: Vec<WsBuf> = (0..40).map(|i| take(i + 1)).collect();
        drop(held);
        FREE.with(|free| assert!(free.borrow().len() <= MAX_RETIRED));
    }

    #[test]
    fn zero_length_take_is_fine() {
        let b = take(0);
        assert_eq!(b.len(), 0);
    }
}
