//! Trainable parameters: value, gradient and optimizer state in one place.

use pelican_tensor::Tensor;
use std::ops::{Bound, Range, RangeBounds};

/// A trainable tensor together with its accumulated gradient and any
/// per-parameter optimizer state (e.g. the RMSprop moving average).
///
/// Layers own their `Param`s and expose them through
/// [`Layer::params_mut`](crate::Layer::params_mut); optimizers mutate them
/// in place, lazily allocating however many state slots they need.
///
/// Gradient and state are private so that every write is accounted for.
/// A `Param` tracks two element ranges of its gradient:
///
/// * `written`, the hull of what was written since the last
///   [`zero_grad`](Self::zero_grad): outside it the gradient is `+0.0`;
/// * [`live`](Self::live), the hull of everything ever written, widened
///   by [`set_state`](Self::set_state) and by full sweeps: outside it the
///   gradient and every state slot are `+0.0`. It only grows.
///
/// So `zero_grad` clears only `written`, and an optimizer whose update
/// provably leaves `θ` and its state bits alone where `g` and the state
/// are `+0.0` sweeps only `live` (DESIGN §11).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    grad: Tensor,
    state: Vec<Tensor>,
    written: Range<usize>,
    live: Range<usize>,
}

/// The smallest range holding `a` and `b`; an empty range holds nothing.
fn hull(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    if a.is_empty() {
        b.clone()
    } else if b.is_empty() {
        a.clone()
    } else {
        a.start.min(b.start)..a.end.max(b.end)
    }
}

impl Param {
    /// Wraps an initial value with a zeroed gradient, no optimizer state
    /// and empty `written` and `live` ranges.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Self {
            value,
            grad,
            state: Vec::new(),
            written: 0..0,
            live: 0..0,
        }
    }

    /// Gradient accumulated by the backward passes since the last
    /// [`zero_grad`](Self::zero_grad).
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// The gradient elements `range` (flat, row-major), for a backward
    /// pass to accumulate into; widens `written` and `live` to cover it.
    ///
    /// # Panics
    ///
    /// If `range` reaches past the gradient.
    pub fn grad_mut(&mut self, range: impl RangeBounds<usize>) -> &mut [f32] {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.grad.len(),
        };
        let slice = &mut self.grad.as_mut_slice()[start..end];
        self.written = hull(&self.written, &(start..end));
        self.live = hull(&self.live, &(start..end));
        slice
    }

    /// Optimizer-owned state slots (slot count depends on the optimizer:
    /// one for RMSprop/momentum-SGD, two for Adam/AdaDelta).
    pub fn state(&self) -> &[Tensor] {
        &self.state
    }

    /// Replaces the optimizer state (a checkpoint load or a rollback),
    /// widening `live` to cover every slot element whose bits are not
    /// `+0.0`.
    pub fn set_state(&mut self, state: Vec<Tensor>) {
        for s in &state {
            let v = s.as_slice();
            if let Some(lo) = v.iter().position(|x| x.to_bits() != 0) {
                let hi = v.iter().rposition(|x| x.to_bits() != 0).expect("lo exists");
                self.live = hull(&self.live, &(lo..hi + 1));
            }
        }
        self.state = state;
    }

    /// The hull of the gradient elements written since the last
    /// [`zero_grad`](Self::zero_grad): outside it the gradient is `+0.0`.
    pub fn written(&self) -> Range<usize> {
        self.written.clone()
    }

    /// The hull of every gradient element written since [`Param::new`]
    /// and every nonzero state element set since: outside it the gradient
    /// and every state slot are `+0.0`.
    pub fn live(&self) -> Range<usize> {
        self.live.clone()
    }

    /// Resets to zero what the backward passes wrote since the last call,
    /// keeping the allocation.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice()[self.written.clone()].fill(0.0);
        self.written = 0..0;
    }

    /// Ensures `n` state slots exist, each zero-initialised to the value's
    /// shape. Called by optimizers on their first step.
    pub fn ensure_state(&mut self, n: usize) {
        while self.state.len() < n {
            self.state.push(Tensor::zeros(self.value.shape().to_vec()));
        }
    }

    /// Hands out one optimizer update's operands: the value, the gradient
    /// and the first `N` state slots (zero-allocated on first use), sliced
    /// to `live` when `on_hull` holds. Without it they cover the whole
    /// parameter, which becomes live for good. `on_hull` is the caller's
    /// claim that its update leaves every value and state bit unchanged
    /// where the gradient and the state are `+0.0`; `opt` names it in
    /// panic messages.
    ///
    /// # Panics
    ///
    /// If the gradient or a state slot does not have one element per value
    /// element: a `zip` would otherwise stop silently at the shorter one.
    pub fn sweep<const N: usize>(
        &mut self,
        opt: &str,
        on_hull: bool,
    ) -> (&mut [f32], &[f32], [&mut [f32]; N]) {
        self.ensure_state(N);
        let n = self.value.len();
        assert_eq!(
            self.grad.len(),
            n,
            "{opt}: gradient has {} elements, parameter has {n}",
            self.grad.len()
        );
        for s in &self.state {
            assert_eq!(
                s.len(),
                n,
                "{opt}: state slot has {} elements, parameter has {n}",
                s.len()
            );
        }
        if !on_hull {
            self.live = 0..n;
        }
        let r = self.live.clone();
        let mut slots = self
            .state
            .iter_mut()
            .map(|s| &mut s.as_mut_slice()[r.clone()]);
        let slots = std::array::from_fn(|_| slots.next().expect("ensure_state made N slots"));
        (
            &mut self.value.as_mut_slice()[r.clone()],
            &self.grad.as_slice()[r],
            slots,
        )
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_of_same_shape() {
        let p = Param::new(Tensor::ones(vec![2, 3]));
        assert_eq!(p.grad().shape(), &[2, 3]);
        assert!(p.grad().as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert_eq!((p.written.clone(), p.live()), (0..0, 0..0));
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(vec![4]));
        p.grad_mut(..).fill(3.0);
        p.zero_grad();
        assert!(p.grad().as_slice().iter().all(|&v| v.to_bits() == 0));
        assert_eq!((p.written.clone(), p.live()), (0..0, 0..4));
    }

    #[test]
    fn grad_writes_widen_written_and_live_to_their_hull() {
        let mut p = Param::new(Tensor::ones(vec![10]));
        p.grad_mut(6..8).fill(-0.0);
        p.grad_mut(2..=3).fill(1.0);
        p.grad_mut(5..5);
        assert_eq!((p.written.clone(), p.live()), (2..8, 2..8));
        p.zero_grad();
        assert!(p.grad().as_slice().iter().all(|&v| v.to_bits() == 0));
        p.grad_mut(9..).fill(2.0);
        assert_eq!((p.written.clone(), p.live()), (9..10, 2..10));
    }

    #[test]
    fn set_state_widens_live_to_nonzero_bits() {
        let mut p = Param::new(Tensor::ones(vec![8]));
        p.set_state(vec![Tensor::zeros(vec![8])]);
        assert_eq!(p.live(), 0..0);
        let mut s = vec![0.0f32; 8];
        s[5] = -0.0;
        let mut t = vec![0.0f32; 8];
        t[2] = 1.0;
        p.set_state(vec![
            Tensor::from_vec(vec![8], s).unwrap(),
            Tensor::from_vec(vec![8], t).unwrap(),
        ]);
        assert_eq!(p.live(), 2..6);
        assert_eq!(p.state().len(), 2);
    }

    #[test]
    fn sweep_slices_to_live_or_makes_everything_live() {
        let mut p = Param::new(Tensor::ones(vec![6]));
        p.grad_mut(1..3).fill(1.0);
        let (value, grad, [s]) = p.sweep::<1>("t", true);
        assert_eq!((value.len(), grad, s.len()), (2, &[1.0, 1.0][..], 2));
        let (value, _, []) = p.sweep::<0>("t", false);
        assert_eq!(value.len(), 6);
        assert_eq!(p.live(), 0..6);
    }

    #[test]
    fn ensure_state_is_idempotent() {
        let mut p = Param::new(Tensor::ones(vec![4]));
        p.ensure_state(2);
        assert_eq!(p.state().len(), 2);
        p.state[0].as_mut_slice()[0] = 5.0;
        p.ensure_state(2);
        assert_eq!(p.state()[0].as_slice()[0], 5.0);
        p.ensure_state(1);
        assert_eq!(p.state().len(), 2);
    }
}
