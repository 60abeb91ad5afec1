//! Message payloads.

use std::sync::Arc;

/// The data carried by one message. Index data travels as `u64`, numeric
/// data as `f64`; the mixed variant covers the common "sparse row" shape
/// (column indices + values) without any serialisation layer.
///
/// The buffers are `Arc`-backed so that fan-out (a broadcast interior node
/// forwarding the same data to several children) clones a pointer, not the
/// data. `Clone` is therefore always cheap; the deep copy, if one is needed
/// at all, happens at most once per rank inside the `into_*` unwrappers
/// (which hand the buffer over zero-copy when the receiver is the sole
/// owner — the common point-to-point case).
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    Empty,
    U64(Arc<Vec<u64>>),
    F64(Arc<Vec<f64>>),
    /// Paired index/value arrays (not necessarily of equal length).
    Mixed(Arc<Vec<u64>>, Arc<Vec<f64>>),
}

impl Payload {
    /// Wraps an index buffer. The refcount block is harness-owned (it
    /// models the runtime's message descriptor, not user data), so the
    /// allocation audit does not see it; the buffer itself stays the
    /// caller's responsibility.
    pub fn u64s(v: Vec<u64>) -> Self {
        let _h = pilut_allocaudit::harness();
        Payload::U64(Arc::new(v))
    }

    /// Wraps a numeric buffer (refcount block harness-owned; see
    /// [`Payload::u64s`]).
    pub fn f64s(v: Vec<f64>) -> Self {
        let _h = pilut_allocaudit::harness();
        Payload::F64(Arc::new(v))
    }

    /// Wraps paired index/value buffers (refcount blocks harness-owned;
    /// see [`Payload::u64s`]).
    pub fn mixed(a: Vec<u64>, b: Vec<f64>) -> Self {
        let _h = pilut_allocaudit::harness();
        Payload::Mixed(Arc::new(a), Arc::new(b))
    }

    /// Size on the (simulated) wire, in bytes.
    pub fn bytes(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::U64(v) => 8 * v.len(),
            Payload::F64(v) => 8 * v.len(),
            Payload::Mixed(a, b) => 8 * (a.len() + b.len()),
        }
    }

    /// Unwraps a `U64` payload (zero-copy when this is the last reference).
    ///
    /// # Panics
    /// Panics if the variant differs — a protocol error in the caller.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => unwrap_arc(v),
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Unwraps an `F64` payload (zero-copy when this is the last reference).
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => unwrap_arc(v),
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Unwraps a `Mixed` payload (zero-copy when this is the last reference).
    pub fn into_mixed(self) -> (Vec<u64>, Vec<f64>) {
        match self {
            Payload::Mixed(a, b) => (unwrap_arc(a), unwrap_arc(b)),
            other => panic!("expected Mixed payload, got {other:?}"),
        }
    }

    /// Borrows an `F64` payload's values without unwrapping the `Arc` —
    /// the copy-free read for receivers that scatter the values and hand
    /// the buffer straight back to the pool via [`Payload::recycle`].
    /// Unlike [`Payload::into_f64`], a shared payload (sender-retained
    /// frame, fan-out node) costs nothing here.
    ///
    /// # Panics
    /// Panics if the variant differs — a protocol error in the caller.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Borrows a `U64` payload's values (see [`Payload::as_f64`]).
    pub fn as_u64(&self) -> &[u64] {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Drops this handle, returning the underlying `f64` buffer to the
    /// registered pool when it was the last reference (index buffers are
    /// not pooled and simply drop). This is how pooled
    /// replay buffers complete their cycle: each holder — the receiver
    /// after scattering, the sender's reliable-delivery retention on
    /// cumulative ACK — recycles its handle, and whichever drops last
    /// actually shelves the buffer. A handle that is not last simply
    /// drops, copy-free (where [`Payload::into_f64`] would have deep-
    /// cloned and the pooled original would have died with the other
    /// reference, draining the pool one buffer per acknowledged frame).
    pub fn recycle(self) {
        match self {
            Payload::Empty | Payload::U64(_) => {}
            Payload::F64(v) | Payload::Mixed(_, v) => {
                if let Ok(buf) = Arc::try_unwrap(v) {
                    crate::pool::give_f64(buf);
                }
            }
        }
    }
}

/// Takes the buffer out of the `Arc` without copying when the caller holds
/// the only reference; falls back to one clone otherwise. The fallback
/// copy is harness-owned (DESIGN §16): it happens only while the
/// *transport* still holds a reference — a broadcast fan-out node, or a
/// sender-retained frame awaiting its cumulative ACK — and stands in for
/// frame memory a real NIC would own. An MPI receiver owns its receive
/// buffer outright; the audited steady state must not be charged for the
/// VM keeping the wire image alive a little longer.
fn unwrap_arc<T: Clone>(v: Arc<Vec<T>>) -> Vec<T> {
    Arc::try_unwrap(v).unwrap_or_else(|shared| {
        let _h = pilut_allocaudit::harness();
        (*shared).clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counts() {
        assert_eq!(Payload::Empty.bytes(), 0);
        assert_eq!(Payload::u64s(vec![1, 2, 3]).bytes(), 24);
        assert_eq!(Payload::mixed(vec![1], vec![2.0, 3.0]).bytes(), 24);
    }

    #[test]
    fn unwrap_right_variant() {
        assert_eq!(Payload::f64s(vec![1.5]).into_f64(), vec![1.5]);
        let (a, b) = Payload::mixed(vec![7], vec![0.5]).into_mixed();
        assert_eq!(a, vec![7]);
        assert_eq!(b, vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "expected U64")]
    fn unwrap_wrong_variant_panics() {
        Payload::f64s(vec![]).into_u64();
    }

    #[test]
    fn clone_is_shallow_and_unwrap_still_works() {
        let p = Payload::u64s(vec![1, 2]);
        let q = p.clone();
        if let (Payload::U64(a), Payload::U64(b)) = (&p, &q) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            unreachable!();
        }
        drop(p);
        // q is now the sole owner: zero-copy handover.
        assert_eq!(q.into_u64(), vec![1, 2]);
    }
}
