//! One-sided remote memory access: `rput` / `rget`, scalar and bulk.
//!
//! Every operation performs the dynamic locality check the paper discusses:
//! a directly-addressable target takes the shared-memory bypass (the data
//! movement completes synchronously, making eager notification possible);
//! any other target is injected into the simulated network and always
//! completes asynchronously. Under 2021.3.0 semantics the bypass path
//! additionally performs the extra heap allocation that snapshot 2021.3.6
//! eliminated (`legacy_extra_alloc`).

use std::sync::Arc;

use crate::completion::{operation_cx, Completions, CxValue, Notifier, OpEvent, RemoteFn};
use crate::ctx::RankCtx;
use crate::future::Future;
use crate::global_ptr::{GlobalPtr, SegValue};
use crate::runtime::Upcr;
use crate::stats::bump;
use crate::trace::OpKind;

/// Emulates the per-operation internal allocation that UPC++ 2021.3.0
/// performed on the directly-addressable RMA path (removed in the 2021.3.6
/// snapshot). Sized like the internal operation descriptor it stands for.
#[inline(never)]
fn legacy_extra_alloc(ctx: &RankCtx) {
    bump(&ctx.stats.legacy_extra_allocs);
    let b: Box<[u64; 6]> = Box::new([0; 6]);
    std::hint::black_box(&b);
}

/// Enqueue remote-completion RPCs to the target after a local transfer.
fn post_remote_rpcs_local(ctx: &RankCtx, target: gasnex::Rank, rpcs: Vec<RemoteFn>) {
    for f in rpcs {
        ctx.world.send_am(target, ctx.me, move |_| f());
    }
}

impl Upcr {
    /// Asynchronous scalar put with default (future) completion.
    ///
    /// ```
    /// upcr::launch(upcr::RuntimeConfig::smp(2), |u| {
    ///     let p = u.new_::<u64>(0);
    ///     let f = u.rput(7, p);
    ///     assert!(f.is_ready()); // local target + eager default
    ///     assert_eq!(u.rget(p).wait(), 7);
    ///     u.barrier();
    /// });
    /// ```
    pub fn rput<T: SegValue>(&self, val: T, dst: GlobalPtr<T>) -> Future<()> {
        self.rput_with(val, dst, operation_cx::as_future())
    }

    /// Asynchronous scalar put with an explicit completions object.
    pub fn rput_with<T: SegValue, C: Completions<()>>(
        &self,
        val: T,
        dst: GlobalPtr<T>,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        debug_assert!(!dst.is_null(), "rput to null global pointer");
        bump(&ctx.stats.rputs);
        let top = ctx.trace_op_init(OpKind::Put, true);
        let mut rpcs = Vec::new();
        cx.take_remote(&mut rpcs);
        if ctx.addressable(dst.rank()) {
            // Shared-memory bypass: data movement completes synchronously.
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            ctx.world
                .segment(dst.rank())
                .write_scalar(dst.offset(), T::SIZE, val.to_bits());
            post_remote_rpcs_local(ctx, dst.rank(), rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            bump(&ctx.stats.net_injected);
            let rec = OpEvent::unit();
            let (rank, off, bits) = (dst.rank(), dst.offset(), val.to_bits());
            let src = ctx.me;
            let rec2 = Arc::clone(&rec);
            // Fine-grained scalar put: eligible for sender-side aggregation.
            ctx.inject_routed(
                rank,
                top,
                Box::new(move |w| {
                    w.segment(rank).write_scalar(off, T::SIZE, bits);
                    for f in rpcs {
                        w.send_am(rank, src, move |_| f());
                    }
                    rec2.ev.signal();
                }),
            );
            cx.notify(&Notifier::pending(ctx, top, rec))
        }
    }

    /// Asynchronous scalar get with default (future) completion.
    pub fn rget<T: SegValue + CxValue>(&self, src: GlobalPtr<T>) -> Future<T> {
        self.rget_with(src, operation_cx::as_future())
    }

    /// Asynchronous scalar get with an explicit completions object.
    pub fn rget_with<T: SegValue + CxValue, C: Completions<T>>(
        &self,
        src: GlobalPtr<T>,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        debug_assert!(!src.is_null(), "rget from null global pointer");
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        let mut rpcs = Vec::new();
        cx.take_remote(&mut rpcs);
        assert!(
            rpcs.is_empty(),
            "remote_cx completions are not supported on rget"
        );
        if ctx.addressable(src.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            let v = T::from_bits(
                ctx.world
                    .segment(src.rank())
                    .read_scalar(src.offset(), T::SIZE),
            );
            cx.notify(&Notifier::sync(ctx, top, v))
        } else {
            bump(&ctx.stats.net_injected);
            let rec = OpEvent::new();
            let (rank, off) = (src.rank(), src.offset());
            let rec2 = Arc::clone(&rec);
            let msg = ctx.world.net_inject(Box::new(move |w| {
                rec2.complete(T::from_bits(w.segment(rank).read_scalar(off, T::SIZE)));
            }));
            ctx.trace_net_inject(top, msg);
            cx.notify(&Notifier::pending(ctx, top, rec))
        }
    }

    /// Bulk put: copy `src` into consecutive elements starting at `dst`,
    /// with default (future) completion.
    pub fn rput_slice<T: SegValue>(&self, src: &[T], dst: GlobalPtr<T>) -> Future<()> {
        self.rput_slice_with(src, dst, operation_cx::as_future())
    }

    /// Bulk put with an explicit completions object. The source slice is
    /// captured by copy at initiation, so source completion is immediate.
    pub fn rput_slice_with<T: SegValue, C: Completions<()>>(
        &self,
        src: &[T],
        dst: GlobalPtr<T>,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rputs);
        let top = ctx.trace_op_init(OpKind::Put, true);
        let mut rpcs = Vec::new();
        cx.take_remote(&mut rpcs);
        if ctx.addressable(dst.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            let seg = ctx.world.segment(dst.rank());
            for (i, v) in src.iter().enumerate() {
                seg.write_scalar(dst.offset() + i * T::SIZE, T::SIZE, v.to_bits());
            }
            post_remote_rpcs_local(ctx, dst.rank(), rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            bump(&ctx.stats.net_injected);
            let rec = OpEvent::unit();
            let data: Vec<T> = src.to_vec();
            let (rank, off) = (dst.rank(), dst.offset());
            let me = ctx.me;
            let rec2 = Arc::clone(&rec);
            let msg = ctx.world.net_inject(Box::new(move |w| {
                let seg = w.segment(rank);
                for (i, v) in data.iter().enumerate() {
                    seg.write_scalar(off + i * T::SIZE, T::SIZE, v.to_bits());
                }
                for f in rpcs {
                    w.send_am(rank, me, move |_| f());
                }
                rec2.ev.signal();
            }));
            ctx.trace_net_inject(top, msg);
            cx.notify(&Notifier::pending(ctx, top, rec))
        }
    }

    /// One-sided copy of `n` elements between global pointers (the
    /// `upcxx::copy` idiom), with default (future) completion.
    ///
    /// The destination lives in shared memory, so — unlike a get into a
    /// local buffer — completion is value-less. This is what lets a batch of
    /// gets be tracked by a single promise (or conjoined unit futures): the
    /// fetched data lands in the caller's shared scratch space, not in the
    /// notification.
    /// ```
    /// upcr::launch(upcr::RuntimeConfig::smp(1), |u| {
    ///     let a = u.new_array::<u64>(4);
    ///     let b = u.new_array::<u64>(4);
    ///     u.rput_slice(&[1, 2, 3, 4u64], a).wait();
    ///     u.copy(a, b, 4).wait();
    ///     assert_eq!(u.rget_vec(b, 4).wait(), vec![1, 2, 3, 4]);
    /// });
    /// ```
    pub fn copy<T: SegValue>(&self, src: GlobalPtr<T>, dst: GlobalPtr<T>, n: usize) -> Future<()> {
        self.copy_with(src, dst, n, operation_cx::as_future())
    }

    /// One-sided copy with an explicit completions object.
    pub fn copy_with<T: SegValue, C: Completions<()>>(
        &self,
        src: GlobalPtr<T>,
        dst: GlobalPtr<T>,
        n: usize,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        let mut rpcs = Vec::new();
        cx.take_remote(&mut rpcs);
        let copy_now = move |w: &gasnex::World| {
            let (ssec, dsec) = (w.segment(src.rank()), w.segment(dst.rank()));
            for i in 0..n {
                let bits = ssec.read_scalar(src.offset() + i * T::SIZE, T::SIZE);
                dsec.write_scalar(dst.offset() + i * T::SIZE, T::SIZE, bits);
            }
        };
        if ctx.addressable(src.rank()) && ctx.addressable(dst.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            copy_now(&ctx.world);
            post_remote_rpcs_local(ctx, dst.rank(), rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            bump(&ctx.stats.net_injected);
            let rec = OpEvent::unit();
            let rec2 = Arc::clone(&rec);
            let me = ctx.me;
            let dst_rank = dst.rank();
            let msg = ctx.world.net_inject(Box::new(move |w| {
                copy_now(w);
                for f in rpcs {
                    w.send_am(dst_rank, me, move |_| f());
                }
                rec2.ev.signal();
            }));
            ctx.trace_net_inject(top, msg);
            cx.notify(&Notifier::pending(ctx, top, rec))
        }
    }

    /// Bulk get of `n` elements starting at `src`, yielding the data in the
    /// completion value, with default (future) completion.
    pub fn rget_vec<T: SegValue>(&self, src: GlobalPtr<T>, n: usize) -> Future<Vec<T>> {
        self.rget_vec_with(src, n, operation_cx::as_future())
    }

    /// Bulk get with an explicit completions object.
    pub fn rget_vec_with<T: SegValue, C: Completions<Vec<T>>>(
        &self,
        src: GlobalPtr<T>,
        n: usize,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        let mut rpcs = Vec::new();
        cx.take_remote(&mut rpcs);
        assert!(
            rpcs.is_empty(),
            "remote_cx completions are not supported on rget"
        );
        if ctx.addressable(src.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            let seg = ctx.world.segment(src.rank());
            let data: Vec<T> = (0..n)
                .map(|i| T::from_bits(seg.read_scalar(src.offset() + i * T::SIZE, T::SIZE)))
                .collect();
            cx.notify(&Notifier::sync(ctx, top, data))
        } else {
            bump(&ctx.stats.net_injected);
            let rec = OpEvent::new();
            let (rank, off) = (src.rank(), src.offset());
            let rec2 = Arc::clone(&rec);
            let msg = ctx.world.net_inject(Box::new(move |w| {
                let seg = w.segment(rank);
                let data: Vec<T> = (0..n)
                    .map(|i| T::from_bits(seg.read_scalar(off + i * T::SIZE, T::SIZE)))
                    .collect();
                rec2.complete(data);
            }));
            ctx.trace_net_inject(top, msg);
            cx.notify(&Notifier::pending(ctx, top, rec))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{launch, RuntimeConfig};

    fn one_rank(f: impl Fn(&crate::Upcr) + Sync) {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 18), f);
    }

    #[test]
    fn scalar_roundtrip_every_width() {
        one_rank(|u| {
            let a = u.new_::<u8>(0);
            let b = u.new_::<u16>(0);
            let c = u.new_::<u32>(0);
            let d = u.new_::<u64>(0);
            u.rput(0x12u8, a).wait();
            u.rput(0x1234u16, b).wait();
            u.rput(0x1234_5678u32, c).wait();
            u.rput(0x1234_5678_9ABC_DEF0u64, d).wait();
            assert_eq!(u.rget(a).wait(), 0x12);
            assert_eq!(u.rget(b).wait(), 0x1234);
            assert_eq!(u.rget(c).wait(), 0x1234_5678);
            assert_eq!(u.rget(d).wait(), 0x1234_5678_9ABC_DEF0);
        });
    }

    #[test]
    fn copy_shifts_within_one_segment() {
        one_rank(|u| {
            let arr = u.new_array::<u64>(8);
            let data: Vec<u64> = (10..18).collect();
            u.rput_slice(&data, arr).wait();
            u.copy(arr, arr.add(4), 4).wait();
            assert_eq!(u.rget_vec(arr.add(4), 4).wait(), vec![10, 11, 12, 13]);
        });
    }

    #[test]
    fn slice_roundtrip_narrow_type() {
        one_rank(|u| {
            let arr = u.new_array::<i16>(10);
            let data: Vec<i16> = (-5..5).collect();
            u.rput_slice(&data, arr).wait();
            assert_eq!(u.rget_vec(arr, 10).wait(), data);
        });
    }

    #[test]
    fn legacy_alloc_counted_per_op_kind() {
        launch(
            RuntimeConfig::smp(1)
                .with_version(crate::LibVersion::V2021_3_0)
                .with_segment_size(1 << 18),
            |u| {
                let a = u.new_::<u64>(0);
                u.reset_stats();
                u.rput(1, a).wait();
                u.rget(a).wait();
                u.copy(a, a, 1).wait();
                u.rput_slice(&[1u64], a).wait();
                u.rget_vec(a, 1).wait();
                assert_eq!(u.stats().legacy_extra_allocs, 5);
            },
        );
    }
}
