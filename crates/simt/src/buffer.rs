//! Device-resident buffers.

use std::any::Any;
use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use crate::device::DeviceInner;
use crate::fault::EccTarget;

/// Types that may live in device memory.
///
/// Plain bit-copyable records; `Default` supplies the value used by
/// zero-initialized allocations.
pub trait DeviceCopy: Copy + Default + 'static {}
impl<T: Copy + Default + 'static> DeviceCopy for T {}

pub(crate) struct BufferInner<T> {
    pub(crate) data: RefCell<Vec<T>>,
    /// Simulated device address of element 0 (for coalescing analysis).
    pub(crate) base_addr: u64,
    bytes: usize,
    dev: Rc<DeviceInner>,
    /// Bumped on every mutation of `data`; see
    /// [`GpuBuffer::contents_version`].
    pub(crate) version: Cell<u64>,
    /// Derived-structure cache slot: `(version at attach, value)`. The
    /// value is only handed back while the version still matches.
    aux: RefCell<Option<(u64, Rc<dyn Any>)>>,
}

impl<T> BufferInner<T> {
    /// Records a content mutation (and thereby invalidates any cached
    /// aux structure attached at an older version).
    pub(crate) fn bump_version(&self) {
        self.version.set(self.version.get() + 1);
    }
}

impl<T> Drop for BufferInner<T> {
    fn drop(&mut self) {
        self.dev.release_bytes(self.bytes);
    }
}

/// A buffer in simulated global memory.
///
/// Cloning is cheap (reference-counted); the device tracks allocated bytes
/// and the high-water mark so experiments can report the paper's memory
/// usage claims (bitonic top-k: n/8 extra vs. n for sort/select).
pub struct GpuBuffer<T: DeviceCopy> {
    pub(crate) inner: Rc<BufferInner<T>>,
}

impl<T: DeviceCopy> Clone for GpuBuffer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: DeviceCopy> GpuBuffer<T> {
    pub(crate) fn new(dev: Rc<DeviceInner>, data: Vec<T>) -> Self {
        let bytes = data.len() * std::mem::size_of::<T>();
        let base_addr = dev.claim_address_range(bytes);
        dev.acquire_bytes(bytes);
        Self {
            inner: Rc::new(BufferInner {
                data: RefCell::new(data),
                base_addr,
                bytes,
                dev,
                version: Cell::new(0),
                aux: RefCell::new(None),
            }),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.data.borrow().len()
    }

    /// True when the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies device contents back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.inner.data.borrow().clone()
    }

    /// Copies a range back to the host.
    pub fn read_range(&self, range: std::ops::Range<usize>) -> Vec<T> {
        self.inner.data.borrow()[range].to_vec()
    }

    /// Borrows the device contents for a host read: no copy and no
    /// [`Self::contents_version`] bump. Any write to this buffer while
    /// the view is alive panics, so a kernel must not hold a view of a
    /// buffer it writes.
    pub fn host_view(&self) -> Ref<'_, [T]> {
        Ref::map(self.inner.data.borrow(), Vec::as_slice)
    }

    /// Overwrites the elements from `start` on with `src` (no traffic
    /// accounting): one mutation, so one [`Self::contents_version`] bump.
    pub fn write_range(&self, start: usize, src: &[T]) {
        self.write_with(|d| d[start..start + src.len()].copy_from_slice(src));
    }

    /// Runs `f` on the device contents in place (no traffic accounting):
    /// one mutation, so one [`Self::contents_version`] bump, like
    /// [`Self::write_range`] but without a staging copy.
    pub fn write_with<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> R {
        let r = f(&mut self.inner.data.borrow_mut());
        self.inner.bump_version();
        r
    }

    /// Host-side element read (no traffic accounting; use [`crate::Lane`]
    /// inside kernels).
    pub fn get(&self, idx: usize) -> T {
        self.inner.data.borrow()[idx]
    }

    /// Host-side element write (no traffic accounting).
    pub fn set(&self, idx: usize, v: T) {
        self.inner.data.borrow_mut()[idx] = v;
        self.inner.bump_version();
    }

    /// Overwrites device contents from a host slice (like `cudaMemcpy` in;
    /// PCI-E transfer is outside the paper's scope and is not timed).
    pub fn upload(&self, host: &[T]) {
        let mut d = self.inner.data.borrow_mut();
        assert!(host.len() <= d.len(), "upload larger than buffer");
        d[..host.len()].copy_from_slice(host);
        drop(d);
        self.inner.bump_version();
    }

    /// Monotone counter of content mutations: any path that can change
    /// this buffer's elements — host `set`/`upload`, a kernel lane's
    /// global write, an ECC corruption, a mapped view returning its
    /// storage — bumps it. Two reads observing the same version are
    /// guaranteed to have seen identical contents.
    pub fn contents_version(&self) -> u64 {
        self.inner.version.get()
    }

    /// Attaches a derived structure (an index, a summary, …) to this
    /// buffer, valid for the current [`Self::contents_version`]. Any
    /// later mutation invalidates it: [`Self::aux`] returns `None` once
    /// the version has moved on. One slot per buffer — attaching
    /// replaces whatever was cached before.
    pub fn attach_aux<A: 'static>(&self, value: A) {
        *self.inner.aux.borrow_mut() =
            Some((self.inner.version.get(), Rc::new(value) as Rc<dyn Any>));
    }

    /// The cached derived structure of type `A`, if one was attached at
    /// the current contents version (stale or type-mismatched caches
    /// yield `None`).
    pub fn aux<A: 'static>(&self) -> Option<Rc<A>> {
        let slot = self.inner.aux.borrow();
        let (ver, value) = slot.as_ref()?;
        if *ver != self.inner.version.get() {
            return None;
        }
        value.clone().downcast::<A>().ok()
    }

    /// Simulated device address of element 0.
    pub fn base_addr(&self) -> u64 {
        self.inner.base_addr
    }

    /// Opts this buffer in to ECC-corruption injection under the
    /// device's fault plan (see [`crate::fault`]). When a corruption
    /// fault fires, one element of one live tagged buffer is overwritten
    /// with `T::default()` and a [`crate::FaultEvent`] carrying `label`
    /// is recorded — callers watch the event log for their labels and
    /// re-derive anything that was hit. Untagged buffers are never
    /// corrupted. The tag lives as long as the buffer; dropping every
    /// clone retires it.
    pub fn tag_ecc(&self, label: impl Into<String>) {
        let alive = Rc::downgrade(&self.inner);
        let corrupt = Rc::downgrade(&self.inner);
        self.inner.dev.register_ecc_target(EccTarget {
            label: label.into(),
            alive: Box::new(move || alive.upgrade().is_some()),
            corrupt: Box::new(move |word| {
                let inner = corrupt.upgrade()?;
                let mut data = inner.data.borrow_mut();
                if data.is_empty() {
                    return None;
                }
                let idx = (word as usize) % data.len();
                data[idx] = T::default();
                drop(data);
                inner.bump_version();
                Some(idx)
            }),
        });
    }

    /// One-line allocation description used by sanitizer diagnostics to
    /// attribute global-memory findings (element type, length, address).
    pub fn describe(&self) -> String {
        format!(
            "GpuBuffer<{}> len={} base=0x{:x}",
            std::any::type_name::<T>(),
            self.len(),
            self.inner.base_addr
        )
    }

    /// Size of one element in bytes.
    pub fn elem_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }

    /// Reinterprets this buffer's device storage as the wrapper type `U`
    /// **in place in the simulated address space**: no new device
    /// allocation, no accounted traffic, same simulated address range.
    /// The storage moves into the returned view; it moves back (with any
    /// writes the view received) when the [`MappedBuffer`] is dropped.
    /// Until then this buffer reads as empty.
    ///
    /// This is how smallest-k reuses the largest-k kernels: a buffer of
    /// `T` is viewed as the order-reversing wrapper without a device
    /// round-trip. (The host-side `Vec` is converted element-wise via
    /// [`TransparentWrapper::wrap`] — invisible to the device model,
    /// which sees the same addresses and zero extra bytes.)
    pub fn map_view<U: TransparentWrapper<T>>(&self) -> MappedBuffer<T, U> {
        let data = std::mem::take(&mut *self.inner.data.borrow_mut());
        self.inner.bump_version();
        let view = GpuBuffer {
            inner: Rc::new(BufferInner {
                data: RefCell::new(data.into_iter().map(U::wrap).collect()),
                base_addr: self.inner.base_addr,
                // the storage is the source buffer's; the view itself
                // owns no device bytes
                bytes: 0,
                dev: Rc::clone(&self.inner.dev),
                version: Cell::new(0),
                aux: RefCell::new(None),
            }),
        };
        MappedBuffer {
            view,
            source: self.clone(),
        }
    }
}

/// Contract for in-place buffer reinterpretation in the simulated
/// address space.
///
/// A type `U` implementing `TransparentWrapper<T>` is a value-identical
/// wrapper around `T` (same device footprint): `wrap` and `peel` are
/// exact inverses, so a device buffer of `T` can be viewed as a buffer
/// of `U` — and restored — without changing its simulated address range
/// or allocation accounting (see [`GpuBuffer::map_view`]).
///
/// The canonical implementor is `datagen::item::Rev<T>`, the
/// order-reversing wrapper that turns largest-k kernels into smallest-k.
pub trait TransparentWrapper<T: DeviceCopy>: DeviceCopy {
    /// Wraps one underlying element.
    fn wrap(inner: T) -> Self;
    /// Recovers the underlying element (exact inverse of `wrap`).
    fn peel(self) -> T;
}

/// An in-place reinterpretation of a [`GpuBuffer`]'s storage, created by
/// [`GpuBuffer::map_view`]. Dropping it returns the storage to the
/// source buffer.
pub struct MappedBuffer<T: DeviceCopy, U: TransparentWrapper<T>> {
    view: GpuBuffer<U>,
    source: GpuBuffer<T>,
}

impl<T: DeviceCopy, U: TransparentWrapper<T>> MappedBuffer<T, U> {
    /// The buffer viewed as elements of `U`. Kernels launched on the view
    /// read and write the source buffer's storage.
    pub fn view(&self) -> &GpuBuffer<U> {
        &self.view
    }
}

impl<T: DeviceCopy, U: TransparentWrapper<T>> Drop for MappedBuffer<T, U> {
    fn drop(&mut self) {
        let data = std::mem::take(&mut *self.view.inner.data.borrow_mut());
        *self.source.inner.data.borrow_mut() = data.into_iter().map(U::peel).collect();
        self.source.inner.bump_version();
    }
}

impl<T: DeviceCopy + std::fmt::Debug> std::fmt::Debug for GpuBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GpuBuffer<{}>(len={}, base=0x{:x})",
            std::any::type_name::<T>(),
            self.len(),
            self.inner.base_addr
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    struct Wrapped(u32);

    impl super::TransparentWrapper<u32> for Wrapped {
        fn wrap(inner: u32) -> Self {
            Wrapped(inner)
        }
        fn peel(self) -> u32 {
            self.0
        }
    }

    #[test]
    fn map_view_sees_wrapped_elements() {
        let dev = Device::titan_x();
        let buf = dev.upload(&[10u32, 20, 30]);
        let base = buf.base_addr();
        {
            let mapped = buf.map_view::<Wrapped>();
            assert_eq!(mapped.view().base_addr(), base);
            assert_eq!(
                mapped.view().to_vec(),
                vec![Wrapped(10), Wrapped(20), Wrapped(30)]
            );
        }
        assert_eq!(buf.to_vec(), vec![10u32, 20, 30]);
    }

    #[test]
    fn map_view_is_in_place_and_restores() {
        let dev = Device::titan_x();
        let buf = dev.upload(&[1u32, 2, 3, 4]);
        let bytes_before = dev.memory_allocated();
        let base = buf.base_addr();
        {
            let mapped = buf.map_view::<Wrapped>();
            // no new device allocation, same address range
            assert_eq!(dev.memory_allocated(), bytes_before);
            assert_eq!(mapped.view().base_addr(), base);
            assert_eq!(mapped.view().get(2), Wrapped(3));
            mapped.view().set(0, Wrapped(99));
            // storage has moved into the view
            assert!(buf.is_empty());
        }
        // drop restored the storage, including the view's write
        assert_eq!(buf.to_vec(), vec![99u32, 2, 3, 4]);
        assert_eq!(dev.memory_allocated(), bytes_before);
    }

    #[test]
    fn version_tracks_every_mutation_path() {
        let dev = Device::titan_x();
        let buf = dev.upload(&[1u32, 2, 3]);
        let v0 = buf.contents_version();
        buf.set(1, 9);
        assert!(buf.contents_version() > v0, "set must bump");
        let v1 = buf.contents_version();
        buf.upload(&[4, 5]);
        assert!(buf.contents_version() > v1, "upload must bump");
        let v2 = buf.contents_version();
        {
            let _mapped = buf.map_view::<Wrapped>();
            assert!(buf.contents_version() > v2, "map_view takes the storage");
        }
        assert!(
            buf.contents_version() > v2,
            "the view restoring storage must bump again"
        );
        // reads never bump
        let v3 = buf.contents_version();
        let _ = buf.to_vec();
        let _ = buf.get(0);
        let _ = buf.read_range(0..2);
        assert_eq!(&buf.host_view()[1..3], &[5, 3]);
        assert_eq!(buf.contents_version(), v3);
        buf.write_range(1, &[8, 9]);
        assert_eq!(buf.to_vec(), vec![4, 8, 9]);
        assert_eq!(buf.contents_version(), v3 + 1, "a range write bumps once");
    }

    #[test]
    fn host_view_borrows_and_write_with_bumps_once() {
        let dev = Device::titan_x();
        let buf = dev.upload(&[1u32, 2, 3, 4]);
        buf.attach_aux(10u32);
        let v0 = buf.contents_version();
        {
            let view = buf.host_view();
            assert_eq!(&view[1..3], &[2, 3]);
            // any number of views may be alive at once
            assert_eq!(buf.host_view().len(), view.len());
        }
        assert_eq!(buf.contents_version(), v0, "a view is a read");
        assert!(buf.aux::<u32>().is_some(), "a view keeps the aux valid");
        let sum = buf.write_with(|d| {
            d[0] = 7;
            d[3] = 8;
            d.iter().sum::<u32>()
        });
        assert_eq!(sum, 20);
        assert_eq!(buf.to_vec(), vec![7, 2, 3, 8]);
        assert_eq!(
            buf.contents_version(),
            v0 + 1,
            "one in-place write, one bump"
        );
        assert!(
            buf.aux::<u32>().is_none(),
            "an in-place write invalidates the aux"
        );
    }

    #[test]
    #[should_panic]
    fn writing_a_buffer_while_viewing_it_panics() {
        let dev = Device::titan_x();
        let buf = dev.upload(&[1u32, 2]);
        let view = buf.host_view();
        buf.write_range(0, &view[1..]);
    }

    #[test]
    fn aux_cache_survives_reads_and_dies_on_writes() {
        #[derive(Debug, PartialEq)]
        struct Summary(u32);

        let dev = Device::titan_x();
        let buf = dev.upload(&[7u32, 8, 9]);
        assert!(buf.aux::<Summary>().is_none(), "nothing attached yet");
        buf.attach_aux(Summary(24));
        assert_eq!(*buf.aux::<Summary>().unwrap(), Summary(24));
        let _ = buf.to_vec(); // reads keep the cache valid
        assert!(buf.aux::<Summary>().is_some());
        // wrong type: miss without disturbing the slot
        assert!(buf.aux::<String>().is_none());
        assert!(buf.aux::<Summary>().is_some());
        buf.set(0, 0); // any write invalidates
        assert!(buf.aux::<Summary>().is_none(), "stale cache must not leak");
        // re-attach at the new version
        buf.attach_aux(Summary(1));
        assert_eq!(*buf.aux::<Summary>().unwrap(), Summary(1));
        buf.upload(&[1, 2, 3]);
        assert!(buf.aux::<Summary>().is_none());
    }

    #[test]
    fn kernel_global_writes_invalidate_aux() {
        use crate::device::Kernel;
        use crate::BlockCtx;

        struct Bump(crate::GpuBuffer<u32>);
        impl Kernel for Bump {
            fn name(&self) -> &'static str {
                "bump"
            }
            fn block_dim(&self) -> usize {
                1
            }
            fn grid_dim(&self) -> usize {
                1
            }
            fn run_block(&self, blk: &mut BlockCtx) {
                blk.step(|lane| {
                    let x = lane.gread(&self.0, 0);
                    lane.gwrite(&self.0, 0, x + 1);
                });
            }
        }

        let dev = Device::titan_x();
        let buf = dev.upload(&[5u32; 4]);
        buf.attach_aux(41u32);
        dev.launch(&Bump(buf.clone())).unwrap();
        assert_eq!(buf.get(0), 6);
        assert!(
            buf.aux::<u32>().is_none(),
            "a kernel's global write must invalidate the cache"
        );
    }
}
