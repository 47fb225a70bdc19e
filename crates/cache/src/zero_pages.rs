//! Cache arrays on fresh anonymous zero pages.
//!
//! [`SetAssocCache`](crate::SetAssocCache)'s arrays are all zero at rest
//! (DESIGN.md §14), so a cache costs the pages its accesses touch and no
//! more — provided the zeros come from the kernel. `vec![0; n]` does not
//! promise that. It is a `calloc`, and freeing glibc's first large
//! `calloc` block raises its dynamic mmap threshold past the block's
//! size: later blocks of that size come from a malloc arena and go back
//! to it, and a block the arena hands out again is `memset`, all of it
//! resident before the first access. A process that builds one hierarchy
//! per measurement would pay the L3's 3.1 MiB of tags in full from its
//! third hierarchy on (`crates/cache/tests/fresh_pages.rs`).
//! [`ZeroPages`] asks the kernel directly: on Linux each array is its own
//! private anonymous mapping, unmapped on drop; elsewhere it is
//! `alloc_zeroed`.

use std::alloc::Layout;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Element types whose all-zero bit pattern is a value. Private to the
/// crate, so nothing else can claim it.
pub(crate) trait Zeroable: Copy {}
impl Zeroable for u64 {}

/// A fixed-length, zero-initialised array of `T` on pages of its own. It
/// derefs to `[T]` and owns its elements like a `Box<[T]>`.
pub(crate) struct ZeroPages<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: a `ZeroPages` owns its elements exclusively, as a `Box<[T]>`
// does, and hands out references to them only through `&self` / `&mut
// self`.
unsafe impl<T: Zeroable + Send> Send for ZeroPages<T> {}
// SAFETY: as above.
unsafe impl<T: Zeroable + Sync> Sync for ZeroPages<T> {}

impl<T: Zeroable> ZeroPages<T> {
    /// `len` zeros.
    pub(crate) fn new(len: usize) -> Self {
        let layout = Self::layout(len);
        let ptr = if layout.size() == 0 {
            NonNull::dangling()
        } else {
            os::map(layout).unwrap_or_else(|| std::alloc::handle_alloc_error(layout)).cast()
        };
        ZeroPages { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len).expect("a cache array fits the address space")
    }
}

impl<T: Zeroable> Drop for ZeroPages<T> {
    fn drop(&mut self) {
        let layout = Self::layout(self.len);
        if layout.size() != 0 {
            // SAFETY: `ptr` came from `os::map(layout)` for this very
            // layout and is released once, here.
            unsafe { os::unmap(self.ptr.cast(), layout) }
        }
    }
}

impl<T: Zeroable> Deref for ZeroPages<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is `len` initialised, aligned `T`s (zeros at
        // first; a page or `alloc_zeroed` block is aligned for any
        // integer) that this value owns, or dangling when `len · size_of
        // T` is zero.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for ZeroPages<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Clone for ZeroPages<T> {
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl<T: Zeroable + fmt::Debug> fmt::Debug for ZeroPages<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One private anonymous mapping per array. The constants are the
/// kernel ABI's values on the two architectures named in the `cfg`.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod os {
    use std::alloc::Layout;
    use std::ffi::c_void;
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;

    /// Fresh zero pages for `layout` (non-zero size), page-aligned.
    pub(super) fn map(layout: Layout) -> Option<NonNull<u8>> {
        let flags = MAP_PRIVATE | MAP_ANONYMOUS;
        // SAFETY: a new private anonymous mapping at an address of the
        // kernel's choosing aliases no memory of this process.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), layout.size(), PROT_READ | PROT_WRITE, flags, -1, 0)
        };
        // MAP_FAILED is `(void *) -1`.
        if ptr as isize == -1 {
            return None;
        }
        NonNull::new(ptr.cast())
    }

    /// Return the pages of a `map(layout)`.
    ///
    /// # Safety
    ///
    /// `ptr` is what `map(layout)` returned, not yet unmapped, and
    /// nothing refers into it any more.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: the caller's contract. `munmap` fails only on an
        // invalid range, which that contract rules out.
        unsafe { munmap(ptr.as_ptr().cast(), layout.size()) };
    }
}

/// Zeroed blocks from the global allocator.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod os {
    use std::alloc::Layout;
    use std::ptr::NonNull;

    /// A zeroed block for `layout` (non-zero size).
    pub(super) fn map(layout: Layout) -> Option<NonNull<u8>> {
        // SAFETY: `layout` has non-zero size.
        NonNull::new(unsafe { std::alloc::alloc_zeroed(layout) })
    }

    /// Free a `map(layout)`.
    ///
    /// # Safety
    ///
    /// `ptr` is what `map(layout)` returned, not yet freed, and nothing
    /// refers into it any more.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: the caller's contract.
        unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) }
    }
}
