//! Read-only file memory-mapping for zero-copy snapshot serving.
//!
//! Mirrors the `obf_server::sys` approach: the two syscalls we need —
//! `mmap(2)` and `munmap(2)` — are declared directly against the C ABI
//! instead of pulling in a `libc` dependency, with the handful of flag
//! constants written out numerically (they are identical on every
//! platform this repo targets; see the per-constant notes).
//!
//! [`MmapFile`] maps a whole file `PROT_READ`/`MAP_PRIVATE` and hands
//! out its bytes as a `&[u8]` for the lifetime of the value. Sharing it
//! across threads (`Send + Sync`) is sound because a served file is
//! replaced only by rename, never rewritten in place (see the safety
//! note on the impls). The underlying descriptor is closed immediately
//! after the map is established — a POSIX mapping outlives its fd.
//!
//! On non-Unix targets [`MmapFile::open`] returns
//! `Err(ErrorKind::Unsupported)`; callers (the snapshot v3 loader) fall
//! back to the heap decode path. See `docs/FORMATS.md` § "Snapshot v3"
//! for why the on-disk layout makes the zero-copy view possible.

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    /// `PROT_READ` — value 1 on Linux, macOS and the BSDs.
    pub const PROT_READ: i32 = 1;
    /// `MAP_PRIVATE` — value 2 on Linux, macOS and the BSDs.
    pub const MAP_PRIVATE: i32 = 2;
    /// `mmap` failure sentinel (`(void *) -1`).
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        /// `void *mmap(void *addr, size_t len, int prot, int flags, int fd, off_t off)`
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        /// `int munmap(void *addr, size_t len)`
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A whole file mapped read-only into the address space.
pub struct MmapFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: PROT_READ, so no thread writes through the mapping. MAP_PRIVATE
// pages still show outside writes to the file, so this rests on a contract:
// a served file is replaced only by rename (`save_snapshot`, which
// `snapshot_convert` calls), never rewritten in place (docs/OPERATIONS.md
// §3). The mapped bytes then never change while the value lives.
unsafe impl Send for MmapFile {}
unsafe impl Sync for MmapFile {}

impl MmapFile {
    /// Maps `path` read-only. Fails with `ErrorKind::Unsupported` on
    /// targets without `mmap(2)` and with `ErrorKind::InvalidInput` for
    /// an empty file (POSIX forbids zero-length mappings).
    #[cfg(unix)]
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;

        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot mmap an empty file",
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "file larger than the address space",
            )
        })?;
        // SAFETY: fd is a valid open descriptor for the whole call; a
        // NULL addr asks the kernel to pick a (page-aligned) address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        // The fd can be closed now (dropping `file`): the mapping holds
        // its own reference to the file pages.
        Ok(Self {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Stub for targets without `mmap(2)`.
    #[cfg(not(unix))]
    pub fn open<P: AsRef<std::path::Path>>(_path: P) -> std::io::Result<Self> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "mmap is not available on this target",
        ))
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping established
        // in `open` and torn down only in `drop`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mapping length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful open).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: exactly the region returned by mmap in `open`.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

impl std::fmt::Debug for MmapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapFile")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents_and_page_alignment() {
        let dir = std::env::temp_dir().join("obfugraph_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MmapFile::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        // The kernel returns page-aligned addresses: the layout contract
        // (4096-aligned sections => aligned slices) depends on this.
        assert_eq!(map.bytes().as_ptr() as usize % 4096, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_files_fail() {
        let dir = std::env::temp_dir().join("obfugraph_mmap_test_err");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert!(MmapFile::open(&path).is_err());
        assert!(MmapFile::open(dir.join("does_not_exist")).is_err());
        std::fs::remove_file(&path).ok();
    }
}
