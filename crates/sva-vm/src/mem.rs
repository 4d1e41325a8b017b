//! The SVM's simulated physical/virtual memory.
//!
//! Layout (one virtual machine):
//!
//! ```text
//! 0x0000_0000 .. 0x0001_0000   null + guard pages (never mapped)
//! 0x0001_0000 .. 0x0005_0000   userspace (per address space, 256 KiB)
//! 0x1000_0000 .. 0x1200_0000   kernel memory (globals, kernel stack, heap)
//! 0x8000_0000 .. …             function "addresses" (16 bytes apart)
//! 0x9000_0000 .. …             external function addresses (trap on call)
//! ```
//!
//! Userspace is instantiated per *address space* (asid); the kernel switches
//! spaces with `sva.mmu.load.space` (the CR3 write of a ported kernel) and
//! copies pages with `sva.mmu.copy.page` (fork). The SVM mediates all of
//! this (paper §3.4): the kernel never touches page tables directly.
//!
//! The kernel region is 32 MiB, but a booted guest writes only a few dozen
//! of its pages. `Memory` keeps a touched-page bitmap over it, one bit per
//! 4 KiB page, with one invariant: **every nonzero kernel page has its bit
//! set**. Every kernel store goes through `slice_mut`, which marks the pages
//! it covers; loads leave the bitmap alone. Cloning (`Vm::fork_for_cpu`)
//! and snapshot capture visit only the marked pages, so both cost what the
//! guest used rather than the whole region. A marked page may still be all
//! zero (the guest can write zeros back); the bitmap over-approximates and
//! never under-approximates.

use crate::VmError;

/// Base of the user region within every address space.
pub const USER_BASE: u64 = 0x0001_0000;
/// Size of each user address space.
pub const USER_SIZE: u64 = 0x0004_0000; // 256 KiB
/// End (exclusive) of the user region.
pub const USER_END: u64 = USER_BASE + USER_SIZE;
/// Base of kernel memory.
pub const KERN_BASE: u64 = 0x1000_0000;
/// Size of kernel memory.
pub const KERN_SIZE: u64 = 0x0200_0000; // 32 MiB
/// End (exclusive) of kernel memory.
pub const KERN_END: u64 = KERN_BASE + KERN_SIZE;
/// Base of the fixed kernel stack area (inside kernel memory).
pub const KSTACK_BASE: u64 = KERN_BASE + 0x0010_0000;
/// Size of the kernel stack.
pub const KSTACK_SIZE: u64 = 0x0002_0000; // 128 KiB
/// End of the kernel stack area.
pub const KSTACK_END: u64 = KSTACK_BASE + KSTACK_SIZE;
/// Base of the kernel heap (managed by the guest kernel's allocators).
pub const KHEAP_BASE: u64 = KERN_BASE + 0x0020_0000;
/// End of the kernel heap.
pub const KHEAP_END: u64 = KERN_END;
/// Virtual page size.
pub const PAGE_SIZE: u64 = 4096;
/// Pages in the kernel region (one touched-bitmap bit each).
const KERN_PAGES: usize = (KERN_SIZE / PAGE_SIZE) as usize;
/// Base of function addresses.
pub const FUNC_BASE: u64 = 0x8000_0000;
/// Stride between function addresses.
pub const FUNC_STRIDE: u64 = 16;
/// Base of external-function addresses.
pub const EXTERN_BASE: u64 = 0x9000_0000;

/// Address of a defined function.
pub fn func_addr(fid: u32) -> u64 {
    FUNC_BASE + fid as u64 * FUNC_STRIDE
}

/// Function id behind an address, if it is a function address.
pub fn addr_func(addr: u64) -> Option<u32> {
    if (FUNC_BASE..EXTERN_BASE).contains(&addr) && (addr - FUNC_BASE).is_multiple_of(FUNC_STRIDE) {
        Some(((addr - FUNC_BASE) / FUNC_STRIDE) as u32)
    } else {
        None
    }
}

/// Address of an external function.
pub fn extern_addr(eid: u32) -> u64 {
    EXTERN_BASE + eid as u64 * FUNC_STRIDE
}

/// One user address space.
#[derive(Clone, Debug)]
pub struct UserSpace {
    /// Backing bytes for `[USER_BASE, USER_END)`.
    pub data: Vec<u8>,
    /// Live flag (freed spaces are kept as tombstones).
    pub live: bool,
}

/// Execution privilege.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Kernel (privileged) mode.
    Kernel,
    /// User mode.
    User,
}

/// The simulated memory: kernel region plus per-asid user spaces.
#[derive(Debug)]
pub struct Memory {
    kernel: Vec<u8>,
    /// Touched-page bitmap of `kernel`, bit `p` for page `p` (module docs).
    /// Boxed: inline, its 1 KiB pushed every later `Vm` field 1 KiB
    /// further out, which slowed the interpreter by ~10% on bulk copies.
    touched: Box<[u64; KERN_PAGES / 64]>,
    spaces: Vec<UserSpace>,
    /// Currently loaded address space.
    pub current_asid: u32,
}

impl Memory {
    /// Creates memory with one initial address space (asid 0).
    pub fn new() -> Self {
        Memory {
            kernel: vec![0; KERN_SIZE as usize],
            touched: Box::new([0; KERN_PAGES / 64]),
            spaces: vec![UserSpace {
                data: vec![0; USER_SIZE as usize],
                live: true,
            }],
            current_asid: 0,
        }
    }

    /// Creates a new user address space, returning its asid.
    pub fn new_space(&mut self) -> u32 {
        let id = self.spaces.len() as u32;
        self.spaces.push(UserSpace {
            data: vec![0; USER_SIZE as usize],
            live: true,
        });
        id
    }

    /// Switches the current address space.
    pub fn load_space(&mut self, asid: u32) -> Result<(), VmError> {
        match self.spaces.get(asid as usize) {
            Some(s) if s.live => {
                self.current_asid = asid;
                Ok(())
            }
            _ => Err(VmError::BadAsid(asid)),
        }
    }

    /// Frees an address space (exit). The current space cannot be freed.
    pub fn free_space(&mut self, asid: u32) -> Result<(), VmError> {
        if asid == self.current_asid {
            return Err(VmError::BadAsid(asid));
        }
        match self.spaces.get_mut(asid as usize) {
            Some(s) if s.live => {
                s.live = false;
                s.data = Vec::new();
                Ok(())
            }
            _ => Err(VmError::BadAsid(asid)),
        }
    }

    /// Copies one page of the *current* space into `dst_asid` (fork).
    pub fn copy_page(&mut self, dst_asid: u32, vaddr: u64) -> Result<(), VmError> {
        if !(USER_BASE..USER_END).contains(&vaddr) {
            return Err(VmError::Fault {
                addr: vaddr,
                len: PAGE_SIZE,
            });
        }
        let page_off = ((vaddr - USER_BASE) / PAGE_SIZE * PAGE_SIZE) as usize;
        if dst_asid as usize >= self.spaces.len()
            || !self.spaces[dst_asid as usize].live
            || dst_asid == self.current_asid
        {
            return Err(VmError::BadAsid(dst_asid));
        }
        let cur = self.current_asid as usize;
        let (a, b) = if cur < dst_asid as usize {
            let (lo, hi) = self.spaces.split_at_mut(dst_asid as usize);
            (&lo[cur], &mut hi[0])
        } else {
            let (lo, hi) = self.spaces.split_at_mut(cur);
            (&hi[0], &mut lo[dst_asid as usize])
        };
        b.data[page_off..page_off + PAGE_SIZE as usize]
            .copy_from_slice(&a.data[page_off..page_off + PAGE_SIZE as usize]);
        Ok(())
    }

    /// Number of live address spaces.
    pub fn live_spaces(&self) -> usize {
        self.spaces.iter().filter(|s| s.live).count()
    }

    /// Raw kernel-region bytes (machine snapshots).
    pub(crate) fn kernel_bytes(&self) -> &[u8] {
        &self.kernel
    }

    /// Indices of the marked kernel pages, ascending. Every nonzero
    /// kernel page is among them (module docs).
    pub(crate) fn touched_kernel_pages(&self) -> impl Iterator<Item = usize> + '_ {
        (0..KERN_PAGES).filter(|&p| self.touched[p / 64] & (1 << (p % 64)) != 0)
    }

    /// Marks the pages of kernel bytes `[off, off + len)`, `len > 0`.
    #[inline]
    fn mark_kernel(&mut self, off: usize, len: usize) {
        let page = PAGE_SIZE as usize;
        for p in off / page..(off + len - 1) / page + 1 {
            // `p < KERN_PAGES`; the mask only spares the bounds check.
            self.touched[p / 64 % (KERN_PAGES / 64)] |= 1 << (p % 64);
        }
    }

    /// Replaces the kernel region wholesale (snapshot restore) and marks
    /// exactly `pages`, the pages the image carries: its other pages are
    /// zero. Swapping in a freshly calloc-ed buffer is much cheaper than
    /// zeroing the old one in place: the 32 MiB region is zero-page-backed
    /// until touched, so a restore costs only the image's nonzero pages.
    pub(crate) fn set_kernel(&mut self, kernel: Vec<u8>, pages: impl IntoIterator<Item = usize>) {
        debug_assert_eq!(kernel.len(), self.kernel.len());
        self.kernel = kernel;
        self.touched.fill(0);
        let page = PAGE_SIZE as usize;
        for p in pages {
            self.mark_kernel(p * page, page);
        }
    }

    /// All address spaces including tombstones (machine snapshots).
    pub(crate) fn all_spaces(&self) -> &[UserSpace] {
        &self.spaces
    }

    /// Replaces the address-space table wholesale (snapshot restore).
    pub(crate) fn set_spaces(&mut self, spaces: Vec<UserSpace>) {
        self.spaces = spaces;
    }

    fn slice(&self, addr: u64, len: u64, mode: Mode) -> Result<&[u8], VmError> {
        if len == 0 {
            return Ok(&[]);
        }
        if addr >= USER_BASE && addr + len <= USER_END {
            let s = &self.spaces[self.current_asid as usize];
            let off = (addr - USER_BASE) as usize;
            return Ok(&s.data[off..off + len as usize]);
        }
        if addr >= KERN_BASE && addr + len <= KERN_END {
            if mode == Mode::User {
                return Err(VmError::Privilege { addr });
            }
            let off = (addr - KERN_BASE) as usize;
            return Ok(&self.kernel[off..off + len as usize]);
        }
        Err(VmError::Fault { addr, len })
    }

    fn slice_mut(&mut self, addr: u64, len: u64, mode: Mode) -> Result<&mut [u8], VmError> {
        if len == 0 {
            return Ok(&mut []);
        }
        if addr >= USER_BASE && addr + len <= USER_END {
            let s = &mut self.spaces[self.current_asid as usize];
            let off = (addr - USER_BASE) as usize;
            return Ok(&mut s.data[off..off + len as usize]);
        }
        if addr >= KERN_BASE && addr + len <= KERN_END {
            if mode == Mode::User {
                return Err(VmError::Privilege { addr });
            }
            let off = (addr - KERN_BASE) as usize;
            self.mark_kernel(off, len as usize);
            return Ok(&mut self.kernel[off..off + len as usize]);
        }
        Err(VmError::Fault { addr, len })
    }

    /// Reads an unsigned little-endian integer of `width` bytes.
    pub fn read_uint(&self, addr: u64, width: u64, mode: Mode) -> Result<u64, VmError> {
        let s = self.slice(addr, width, mode)?;
        let mut b = [0u8; 8];
        b[..width as usize].copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Writes the low `width` bytes of `v`, little-endian.
    pub fn write_uint(&mut self, addr: u64, width: u64, v: u64, mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, width, mode)?;
        s.copy_from_slice(&v.to_le_bytes()[..width as usize]);
        Ok(())
    }

    /// Reads `len` bytes.
    pub fn read_bytes(&self, addr: u64, len: u64, mode: Mode) -> Result<Vec<u8>, VmError> {
        Ok(self.slice(addr, len, mode)?.to_vec())
    }

    /// Writes a byte slice.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8], mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, data.len() as u64, mode)?;
        s.copy_from_slice(data);
        Ok(())
    }

    /// `memset`.
    pub fn set_bytes(&mut self, addr: u64, byte: u8, len: u64, mode: Mode) -> Result<(), VmError> {
        let s = self.slice_mut(addr, len, mode)?;
        s.fill(byte);
        Ok(())
    }

    /// `memcpy`/`memmove` (overlap-safe; may cross the user/kernel boundary
    /// in kernel mode, which is how `copy_{to,from}_user` bottom out).
    pub fn copy_bytes(&mut self, dst: u64, src: u64, len: u64, mode: Mode) -> Result<(), VmError> {
        if len == 0 {
            return Ok(());
        }
        let data = self.slice(src, len, mode)?.to_vec();
        let d = self.slice_mut(dst, len, mode)?;
        d.copy_from_slice(&data);
        Ok(())
    }
}

/// A fork: a fresh calloc-ed kernel region with only the marked pages
/// copied in, so the clone costs the pages the guest wrote, not 32 MiB.
impl Clone for Memory {
    fn clone(&self) -> Self {
        let mut kernel = vec![0; KERN_SIZE as usize];
        let page = PAGE_SIZE as usize;
        for p in self.touched_kernel_pages() {
            let r = p * page..(p + 1) * page;
            kernel[r.clone()].copy_from_slice(&self.kernel[r]);
        }
        Memory {
            kernel,
            touched: self.touched.clone(),
            spaces: self.spaces.clone(),
            current_asid: self.current_asid,
        }
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_rw_round_trip() {
        let mut m = Memory::new();
        m.write_uint(KERN_BASE + 0x100, 8, 0xdead_beef_cafe_f00d, Mode::Kernel)
            .unwrap();
        assert_eq!(
            m.read_uint(KERN_BASE + 0x100, 8, Mode::Kernel).unwrap(),
            0xdead_beef_cafe_f00d
        );
        // Narrow widths.
        m.write_uint(KERN_BASE + 0x200, 2, 0xABCD, Mode::Kernel)
            .unwrap();
        assert_eq!(
            m.read_uint(KERN_BASE + 0x200, 2, Mode::Kernel).unwrap(),
            0xABCD
        );
        assert_eq!(
            m.read_uint(KERN_BASE + 0x200, 1, Mode::Kernel).unwrap(),
            0xCD
        );
    }

    #[test]
    fn user_mode_cannot_touch_kernel() {
        let mut m = Memory::new();
        let err = m.read_uint(KERN_BASE, 8, Mode::User).unwrap_err();
        assert!(matches!(err, VmError::Privilege { .. }));
        let err = m.write_uint(KERN_BASE, 8, 1, Mode::User).unwrap_err();
        assert!(matches!(err, VmError::Privilege { .. }));
    }

    #[test]
    fn null_and_wild_addresses_fault() {
        let m = Memory::new();
        assert!(matches!(
            m.read_uint(0, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
        assert!(matches!(
            m.read_uint(0x8, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
        assert!(matches!(
            m.read_uint(KERN_END, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
        // Straddling the user/guard boundary faults.
        assert!(matches!(
            m.read_uint(USER_END - 4, 8, Mode::Kernel),
            Err(VmError::Fault { .. })
        ));
    }

    #[test]
    fn spaces_are_isolated() {
        let mut m = Memory::new();
        m.write_uint(USER_BASE, 8, 111, Mode::User).unwrap();
        let a1 = m.new_space();
        m.load_space(a1).unwrap();
        assert_eq!(m.read_uint(USER_BASE, 8, Mode::User).unwrap(), 0);
        m.write_uint(USER_BASE, 8, 222, Mode::User).unwrap();
        m.load_space(0).unwrap();
        assert_eq!(m.read_uint(USER_BASE, 8, Mode::User).unwrap(), 111);
    }

    #[test]
    fn copy_page_clones_fork_style() {
        let mut m = Memory::new();
        m.write_uint(USER_BASE + 8, 8, 777, Mode::User).unwrap();
        let child = m.new_space();
        m.copy_page(child, USER_BASE).unwrap();
        m.load_space(child).unwrap();
        assert_eq!(m.read_uint(USER_BASE + 8, 8, Mode::User).unwrap(), 777);
        // Copy-on-write is not modelled: writes in the child stay local.
        m.write_uint(USER_BASE + 8, 8, 888, Mode::User).unwrap();
        m.load_space(0).unwrap();
        assert_eq!(m.read_uint(USER_BASE + 8, 8, Mode::User).unwrap(), 777);
    }

    #[test]
    fn free_space_rules() {
        let mut m = Memory::new();
        let a1 = m.new_space();
        assert!(m.free_space(m.current_asid).is_err());
        m.free_space(a1).unwrap();
        assert!(m.load_space(a1).is_err());
        assert_eq!(m.live_spaces(), 1);
    }

    #[test]
    fn func_addr_round_trip() {
        assert_eq!(addr_func(func_addr(0)), Some(0));
        assert_eq!(addr_func(func_addr(42)), Some(42));
        assert_eq!(addr_func(func_addr(42) + 1), None);
        assert_eq!(addr_func(0x1234), None);
        assert_eq!(addr_func(extern_addr(0)), None);
    }

    #[test]
    fn cross_space_copy_kernel_mode() {
        let mut m = Memory::new();
        // Kernel copies user → kernel (copy_from_user bottom half).
        m.write_bytes(USER_BASE, b"hello", Mode::User).unwrap();
        m.copy_bytes(KERN_BASE + 0x1000, USER_BASE, 5, Mode::Kernel)
            .unwrap();
        assert_eq!(
            m.read_bytes(KERN_BASE + 0x1000, 5, Mode::Kernel).unwrap(),
            b"hello"
        );
    }

    #[test]
    fn copy_page_rejects_bad_targets() {
        let mut m = Memory::new();
        // Unknown destination space.
        assert!(m.copy_page(99, USER_BASE).is_err());
        // Page outside the user range.
        let child = m.new_space();
        assert!(m.copy_page(child, KERN_BASE).is_err());
    }

    #[test]
    fn set_bytes_fills_and_respects_bounds() {
        let mut m = Memory::new();
        m.set_bytes(USER_BASE + 16, 0xAA, 8, Mode::User).unwrap();
        assert_eq!(
            m.read_bytes(USER_BASE + 16, 8, Mode::User).unwrap(),
            vec![0xAA; 8]
        );
        // A fill that runs off the end of user space must fault, not wrap.
        assert!(m.set_bytes(USER_END - 4, 0xAA, 8, Mode::User).is_err());
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut m = Memory::new();
        assert_eq!(m.read_bytes(USER_BASE, 0, Mode::User).unwrap(), vec![]);
        m.write_bytes(USER_BASE, &[], Mode::User).unwrap();
        m.copy_bytes(USER_BASE, USER_BASE + 64, 0, Mode::User)
            .unwrap();
        m.set_bytes(USER_BASE, 0, 0, Mode::User).unwrap();
    }

    #[test]
    fn overlapping_copy_is_memmove_like() {
        let mut m = Memory::new();
        m.write_bytes(USER_BASE, b"abcdef", Mode::User).unwrap();
        // Overlapping forward copy: [0..4) -> [2..6).
        m.copy_bytes(USER_BASE + 2, USER_BASE, 4, Mode::User)
            .unwrap();
        assert_eq!(
            m.read_bytes(USER_BASE, 6, Mode::User).unwrap(),
            b"ababcd",
            "overlapping copies must behave like memmove"
        );
    }

    #[test]
    fn fresh_spaces_come_up_zeroed() {
        let mut m = Memory::new();
        let a1 = m.new_space();
        m.load_space(a1).unwrap();
        m.write_uint(USER_BASE, 8, 42, Mode::User).unwrap();
        m.load_space(0).unwrap();
        m.free_space(a1).unwrap();
        // A new space must come up zeroed even if an id is reused.
        let a2 = m.new_space();
        m.load_space(a2).unwrap();
        assert_eq!(m.read_uint(USER_BASE, 8, Mode::User).unwrap(), 0);
    }

    /// Random kernel stores through every write entry point, many of them
    /// straddling page boundaries, confined to a 16-page window so the
    /// pages collide. Afterwards every nonzero kernel page is marked, and
    /// a clone (a fork) equals the original byte for byte.
    mod touched {
        use super::*;
        use proptest::prelude::*;

        const WINDOW: u64 = 16 * PAGE_SIZE;

        fn apply(m: &mut Memory, (op, off, len, v): (u8, u64, u64, u64)) {
            let addr = KERN_BASE + PAGE_SIZE + off;
            match op {
                0 => m.write_uint(addr, [1, 2, 4, 8][len as usize % 4], v, Mode::Kernel),
                1 => {
                    let data: Vec<u8> = (0..len).map(|i| (v >> (i % 8 * 8)) as u8).collect();
                    m.write_bytes(addr, &data, Mode::Kernel)
                }
                2 => m.set_bytes(addr, v as u8, len, Mode::Kernel),
                _ => m.copy_bytes(addr, KERN_BASE + PAGE_SIZE + v % WINDOW, len, Mode::Kernel),
            }
            .unwrap();
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn every_nonzero_kernel_page_is_marked_and_cloned(
                ops in prop::collection::vec((0u8..4, 0u64..WINDOW, 0u64..2 * PAGE_SIZE, any::<u64>()), 1..40),
            ) {
                let mut m = Memory::new();
                for &op in &ops {
                    apply(&mut m, op);
                }
                let marked: Vec<usize> = m.touched_kernel_pages().collect();
                let zero = [0u8; PAGE_SIZE as usize];
                for (p, bytes) in m.kernel_bytes().chunks(PAGE_SIZE as usize).enumerate() {
                    prop_assert!(
                        bytes == zero || marked.contains(&p),
                        "nonzero kernel page {p} is not marked (marked: {marked:?})"
                    );
                }
                let fork = m.clone();
                prop_assert!(fork.kernel_bytes() == m.kernel_bytes(), "clone differs");
                prop_assert_eq!(fork.touched_kernel_pages().collect::<Vec<_>>(), marked);
            }
        }
    }
}
