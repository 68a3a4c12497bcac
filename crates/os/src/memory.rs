//! Page-granular address spaces with copy-on-write sharing.
//!
//! Shared libraries are, at bottom, a memory story: text pages shared
//! between every client, data pages copy-on-write. [`ImageFrames`] turns a
//! linked image into page frames once (the server's cache of "mappable
//! segments"); [`AddressSpace::map`] installs those frames into a task.
//! [`MemoryAccounting`] then measures exactly how much physical memory a
//! population of processes uses — the measurement behind the paper's
//! dispatch-table-vs-savings discussion (\[11\]).

use std::collections::HashMap;
use std::sync::Arc;

use omos_isa::{Memory, VmFault};
use omos_link::LinkedImage;

/// Page size in bytes (HP730: 4 KB).
pub const PAGE_SIZE: u32 = 4096;

/// One physical page frame.
#[derive(Debug)]
pub struct Frame(pub [u8; PAGE_SIZE as usize]);

impl Frame {
    /// An all-zero frame.
    #[must_use]
    pub fn zeroed() -> Frame {
        Frame([0; PAGE_SIZE as usize])
    }
}

/// The frame every demand-zero page reads through.
static ZERO_FRAME: Frame = Frame([0; PAGE_SIZE as usize]);

#[derive(Debug)]
enum Page {
    /// Shared with other address spaces (or with the image cache);
    /// writes trigger copy-on-write when `writable`.
    Shared(Arc<Frame>),
    /// Private to this address space.
    Private(Box<Frame>),
    /// A private page not yet written: reads see zeros, and the first
    /// store materializes its frame (a demand-zero fill, not a
    /// copy-on-write fault). Counted as private everywhere.
    Zero,
}

impl Page {
    fn bytes(&self) -> &[u8; PAGE_SIZE as usize] {
        match self {
            Page::Shared(f) => &f.0,
            Page::Private(f) => &f.0,
            Page::Zero => &ZERO_FRAME.0,
        }
    }

    /// The page's private frame for a store, materializing it first: a
    /// shared frame is copied (returns true: a copy-on-write fault), a
    /// demand-zero page gets a fresh zero frame.
    fn privatize(&mut self) -> (&mut [u8; PAGE_SIZE as usize], bool) {
        let cow = match self {
            Page::Shared(f) => {
                *self = Page::Private(Box::new(Frame(f.0)));
                true
            }
            Page::Zero => {
                *self = Page::Private(Box::new(Frame::zeroed()));
                false
            }
            Page::Private(_) => false,
        };
        match self {
            Page::Private(f) => (&mut f.0, cow),
            _ => unreachable!("privatized above"),
        }
    }
}

#[derive(Debug)]
struct PageEntry {
    page: Page,
    writable: bool,
}

/// A task's virtual address space.
#[derive(Debug, Default)]
pub struct AddressSpace {
    pages: HashMap<u32, PageEntry>,
    /// Copy-on-write faults taken so far.
    pub cow_faults: u64,
}

/// Work performed by a mapping operation, for the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapWork {
    /// Contiguous regions installed.
    pub regions: u64,
    /// Pages installed.
    pub pages: u64,
}

impl MapWork {
    /// Accumulates more work.
    pub fn absorb(&mut self, other: MapWork) {
        self.regions += other.regions;
        self.pages += other.pages;
    }
}

impl AddressSpace {
    /// Creates an empty space.
    #[must_use]
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Maps one segment of shared frames starting at page-aligned `vaddr`.
    ///
    /// Returns an error description if the range collides with an existing
    /// mapping or `vaddr` is not page aligned.
    pub fn map_segment(
        &mut self,
        vaddr: u32,
        frames: &[Arc<Frame>],
        writable: bool,
    ) -> Result<MapWork, String> {
        if !vaddr.is_multiple_of(PAGE_SIZE) {
            return Err(format!("segment base {vaddr:#x} not page aligned"));
        }
        let first = vaddr / PAGE_SIZE;
        for i in 0..frames.len() as u32 {
            if self.pages.contains_key(&(first + i)) {
                return Err(format!(
                    "mapping collision at {:#x}",
                    (first + i) * PAGE_SIZE
                ));
            }
        }
        for (i, f) in frames.iter().enumerate() {
            self.pages.insert(
                first + i as u32,
                PageEntry {
                    page: Page::Shared(Arc::clone(f)),
                    writable,
                },
            );
        }
        Ok(MapWork {
            regions: 1,
            pages: frames.len() as u64,
        })
    }

    /// Maps an entire pre-framed image. This is `vm_map` of every cached
    /// segment — the constant-time load path of the self-contained scheme.
    pub fn map(&mut self, image: &ImageFrames) -> Result<MapWork, String> {
        let mut work = MapWork::default();
        for seg in &image.segments {
            work.absorb(self.map_segment(seg.vaddr, &seg.frames, seg.writable)?);
        }
        for &(vaddr, pages) in &image.private_zero {
            work.absorb(self.map_private_zero(vaddr, pages)?);
        }
        Ok(work)
    }

    /// Maps `pages` fresh private zero pages at `vaddr` (stack, heap).
    /// They are demand-zero: no frame exists until the first store.
    pub fn map_private_zero(&mut self, vaddr: u32, pages: u32) -> Result<MapWork, String> {
        if !vaddr.is_multiple_of(PAGE_SIZE) {
            return Err(format!("base {vaddr:#x} not page aligned"));
        }
        let first = vaddr / PAGE_SIZE;
        for i in 0..pages {
            if self.pages.contains_key(&(first + i)) {
                return Err(format!(
                    "mapping collision at {:#x}",
                    (first + i) * PAGE_SIZE
                ));
            }
        }
        for i in 0..pages {
            self.pages.insert(
                first + i,
                PageEntry {
                    page: Page::Zero,
                    writable: true,
                },
            );
        }
        Ok(MapWork {
            regions: 1,
            pages: u64::from(pages),
        })
    }

    /// Unmaps every page in `[vaddr, vaddr + len)`.
    pub fn unmap(&mut self, vaddr: u32, len: u32) {
        let first = vaddr / PAGE_SIZE;
        let last = (vaddr + len).div_ceil(PAGE_SIZE);
        for p in first..last {
            self.pages.remove(&p);
        }
    }

    /// Visits each mapped page's identity for accounting: shared pages
    /// yield their frame pointer, private pages yield `None`.
    pub fn visit_pages(&self, mut f: impl FnMut(u32, Option<*const Frame>)) {
        for (&pno, e) in &self.pages {
            match &e.page {
                Page::Shared(a) => f(pno, Some(Arc::as_ptr(a))),
                Page::Private(_) | Page::Zero => f(pno, None),
            }
        }
    }

    /// Writes bytes ignoring page protection — the dynamic loader's
    /// privilege when it patches relocation sites in text. Still
    /// copy-on-write: patching a shared page privatizes it (the sharing
    /// loss that motivates PIC).
    pub fn force_write(&mut self, addr: u32, buf: &[u8]) -> Result<(), VmFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u32;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let entry = self.pages.get_mut(&pno).ok_or(VmFault::MemFault {
                addr: a,
                write: true,
            })?;
            let (dst, cow) = entry.page.privatize();
            self.cow_faults += u64::from(cow);
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            dst[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
        Ok(())
    }

    fn page_for_read(&mut self, addr: u32) -> Result<(&PageEntry, usize), VmFault> {
        let pno = addr / PAGE_SIZE;
        match self.pages.get(&pno) {
            Some(e) => Ok((e, (addr % PAGE_SIZE) as usize)),
            None => Err(VmFault::MemFault { addr, write: false }),
        }
    }
}

impl Memory for AddressSpace {
    fn read(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), VmFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u32;
            let (entry, off) = self.page_for_read(a)?;
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            buf[done..done + n].copy_from_slice(&entry.page.bytes()[off..off + n]);
            done += n;
        }
        Ok(())
    }

    fn write(&mut self, addr: u32, buf: &[u8]) -> Result<(), VmFault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u32;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let entry = self.pages.get_mut(&pno).ok_or(VmFault::MemFault {
                addr: a,
                write: true,
            })?;
            if !entry.writable {
                return Err(VmFault::MemFault {
                    addr: a,
                    write: true,
                });
            }
            // The first store privatizes a shared page (copy-on-write) or
            // fills a demand-zero one.
            let (dst, cow) = entry.page.privatize();
            self.cow_faults += u64::from(cow);
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            dst[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
        Ok(())
    }
}

/// One page-framed segment of an image.
#[derive(Debug, Clone)]
pub struct FrameSegment {
    /// Page-aligned base address.
    pub vaddr: u32,
    /// The frames (whole pages; partial tails are zero padded).
    pub frames: Vec<Arc<Frame>>,
    /// Mapped writable (data/BSS) or read-only (text/rodata).
    pub writable: bool,
    /// Eligible for cross-process sharing accounting.
    pub shareable: bool,
}

/// A linked image converted to page frames — what the OMOS cache stores
/// and what `vm_map` installs.
#[derive(Debug, Clone)]
pub struct ImageFrames {
    /// Image name.
    pub name: String,
    /// Page-framed segments, by ascending address.
    pub segments: Vec<FrameSegment>,
    /// TLS-like `(vaddr, pages)` runs mapped as fresh private zero pages
    /// per process: the audit-counter pages the image's call-audit stubs
    /// increment. Never backed by shared frames — each process counts
    /// its own calls.
    pub private_zero: Vec<(u32, u32)>,
    /// Program entry point, copied from the image.
    pub entry: Option<u32>,
}

impl ImageFrames {
    /// Frames an image. Segments that share a page (e.g. BSS starting on
    /// the data segment's last page) are merged; a page is writable if
    /// any contributor is.
    #[must_use]
    pub fn from_image(img: &LinkedImage) -> ImageFrames {
        // Gather per-page byte content and attributes.
        #[derive(Default)]
        struct Build {
            bytes: Option<Box<Frame>>,
            writable: bool,
        }
        let mut pages: HashMap<u32, Build> = HashMap::new();
        for seg in &img.segments {
            let writable = !seg.kind.is_shareable();
            let total = seg.size();
            let mut covered = 0u64;
            while covered < total {
                let a = seg.vaddr as u64 + covered;
                let pno = (a / u64::from(PAGE_SIZE)) as u32;
                let off = (a % u64::from(PAGE_SIZE)) as usize;
                let n = ((u64::from(PAGE_SIZE) - off as u64).min(total - covered)) as usize;
                let b = pages.entry(pno).or_default();
                b.writable |= writable;
                // Copy initialized bytes (the zero tail is already zero).
                let src_off = covered as usize;
                if src_off < seg.bytes.len() {
                    let have = (seg.bytes.len() - src_off).min(n);
                    let frame = b.bytes.get_or_insert_with(|| Box::new(Frame::zeroed()));
                    frame.0[off..off + have].copy_from_slice(&seg.bytes[src_off..src_off + have]);
                } else {
                    b.bytes.get_or_insert_with(|| Box::new(Frame::zeroed()));
                }
                covered += n as u64;
            }
        }
        // Audit-counter pages: scanning the text for call-audit stubs
        // (rather than plumbing policy metadata through every caller)
        // recovers which addresses the image will increment; pages not
        // covered by any segment become per-process private zero runs.
        let mut counter_pages: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for site in omos_link::scan_audit_stubs(img) {
            let pno = site.counter_addr / PAGE_SIZE;
            if !pages.contains_key(&pno) {
                counter_pages.insert(pno);
            }
        }
        let mut private_zero: Vec<(u32, u32)> = Vec::new();
        for pno in counter_pages {
            match private_zero.last_mut() {
                Some((base, n)) if *base / PAGE_SIZE + *n == pno => *n += 1,
                _ => private_zero.push((pno * PAGE_SIZE, 1)),
            }
        }

        // Shareability: a page is shareable iff it is not writable.
        // Build contiguous runs with uniform attributes.
        let mut pnos: Vec<u32> = pages.keys().copied().collect();
        pnos.sort_unstable();
        let mut segments: Vec<FrameSegment> = Vec::new();
        for pno in pnos {
            let b = pages.remove(&pno).expect("key from the map");
            let frame = Arc::new(*b.bytes.unwrap_or_else(|| Box::new(Frame::zeroed())));
            let writable = b.writable;
            let extend = segments.last().is_some_and(|s| {
                s.writable == writable && s.vaddr / PAGE_SIZE + s.frames.len() as u32 == pno
            });
            if extend {
                let last = segments.last_mut().expect("just checked");
                last.frames.push(frame);
            } else {
                segments.push(FrameSegment {
                    vaddr: pno * PAGE_SIZE,
                    frames: vec![frame],
                    writable,
                    shareable: !writable,
                });
            }
        }
        ImageFrames {
            name: img.name.clone(),
            segments,
            private_zero,
            entry: img.entry,
        }
    }

    /// Total pages across all segments.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.segments.iter().map(|s| s.frames.len() as u64).sum()
    }

    /// Pages in shareable (read-only) segments.
    #[must_use]
    pub fn shareable_pages(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.shareable)
            .map(|s| s.frames.len() as u64)
            .sum()
    }

    /// One-past-the-end address of the highest segment.
    #[must_use]
    pub fn end(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| s.vaddr + s.frames.len() as u32 * PAGE_SIZE)
            .max()
            .unwrap_or(0)
    }
}

/// Physical-memory accounting across a set of address spaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryAccounting {
    /// Sum of every space's mapped pages (what the processes *think*
    /// they have).
    pub mapped_pages: u64,
    /// Distinct physical frames actually backing them.
    pub resident_frames: u64,
    /// Pages privatized by copy-on-write.
    pub private_pages: u64,
}

impl MemoryAccounting {
    /// Measures a population of address spaces.
    #[must_use]
    pub fn measure(spaces: &[&AddressSpace]) -> MemoryAccounting {
        let mut shared: HashMap<*const Frame, u64> = HashMap::new();
        let mut acc = MemoryAccounting::default();
        for s in spaces {
            s.visit_pages(|_, frame| {
                acc.mapped_pages += 1;
                match frame {
                    Some(p) => *shared.entry(p).or_insert(0) += 1,
                    None => acc.private_pages += 1,
                }
            });
        }
        acc.resident_frames = shared.len() as u64 + acc.private_pages;
        acc
    }

    /// Pages saved by sharing.
    #[must_use]
    pub fn pages_saved(&self) -> u64 {
        self.mapped_pages - self.resident_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omos_link::Segment;
    use omos_obj::SectionKind;

    fn image(segs: Vec<Segment>) -> LinkedImage {
        LinkedImage {
            name: "t".into(),
            segments: segs,
            symbols: HashMap::new(),
            entry: Some(0x1000),
        }
    }

    fn seg(kind: SectionKind, vaddr: u32, bytes: Vec<u8>, zero: u64) -> Segment {
        Segment {
            name: kind.default_name().into(),
            kind,
            vaddr,
            bytes,
            zero,
        }
    }

    #[test]
    fn framing_pads_partial_pages() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![0xaa; 100], 0)]);
        let f = ImageFrames::from_image(&img);
        assert_eq!(f.total_pages(), 1);
        assert_eq!(f.segments[0].frames[0].0[0], 0xaa);
        assert_eq!(f.segments[0].frames[0].0[100], 0);
        assert!(!f.segments[0].writable);
        assert_eq!(f.shareable_pages(), 1);
    }

    #[test]
    fn bss_merges_into_data_tail_page() {
        // Data: 100 bytes at 0x40000000; BSS: 8000 zero bytes at 0x40000068.
        let img = image(vec![
            seg(SectionKind::Data, 0x4000_0000, vec![7; 100], 0),
            seg(SectionKind::Bss, 0x4000_0068, Vec::new(), 8000),
        ]);
        let f = ImageFrames::from_image(&img);
        // 0x68 + 8000 = 0x1fc8 → pages 0..2 → 2 pages total (one run).
        assert_eq!(f.segments.len(), 1);
        assert_eq!(f.total_pages(), 2);
        assert!(f.segments[0].writable);
        assert_eq!(f.shareable_pages(), 0);
    }

    #[test]
    fn map_read_write_cow() {
        let img = image(vec![
            seg(SectionKind::Text, 0x1000, vec![1; 16], 0),
            seg(SectionKind::Data, 0x4000_0000, vec![2; 16], 0),
        ]);
        let frames = ImageFrames::from_image(&img);
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        a.map(&frames).unwrap();
        b.map(&frames).unwrap();

        // Reads see the image contents.
        let mut buf = [0u8; 4];
        a.read(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 1, 1]);

        // Text is not writable.
        assert!(matches!(
            a.write(0x1000, &[9]),
            Err(VmFault::MemFault { write: true, .. })
        ));

        // Data writes COW: b does not observe a's store.
        a.write(0x4000_0000, &[9]).unwrap();
        assert_eq!(a.cow_faults, 1);
        let mut ab = [0u8; 1];
        let mut bb = [0u8; 1];
        a.read(0x4000_0000, &mut ab).unwrap();
        b.read(0x4000_0000, &mut bb).unwrap();
        assert_eq!(ab, [9]);
        assert_eq!(bb, [2]);
        // Second write to the same page: no new fault.
        a.write(0x4000_0004, &[9]).unwrap();
        assert_eq!(a.cow_faults, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut a = AddressSpace::new();
        let mut buf = [0u8; 4];
        assert!(a.read(0x5000, &mut buf).is_err());
        assert!(a.write(0x5000, &buf).is_err());
    }

    #[test]
    fn cross_page_access() {
        let mut a = AddressSpace::new();
        a.map_private_zero(0x1000, 2).unwrap();
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        a.write(0x1ffc, &data).unwrap();
        let mut back = [0u8; 8];
        a.read(0x1ffc, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn mapping_collision_rejected() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![1; 16], 0)]);
        let frames = ImageFrames::from_image(&img);
        let mut a = AddressSpace::new();
        a.map(&frames).unwrap();
        assert!(a.map(&frames).is_err());
        assert!(a.map_private_zero(0x1000, 1).is_err());
    }

    #[test]
    fn unaligned_map_rejected() {
        let mut a = AddressSpace::new();
        assert!(a
            .map_segment(0x1004, &[Arc::new(Frame::zeroed())], false)
            .is_err());
        assert!(a.map_private_zero(0x1004, 1).is_err());
    }

    #[test]
    fn accounting_measures_sharing() {
        let img = image(vec![
            seg(SectionKind::Text, 0x1000, vec![1; 8192], 0), // 2 shareable pages
            seg(SectionKind::Data, 0x4000_0000, vec![2; 100], 0), // 1 COW page
        ]);
        let frames = ImageFrames::from_image(&img);
        let mut spaces: Vec<AddressSpace> = (0..10).map(|_| AddressSpace::new()).collect();
        for s in &mut spaces {
            s.map(&frames).unwrap();
        }
        // One process dirties its data page.
        spaces[0].write(0x4000_0000, &[9]).unwrap();

        let refs: Vec<&AddressSpace> = spaces.iter().collect();
        let acc = MemoryAccounting::measure(&refs);
        assert_eq!(acc.mapped_pages, 30);
        // 2 text frames + 1 shared data frame + 1 private copy = 4.
        assert_eq!(acc.resident_frames, 4);
        assert_eq!(acc.private_pages, 1);
        assert_eq!(acc.pages_saved(), 26);
    }

    #[test]
    fn demand_zero_pages_fill_on_first_store() {
        let mut a = AddressSpace::new();
        let work = a.map_private_zero(0x1000, 3).unwrap();
        assert_eq!(
            work,
            MapWork {
                regions: 1,
                pages: 3
            }
        );
        assert_eq!(a.mapped_pages(), 3);
        // Unwritten pages read as zeros and count as private.
        let mut buf = [0xffu8; 8];
        a.read(0x1ffc, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
        let acc = MemoryAccounting::measure(&[&a]);
        assert_eq!((acc.private_pages, acc.resident_frames), (3, 3));
        // The first store fills the page without a copy-on-write fault,
        // through both write paths; neighbours stay zero.
        a.write(0x1004, &[7]).unwrap();
        a.force_write(0x2ffe, &[8, 9, 10]).unwrap();
        assert_eq!(a.cow_faults, 0);
        let mut back = [0u8; 6];
        a.read(0x2ffc, &mut back).unwrap();
        assert_eq!(back, [0, 0, 8, 9, 10, 0]);
        a.read(0x1000, &mut back).unwrap();
        assert_eq!(back, [0, 0, 0, 0, 7, 0]);
        assert_eq!(a.mapped_pages(), 3);
        assert_eq!(MemoryAccounting::measure(&[&a]), acc);
        // A second space's zero pages are its own.
        let mut b = AddressSpace::new();
        b.map_private_zero(0x1000, 1).unwrap();
        let mut one = [0u8; 1];
        b.read(0x1004, &mut one).unwrap();
        assert_eq!(one, [0]);
    }

    #[test]
    fn unmap_releases() {
        let mut a = AddressSpace::new();
        a.map_private_zero(0x1000, 4).unwrap();
        assert_eq!(a.mapped_pages(), 4);
        a.unmap(0x1000, 2 * PAGE_SIZE);
        assert_eq!(a.mapped_pages(), 2);
        // Freed range can be remapped.
        a.map_private_zero(0x1000, 2).unwrap();
        assert_eq!(a.mapped_pages(), 4);
    }

    #[test]
    fn frames_preserve_entry_and_extent() {
        let img = image(vec![seg(SectionKind::Text, 0x1000, vec![1; 5000], 0)]);
        let f = ImageFrames::from_image(&img);
        assert_eq!(f.entry, Some(0x1000));
        assert_eq!(f.end(), 0x1000 + 2 * PAGE_SIZE);
    }
}
