//! The traced run's span recorder and allocation counter.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (never inside the program), kept in memory,
//! and written out as JSON lines when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Marks a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call. Spans of one query, chunk or probe share `op`.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (datagrams in a batch, records in a
    /// chunk); 1 for a single call.
    pub items: u64,
}

/// Aggregate of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u64, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            items: 1,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32, items: u64) {
        let end = self.now_ns();
        let s = &mut self.spans[span as usize];
        s.end_ns = end;
        s.items = items;
    }

    /// Records `f` as one span of one item.
    pub fn span<R>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(op, name, parent);
        let r = f();
        self.close(s, 1);
        r
    }

    /// Per-name aggregates, with self time.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let a = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            a.calls += 1;
            a.items += s.items;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        w.flush()
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocation calls while
/// [`count_allocs`] runs. Off, it costs one relaxed load per call.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns how many heap allocations (alloc, alloc_zeroed
/// and realloc calls, from any thread) it made. Call it only while no
/// other thread of the process allocates.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOCS.load(Ordering::SeqCst) - before)
}
