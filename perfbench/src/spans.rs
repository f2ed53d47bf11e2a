//! In-memory span recording for the traced run.
//!
//! Spans are taken by the benchmark's own code around calls into each
//! layer's public functions (the library crates carry no timers). Each
//! span records its name, start, end, parent and job id; self times are
//! derived after the run, and the raw spans are written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are host nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `cosim.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the job the span belongs to.
    pub job: u64,
}

/// Span recorder. When off, every call is a branch and nothing else, so
/// the untraced timed phase pays no clock reads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (spans already taken are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of job `job`. A job that failed part-way may
    /// have left spans open; they are closed here at the current time.
    pub fn begin_job(&mut self, job: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        while let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
        self.job = job;
        self.open("job", now);
    }

    /// Closes the job's root span.
    pub fn end_job(&mut self) {
        if self.on {
            self.close();
        }
    }

    /// Runs `f` inside a span named `name` (a child of the open span).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let now = self.now_ns();
        self.open(name, now);
        let out = f();
        self.close();
        out
    }

    fn open(&mut self, name: &'static str, start_ns: u64) {
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.iter().rev().nth(1).copied(),
            job: self.job,
        });
    }

    fn close(&mut self) {
        let now = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in ns: each span's duration minus
    /// the durations of its direct children.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `job name start_ns end_ns parent` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "job\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.job, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        Ok(())
    }
}
