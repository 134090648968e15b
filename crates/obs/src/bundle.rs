//! Diagnostic run bundles: one directory per process, written as the run
//! progresses and sealed on exit. A bundle is the process's active one, and
//! span capture is on, from [`Bundle::create`] to [`Bundle::finish`].
//!
//! Layout (all files optional except `config.json`):
//!
//! ```text
//! <dir>/config.json          # process kind, pid, config snapshot (at create)
//! <dir>/last-stage           # single word, overwritten at each stage marker
//! <dir>/spans.jsonl          # span dump, write-through (one line per span)
//! <dir>/stats-timeline.jsonl # periodic stats samples, appended
//! <dir>/stats.json           # final stats artifact (at finish)
//! <dir>/meta.json            # pid, timing, clean-exit marker (at finish)
//! ```
//!
//! `spans.jsonl` and `stats-timeline.jsonl` are **write-through** (flushed
//! per line): a daemon killed with SIGKILL mid-run never reaches
//! [`Bundle::finish`], but everything it already recorded survives for
//! the merged report — that is how a failover becomes visible as one
//! request's spans across two shard bundles.

use crate::json::JsonWriter;
use crate::span::{self, SpanRecord};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime};

/// One process's diagnostic bundle (see the module docs for the layout).
pub struct Bundle {
    dir: PathBuf,
    kind: String,
    pid: u32,
    started: Instant,
    started_unix_ms: u64,
    spans: Mutex<BufWriter<File>>,
    timeline: Mutex<File>,
    finished: AtomicBool,
}

impl std::fmt::Debug for Bundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bundle").field("dir", &self.dir).field("kind", &self.kind).finish()
    }
}

fn active_slot() -> &'static Mutex<Option<Arc<Bundle>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<Bundle>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

/// The process's active bundle: the last one created and not yet finished.
pub fn active() -> Option<Arc<Bundle>> {
    active_slot().lock().unwrap().clone()
}

/// Write-through hook called by [`span::record`] for every recorded span.
pub(crate) fn write_span(rec: &SpanRecord) {
    if let Some(b) = active() {
        b.append_span(rec);
    }
}

impl Bundle {
    /// Creates the bundle directory, writes its `config.json` snapshot, and
    /// makes it the process's active bundle with span capture on: from here
    /// on every recorded span writes through to `spans.jsonl`. `kind` names
    /// the process in merged reports ("serve", "cluster", "shardd-2");
    /// `config` is a flat key/value snapshot, typically the parsed command
    /// line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or its initial files.
    pub fn create(dir: &Path, kind: &str, config: &[(&str, String)]) -> io::Result<Arc<Bundle>> {
        fs::create_dir_all(dir)?;
        let pid = std::process::id();
        let started_unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut w = JsonWriter::new();
        w.obj();
        w.gap("\n  ").key("kind").str_val(kind);
        w.key("pid").u64(pid as u64);
        w.key("started_unix_ms").u64(started_unix_ms);
        w.gap("\n  ").key("config").obj();
        for (k, v) in config {
            w.gap("\n    ").key(k).str_val(v);
        }
        w.raw("\n  ").close_obj();
        w.raw("\n");
        w.close_obj();
        w.raw("\n");
        fs::write(dir.join("config.json"), w.finish())?;
        let spans = BufWriter::new(File::create(dir.join("spans.jsonl"))?);
        let timeline =
            OpenOptions::new().create(true).append(true).open(dir.join("stats-timeline.jsonl"))?;
        let bundle = Arc::new(Bundle {
            dir: dir.to_path_buf(),
            kind: kind.to_string(),
            pid,
            started: Instant::now(),
            started_unix_ms,
            spans: Mutex::new(spans),
            timeline: Mutex::new(timeline),
            finished: AtomicBool::new(false),
        });
        bundle.stage("created");
        *active_slot().lock().unwrap() = Some(bundle.clone());
        span::set_enabled(true);
        Ok(bundle)
    }

    /// The bundle directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The process kind this bundle was created with.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Overwrites the `last-stage` marker — a one-word breadcrumb of how
    /// far the process got ("fitting", "replaying", "draining", "exit").
    pub fn stage(&self, stage: &str) {
        let _ = fs::write(self.dir.join("last-stage"), format!("{stage}\n"));
    }

    /// Appends one labeled stats sample to the timeline (write-through).
    /// `stats_json` may be a multi-line artifact; it is embedded verbatim
    /// with newlines flattened so the timeline stays one JSON per line.
    pub fn stats_sample(&self, label: &str, stats_json: &str) {
        let mut w = JsonWriter::new();
        w.obj();
        w.key("t_ms").u64(self.started.elapsed().as_millis() as u64);
        w.key("label").str_val(label);
        w.key("stats").raw_val(&stats_json.replace('\n', " "));
        w.close_obj();
        let mut line = w.finish();
        line.push('\n');
        let mut f = self.timeline.lock().unwrap();
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }

    /// Serializes and appends one span line, flushed immediately.
    fn append_span(&self, rec: &SpanRecord) {
        let mut w = JsonWriter::new();
        w.obj();
        w.key("trace").str_val(&rec.trace.to_string());
        w.key("process").str_val(&self.kind);
        w.key("pid").u64(self.pid as u64);
        w.key("phase").str_val(rec.phase);
        w.key("start_us").u64(rec.start_us);
        w.key("dur_us").u64(rec.dur_us);
        w.key("detail").str_val(&rec.detail);
        w.close_obj();
        let mut line = w.finish();
        line.push('\n');
        let mut f = self.spans.lock().unwrap();
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }

    /// Seals the bundle: final stats artifact and the `meta.json`
    /// clean-exit marker. Idempotent; also releases the
    /// active-bundle slot if this bundle held it.
    pub fn finish(&self, final_stats: Option<&str>) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(stats) = final_stats {
            let _ = fs::write(self.dir.join("stats.json"), stats);
        }
        let _ = self.spans.lock().unwrap().flush();
        let mut w = JsonWriter::new();
        w.obj();
        w.gap("\n  ").key("kind").str_val(&self.kind);
        w.key("pid").u64(self.pid as u64);
        w.gap("\n  ").key("started_unix_ms").u64(self.started_unix_ms);
        w.key("duration_ms").u64(self.started.elapsed().as_millis() as u64);
        w.gap("\n  ").key("clean_exit").bool(true);
        w.raw("\n");
        w.close_obj();
        w.raw("\n");
        let _ = fs::write(self.dir.join("meta.json"), w.finish());
        self.stage("exit");
        let mut slot = active_slot().lock().unwrap();
        if slot.as_ref().is_some_and(|b| std::ptr::eq(b.as_ref(), self)) {
            *slot = None;
            span::set_enabled(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceId;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "asdr-obs-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn bundle_writes_every_file_and_streams_spans() {
        let _gate = span::test_gate().lock().unwrap();
        span::clear();
        let dir = temp_dir("bundle");
        let b = Bundle::create(&dir, "test-proc", &[("workers", "2".to_string())]).unwrap();
        let id = TraceId::fresh();
        let t0 = Instant::now();
        crate::span!(id, "render", t0, Instant::now(), "unit".to_string());
        b.stage("replaying");
        b.stats_sample("mid", "{\n  \"requests\": 1\n}");
        b.finish(Some("{\"requests\": 1}\n"));
        assert!(!span::enabled(), "finish releases the capture gate");

        let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap();
        assert!(read("config.json").contains("\"workers\": \"2\""));
        assert!(read("config.json").contains("\"kind\": \"test-proc\""));
        let spans = read("spans.jsonl");
        assert!(spans.contains(&id.to_string()), "span written through: {spans}");
        assert!(spans.contains("\"process\": \"test-proc\""));
        assert!(read("stats-timeline.jsonl").contains("\"label\": \"mid\""));
        assert!(read("stats.json").contains("\"requests\": 1"));
        assert!(read("meta.json").contains("\"clean_exit\": true"));
        assert_eq!(read("last-stage"), "exit\n");
        // finish is idempotent
        b.finish(None);
        span::clear();
        let _ = fs::remove_dir_all(&dir);
    }
}
