// Distributed tracing + always-on flight recorder for the voter runtime.
//
// The metrics registry (obs/metrics.h) answers "how much / how slow in
// aggregate"; this subsystem answers "what happened to THIS request".  A
// trace is a tree of spans sharing one trace id: the resilient client
// opens a root span per logical submit, each retry attempt is a child,
// the wire context rides an optional trailing frame field
// (runtime/framing.h), and the serving shard, engine batch, and WAL
// append each hang their own span under the id that arrived on the wire
// — across the cross-shard forward hop, because the context lives in the
// frame payload, not in the connection.
//
// Spans land in per-shard lock-free ring buffers that double as an
// always-on flight recorder: a bounded in-memory log of the most recent
// spans plus point events (backpressure, poisoned frames, WAL fsync,
// compaction, migration) that is cheap enough to leave on in production
// and can be snapshotted at any moment via the TRACE_DUMP verb, then
// converted to Chrome trace_event JSON (obs/trace_export.h) for
// chrome://tracing.
//
// Concurrency: each ring slot is a seqlock — a per-slot sequence word
// (odd = write in progress) guarding a fixed array of atomic u64 payload
// words.  Writers claim a slot with a fetch_add on the ring head and a
// CAS even->odd on the slot; a lost CAS drops the record (counted) so
// writers never spin.  Readers copy the words between two acquire loads
// of the sequence and discard torn copies.  Every payload access is a
// (relaxed) atomic, so the scheme is clean under TSan, and no path ever
// blocks: tracing a request costs ~20 relaxed stores.
//
// Determinism: the tracer takes its clock as a seam (TracerOptions::
// now_ns).  Production uses steady_clock; under deterministic simulation
// the SimWorld virtual clock is injected, and because span/trace ids come
// from a counter and a pure hash of (client_id, seq), the same seed
// produces a byte-identical DumpText() — chaos sweeps can assert on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace avoc::obs {

/// Propagated trace identity: which trace, which span to parent under.
/// flags bit 0 = sampled (the client elected this submit for tracing).
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint8_t flags = 0;

  bool valid() const { return trace_id != 0; }
  bool sampled() const { return (flags & 0x1) != 0; }
};

/// Which layer produced a record; doubles as the Chrome-export lane.
enum class SpanKind : uint8_t {
  kInvalid = 0,
  kClient = 1,   ///< ResilientVoterClient submit + attempt spans
  kServer = 2,   ///< per-verb request handling on a shard
  kEngine = 3,   ///< engine batch execution / pipeline stages
  kStorage = 4,  ///< WAL append / chunk seal / compaction
  kEvent = 5,    ///< point annotation (flight-recorder event)
};

/// Name of a span kind ("client", ...); "invalid" for others.
std::string_view SpanKindName(SpanKind kind);

/// One flight-recorder record.  Fixed-size POD so a ring slot is a plain
/// array of u64 words; events are spans with start == end.  Names and
/// details are truncated, NUL-padded token strings.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint8_t kind = 0;
  char name[31] = {};
  char detail[80] = {};
};
static_assert(std::is_trivially_copyable_v<SpanRecord>);
static_assert(sizeof(SpanRecord) % sizeof(uint64_t) == 0);

/// Payload words per ring slot.
inline constexpr size_t kSpanRecordWords = sizeof(SpanRecord) / sizeof(uint64_t);

/// Bounded lock-free span log; the flight recorder proper.  Overwrites
/// the oldest records once full (it is a window, not a queue).
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Publishes one record; false when a concurrent writer owned the
  /// claimed slot (the record is dropped and counted, never blocked on).
  bool Record(const SpanRecord& record);

  /// Appends a consistent copy of every published record to `out`
  /// (ring order, not time order; torn slots are skipped).
  void Snapshot(std::vector<SpanRecord>* out) const;

  size_t capacity() const { return mask_ + 1; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    /// Seqlock word: 0 = never written, odd = write in progress.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kSpanRecordWords] = {};
  };

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
};

struct TracerOptions {
  /// Independent rings; record routing uses the caller's metrics shard so
  /// per-core server threads rarely contend on a head counter.
  size_t ring_count = 4;
  /// Records retained per ring.
  size_t ring_capacity = 4096;
  /// Clock seam: monotonic nanoseconds.  Defaults to steady_clock; the
  /// DST harness injects the SimWorld virtual clock so same-seed chaos
  /// schedules yield byte-identical dumps.
  std::function<uint64_t()> now_ns;
};

/// The tracing façade: owns the rings, the span-id counter, and the
/// clock seam.  One Tracer is shared by every shard of a server plus its
/// storage engine and clients under test; all methods are thread-safe.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Monotonic nanoseconds from the injected clock seam.
  uint64_t now_ns() const { return now_ns_(); }

  /// Unique (per tracer) id for a new span or event record.
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Deterministic trace id for a client submit: a pure hash of
  /// (client_id, seq), never 0.  Same identity -> same trace id, so a
  /// resubmitted request joins the trace of its first attempt.
  static uint64_t DeriveTraceId(std::string_view client_id, uint64_t seq);

  /// Publishes a finished record into the caller's shard ring.
  void Record(const SpanRecord& record);

  /// Point annotation (flight-recorder event).  Parents under the
  /// calling thread's current span when that span belongs to this
  /// tracer; otherwise records an untraced event (trace id 0).
  void Event(std::string_view name, std::string_view detail = {});

  /// Consistent copy of every live record across all rings.
  std::vector<SpanRecord> Snapshot() const;

  /// Canonical text dump: "AVOC-TRACE v1" header + one line per record,
  /// sorted by (start_ns, span_id) so equal inputs yield equal bytes.
  /// This is the TRACE_DUMP wire payload and the tracectl interchange
  /// format (obs/trace_export.h parses it).
  std::string DumpText() const;

  /// Records dropped across all rings (slot contention).
  uint64_t dropped() const;

  size_t ring_count() const { return rings_.size(); }

  /// Runtime mute switch.  While disabled, spans and events become
  /// no-ops (one relaxed load on the hot path) and the rings keep their
  /// last records — pausing the flight recorder freezes the evidence,
  /// it does not erase it.  TRACE_DUMP keeps answering.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  std::function<uint64_t()> now_ns_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<bool> enabled_{true};
};

/// Formats one record as its canonical dump line (no trailing newline).
std::string FormatSpanLine(const SpanRecord& record);

/// The calling thread's innermost open span (tracer nullptr when none).
/// This is how layers that never see the wire context — the
/// "engine.batch" span GroupRunner::SubmitBatch opens under the server
/// verb span, and the WAL appends the voter's history persist and the
/// sink's trace persist make inside it — find the span to parent under
/// without threading contexts through every call signature.
struct CurrentSpan {
  Tracer* tracer = nullptr;
  SpanContext context;
};
CurrentSpan CurrentTraceSpan();

/// Trace id of the most recently closed span on this thread, consumed at
/// most once — the histogram-exemplar hook (metrics record the latency
/// right after the traced call returns, on the same thread).
uint64_t ConsumeLastTraceId();

/// RAII span: opens at construction (pushing itself as the thread's
/// current span), records at destruction.  A null tracer makes every
/// operation a no-op, so untraced builds pay one branch.
class ScopedSpan {
 public:
  /// Inactive span (no tracer).
  ScopedSpan() = default;

  /// Opens a span under `parent`; an invalid parent starts a new locally
  /// rooted trace (trace id = the new span id) so flight-recorder
  /// coverage does not depend on clients sending context.
  ScopedSpan(Tracer* tracer, SpanKind kind, std::string_view name,
             const SpanContext& parent, std::string_view detail = {});

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan();

  bool active() const { return tracer_ != nullptr; }

  /// Context for propagation (wire encoding, child spans).
  SpanContext context() const;

  /// Replaces the record's detail string (outcome annotations).
  void SetDetail(std::string_view detail);

  /// printf-style SetDetail formatting straight into the record's fixed
  /// detail buffer — no heap allocation, which matters on the per-batch
  /// hot path (SetDetail(StrFormat(...)) pays a std::string round trip).
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void SetDetailF(const char* format, ...);

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

/// Bounded copy of `s` into a NUL-padded char field.
void CopyToken(char* dst, size_t capacity, std::string_view s);

}  // namespace avoc::obs
