/**
 * @file
 * Low-overhead span/event tracer with Chrome trace-event export.
 *
 * Two lanes, one merged trace:
 *
 *  - The **wall-clock lane** (numeric plane): per-thread fixed-capacity
 *    ring buffers of plain-old-data events. The hot path takes no locks —
 *    one relaxed atomic load to test the enable flag, then a slot write
 *    and a release store of the per-thread head counter. Timestamps are
 *    monotonic (steady_clock) nanoseconds since tracer construction. A
 *    full ring wraps (flight-recorder semantics): the newest events win,
 *    overwritten ones are counted as dropped, and wrapping is never UB.
 *    Event names are `const char*` and must be string literals (or
 *    otherwise outlive the tracer) — the hot path never allocates.
 *
 *  - The **simulator lane** (serving plane): the discrete-event simulator
 *    runs in virtual milliseconds on one thread, so its events carry
 *    explicit virtual timestamps, may own heap strings, and go through a
 *    mutex — it is cold by construction. Exported as a separate Perfetto
 *    process so virtual time never mixes with wall time on one track;
 *    request ids in span args connect the two planes.
 *
 * Gating: every `LLMNPU_TRACE_*` site branches on one relaxed atomic.
 * Tracing is off at process start; benches/tests call
 * Tracer::Global().Enable().
 *
 * Concurrency contract: Record() is safe from any thread at any time.
 * Enable/Disable/Reset/export/introspection require wall-lane quiescence —
 * no concurrent Record() calls. Every producer in this codebase runs under
 * ThreadPool::ParallelFor, which is synchronous (workers idle between
 * jobs), so "after the kernels returned" is quiescent; the release store
 * on head + acquire load at export makes the handoff TSan-clean.
 */
#ifndef LLMNPU_OBS_TRACE_H
#define LLMNPU_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace llmnpu {
namespace obs {

/** Runtime enable flag; the one branch every compiled-in site pays. */
extern std::atomic<bool> g_trace_runtime_enabled;

inline bool
TraceEnabled()
{
    return g_trace_runtime_enabled.load(std::memory_order_relaxed);
}

enum class TracePhase : uint8_t {
    kSpan,     ///< complete duration event ("X"): [t0_ns, t1_ns]
    kInstant,  ///< point event ("i") at t0_ns
    kCounter,  ///< counter sample ("C"): value at t0_ns
};

/** One wall-lane event. POD; names/categories must be static strings.
 *  Negative int args mean "absent" and are omitted from the export. */
struct TraceEvent {
    const char* name = nullptr;
    const char* cat = nullptr;
    uint64_t t0_ns = 0;
    uint64_t t1_ns = 0;
    double value = 0.0;  ///< kCounter only
    int32_t req = -1;    ///< serving request id
    int32_t seq = -1;    ///< BatchedKvCache slot
    int32_t layer = -1;
    int32_t extra = -1;               ///< value of the ad-hoc arg
    const char* extra_name = nullptr; ///< name of the ad-hoc arg
    TracePhase phase = TracePhase::kInstant;
};

/** Perfetto track a simulator-lane event renders on. */
enum class SimLane : int {
    kNpu = 0,     ///< prefill chunks (exclusive NPU intervals)
    kDecode = 1,  ///< continuously batched decode steps
    kEvents = 2,  ///< arrivals, rejections, evictions, counters
    kFaults = 3,  ///< injected faults, retries, failovers, brownout sheds
};

/** One simulator-lane event, in virtual milliseconds. Cold path: may own
 *  strings; `args_json` is extra preformatted `"key": value` pairs (no
 *  surrounding braces) appended to the exported args object. */
struct SimEvent {
    std::string name;
    std::string args_json;
    const char* cat = "serving";
    double t0_ms = 0.0;
    double t1_ms = 0.0;
    double value = 0.0;
    int req = -1;
    TracePhase phase = TracePhase::kInstant;
    SimLane lane = SimLane::kEvents;
};

/** Per-thread ring buffer; owned by the tracer, never deallocated (worker
 *  threads cache a raw pointer for the process lifetime). */
struct ThreadBuffer {
    explicit ThreadBuffer(size_t capacity) : ring(capacity) {}

    std::vector<TraceEvent> ring;
    /** Events ever recorded; slot for event e is ring[e % capacity]. The
     *  release store here pairs with the acquire load at export. */
    std::atomic<uint64_t> head{0};
    std::string name;
    int tid = 0;
};

class Tracer
{
  public:
    /** Process-wide tracer. Intentionally leaked: pool workers may touch
     *  their buffers during static destruction. */
    static Tracer& Global();

    /** Default ring capacity per thread (events), overridable per Enable
     *  call. */
    static constexpr size_t kDefaultCapacity = 1 << 15;

    /** Turns recording on. `capacity_per_thread` = 0 keeps the current
     *  capacity (the default until a call sets one); a nonzero
     *  value resizes existing (quiescent) rings. */
    void Enable(size_t capacity_per_thread = 0);

    void Disable();

    /** Drops all recorded events (both lanes); keeps the enabled state and
     *  registered thread buffers. Requires quiescence. */
    void Reset();

    /** Monotonic nanoseconds since tracer construction. */
    uint64_t NowNs() const;

    /** Records one wall-lane event into this thread's ring. Lock-free
     *  after the thread's first event (which registers the buffer). */
    void
    Record(const TraceEvent& event)
    {
        ThreadBuffer* buffer = tls_buffer_;
        if (buffer == nullptr) buffer = RegisterThisThread();
        const uint64_t slot =
            buffer->head.load(std::memory_order_relaxed);
        buffer->ring[static_cast<size_t>(slot % buffer->ring.size())] =
            event;
        buffer->head.store(slot + 1, std::memory_order_release);
    }

    /** Records one simulator-lane event (mutex-guarded; cold path). */
    void RecordSim(SimEvent event);

    /** Names the calling thread's track in the export ("pool-worker-3").
     *  Safe whether or not tracing is enabled. */
    static void SetThreadName(std::string name);

    // ---- Introspection + export; all require wall-lane quiescence.

    /** Wall-lane events ever recorded (stored + dropped). */
    uint64_t TotalRecorded() const;
    /** Wall-lane events overwritten by ring wrap-around. */
    uint64_t TotalDropped() const;
    /** Wall-lane events currently held in the rings. */
    uint64_t TotalStored() const;
    size_t NumThreadBuffers() const;

    /** Every stored wall-lane event, grouped by thread, oldest first
     *  within each thread. */
    std::vector<TraceEvent> StoredEvents() const;

    /** The full Chrome trace-event JSON document (both lanes, thread and
     *  process metadata, a metrics-registry snapshot under "otherData"). */
    std::string ChromeTraceJson() const;

    /** Writes ChromeTraceJson() to `path`; false on I/O failure. */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    Tracer();

    ThreadBuffer* RegisterThisThread();

    static thread_local ThreadBuffer* tls_buffer_;
    static thread_local std::string tls_thread_name_;

    mutable std::mutex mu_;  ///< guards buffers_/sim_events_/capacity_
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::vector<SimEvent> sim_events_;
    size_t capacity_ = kDefaultCapacity;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * RAII span: arms on construction when tracing is enabled, records one
 * complete event on destruction. The disabled cost is the TraceEnabled()
 * branch; sites use the LLMNPU_TRACE_SPAN macros.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char* name, const char* cat)
    {
        if (TraceEnabled()) Arm(name, cat, -1, -1, -1, nullptr, -1);
    }

    ScopedSpan(const char* name, const char* cat, int req, int seq,
               int layer)
    {
        if (TraceEnabled()) Arm(name, cat, req, seq, layer, nullptr, -1);
    }

    ScopedSpan(const char* name, const char* cat, int req, int seq,
               int layer, const char* extra_name, int extra)
    {
        if (TraceEnabled()) Arm(name, cat, req, seq, layer, extra_name,
                                extra);
    }

    ~ScopedSpan()
    {
        if (event_.name == nullptr) return;
        event_.t1_ns = Tracer::Global().NowNs();
        Tracer::Global().Record(event_);
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    void
    Arm(const char* name, const char* cat, int req, int seq, int layer,
        const char* extra_name, int extra)
    {
        event_.name = name;
        event_.cat = cat;
        event_.req = req;
        event_.seq = seq;
        event_.layer = layer;
        event_.extra_name = extra_name;
        event_.extra = extra;
        event_.phase = TracePhase::kSpan;
        event_.t0_ns = Tracer::Global().NowNs();
    }

    TraceEvent event_{};  ///< name == nullptr means disarmed
};

inline void
EmitInstant(const char* name, const char* cat, int req = -1, int seq = -1,
            int layer = -1, const char* extra_name = nullptr,
            int extra = -1)
{
    if (!TraceEnabled()) return;
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.req = req;
    event.seq = seq;
    event.layer = layer;
    event.extra_name = extra_name;
    event.extra = extra;
    event.phase = TracePhase::kInstant;
    event.t0_ns = event.t1_ns = Tracer::Global().NowNs();
    Tracer::Global().Record(event);
}

inline void
EmitCounter(const char* name, double value)
{
    if (!TraceEnabled()) return;
    TraceEvent event;
    event.name = name;
    event.cat = "counter";
    event.value = value;
    event.phase = TracePhase::kCounter;
    event.t0_ns = event.t1_ns = Tracer::Global().NowNs();
    Tracer::Global().Record(event);
}

}  // namespace obs
}  // namespace llmnpu

#define LLMNPU_OBS_CONCAT_(a, b) a##b
#define LLMNPU_OBS_CONCAT(a, b) LLMNPU_OBS_CONCAT_(a, b)

/** Span over the enclosing scope. */
#define LLMNPU_TRACE_SPAN(name, cat)                                      \
    ::llmnpu::obs::ScopedSpan LLMNPU_OBS_CONCAT(llmnpu_span_, __LINE__)   \
    {                                                                     \
        (name), (cat)                                                     \
    }

/** Span carrying request/sequence/layer identity. */
#define LLMNPU_TRACE_SPAN_ID(name, cat, req, seq, layer)                  \
    ::llmnpu::obs::ScopedSpan LLMNPU_OBS_CONCAT(llmnpu_span_, __LINE__)   \
    {                                                                     \
        (name), (cat), (req), (seq), (layer)                              \
    }

/** Span with one extra named integer arg (e.g. "head", "rows"). */
#define LLMNPU_TRACE_SPAN_TILE(name, cat, req, seq, layer, extra_name,    \
                               extra)                                     \
    ::llmnpu::obs::ScopedSpan LLMNPU_OBS_CONCAT(llmnpu_span_, __LINE__)   \
    {                                                                     \
        (name), (cat), (req), (seq), (layer), (extra_name), (extra)       \
    }

#define LLMNPU_TRACE_INSTANT(name, cat) ::llmnpu::obs::EmitInstant((name), (cat))

#define LLMNPU_TRACE_INSTANT_ID(name, cat, req, seq, layer)               \
    ::llmnpu::obs::EmitInstant((name), (cat), (req), (seq), (layer))

#define LLMNPU_TRACE_COUNTER(name, value)                                 \
    ::llmnpu::obs::EmitCounter((name), (value))

#endif  // LLMNPU_OBS_TRACE_H
