/**
 * @file
 * Per-session handshake tracing: a fixed-capacity ring of timestamped
 * events — state transitions, handshake flights, crypto submit and
 * completion, alerts, faults, deadline fires — cheap enough to leave
 * on for sampled sessions in a production run.
 *
 * Each event carries two clocks: the raw cycle counter (for Chrome
 * trace / Perfetto export and cross-thread alignment) and the engine's
 * virtual tick (multiplexer sweep), which is the deterministic time
 * base of the fault harness — a chaos failure replayed from its seed
 * produces the identical tick sequence.
 *
 * A SessionTrace is single-writer: it belongs to the worker thread
 * that owns the session (the CryptoPool's per-thread traces likewise
 * belong to their pool thread). The pluggable TraceSink receives the
 * completed ring at a session's terminal outcome — the chaos suite's
 * flight recorder: every fatal alert comes with the event history that
 * led to it.
 */

#ifndef SSLA_OBS_TRACE_HH
#define SSLA_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/cycles.hh"

namespace ssla::obs
{

/** What happened. Kinds are shared by endpoints, engine and channel. */
enum class TraceEventKind : uint8_t
{
    ConnOpen,       ///< session slot created (engine)
    StateEnter,     ///< state machine entered a new state
    FlightSend,     ///< handshake message sent (label = message type)
    FlightRecv,     ///< handshake message received
    CcsSend,        ///< ChangeCipherSpec sent
    CcsRecv,        ///< ChangeCipherSpec received
    CryptoSubmit,   ///< async crypto job submitted
    CryptoComplete, ///< async crypto result consumed
    CryptoCancel,   ///< in-flight job cancelled at teardown
    JobStart,       ///< crypto-pool thread began executing a job
    JobEnd,         ///< crypto-pool thread finished a job
    AlertSend,      ///< alert put on the wire (code = description)
    AlertRecv,      ///< alert received
    FaultInjected,  ///< channel fault applied (label = fault type)
    DeadlineFired,  ///< engine deadline expired (label = which)
    Park,           ///< session parked on async crypto
    Resume,         ///< parked session resumed
    HandshakeDone,  ///< both flights complete on this endpoint
    Complete,       ///< session reached its configured workload
    Teardown,       ///< session torn down (label = why)
    LogMessage,     ///< captured warn()/inform() text
    ThreadRestart,  ///< supervisor reaped + respawned a crypto thread
};

/** Static name of an event kind (for exporters). */
const char *traceEventKindName(TraceEventKind kind);

/** Which actor recorded the event. */
constexpr uint8_t traceSideServer = 0;
constexpr uint8_t traceSideClient = 1;
constexpr uint8_t traceSideEngine = 2;
constexpr uint8_t traceSideChannel = 3;

/** Static name of a side. */
const char *traceSideName(uint8_t side);

/** One recorded event. label must have static storage duration. */
struct TraceEvent
{
    uint64_t cycles = 0; ///< rdcycles() at record time
    uint64_t tick = 0;   ///< virtual tick (engine sweep count)
    TraceEventKind kind = TraceEventKind::ConnOpen;
    uint8_t side = traceSideEngine;
    uint16_t code = 0; ///< alert code / state index / direction
    uint64_t arg = 0;  ///< size, record index, job id...
    const char *label = nullptr; ///< static string; may be null
    std::string text;            ///< dynamic payload (log capture)
};

/**
 * Outcome-keyed trace retention policy.
 *
 * Plain 1-in-N sampling decides at session OPEN which sessions are
 * observable — so under low failure rates the interesting tail (fatal
 * alerts, timeouts, shed sessions) is almost never in the sample. This
 * policy splits the decision: with keepFailures set, every session
 * records into a ring (recording is cheap), and the 1-in-N decay is
 * applied at DUMP time to completed sessions only; any session whose
 * terminal outcome is a failure always reaches the sink.
 */
struct TraceSampling
{
    /** 1-in-N retention for completed sessions (0 = tracing off). */
    uint32_t sampleEvery = 0;
    /** Record every session; failures bypass the 1-in-N decay. */
    bool keepFailures = false;

    /** Should this session get a flight-recorder ring at all? */
    bool
    shouldRecord(uint64_t serial) const
    {
        if (sampleEvery == 0)
            return false;
        return keepFailures || serial % sampleEvery == 0;
    }

    /** Terminal outcomes that always dump (the interesting tail). */
    static bool
    isFailure(std::string_view outcome)
    {
        return outcome != "completed" && outcome != "open";
    }

    /** Should a finished session's trace reach the sink? */
    bool
    shouldDump(uint64_t serial, std::string_view outcome) const
    {
        if (isFailure(outcome))
            return true;
        return sampleEvery != 0 && serial % sampleEvery == 0;
    }
};

/**
 * Fixed-capacity event ring for one session (or one crypto-pool
 * thread's track). Overflow drops the OLDEST events — the flight
 * recorder keeps the end of the story, which is the part that explains
 * the crash.
 */
class SessionTrace
{
  public:
    /**
     * @param serial stable session identifier (engine: worker<<32|n)
     * @param track export track (worker index; crypto threads offset)
     * @param capacity ring size in events
     */
    explicit SessionTrace(uint64_t serial, uint32_t track,
                          size_t capacity = 192);

    void record(TraceEventKind kind, uint8_t side, const char *label,
                uint16_t code = 0, uint64_t arg = 0);

    /** Record with a dynamic text payload (captured log lines). */
    void recordText(TraceEventKind kind, uint8_t side, std::string text);

    /** Advance the virtual clock stamped on subsequent events. */
    void setTick(uint64_t tick) { tick_ = tick; }
    uint64_t tick() const { return tick_; }

    uint64_t serial() const { return serial_; }
    uint32_t track() const { return track_; }

    /** Terminal outcome annotation ("completed", "alerted", ...). */
    void noteOutcome(const char *outcome) { outcome_ = outcome; }
    const char *outcome() const { return outcome_; }

    /** Events currently held, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Events recorded over the trace's lifetime. */
    uint64_t recorded() const { return recorded_; }

    /** Events lost to ring overflow. */
    uint64_t
    dropped() const
    {
        return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
    }

    size_t
    size() const
    {
        return recorded_ < ring_.size()
                   ? static_cast<size_t>(recorded_)
                   : ring_.size();
    }

  private:
    TraceEvent &nextSlot();

    std::vector<TraceEvent> ring_;
    uint64_t serial_;
    uint32_t track_;
    uint64_t recorded_ = 0;
    uint64_t tick_ = 0;
    const char *outcome_ = "open";
};

/**
 * Receives completed session traces. Implementations must be
 * thread-safe: workers dump concurrently.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void dump(const SessionTrace &trace) = 0;
};

} // namespace ssla::obs

#endif // SSLA_OBS_TRACE_HH
