#include "obs/trace.hh"

namespace ssla::obs
{

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
    case TraceEventKind::ConnOpen: return "ConnOpen";
    case TraceEventKind::StateEnter: return "StateEnter";
    case TraceEventKind::FlightSend: return "FlightSend";
    case TraceEventKind::FlightRecv: return "FlightRecv";
    case TraceEventKind::CcsSend: return "CcsSend";
    case TraceEventKind::CcsRecv: return "CcsRecv";
    case TraceEventKind::CryptoSubmit: return "CryptoSubmit";
    case TraceEventKind::CryptoComplete: return "CryptoComplete";
    case TraceEventKind::CryptoCancel: return "CryptoCancel";
    case TraceEventKind::JobStart: return "JobStart";
    case TraceEventKind::JobEnd: return "JobEnd";
    case TraceEventKind::AlertSend: return "AlertSend";
    case TraceEventKind::AlertRecv: return "AlertRecv";
    case TraceEventKind::FaultInjected: return "FaultInjected";
    case TraceEventKind::DeadlineFired: return "DeadlineFired";
    case TraceEventKind::Park: return "Park";
    case TraceEventKind::Resume: return "Resume";
    case TraceEventKind::HandshakeDone: return "HandshakeDone";
    case TraceEventKind::Complete: return "Complete";
    case TraceEventKind::Teardown: return "Teardown";
    case TraceEventKind::LogMessage: return "LogMessage";
    case TraceEventKind::ThreadRestart: return "ThreadRestart";
    }
    return "Unknown";
}

const char *
traceSideName(uint8_t side)
{
    switch (side) {
    case traceSideServer: return "server";
    case traceSideClient: return "client";
    case traceSideEngine: return "engine";
    case traceSideChannel: return "channel";
    }
    return "unknown";
}

SessionTrace::SessionTrace(uint64_t serial, uint32_t track,
                           size_t capacity)
    : serial_(serial), track_(track)
{
    if (capacity == 0)
        capacity = 1;
    ring_.resize(capacity);
}

TraceEvent &
SessionTrace::nextSlot()
{
    TraceEvent &slot = ring_[recorded_ % ring_.size()];
    ++recorded_;
    slot.cycles = rdcycles();
    slot.tick = tick_;
    slot.text.clear();
    return slot;
}

void
SessionTrace::record(TraceEventKind kind, uint8_t side,
                     const char *label, uint16_t code, uint64_t arg)
{
    TraceEvent &e = nextSlot();
    e.kind = kind;
    e.side = side;
    e.code = code;
    e.arg = arg;
    e.label = label;
}

void
SessionTrace::recordText(TraceEventKind kind, uint8_t side,
                         std::string text)
{
    TraceEvent &e = nextSlot();
    e.kind = kind;
    e.side = side;
    e.code = 0;
    e.arg = 0;
    e.label = nullptr;
    e.text = std::move(text);
}

std::vector<TraceEvent>
SessionTrace::events() const
{
    std::vector<TraceEvent> out;
    size_t n = size();
    out.reserve(n);
    size_t start = recorded_ < ring_.size()
                       ? 0
                       : static_cast<size_t>(recorded_ % ring_.size());
    for (size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

} // namespace ssla::obs
