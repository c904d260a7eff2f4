#include "ssl/endpoint.hh"

#include <thread>

#include "util/logging.hh"

namespace ssla::ssl
{

const char *
cryptoWaitLabel(CryptoWait wait)
{
    switch (wait) {
    case CryptoWait::PreMasterDecrypt:
        return "rsa_decrypt";
    case CryptoWait::ServerKxSign:
        return "rsa_sign";
    case CryptoWait::CertVerifySign:
        return "cert_verify_sign";
    case CryptoWait::None:
        break;
    }
    return "none";
}

SslEndpoint::SslEndpoint(BioEndpoint bio, crypto::RandomPool *pool,
                         crypto::Provider *provider)
    : record_(bio, provider),
      pool_(pool ? pool : &crypto::globalRandomPool()),
      obsRegistry_(&obs::MetricsRegistry::global())
{
}

void
SslEndpoint::bindObservability(const EndpointObsBinding &binding)
{
    if (binding.registry)
        obsRegistry_ = binding.registry;
    if (binding.recordCounters)
        record_.bindCounters(binding.recordCounters);
    trace_ = binding.trace;
    traceSide_ = binding.side;
}

const CipherSuite &
SslEndpoint::suite() const
{
    if (!suite_)
        throw std::logic_error("SslEndpoint: no suite negotiated yet");
    return *suite_;
}

bool
SslEndpoint::pumpOneRecord()
{
    auto rec = record_.receive();
    if (!rec)
        return false;

    switch (rec->type) {
      case ContentType::Handshake:
        if (done_)
            fail(AlertDescription::UnexpectedMessage,
                 "renegotiation not supported");
        // Compact the reassembly buffer before appending.
        if (hsOffset_) {
            hsBuffer_.erase(hsBuffer_.begin(),
                            hsBuffer_.begin() + hsOffset_);
            hsOffset_ = 0;
        }
        append(hsBuffer_, rec->payload);
        return true;

      case ContentType::ChangeCipherSpec:
        if (rec->payload.size() != 1 || rec->payload[0] != 1)
            fail(AlertDescription::IllegalParameter,
                 "malformed ChangeCipherSpec");
        traceEvent(obs::TraceEventKind::CcsRecv);
        onChangeCipherSpec();
        ccsReceived_ = true;
        return true;

      case ContentType::Alert:
        handleAlert(rec->payload);
        return true;

      case ContentType::ApplicationData:
        if (!done_)
            fail(AlertDescription::UnexpectedMessage,
                 "application data during handshake");
        appData_.push_back(std::move(rec->payload));
        return true;
    }
    fail(AlertDescription::UnexpectedMessage, "unknown record type");
}

void
SslEndpoint::handleAlert(const Bytes &payload)
{
    if (payload.size() != 2)
        fail(AlertDescription::IllegalParameter, "malformed alert");
    auto level = static_cast<AlertLevel>(payload[0]);
    auto desc = static_cast<AlertDescription>(payload[1]);
    traceEvent(obs::TraceEventKind::AlertRecv, alertName(desc),
               static_cast<uint16_t>(desc));
    // Alerts are rare (one per failed session at most), so resolving
    // the per-code counter by name here beats pre-registering all 26.
    obsRegistry_->counter(std::string("alert.recv.") + alertName(desc))
        .inc();
    if (desc == AlertDescription::CloseNotify) {
        peerClosed_ = true;
        return;
    }
    if (level == AlertLevel::Fatal) {
        // The peer already knows the session is dead: answering its
        // alert with one of ours would be the double-alert the fault
        // harness checks against.
        peerFatal_ = true;
        throw SslError(desc, "peer sent fatal alert");
    }
    warn(std::string("ignoring warning alert: ") + alertName(desc));
}

std::optional<HandshakeMessage>
SslEndpoint::nextHandshakeMessage(bool update_hash)
{
    for (;;) {
        // Bound the declared message length before buffering toward
        // it: the 24-bit length field can announce a 16 MB message,
        // and accumulating that on faith is a memory DoS. Nothing we
        // speak legitimately exceeds a modest certificate chain.
        if (hsBuffer_.size() - hsOffset_ >= 4) {
            size_t declared =
                (static_cast<size_t>(hsBuffer_[hsOffset_ + 1]) << 16) |
                (static_cast<size_t>(hsBuffer_[hsOffset_ + 2]) << 8) |
                hsBuffer_[hsOffset_ + 3];
            if (declared > maxHandshakeMessage)
                fail(AlertDescription::IllegalParameter,
                     "handshake message length " +
                         std::to_string(declared) + " exceeds bound");
        }
        auto msg = HandshakeMessage::parse(hsBuffer_, hsOffset_);
        if (msg) {
            if (update_hash) {
                // Hash the framed form (header + body), as SSLv3 does.
                hsHash_.update(msg->encode());
            }
            traceEvent(obs::TraceEventKind::FlightRecv,
                       handshakeTypeName(msg->type),
                       static_cast<uint16_t>(msg->type),
                       msg->body.size());
            return msg;
        }
        if (ccsReceived_)
            return std::nullopt; // let the state machine handle CCS
        if (!pumpOneRecord())
            return std::nullopt;
    }
}

bool
SslEndpoint::takeCcsReceived()
{
    if (!ccsReceived_) {
        // Try to pull a record in case the CCS is still buffered.
        if (!pumpOneRecord())
            return false;
        if (!ccsReceived_)
            return false;
    }
    ccsReceived_ = false;
    return true;
}

void
SslEndpoint::sendHandshake(HandshakeType type, const Bytes &body)
{
    HandshakeMessage msg{type, body};
    Bytes wire = msg.encode();
    hsHash_.update(wire);
    traceEvent(obs::TraceEventKind::FlightSend, handshakeTypeName(type),
               static_cast<uint16_t>(type), body.size());
    record_.send(ContentType::Handshake, wire);
}

void
SslEndpoint::sendChangeCipherSpec()
{
    Bytes one{1};
    traceEvent(obs::TraceEventKind::CcsSend);
    record_.send(ContentType::ChangeCipherSpec, one);
}

void
SslEndpoint::sendAlert(AlertLevel level, AlertDescription desc)
{
    if (level == AlertLevel::Fatal) {
        if (fatalAlertSent_)
            return; // at most one fatal alert per connection
        fatalAlertSent_ = true;
        ++fatalAlertsSent_;
    }
    traceEvent(obs::TraceEventKind::AlertSend, alertName(desc),
               static_cast<uint16_t>(desc));
    obsRegistry_->counter(std::string("alert.sent.") + alertName(desc))
        .inc();
    Bytes payload{static_cast<uint8_t>(level),
                  static_cast<uint8_t>(desc)};
    record_.send(ContentType::Alert, payload);
}

void
SslEndpoint::fail(AlertDescription desc, const std::string &msg)
{
    noteFatal(desc);
    throw SslError(desc, msg);
}

void
SslEndpoint::noteFatal(AlertDescription desc)
{
    if (dead_)
        return;
    dead_ = true;
    lastAlert_ = desc;
    traceEvent(obs::TraceEventKind::Teardown, alertName(desc),
               static_cast<uint16_t>(desc));
    if (trace_)
        trace_->noteOutcome(peerFatal_ ? "peer-fatal" : "fatal");
    if (!peerFatal_) {
        try {
            sendAlert(AlertLevel::Fatal, desc);
        } catch (...) {
            // Failing to notify the peer must not mask the original
            // error (and must never crash the teardown path).
        }
    }
    onFatal();
}

void
SslEndpoint::abort(AlertDescription desc)
{
    noteFatal(desc);
}

const KeyBlock &
SslEndpoint::keyBlock()
{
    if (!keyBlock_) {
        keyBlock_ = deriveKeyBlock(version_, master_, clientRandom_,
                                   serverRandom_, *suite_);
    }
    return *keyBlock_;
}

bool
SslEndpoint::advance()
{
    if (dead_)
        return false;
    // Retry records a capped transport refused earlier; delivering
    // backlog is progress (the peer can now read what was stuck).
    bool progressed = record_.flushPendingOutput();
    bool wasDone = done_;
    try {
        while (!done_ && step())
            progressed = true;
        if (!wasDone && done_)
            traceEvent(obs::TraceEventKind::HandshakeDone,
                       resumed_ ? "resumed" : "full");
    } catch (const SslError &e) {
        // Central failure funnel: a bare SslError out of a parser gets
        // the same one-alert-then-dead treatment as a fail() call.
        noteFatal(e.alert());
        throw;
    } catch (...) {
        noteFatal(AlertDescription::InternalError);
        throw;
    }
    return progressed;
}

void
SslEndpoint::writeApplicationData(const Bytes &data)
{
    if (!done_)
        throw std::logic_error("writeApplicationData before handshake");
    record_.send(ContentType::ApplicationData, data);
}

void
SslEndpoint::writeApplicationData(const ConstSpan *iov, size_t iovcnt)
{
    if (!done_)
        throw std::logic_error("writeApplicationData before handshake");
    record_.sendMany(ContentType::ApplicationData, iov, iovcnt);
}

std::optional<Bytes>
SslEndpoint::readApplicationData()
{
    try {
        while (appData_.empty()) {
            if (peerClosed_ || dead_)
                return std::nullopt;
            if (!pumpOneRecord())
                return std::nullopt;
        }
    } catch (const SslError &e) {
        noteFatal(e.alert());
        throw;
    }
    Bytes out = std::move(appData_.front());
    appData_.pop_front();
    return out;
}

void
SslEndpoint::close()
{
    if (closeSent_)
        return;
    sendAlert(AlertLevel::Warning, AlertDescription::CloseNotify);
    closeSent_ = true;
}

void
runLockstep(SslEndpoint &a, SslEndpoint &b)
{
    while (!a.handshakeDone() || !b.handshakeDone()) {
        bool progress = a.advance();
        progress |= b.advance();
        if (!progress) {
            // Parked on an async crypto engine is not a deadlock: the
            // result arrives from another thread. Yield and re-poll.
            if (a.waitingOnCrypto() || b.waitingOnCrypto()) {
                std::this_thread::yield();
                continue;
            }
            // The job can resolve between advance() and the check
            // above: the next advance() consumes it.
            if (a.advance() | b.advance())
                continue;
            throw std::runtime_error(
                "runLockstep: handshake deadlocked");
        }
    }
}

} // namespace ssla::ssl
