#include "ssl/record.hh"

#include <cstring>

#include "util/bytes.hh"

namespace ssla::ssl
{

RecordCounters
RecordCounters::resolve(obs::MetricsRegistry &reg)
{
    RecordCounters c;
    c.recordsOut = reg.counter("record.records_out");
    c.bytesOut = reg.counter("record.bytes_out");
    c.recordsIn = reg.counter("record.records_in");
    c.bytesIn = reg.counter("record.bytes_in");
    c.scratchGrows = reg.counter("record.scratch_grows");
    c.pendingSpills = reg.counter("record.pending_spills");
    return c;
}

const RecordCounters &
globalRecordCounters()
{
    static const RecordCounters c =
        RecordCounters::resolve(obs::MetricsRegistry::global());
    return c;
}

Bytes
ssl3Mac(crypto::DigestAlg alg, const Bytes &secret, uint64_t seq,
        uint8_t type, const uint8_t *data, size_t len)
{
    crypto::RecordMacSpec spec{alg, secret, ssl3Version};
    Bytes mac(crypto::maxRecordMacLen);
    mac.resize(crypto::defaultProvider().recordMac(
        spec, seq, type, ConstSpan{data, len}, mac.data()));
    return mac;
}

Bytes
tls1Mac(crypto::DigestAlg alg, const Bytes &secret, uint64_t seq,
        uint8_t type, uint16_t version, const uint8_t *data, size_t len)
{
    crypto::RecordMacSpec spec{alg, secret, version};
    Bytes mac(crypto::maxRecordMacLen);
    mac.resize(crypto::defaultProvider().recordMac(
        spec, seq, type, ConstSpan{data, len}, mac.data()));
    return mac;
}

void
RecordLayer::setVersion(uint16_t version)
{
    if (version != ssl3Version && version != tls1Version)
        throw SslError(AlertDescription::IllegalParameter,
                       "record: unsupported protocol version");
    version_ = version;
    versionLocked_ = true;
}

size_t
RecordLayer::computeMac(const RecordCipherState &dir, uint8_t type,
                        ConstSpan data, uint64_t seq,
                        uint8_t *out) const
{
    return dir.provider->recordMac(dir.macSpec, seq, type, data, out);
}

void
RecordLayer::enableSendCipher(const CipherSuite &suite, Bytes mac_secret,
                              const Bytes &key, const Bytes &iv)
{
    send_.suite = &suite;
    send_.provider = provider_;
    send_.macSpec =
        crypto::RecordMacSpec{suite.mac, std::move(mac_secret),
                              version_};
    send_.cipher = provider_->createCipher(suite.cipher, key, iv, true);
    send_.seq = 0;
}

void
RecordLayer::enableRecvCipher(const CipherSuite &suite, Bytes mac_secret,
                              const Bytes &key, const Bytes &iv)
{
    recv_.suite = &suite;
    recv_.provider = provider_;
    recv_.macSpec =
        crypto::RecordMacSpec{suite.mac, std::move(mac_secret),
                              version_};
    recv_.cipher = provider_->createCipher(suite.cipher, key, iv, false);
    recv_.seq = 0;
}

void
RecordLayer::send(ContentType type, const uint8_t *data, size_t len)
{
    std::span<const uint8_t> one{data, len};
    sendMany(type, &one, 1);
}

void
RecordLayer::send(ContentType type, const Bytes &data)
{
    send(type, data.data(), data.size());
}

void
RecordLayer::sendMany(ContentType type, const std::vector<Bytes> &bufs)
{
    std::vector<std::span<const uint8_t>> iov;
    iov.reserve(bufs.size());
    for (const Bytes &b : bufs)
        iov.emplace_back(b.data(), b.size());
    sendMany(type, iov.data(), iov.size());
}

void
RecordLayer::sendMany(ContentType type,
                      const std::span<const uint8_t> *iov, size_t iovcnt)
{
    // One fragment at a time, exactly the classic MAC(n) -> encrypt(n)
    // -> MAC(n+1) -> ... sequence, with each record laid out and sealed
    // in the reusable arena (cipher on) or gather-written straight from
    // the caller's spans (plaintext).
    size_t total = iovTotalBytes(iov, iovcnt);
    IoVecCursor cur(iov, iovcnt);
    size_t sent = 0;
    do {
        size_t chunk = std::min(total - sent, maxFragment);
        if (send_.active())
            sendCipherRecord(type, cur, chunk);
        else
            sendPlainRecord(type, cur, chunk);
        sent += chunk;
    } while (sent < total);
}

void
RecordLayer::fillHeader(uint8_t *hdr, ContentType type,
                        size_t frag_len) const
{
    hdr[0] = static_cast<uint8_t>(type);
    hdr[1] = static_cast<uint8_t>(version_ >> 8);
    hdr[2] = static_cast<uint8_t>(version_);
    hdr[3] = static_cast<uint8_t>(frag_len >> 8);
    hdr[4] = static_cast<uint8_t>(frag_len);
}

size_t
RecordLayer::padAndEncrypt(uint8_t *frag, size_t len)
{
    size_t block = send_.suite->blockLen();
    if (block > 1) {
        // SSLv3 padding: fill to a block multiple; the final byte
        // counts the padding bytes before it.
        size_t pad = (block - (len + 1) % block) % block;
        std::memset(frag + len, static_cast<int>(pad), pad + 1);
        len += pad + 1;
    }
    send_.cipher->process(frag, frag, len);
    return len;
}

bool
RecordLayer::flushPendingOutput()
{
    bool delivered = false;
    while (!pendingOut_.empty()) {
        const Bytes &wire = pendingOut_.front();
        if (!bio_.write(wire.data(), wire.size()))
            return delivered; // still blocked; keep the backlog intact
        pendingOut_.pop_front();
        delivered = true;
    }
    return delivered;
}

void
RecordLayer::deliver(const ConstSpan *iov, size_t iovcnt,
                     size_t payload_len)
{
    // The transport takes the whole record or none of it: a capped bio
    // can never hold a torn record, and a refused record flattens into
    // the in-order retry queue (sequence numbers are already burned).
    flushPendingOutput();
    if (!pendingOut_.empty() || !bio_.writev(iov, iovcnt)) {
        Bytes wire;
        wire.reserve(iovTotalBytes(iov, iovcnt));
        for (size_t i = 0; i < iovcnt; ++i)
            wire.insert(wire.end(), iov[i].data(),
                        iov[i].data() + iov[i].size());
        pendingOut_.push_back(std::move(wire));
        obs_->pendingSpills.inc();
    }
    bytesSent_ += payload_len;
    ++recordsSent_;
    obs_->recordsOut.inc();
    obs_->bytesOut.inc(payload_len);
}

void
RecordLayer::noteArenaGrowth()
{
    while (arenaGrowsSeen_ < arena_.grows()) {
        ++arenaGrowsSeen_;
        obs_->scratchGrows.inc();
    }
}

void
RecordLayer::sendPlainRecord(ContentType type, IoVecCursor &cur,
                             size_t chunk)
{
    // Zero-copy: header on the stack, payload borrowed slice by slice
    // from the caller's buffers, one gather-write for the record.
    uint8_t hdr[5];
    fillHeader(hdr, type, chunk);
    iovScratch_.clear();
    iovScratch_.emplace_back(hdr, 5);
    size_t need = chunk;
    while (need) {
        ConstSpan piece = cur.takeUpTo(need);
        iovScratch_.push_back(piece);
        need -= piece.size();
    }
    deliver(iovScratch_.data(), iovScratch_.size(), chunk);
}

void
RecordLayer::sendCipherRecord(ContentType type, IoVecCursor &cur,
                              size_t chunk)
{
    // One arena image per record: header | payload | MAC | padding,
    // MACed and encrypted in place. After warm-up the arena never
    // reallocates, so the steady-state send path is heap-silent.
    size_t mac_max = send_.suite->macLen();
    size_t block = send_.suite->blockLen();
    MutSpan wire = arena_.acquire(5 + chunk + mac_max + block);
    noteArenaGrowth();
    uint8_t *frag = wire.data() + 5;
    cur.gather(frag, chunk);
    size_t mac_len =
        computeMac(send_, static_cast<uint8_t>(type),
                   ConstSpan{frag, chunk}, send_.seq++, frag + chunk);
    size_t frag_len = padAndEncrypt(frag, chunk + mac_len);
    fillHeader(wire.data(), type, frag_len);
    ConstSpan one{wire.data(), 5 + frag_len};
    deliver(&one, 1, chunk);
}

std::optional<Record>
RecordLayer::receive()
{
    uint8_t header[5];
    if (bio_.peek(header, 5) < 5)
        return std::nullopt;

    auto type = static_cast<ContentType>(header[0]);
    uint16_t version = static_cast<uint16_t>((header[1] << 8) | header[2]);
    size_t frag_len = static_cast<size_t>((header[3] << 8) | header[4]);

    if (versionLocked_ ? version != version_
                       : (version >> 8) != 0x03)
        throw SslError(AlertDescription::IllegalParameter,
                       "record: bad protocol version");
    if (frag_len > maxFragment + 1024 + 256)
        throw SslError(AlertDescription::IllegalParameter,
                       "record: oversized fragment");
    if (bio_.available() < 5 + frag_len)
        return std::nullopt;

    bio_.consume(5);
    Bytes fragment(frag_len);
    bio_.read(fragment.data(), frag_len);

    if (!recv_.active()) {
        obs_->recordsIn.inc();
        obs_->bytesIn.inc(fragment.size());
        return Record{type, std::move(fragment)};
    }

    size_t mac_len = recv_.suite->macLen();
    size_t block = recv_.suite->blockLen();

    // Validate ciphertext geometry BEFORE decrypting: a truncated
    // record's partial block would otherwise surface as the cipher's
    // own exception rather than the record layer's SslError (the
    // fault harness asserts only SslError ever escapes).
    if (block > 1 && (fragment.empty() || fragment.size() % block))
        throw SslError(AlertDescription::BadRecordMac,
                       "record: bad block length");

    recv_.cipher->process(fragment.data(), fragment.data(),
                          fragment.size());

    size_t data_len = fragment.size();

    // Padding is validated in constant time: a single pass with no
    // early return, folding every check into one mask so a forger
    // cannot distinguish bad-padding from bad-MAC by timing or alert
    // (the distinguisher behind padding-oracle attacks on CBC suites).
    size_t pad_valid = 1;
    if (block > 1) {
        size_t pad = fragment.back();
        // pad + 1 + mac_len must fit inside the fragment.
        pad_valid = static_cast<size_t>(
            pad + 1 + mac_len <= fragment.size());
        if (version_ >= tls1Version) {
            // TLS 1.0: every padding byte must equal the pad length.
            // Scan a fixed window so the pass count does not depend
            // on the (secret) pad value.
            size_t scan = std::min<size_t>(fragment.size() - 1, 255);
            uint8_t diff = 0;
            for (size_t i = 0; i < scan; ++i) {
                // Mask is all-ones for positions inside the padding.
                uint8_t in_pad = static_cast<uint8_t>(
                    0 - static_cast<uint8_t>(i < pad));
                diff |= static_cast<uint8_t>(
                    (fragment[fragment.size() - 2 - i] ^ pad) &
                    in_pad);
            }
            pad_valid &= static_cast<size_t>(diff == 0);
        }
        // On invalid padding, proceed with a zero-length pad so the
        // MAC is still computed (and fails) over a plausible region.
        size_t claimed = pad & (0 - pad_valid);
        data_len = fragment.size() - 1 - claimed;
    }
    if (data_len < mac_len)
        throw SslError(AlertDescription::BadRecordMac,
                       "record: bad record MAC");
    data_len -= mac_len;

    uint8_t expect[crypto::maxRecordMacLen];
    computeMac(recv_, static_cast<uint8_t>(type),
               ConstSpan{fragment.data(), data_len}, recv_.seq++,
               expect);
    size_t mac_valid = static_cast<size_t>(constantTimeEquals(
        expect, fragment.data() + data_len, mac_len));
    if (!(pad_valid & mac_valid))
        throw SslError(AlertDescription::BadRecordMac,
                       "record: bad record MAC");

    fragment.resize(data_len);
    obs_->recordsIn.inc();
    obs_->bytesIn.inc(fragment.size());
    return Record{type, std::move(fragment)};
}

} // namespace ssla::ssl
