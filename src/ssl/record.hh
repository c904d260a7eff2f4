/**
 * @file
 * The SSLv3 record layer: fragmentation, MAC, padding, encryption.
 *
 * This is where the bulk-data-transfer costs the paper measures live:
 * the "mac" probe covers the SSLv3 pad-concatenation MAC, and
 * "pri_encryption"/"pri_decryption" cover the symmetric cipher work
 * (all three fire from the crypto provider's dispatch layer — see
 * crypto/provider.hh).
 *
 * All crypto objects are created through a crypto::Provider. Every
 * send seals records synchronously, MAC then encrypt, one record at a
 * time in a reusable arena; the paper's Section 6.2 MAC/encrypt
 * overlap is a hardware proposal and is modelled in perf/ablation.
 */

#ifndef SSLA_SSL_RECORD_HH
#define SSLA_SSL_RECORD_HH

#include <deque>
#include <memory>
#include <optional>
#include <span>

#include "crypto/provider.hh"
#include "obs/metrics.hh"
#include "ssl/alert.hh"
#include "ssl/bio.hh"
#include "ssl/ciphersuite.hh"
#include "util/iovec.hh"

namespace ssla::ssl
{

/** SSLv3 record content types. */
enum class ContentType : uint8_t
{
    ChangeCipherSpec = 20,
    Alert = 21,
    Handshake = 22,
    ApplicationData = 23,
};

/** SSL 3.0 — the version the paper measures, and the default. */
constexpr uint16_t ssl3Version = 0x0300;

/** TLS 1.0 (RFC 2246), negotiable via the endpoint configs. */
constexpr uint16_t tls1Version = 0x0301;

/** Maximum plaintext fragment per record. */
constexpr size_t maxFragment = 16384;

/** A decrypted, authenticated record. */
struct Record
{
    ContentType type;
    Bytes payload;
};

/**
 * Compute the SSLv3 MAC:
 * hash(secret || pad2 || hash(secret || pad1 || seq || type || len ||
 * data)). Dispatches through the default provider; probed as "mac".
 */
Bytes ssl3Mac(crypto::DigestAlg alg, const Bytes &secret, uint64_t seq,
              uint8_t type, const uint8_t *data, size_t len);

/**
 * Compute the TLS 1.0 record MAC:
 * HMAC(secret, seq || type || version || length || data). Dispatches
 * through the default provider; probed as "mac".
 */
Bytes tls1Mac(crypto::DigestAlg alg, const Bytes &secret, uint64_t seq,
              uint8_t type, uint16_t version, const uint8_t *data,
              size_t len);

/**
 * Registry handles for a record channel's traffic accounting: records
 * and plaintext bytes per direction. The struct (not the layer) owns
 * the handle resolution so a serving engine can point many channels at
 * one pre-resolved set — binding costs nothing per connection.
 */
struct RecordCounters
{
    obs::Counter recordsOut;
    obs::Counter bytesOut;
    obs::Counter recordsIn;
    obs::Counter bytesIn;
    /**
     * Data-plane allocation events on the send path: scratch-arena
     * reallocations and whole-record spills into the would-block retry
     * queue. Both must read zero over a steady-state window — the gate
     * bench_serve_throughput asserts.
     */
    obs::Counter scratchGrows;
    obs::Counter pendingSpills;

    /** Resolve the standard record.* names from @p reg. */
    static RecordCounters resolve(obs::MetricsRegistry &reg);
};

/**
 * The process-default counter set, resolved once from the global
 * registry (standalone endpoints in tests/examples count here).
 */
const RecordCounters &globalRecordCounters();

/** One direction's active cipher state. */
struct RecordCipherState
{
    const CipherSuite *suite = nullptr;
    crypto::Provider *provider = nullptr; ///< engine serving this direction
    std::unique_ptr<crypto::Cipher> cipher;
    crypto::RecordMacSpec macSpec; ///< keyed MAC states, construction
    uint64_t seq = 0;

    bool active() const { return suite != nullptr; }
};

/**
 * A full-duplex SSLv3 record channel over a BioEndpoint.
 *
 * Starts in plaintext; each direction switches to its pending cipher
 * state when the corresponding ChangeCipherSpec is processed.
 */
class RecordLayer
{
  public:
    /**
     * @param bio the transport
     * @param provider crypto engine for both directions; null selects
     *        crypto::defaultProvider() (instrumented scalar kernels)
     */
    explicit RecordLayer(BioEndpoint bio,
                         crypto::Provider *provider = nullptr)
        : bio_(bio),
          provider_(provider ? provider : &crypto::defaultProvider()),
          obs_(&globalRecordCounters())
    {}

    /**
     * Re-point traffic accounting at @p counters (null restores the
     * global set). The pointee must outlive the layer; a serving
     * engine binds every connection to its own registry's handles.
     */
    void
    bindCounters(const RecordCounters *counters)
    {
        obs_ = counters ? counters : &globalRecordCounters();
    }

    /** Send @p data as one or more records of @p type. */
    void send(ContentType type, const Bytes &data);
    void send(ContentType type, const uint8_t *data, size_t len);

    /**
     * Scatter/gather send: the concatenation of @p iov is fragmented
     * into records of @p type, with wire bytes identical to send() of
     * the concatenated buffer. Slice boundaries need not align with
     * record boundaries; empty slices are skipped.
     */
    void sendMany(ContentType type,
                  const std::span<const uint8_t> *iov, size_t iovcnt);
    void sendMany(ContentType type, const std::vector<Bytes> &bufs);

    /**
     * Try to read one record. Returns nullopt when the transport does
     * not yet hold a complete record (the would-block case).
     * @throws SslError on MAC/padding/format failures
     */
    std::optional<Record> receive();

    /** Install the write-direction cipher (after sending CCS). */
    void enableSendCipher(const CipherSuite &suite, Bytes mac_secret,
                          const Bytes &key, const Bytes &iv);

    /** Install the read-direction cipher (after receiving CCS). */
    void enableRecvCipher(const CipherSuite &suite, Bytes mac_secret,
                          const Bytes &key, const Bytes &iv);

    bool sendCipherActive() const { return send_.active(); }
    bool recvCipherActive() const { return recv_.active(); }

    /** Flush the transport (probed buffer control, like Table 2). */
    void
    flush()
    {
        flushPendingOutput();
        bio_.flush();
    }

    /**
     * Retry records the transport refused (a capped MemBio whose
     * reader stopped draining). Sealed records queue here in order —
     * sequence numbers are already burned — and nothing later goes on
     * the wire until the backlog clears. @return true if any record
     * was delivered by this call.
     */
    bool flushPendingOutput();

    /** True while sealed records are queued behind a full transport. */
    bool outputBlocked() const { return !pendingOut_.empty(); }

    /** Records queued behind a full transport. */
    size_t pendingOutputRecords() const { return pendingOut_.size(); }

    /**
     * Lock the negotiated protocol version (0x0300 or 0x0301).
     * Before locking, incoming records of any 3.x version are
     * accepted (a TLS client's first flight may arrive before the
     * hello is parsed); afterwards the version must match exactly.
     */
    void setVersion(uint16_t version);

    /** Currently negotiated (or default SSLv3) version. */
    uint16_t version() const { return version_; }

    /** The crypto engine this channel creates its objects through. */
    crypto::Provider &provider() { return *provider_; }

    /** Plaintext application/handshake bytes sent (for the web sim). */
    uint64_t bytesSent() const { return bytesSent_; }
    uint64_t recordsSent() const { return recordsSent_; }

    /** Send-side scratch-arena reallocations (0 once warmed up). */
    uint64_t scratchGrows() const { return arena_.grows(); }

  private:
    /** Seal one cipher-protected record in the arena and deliver it:
     *  gather payload at offset 5, MAC and pad behind it, encrypt in
     *  place — one wire image, zero heap traffic once warm. */
    void sendCipherRecord(ContentType type, IoVecCursor &cur,
                          size_t chunk);

    /** Deliver one plaintext record straight off the caller's spans
     *  (stack header + borrowed payload slices, no copy at all). */
    void sendPlainRecord(ContentType type, IoVecCursor &cur,
                         size_t chunk);

    /** Fill a 5-byte record header in place. */
    void fillHeader(uint8_t *hdr, ContentType type,
                    size_t frag_len) const;

    /** Pad (CBC suites) and encrypt a fragment in place; @p len is
     *  payload+MAC bytes at @p frag. Returns the sealed length. */
    size_t padAndEncrypt(uint8_t *frag, size_t len);

    /** Hand one sealed record (as slices) to the transport; a refusal
     *  flattens it into the in-order retry queue (a counted spill). */
    void deliver(const ConstSpan *iov, size_t iovcnt,
                 size_t payload_len);

    /** MAC dispatch on the direction's provider and spec; writes into
     *  @p out (≥ crypto::maxRecordMacLen) and returns the length. */
    size_t computeMac(const RecordCipherState &dir, uint8_t type,
                      ConstSpan data, uint64_t seq, uint8_t *out) const;

    /** Mirror arena reallocations into the scratch-grows counter. */
    void noteArenaGrowth();

    BioEndpoint bio_;
    crypto::Provider *provider_;
    RecordCipherState send_;
    RecordCipherState recv_;
    std::deque<Bytes> pendingOut_; ///< sealed records the bio refused
    ScratchArena arena_;           ///< reusable wire image
    uint64_t arenaGrowsSeen_ = 0;  ///< grows already counted
    std::vector<ConstSpan> iovScratch_; ///< reused plaintext slice list
    uint16_t version_ = ssl3Version;
    bool versionLocked_ = false;
    uint64_t bytesSent_ = 0;
    uint64_t recordsSent_ = 0;
    const RecordCounters *obs_; ///< never null
};

} // namespace ssla::ssl

#endif // SSLA_SSL_RECORD_HH
