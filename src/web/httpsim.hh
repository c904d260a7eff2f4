/**
 * @file
 * The simulated HTTPS web server — this reproduction's stand-in for
 * the paper's Apache + mod_ssl + curl testbed (Section 3.1).
 *
 * A transaction runs a real SSL handshake and bulk transfer between an
 * in-process client and server over memory BIOs; every cycle the
 * server spends in SSL and crypto code is measured with probes, while
 * the kernel/httpd/other rows of Table 1 come from the calibrated
 * model in kernelmodel.hh.
 */

#ifndef SSLA_WEB_HTTPSIM_HH
#define SSLA_WEB_HTTPSIM_HH

#include <memory>
#include <string>

#include "ssl/client.hh"
#include "ssl/server.hh"
#include "web/http.hh"
#include "web/kernelmodel.hh"

namespace ssla::web
{

/** Per-transaction (or aggregated) cycle accounting. */
struct TransactionStats
{
    // Measured on the server side, in cycles.
    uint64_t sslTotal = 0;    ///< all server SSL processing
    uint64_t cryptoTotal = 0; ///< crypto portion of the above

    // Crypto broken into the paper's Figure 2 / Table 3 categories.
    uint64_t cryptoPublic = 0;
    uint64_t cryptoPrivate = 0;
    uint64_t cryptoHash = 0;
    uint64_t cryptoOther = 0;

    // Modeled rows (see kernelmodel.hh).
    double kernelCycles = 0.0;
    double httpdCycles = 0.0;
    double otherCycles = 0.0;

    // Traffic.
    uint64_t wireBytes = 0;
    uint64_t packets = 0;
    uint64_t transactions = 0;
    uint64_t resumedHandshakes = 0;

    /** Total transaction cycles (measured + modeled). */
    double total() const;

    /** Cycles attributed to libssl (SSL minus crypto). */
    uint64_t libssl() const { return sslTotal - cryptoTotal; }

    /** Accumulate another transaction's stats. */
    void merge(const TransactionStats &other);
};

/**
 * Configuration of the simulated server + client pair. Both endpoints
 * run on crypto::defaultProvider(), whose probes the Table 1 / Figure 2
 * breakdowns aggregate.
 */
struct WebSimConfig
{
    ssl::CipherSuiteId suite =
        ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA;
    size_t rsaBits = 1024;
    KernelModelParams model;
    /** Deterministic seed for key generation and randoms. */
    uint64_t seed = 0x55aa55aa;
    /**
     * Registry the server's /metrics route exposes in Prometheus text
     * format (see obs::writePrometheusText); null scrapes the global
     * registry.
     */
    obs::MetricsRegistry *metricsRegistry = nullptr;
};

/**
 * An in-process HTTPS server/client pair that can execute complete
 * transactions and account for where the server's cycles go.
 */
class WebSimulator
{
  public:
    explicit WebSimulator(const WebSimConfig &config);
    ~WebSimulator();

    /**
     * Execute one HTTPS transaction: handshake (full, or resumed when
     * @p resume_session is true and a previous transaction populated
     * the session cache), GET request, response of @p file_size bytes,
     * close. Returns the server-side stats.
     */
    TransactionStats runTransaction(size_t file_size,
                                    bool resume_session = false);

    /** Run @p count transactions and return merged stats. */
    TransactionStats runWorkload(size_t count, size_t file_size,
                                 double resume_fraction = 0.0);

    /**
     * Execute one persistent (keep-alive) session: a single handshake
     * followed by @p requests GET/response exchanges of @p file_size
     * bytes each over the same connection — the paper's "long
     * sessions of data exchange (e.g. B2B sessions)" workload, where
     * bulk encryption rather than the handshake dominates.
     */
    TransactionStats runSession(size_t requests, size_t file_size,
                                bool resume_session = false);

    /**
     * Execute one streaming tunnel: a single handshake, then the
     * server pushes @p total_bytes of opaque payload to the client in
     * gather-writes of @p chunk_bytes (a VPN-over-TLS / long download
     * shape, where per-record data-plane overhead — not the handshake
     * — bounds throughput). Each chunk goes out as scattered spans
     * through the zero-copy send path. Cycle accounting as in
     * runSession.
     */
    TransactionStats runTunnel(size_t total_bytes, size_t chunk_bytes);

    /**
     * One complete HTTPS GET of @p path over a fresh connection,
     * returning the server's parsed response. "/metrics" hits the
     * Prometheus text endpoint (metrics of the configured registry);
     * any other path serves @p file_size bytes of page data.
     */
    HttpResponse fetch(const std::string &path, size_t file_size = 0);

    const crypto::RsaPublicKey &serverPublicKey() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace ssla::web

#endif // SSLA_WEB_HTTPSIM_HH
