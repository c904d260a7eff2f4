/**
 * @file
 * Record-layer tests: framing, encryption, MAC verification, padding,
 * fragmentation and sequence numbers.
 */

#include <gtest/gtest.h>

#include "ssl/record.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using namespace ssla::ssl;

struct RecordHarness
{
    BioPair wires;
    RecordLayer client{wires.clientEnd()};
    RecordLayer server{wires.serverEnd()};

    /** Install matching ciphers on client-send / server-recv. */
    void
    arm(CipherSuiteId id, uint64_t seed = 1)
    {
        const CipherSuite &suite = cipherSuite(id);
        Xoshiro256 rng(seed);
        Bytes mac = rng.bytes(suite.macLen());
        Bytes key = rng.bytes(suite.keyLen());
        Bytes iv = rng.bytes(suite.ivLen());
        client.enableSendCipher(suite, mac, key, iv);
        server.enableRecvCipher(suite, mac, key, iv);
    }
};

TEST(Record, PlaintextRoundTrip)
{
    RecordHarness h;
    Bytes payload = toBytes("hello record layer");
    h.client.send(ContentType::Handshake, payload);
    auto rec = h.server.receive();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec->type, ContentType::Handshake);
    EXPECT_EQ(rec->payload, payload);
}

TEST(Record, ReceiveReturnsNulloptOnEmptyTransport)
{
    RecordHarness h;
    EXPECT_FALSE(h.server.receive());
}

TEST(Record, ReceiveWaitsForCompleteRecord)
{
    RecordHarness h;
    // Hand-write a partial record: header claims 10 bytes, send 3.
    Bytes partial = {22, 0x03, 0x00, 0x00, 0x0a, 1, 2, 3};
    BioPair &w = h.wires;
    w.clientEnd().write(partial);
    EXPECT_FALSE(h.server.receive());
    // Complete it.
    Bytes rest = {4, 5, 6, 7, 8, 9, 10};
    w.clientEnd().write(rest);
    auto rec = h.server.receive();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec->payload.size(), 10u);
}

TEST(Record, RejectsBadVersion)
{
    RecordHarness h;
    Bytes bogus = {22, 0x04, 0x00, 0x00, 0x01, 0x00};
    h.wires.clientEnd().write(bogus);
    EXPECT_THROW(h.server.receive(), SslError);
}

TEST(Record, RejectsOversizedFragment)
{
    RecordHarness h;
    Bytes bogus = {22, 0x03, 0x00, 0xff, 0xff};
    h.wires.clientEnd().write(bogus);
    EXPECT_THROW(h.server.receive(), SslError);
}

class RecordCipherSweep : public ::testing::TestWithParam<CipherSuiteId>
{};

TEST_P(RecordCipherSweep, EncryptedRoundTrip)
{
    RecordHarness h;
    h.arm(GetParam());
    Xoshiro256 rng(7);
    for (size_t len : {0u, 1u, 7u, 8u, 100u, 1000u}) {
        Bytes payload = rng.bytes(len);
        h.client.send(ContentType::ApplicationData, payload);
        auto rec = h.server.receive();
        ASSERT_TRUE(rec) << "len " << len;
        EXPECT_EQ(rec->payload, payload) << "len " << len;
        EXPECT_EQ(rec->type, ContentType::ApplicationData);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suites, RecordCipherSweep,
    ::testing::Values(CipherSuiteId::RSA_NULL_MD5,
                      CipherSuiteId::RSA_RC4_128_MD5,
                      CipherSuiteId::RSA_RC4_128_SHA,
                      CipherSuiteId::RSA_DES_CBC_SHA,
                      CipherSuiteId::RSA_3DES_EDE_CBC_SHA,
                      CipherSuiteId::RSA_AES_128_CBC_SHA,
                      CipherSuiteId::RSA_AES_256_CBC_SHA));

TEST(Record, CiphertextDiffersFromPlaintext)
{
    RecordHarness h;
    h.arm(CipherSuiteId::RSA_3DES_EDE_CBC_SHA);
    Bytes payload(64, 0x42);
    h.client.send(ContentType::ApplicationData, payload);
    // Inspect the wire: beyond the 5-byte header nothing should equal
    // the plaintext run.
    Bytes wire(5 + 64 + 20 + 8);
    size_t got = h.wires.serverEnd().peek(wire.data(), wire.size());
    ASSERT_GT(got, 10u);
    EXPECT_NE(Bytes(wire.begin() + 5, wire.begin() + 15),
              Bytes(payload.begin(), payload.begin() + 10));
}

TEST(Record, MacTamperDetected)
{
    RecordHarness h;
    h.arm(CipherSuiteId::RSA_AES_128_CBC_SHA);
    Bytes payload = toBytes("authentic data");
    h.client.send(ContentType::ApplicationData, payload);

    // Corrupt one ciphertext byte in flight.
    BioEndpoint sv = h.wires.serverEnd();
    Bytes buf(4096);
    size_t n = sv.peek(buf.data(), buf.size());
    sv.consume(n);
    buf[5 + 3] ^= 0x01;
    h.wires.clientEnd();
    // Write the corrupted record back into the server's inbox by
    // sending from the client side's raw queue.
    // (BioPair has no raw injection; emulate via a fresh pair.)
    BioPair fresh;
    RecordLayer victim(fresh.serverEnd());
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_AES_128_CBC_SHA);
    Xoshiro256 rng(1);
    Bytes mac = rng.bytes(suite.macLen());
    Bytes key = rng.bytes(suite.keyLen());
    Bytes iv = rng.bytes(suite.ivLen());
    victim.enableRecvCipher(suite, mac, key, iv);
    fresh.clientEnd().write(buf.data(), n);
    EXPECT_THROW(victim.receive(), SslError);
}

TEST(Record, WrongMacSecretDetected)
{
    BioPair wires;
    RecordLayer sender(wires.clientEnd());
    RecordLayer receiver(wires.serverEnd());
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_RC4_128_SHA);
    Xoshiro256 rng(2);
    Bytes key = rng.bytes(suite.keyLen());
    Bytes mac1 = rng.bytes(suite.macLen());
    Bytes mac2 = rng.bytes(suite.macLen());
    sender.enableSendCipher(suite, mac1, key, Bytes());
    receiver.enableRecvCipher(suite, mac2, key, Bytes());
    sender.send(ContentType::ApplicationData, toBytes("data"));
    EXPECT_THROW(receiver.receive(), SslError);
}

TEST(Record, SequenceNumberPreventsReplayReordering)
{
    // Two records decrypted in order succeed; the MAC binds seq, so
    // the same bytes replayed into a fresh receiver at seq 0 fail for
    // the second record.
    BioPair wires;
    RecordLayer sender(wires.clientEnd());
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_RC4_128_SHA);
    Xoshiro256 rng(3);
    Bytes key = rng.bytes(suite.keyLen());
    Bytes mac = rng.bytes(suite.macLen());
    sender.enableSendCipher(suite, mac, key, Bytes());
    sender.send(ContentType::ApplicationData, toBytes("first"));
    sender.send(ContentType::ApplicationData, toBytes("second"));

    Bytes wire(4096);
    size_t n = wires.serverEnd().peek(wire.data(), wire.size());
    wire.resize(n);

    // Deliver only the SECOND record to a fresh receiver: its MAC was
    // computed with seq=1 but the receiver expects seq=0.
    size_t first_len = 5 + ((wire[3] << 8) | wire[4]);
    BioPair fresh;
    RecordLayer receiver(fresh.serverEnd());
    receiver.enableRecvCipher(suite, mac, key, Bytes());
    fresh.clientEnd().write(wire.data() + first_len, n - first_len);
    EXPECT_THROW(receiver.receive(), SslError);
}

TEST(Record, FragmentsLargePayloads)
{
    RecordHarness h;
    Bytes big(40000, 0x33);
    h.client.send(ContentType::ApplicationData, big);
    Bytes got;
    int records = 0;
    while (auto rec = h.server.receive()) {
        EXPECT_LE(rec->payload.size(), maxFragment);
        append(got, rec->payload);
        ++records;
    }
    EXPECT_EQ(got, big);
    EXPECT_EQ(records, 3);
    EXPECT_EQ(h.client.recordsSent(), 3u);
    EXPECT_EQ(h.client.bytesSent(), big.size());
}

TEST(Record, EmptyPayloadStillProducesRecord)
{
    RecordHarness h;
    h.client.send(ContentType::Handshake, Bytes());
    auto rec = h.server.receive();
    ASSERT_TRUE(rec);
    EXPECT_TRUE(rec->payload.empty());
}

/** Split @p data into three uneven spans for the gather entry. */
size_t
threeSpans(const Bytes &data, ConstSpan *iov)
{
    size_t a = data.size() / 3, b = data.size() / 2;
    iov[0] = ConstSpan{data.data(), a};
    iov[1] = ConstSpan{data.data() + a, b - a};
    iov[2] = ConstSpan{data.data() + b, data.size() - b};
    return 3;
}

TEST(Record, SpanPathFragmentationBoundary)
{
    // The gather entry must fragment the *concatenation* of the spans:
    // 16384 bytes is exactly one record, 16385 is two (the second
    // carrying the single spilled byte) — regardless of where the
    // slice boundaries fall. Checked both encrypted and in plaintext
    // (the plaintext path borrows the caller's slices via writev).
    for (bool armed : {true, false}) {
        for (size_t total : {maxFragment, maxFragment + 1}) {
            RecordHarness h;
            if (armed)
                h.arm(CipherSuiteId::RSA_AES_128_CBC_SHA, total);
            Xoshiro256 rng(total * 7 + armed);
            Bytes payload = rng.bytes(total);
            ConstSpan iov[3];
            h.client.sendMany(ContentType::ApplicationData, iov,
                              threeSpans(payload, iov));
            Bytes got;
            std::vector<size_t> sizes;
            while (auto rec = h.server.receive()) {
                sizes.push_back(rec->payload.size());
                append(got, rec->payload);
            }
            EXPECT_EQ(got, payload) << "total=" << total;
            if (total == maxFragment) {
                ASSERT_EQ(sizes.size(), 1u);
                EXPECT_EQ(sizes[0], maxFragment);
            } else {
                ASSERT_EQ(sizes.size(), 2u);
                EXPECT_EQ(sizes[0], maxFragment);
                EXPECT_EQ(sizes[1], 1u);
            }
        }
    }
}

TEST(Record, SendManyGathersLikeConcatenatedSend)
{
    // Identically keyed senders: one gathers six slices (fragments
    // straddle slice boundaries; a 1-byte and a 0-byte slice sit
    // mid-vector), the other sends their concatenation. The wires
    // must match byte for byte.
    RecordHarness gathered, concatenated;
    gathered.arm(CipherSuiteId::RSA_AES_128_CBC_SHA, 41);
    concatenated.arm(CipherSuiteId::RSA_AES_128_CBC_SHA, 41);

    Xoshiro256 rng(42);
    std::vector<Bytes> chunks;
    Bytes concat;
    for (size_t len : {5000u, 16000u, 1u, 0u, 30000u, 777u}) {
        chunks.push_back(rng.bytes(len));
        append(concat, chunks.back());
    }
    gathered.client.sendMany(ContentType::ApplicationData, chunks);
    concatenated.client.send(ContentType::ApplicationData, concat);

    auto drain = [](BioEndpoint end) {
        Bytes wire(end.available());
        end.read(wire.data(), wire.size());
        return wire;
    };
    EXPECT_EQ(drain(gathered.wires.serverEnd()),
              drain(concatenated.wires.serverEnd()));
}

TEST(Record, RoundTripWithInterleavedCcs)
{
    // Bulk round trips across fragment boundaries, then a second
    // ChangeCipherSpec mid-stream re-keys the channel and traffic
    // must keep flowing under the new keys.
    RecordHarness h;
    Xoshiro256 rng(31);

    auto rekey = [&](uint64_t seed) {
        h.client.send(ContentType::ChangeCipherSpec, Bytes{1});
        auto ccs = h.server.receive();
        ASSERT_TRUE(ccs);
        ASSERT_EQ(ccs->type, ContentType::ChangeCipherSpec);
        h.arm(CipherSuiteId::RSA_AES_128_CBC_SHA, seed);
    };

    auto roundTrip = [&](size_t len) {
        Bytes payload = rng.bytes(len);
        h.client.send(ContentType::ApplicationData, payload);
        Bytes got;
        while (got.size() < len) {
            auto rec = h.server.receive();
            ASSERT_TRUE(rec) << "len " << len;
            EXPECT_EQ(rec->type, ContentType::ApplicationData);
            append(got, rec->payload);
        }
        EXPECT_EQ(got, payload) << "len " << len;
        EXPECT_FALSE(h.server.receive());
    };

    rekey(100);
    // Exactly one full record, one byte over, then many records.
    roundTrip(maxFragment);
    roundTrip(maxFragment + 1);
    roundTrip(100000);

    rekey(200);
    roundTrip(maxFragment + 1);
    roundTrip(50000);
}

TEST(Record, SendManyWouldBlockMidVectorQueuesWholeRecords)
{
    // Bulk gather-send against a capped transport: when maxBuffered
    // trips mid-vector, every refused record must spill *whole* into
    // the retry queue (writev is accept-or-refuse), keep wire order,
    // and drain losslessly once the reader frees space.
    MemBio c2s, s2c;
    c2s.setMaxBuffered(20000); // one ~16.4 KB wire record fits, not two
    RecordLayer sender{BioEndpoint(&s2c, &c2s)};
    RecordLayer receiver{BioEndpoint(&c2s, &s2c)};
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_AES_128_CBC_SHA);
    Xoshiro256 rng(0x5117);
    Bytes mac = rng.bytes(suite.macLen());
    Bytes key = rng.bytes(suite.keyLen());
    Bytes iv = rng.bytes(suite.ivLen());
    sender.enableSendCipher(suite, mac, key, iv);
    receiver.enableRecvCipher(suite, mac, key, iv);

    obs::MetricsRegistry registry;
    RecordCounters counters = RecordCounters::resolve(registry);
    sender.bindCounters(&counters);

    Bytes payload = rng.bytes(40000); // fragments into 3 records
    ConstSpan iov[3];
    sender.sendMany(ContentType::ApplicationData, iov,
                    threeSpans(payload, iov));

    // Record 1 fit under the cap; records 2 and 3 spilled whole.
    EXPECT_TRUE(sender.outputBlocked());
    EXPECT_EQ(sender.pendingOutputRecords(), 2u);
    EXPECT_EQ(registry.snapshot().counter("record.pending_spills"),
              2u);
    EXPECT_GT(c2s.blockedWrites(), 0u);

    Bytes got;
    for (int sweep = 0; sweep < 100 && got.size() < payload.size();
         ++sweep) {
        while (auto rec = receiver.receive())
            append(got, rec->payload);
        sender.flushPendingOutput();
    }
    EXPECT_EQ(got, payload);
    EXPECT_FALSE(sender.outputBlocked());
    // Sends while blocked must queue behind the backlog, never jump
    // the sequence-number order.
    Bytes tail = rng.bytes(100);
    sender.send(ContentType::ApplicationData, tail);
    auto rec = receiver.receive();
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec->payload, tail);
}

/**
 * Hand-build an encrypted AES-CBC record whose decrypted fragment is
 * exactly @p plaintext, and feed it to a fresh receiver armed with the
 * matching keys. Returns the error the receiver raised.
 */
SslError
deliverCrafted(const Bytes &plaintext, uint16_t version)
{
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_AES_128_CBC_SHA);
    Xoshiro256 rng(0xbad);
    Bytes mac_secret = rng.bytes(suite.macLen());
    Bytes key = rng.bytes(suite.keyLen());
    Bytes iv = rng.bytes(suite.ivLen());

    Bytes fragment = plaintext;
    crypto::scalarProvider()
        .createCipher(suite.cipher, key, iv, true)
        ->process(fragment.data(), fragment.data(), fragment.size());

    BioPair wires;
    RecordLayer receiver(wires.serverEnd());
    if (version != ssl3Version)
        receiver.setVersion(version);
    receiver.enableRecvCipher(suite, mac_secret, key, iv);

    Bytes wire = {23, static_cast<uint8_t>(version >> 8),
                  static_cast<uint8_t>(version),
                  static_cast<uint8_t>(fragment.size() >> 8),
                  static_cast<uint8_t>(fragment.size())};
    append(wire, fragment);
    wires.clientEnd().write(wire);

    try {
        receiver.receive();
    } catch (const SslError &e) {
        return e;
    }
    throw std::logic_error("crafted record was accepted");
}

TEST(Record, BadPaddingAndBadMacAreIndistinguishable)
{
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_AES_128_CBC_SHA);
    Xoshiro256 rng(0xbad);
    Bytes mac_secret = rng.bytes(suite.macLen());
    (void)rng.bytes(suite.keyLen());
    (void)rng.bytes(suite.ivLen());

    // Case 1 — padding invalid, MAC valid: 11 data bytes, the correct
    // MAC over them, and a pad-length byte (255) that cannot fit in
    // the fragment. The receiver's fallback treats the pad as empty,
    // under which the MAC region happens to verify — so any
    // distinguishable error here could only come from the pad check.
    Bytes data(11, 0x61);
    Bytes bad_pad = data;
    append(bad_pad, ssl3Mac(suite.mac, mac_secret, 0, 23, data.data(),
                            data.size()));
    bad_pad.push_back(255);
    ASSERT_EQ(bad_pad.size() % suite.blockLen(), 0u);

    // Case 2 — padding valid, MAC invalid: same layout with correct
    // (empty) padding but a corrupted MAC.
    Bytes bad_mac = data;
    Bytes mac = ssl3Mac(suite.mac, mac_secret, 0, 23, data.data(),
                        data.size());
    mac[0] ^= 0x80;
    append(bad_mac, mac);
    bad_mac.push_back(0);
    ASSERT_EQ(bad_mac.size() % suite.blockLen(), 0u);

    SslError pad_err = deliverCrafted(bad_pad, ssl3Version);
    SslError mac_err = deliverCrafted(bad_mac, ssl3Version);

    // Identical alert and identical message: no padding oracle.
    EXPECT_EQ(pad_err.alert(), AlertDescription::BadRecordMac);
    EXPECT_EQ(mac_err.alert(), AlertDescription::BadRecordMac);
    EXPECT_STREQ(pad_err.what(), mac_err.what());
}

TEST(Record, TlsPaddingBytesValidatedWithoutOracle)
{
    // TLS 1.0 requires every padding byte to equal the pad length; a
    // wrong filler byte must fail exactly like a wrong MAC.
    const CipherSuite &suite =
        cipherSuite(CipherSuiteId::RSA_AES_128_CBC_SHA);
    Xoshiro256 rng(0xbad);
    Bytes mac_secret = rng.bytes(suite.macLen());

    Bytes data(8, 0x62); // 8 + 20 MAC + 3 pad + 1 len = 32
    auto craft = [&](bool corrupt_filler, bool corrupt_mac) {
        Bytes frag = data;
        Bytes mac =
            tls1Mac(suite.mac, mac_secret, 0, 23, tls1Version,
                    data.data(), data.size());
        if (corrupt_mac)
            mac[3] ^= 0x01;
        append(frag, mac);
        frag.insert(frag.end(), 3, corrupt_filler ? 7 : 3);
        frag.push_back(3);
        return frag;
    };

    SslError pad_err = deliverCrafted(craft(true, false), tls1Version);
    SslError mac_err = deliverCrafted(craft(false, true), tls1Version);
    EXPECT_EQ(pad_err.alert(), AlertDescription::BadRecordMac);
    EXPECT_EQ(mac_err.alert(), AlertDescription::BadRecordMac);
    EXPECT_STREQ(pad_err.what(), mac_err.what());

    // Sanity: the same construction with valid pad and MAC decodes.
    const Bytes good = craft(false, false);
    EXPECT_THROW(deliverCrafted(good, tls1Version), std::logic_error);
}

TEST(Ssl3Mac, DependsOnAllInputs)
{
    Bytes secret(20, 1);
    Bytes data = toBytes("payload");
    Bytes base = ssl3Mac(crypto::DigestAlg::SHA1, secret, 0, 23,
                         data.data(), data.size());
    EXPECT_EQ(base.size(), 20u);

    EXPECT_NE(ssl3Mac(crypto::DigestAlg::SHA1, secret, 1, 23,
                      data.data(), data.size()),
              base);
    EXPECT_NE(ssl3Mac(crypto::DigestAlg::SHA1, secret, 0, 22,
                      data.data(), data.size()),
              base);
    Bytes secret2(20, 2);
    EXPECT_NE(ssl3Mac(crypto::DigestAlg::SHA1, secret2, 0, 23,
                      data.data(), data.size()),
              base);
    EXPECT_EQ(ssl3Mac(crypto::DigestAlg::MD5, secret, 0, 23,
                      data.data(), data.size())
                  .size(),
              16u);
}

} // anonymous namespace
