#include "ssl/kdf.hh"

#include <stdexcept>

#include "crypto/hmac.hh"
#include "crypto/md5.hh"
#include "crypto/sha1.hh"
#include "perf/probe.hh"
#include "util/bytes.hh"

namespace ssla::ssl
{

Bytes
ssl3Expand(const Bytes &secret, const Bytes &rand1, const Bytes &rand2,
           size_t out_len)
{
    Bytes out;
    out.reserve(out_len + crypto::Md5::outputSize);
    unsigned round = 0;
    while (out.size() < out_len) {
        ++round;
        if (round > 26)
            throw std::length_error("ssl3Expand: output too long");
        // Label: 'A', 'BB', 'CCC', ...
        Bytes label(round, static_cast<uint8_t>('A' + round - 1));

        crypto::Sha1 sha;
        sha.update(label);
        sha.update(secret);
        sha.update(rand1);
        sha.update(rand2);
        Bytes inner = sha.final();

        crypto::Md5 md;
        md.update(secret);
        md.update(inner);
        Bytes block = md.final();
        append(out, block);
    }
    out.resize(out_len);
    return out;
}

Bytes
ssl3MasterSecret(const Bytes &premaster, const Bytes &client_random,
                 const Bytes &server_random)
{
    perf::FuncProbe probe("gen_master_secret");
    return ssl3Expand(premaster, client_random, server_random, 48);
}

KeyBlock
ssl3KeyBlock(const Bytes &master, const Bytes &client_random,
             const Bytes &server_random, const CipherSuite &suite)
{
    perf::FuncProbe probe("gen_key_block");
    size_t need = 2 * suite.macLen() + 2 * suite.keyLen() +
                  2 * suite.ivLen();
    // Note the reversed random order relative to the master secret.
    Bytes block = ssl3Expand(master, server_random, client_random, need);

    KeyBlock kb;
    size_t off = 0;
    auto take = [&](size_t n) {
        Bytes part(block.begin() + off, block.begin() + off + n);
        off += n;
        return part;
    };
    kb.clientMacSecret = take(suite.macLen());
    kb.serverMacSecret = take(suite.macLen());
    kb.clientKey = take(suite.keyLen());
    kb.serverKey = take(suite.keyLen());
    kb.clientIv = take(suite.ivLen());
    kb.serverIv = take(suite.ivLen());
    return kb;
}

namespace
{

/**
 * P_hash from RFC 2246 section 5. Every HMAC in it is keyed with
 * @p secret, so the keyed states are built once.
 */
Bytes
pHash(crypto::DigestAlg alg, const Bytes &secret, const Bytes &seed,
      size_t out_len)
{
    const crypto::KeyedMac hmac = crypto::KeyedMac::hmac(alg, secret);
    const size_t n = hmac.tagSize();
    Bytes out;
    out.reserve(out_len + n);
    Bytes a = seed; // A(0)
    Bytes next(n);
    while (out.size() < out_len) {
        hmac.compute({ConstSpan{a}}, next.data()); // A(i)
        a = next;
        const size_t at = out.size();
        out.resize(at + n);
        hmac.compute({ConstSpan{a}, ConstSpan{seed}}, out.data() + at);
    }
    out.resize(out_len);
    return out;
}

/** Split the key block buffer per suite geometry. */
KeyBlock
splitKeyBlock(const Bytes &block, const CipherSuite &suite)
{
    KeyBlock kb;
    size_t off = 0;
    auto take = [&](size_t n) {
        Bytes part(block.begin() + off, block.begin() + off + n);
        off += n;
        return part;
    };
    kb.clientMacSecret = take(suite.macLen());
    kb.serverMacSecret = take(suite.macLen());
    kb.clientKey = take(suite.keyLen());
    kb.serverKey = take(suite.keyLen());
    kb.clientIv = take(suite.ivLen());
    kb.serverIv = take(suite.ivLen());
    return kb;
}

} // anonymous namespace

Bytes
tls1Prf(const Bytes &secret, std::string_view label, const Bytes &seed,
        size_t out_len)
{
    Bytes label_seed = toBytes(label);
    append(label_seed, seed);

    // Secret halves overlap by one byte when the length is odd.
    size_t half = (secret.size() + 1) / 2;
    Bytes s1(secret.begin(), secret.begin() + half);
    Bytes s2(secret.end() - half, secret.end());

    Bytes md5_part =
        pHash(crypto::DigestAlg::MD5, s1, label_seed, out_len);
    Bytes sha_part =
        pHash(crypto::DigestAlg::SHA1, s2, label_seed, out_len);
    for (size_t i = 0; i < out_len; ++i)
        md5_part[i] ^= sha_part[i];
    return md5_part;
}

Bytes
tls1MasterSecret(const Bytes &premaster, const Bytes &client_random,
                 const Bytes &server_random)
{
    perf::FuncProbe probe("gen_master_secret");
    Bytes seed = client_random;
    append(seed, server_random);
    return tls1Prf(premaster, "master secret", seed, 48);
}

KeyBlock
tls1KeyBlock(const Bytes &master, const Bytes &client_random,
             const Bytes &server_random, const CipherSuite &suite)
{
    perf::FuncProbe probe("gen_key_block");
    size_t need =
        2 * suite.macLen() + 2 * suite.keyLen() + 2 * suite.ivLen();
    Bytes seed = server_random;
    append(seed, client_random);
    Bytes block = tls1Prf(master, "key expansion", seed, need);
    return splitKeyBlock(block, suite);
}

Bytes
deriveMasterSecret(uint16_t version, const Bytes &premaster,
                   const Bytes &client_random,
                   const Bytes &server_random)
{
    if (version >= tls1Version)
        return tls1MasterSecret(premaster, client_random,
                                server_random);
    return ssl3MasterSecret(premaster, client_random, server_random);
}

KeyBlock
deriveKeyBlock(uint16_t version, const Bytes &master,
               const Bytes &client_random, const Bytes &server_random,
               const CipherSuite &suite)
{
    if (version >= tls1Version)
        return tls1KeyBlock(master, client_random, server_random,
                            suite);
    return ssl3KeyBlock(master, client_random, server_random, suite);
}

} // namespace ssla::ssl
