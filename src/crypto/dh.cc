#include "crypto/dh.hh"

#include <stdexcept>

#include "bn/engine.hh"
#include "bn/prime.hh"
#include "perf/probe.hh"

namespace ssla::crypto
{

const DhParams &
oakleyGroup2()
{
    static const DhParams params = {
        bn::BigNum::fromHex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
            "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
            "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
            "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
            "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381"
            "FFFFFFFFFFFFFFFF"),
        bn::BigNum(2),
    };
    return params;
}

DhKeyPair
dhGenerateKey(const DhParams &params, RandomPool &pool,
              size_t exponent_bits)
{
    perf::FuncProbe probe("dh_generate_key");
    bn::RngFunc rng = [&pool](uint8_t *out, size_t len) {
        pool.generate(out, len);
    };
    DhKeyPair kp;
    kp.priv = bn::randomBits(exponent_bits, rng);
    kp.pub = bn::bn32Engine().modExp(params.g, kp.priv, params.p);
    return kp;
}

Bytes
dhComputeShared(const DhParams &params, const bn::BigNum &peer_pub,
                const bn::BigNum &priv)
{
    perf::FuncProbe probe("dh_compute_key");
    // Reject 0, 1, p-1 (and anything out of range): those force the
    // shared secret into a tiny subgroup.
    if (peer_pub < bn::BigNum(2) ||
        peer_pub > params.p - bn::BigNum(2)) {
        throw std::domain_error("DH: peer public value out of range");
    }
    bn::BigNum z = bn::bn32Engine().modExp(peer_pub, priv, params.p);
    return z.toBytesBE(); // leading zeros stripped (RFC 2246 8.1.2)
}

} // namespace ssla::crypto
