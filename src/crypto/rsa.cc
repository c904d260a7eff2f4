#include "crypto/rsa.hh"

#include <stdexcept>

#include "bn/modexp.hh"
#include "crypto/pkcs1.hh"
#include "obs/metrics.hh"
#include "perf/probe.hh"
#include "util/bytes.hh"

namespace ssla::crypto
{

using bn::BigNum;

RsaPrivateKey::RsaPrivateKey(BigNum n, BigNum e, BigNum d, BigNum p,
                             BigNum q, const bn::Engine &engine)
    : engine_(&engine), d_(std::move(d)), p_(std::move(p)),
      q_(std::move(q))
{
    pub_.n = std::move(n);
    pub_.e = std::move(e);

    if (p_ * q_ != pub_.n)
        throw std::invalid_argument("RsaPrivateKey: n != p*q");

    BigNum p1 = p_ - BigNum(1);
    BigNum q1 = q_ - BigNum(1);
    dp_ = d_.mod(p1);
    dq_ = d_.mod(q1);
    qinv_ = BigNum::modInverse(q_, p_);

    montN_ = std::make_unique<bn::MontgomeryCtx>(pub_.n, engine);
    montP_ = std::make_unique<bn::MontgomeryCtx>(p_, engine);
    montQ_ = std::make_unique<bn::MontgomeryCtx>(q_, engine);

    static obs::Counter keys32 =
        obs::MetricsRegistry::global().counter("bn.keys.bn32");
    static obs::Counter keys64 =
        obs::MetricsRegistry::global().counter("bn.keys.bn64");
    (engine_->backend() == bn::BnBackend::Bn64 ? keys64 : keys32).inc();
}

std::unique_ptr<RsaPrivateKey>
RsaPrivateKey::replica() const
{
    return std::make_unique<RsaPrivateKey>(pub_.n, pub_.e, d_, p_, q_,
                                           *engine_);
}

void
RsaPrivateKey::refreshBlinding() const
{
    // Fresh r with gcd(r, n) == 1; for RSA moduli any r in (1, n) that
    // is not a multiple of p or q works, which random values are not.
    bn::RngFunc rng = [this](uint8_t *out, size_t len) {
        blindPool_.generate(out, len);
    };
    BigNum r = bn::randomBelow(pub_.n - BigNum(2), rng) + BigNum(2);
    blindFactor_ = bn::modExpMont(r, pub_.e, *montN_);
    unblindFactor_ = BigNum::modInverse(r, pub_.n);
    blindUses_ = 0;
}

BigNum
RsaPrivateKey::privateRaw(const BigNum &c, bool use_blinding) const
{
    if (c.isNegative() || c.cmpAbs(pub_.n) >= 0)
        throw std::domain_error("RSA: input out of range");

    BigNum input = c;

    // Step 3 of Table 7: blinding (defence against the remote timing
    // attack the paper cites [3]).
    if (use_blinding) {
        perf::FuncProbe probe("blinding");
        if (blindUses_ == 0 || blindUses_ >= 32)
            refreshBlinding();
        input = montN_->fromMont(
            montN_->mul(montN_->toMont(input),
                        montN_->toMont(blindFactor_)));
    }

    // Step 4: the computation itself, via CRT.
    BigNum m;
    {
        perf::FuncProbe probe("rsa_computation");
        BigNum m1 = bn::modExpMont(input.mod(p_), dp_, *montP_);
        BigNum m2 = bn::modExpMont(input.mod(q_), dq_, *montQ_);
        BigNum h = BigNum::modMul(qinv_, BigNum::modSub(m1, m2, p_), p_);
        m = m2 + q_ * h;
    }

    if (use_blinding) {
        perf::FuncProbe probe("blinding");
        m = BigNum::modMul(m, unblindFactor_, pub_.n);
        // Advance the pair so successive operations stay unlinkable.
        blindFactor_ = BigNum::modMul(blindFactor_, blindFactor_, pub_.n);
        unblindFactor_ =
            BigNum::modMul(unblindFactor_, unblindFactor_, pub_.n);
        ++blindUses_;
    }
    return m;
}

RsaKeyPair
rsaGenerateKey(size_t bits, const bn::RngFunc &rng, uint64_t e)
{
    if (bits < 128)
        throw std::invalid_argument("rsaGenerateKey: modulus too small");
    BigNum pub_e(e);
    if (!pub_e.isOdd() || pub_e <= BigNum(1))
        throw std::invalid_argument("rsaGenerateKey: e must be odd > 1");

    size_t p_bits = (bits + 1) / 2;
    size_t q_bits = bits - p_bits;

    for (;;) {
        BigNum p = bn::generatePrime(p_bits, rng);
        BigNum q = bn::generatePrime(q_bits, rng);
        if (p == q)
            continue;
        BigNum n = p * q;
        if (n.bitLength() != bits)
            continue;
        BigNum phi = (p - BigNum(1)) * (q - BigNum(1));
        if (!BigNum::gcd(pub_e, phi).isOne())
            continue;
        BigNum d = BigNum::modInverse(pub_e, phi);

        RsaKeyPair pair;
        pair.priv =
            std::make_shared<RsaPrivateKey>(n, pub_e, d, p, q,
                                            bn::bn32Engine());
        pair.pub = pair.priv->publicKey();
        return pair;
    }
}

BigNum
rsaPublicRaw(const RsaPublicKey &key, const BigNum &m)
{
    if (m.isNegative() || m.cmpAbs(key.n) >= 0)
        throw std::domain_error("RSA: input out of range");
    return bn::bn32Engine().modExp(m, key.e, key.n);
}

Bytes
rsaPublicEncrypt(const RsaPublicKey &key, const Bytes &data,
                 RandomPool &pool)
{
    Bytes block = pkcs1PadType2(data, key.blockLen(), pool);
    BigNum m = BigNum::fromBytesBE(block);
    BigNum c = rsaPublicRaw(key, m);
    return c.toBytesBE(key.blockLen());
}

Bytes
rsaPrivateDecrypt(const RsaPrivateKey &key, const Bytes &cipher)
{
    perf::FuncProbe whole("rsa_private_decryption");

    // Step 1: initialization.
    Bytes block;
    {
        perf::FuncProbe probe("rsa_init");
        if (cipher.size() != key.blockLen())
            throw std::invalid_argument("RSA decrypt: bad input length");
        block.reserve(key.blockLen());
    }

    // Step 2: octet string -> big number.
    BigNum c;
    {
        perf::FuncProbe probe("data_to_bn");
        c = BigNum::fromBytesBE(cipher);
    }

    // Steps 3 + 4 are probed inside privateRaw().
    BigNum m = key.privateRaw(c);

    // Step 5: big number -> octet string.
    {
        perf::FuncProbe probe("bn_to_data");
        block = m.toBytesBE(key.blockLen());
    }

    // Step 6: strip the PKCS#1 type-2 padding.
    Bytes out;
    {
        perf::FuncProbe probe("block_parsing");
        out = pkcs1UnpadType2(block);
    }
    // Key-material hygiene (OPENSSL_cleanse in the paper's profile).
    secureWipe(block);
    return out;
}

Bytes
rsaSign(const RsaPrivateKey &key, const Bytes &digest_data)
{
    perf::FuncProbe whole("rsa_private_encryption");
    Bytes block = pkcs1PadType1(digest_data, key.blockLen());
    BigNum m = BigNum::fromBytesBE(block);
    BigNum s = key.privateRaw(m);
    return s.toBytesBE(key.blockLen());
}

bool
rsaVerify(const RsaPublicKey &key, const Bytes &digest_data,
          const Bytes &signature)
{
    if (signature.size() != key.blockLen())
        return false;
    BigNum s = BigNum::fromBytesBE(signature);
    if (s.cmpAbs(key.n) >= 0)
        return false;
    BigNum m = rsaPublicRaw(key, s);
    Bytes block = m.toBytesBE(key.blockLen());
    try {
        Bytes recovered = pkcs1UnpadType1(block);
        return constantTimeEquals(recovered, digest_data);
    } catch (const std::runtime_error &) {
        return false;
    }
}

} // namespace ssla::crypto
