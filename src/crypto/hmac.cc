#include "crypto/hmac.hh"

#include <stdexcept>

namespace ssla::crypto
{

// ---------------------------------------------------------------------
// KeyedMac

KeyedMac::KeyedMac(DigestAlg alg, ConstSpan inner_prefix,
                   ConstSpan outer_prefix)
{
    auto absorb = [&](auto states) {
        states.inner.update(inner_prefix.data(), inner_prefix.size());
        states.outer.update(outer_prefix.data(), outer_prefix.size());
        states_ = states;
    };
    switch (alg) {
      case DigestAlg::MD5:
        absorb(States<Md5>{});
        return;
      case DigestAlg::SHA1:
        absorb(States<Sha1>{});
        return;
    }
    throw std::invalid_argument("KeyedMac: unknown algorithm");
}

KeyedMac
KeyedMac::hmac(DigestAlg alg, const Bytes &key)
{
    static_assert(Md5::blockBytes == Sha1::blockBytes);
    constexpr size_t block = Sha1::blockBytes;
    const Bytes k = key.size() > block ? digestOneShot(alg, key) : key;
    uint8_t ipad[block], opad[block];
    for (size_t i = 0; i < block; ++i) {
        const uint8_t kb = i < k.size() ? k[i] : 0;
        ipad[i] = kb ^ 0x36;
        opad[i] = kb ^ 0x5c;
    }
    return KeyedMac(alg, ConstSpan{ipad}, ConstSpan{opad});
}

size_t
KeyedMac::tagSize() const
{
    return std::visit(
        [](const auto &k) { return decltype(k.inner)::outputSize; },
        states_);
}

void
KeyedMac::compute(std::initializer_list<ConstSpan> parts,
                  uint8_t *out) const
{
    std::visit(
        [&](const auto &k) {
            auto running = k.inner;
            for (ConstSpan p : parts)
                running.update(p.data(), p.size());
            k.finish(running, out);
        },
        states_);
}

// ---------------------------------------------------------------------
// Hmac

Hmac::Hmac(DigestAlg alg, const Bytes &key)
    : keys_(KeyedMac::hmac(alg, key))
{
    init();
}

void
Hmac::init()
{
    std::visit([this](const auto &k) { running_ = k.inner; },
               keys_.states_);
}

void
Hmac::update(const uint8_t *data, size_t len)
{
    std::visit([&](auto &h) { h.update(data, len); }, running_);
}

Bytes
Hmac::final()
{
    Bytes tag(tagSize());
    final(tag.data());
    return tag;
}

void
Hmac::final(uint8_t *out)
{
    std::visit(
        [&](const auto &k) {
            k.finish(std::get<decltype(k.inner)>(running_), out);
        },
        keys_.states_);
}

Bytes
Hmac::compute(DigestAlg alg, const Bytes &key, const Bytes &data)
{
    Hmac h(alg, key);
    h.update(data);
    return h.final();
}

} // namespace ssla::crypto
