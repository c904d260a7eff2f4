/**
 * @file
 * Keyed nested MACs: HMAC (RFC 2104) and the SSLv3 record MAC.
 *
 * Both constructions are H(outer_prefix || H(inner_prefix || message)).
 * HMAC's prefixes are the key's ipad and opad blocks; SSLv3's are
 * secret || pad1 and secret || pad2 (see ssl/record). The prefixes
 * depend only on the key, so KeyedMac absorbs each of them once, when
 * it is keyed, and every tag restarts from a copy of the absorbed
 * states. The digests are held by value, so a restart is a copy: no
 * prefix byte is hashed again and nothing is allocated.
 */

#ifndef SSLA_CRYPTO_HMAC_HH
#define SSLA_CRYPTO_HMAC_HH

#include <initializer_list>
#include <variant>

#include "crypto/md5.hh"
#include "crypto/sha1.hh"
#include "util/iovec.hh"

namespace ssla::crypto
{

/** The keyed inner and outer states of one nested MAC. */
class KeyedMac
{
  public:
    /** Absorb @p inner_prefix and @p outer_prefix into @p alg states. */
    KeyedMac(DigestAlg alg, ConstSpan inner_prefix, ConstSpan outer_prefix);

    /** HMAC's states: the key (hashed first if longer than a block)
     *  zero-padded to a block, XORed with ipad/opad. */
    static KeyedMac hmac(DigestAlg alg, const Bytes &key);

    size_t tagSize() const;

    /** Tag over the concatenation of @p parts into @p out (tagSize()
     *  bytes). */
    void compute(std::initializer_list<ConstSpan> parts,
                 uint8_t *out) const;

  private:
    friend class Hmac;

    template <class H>
    struct States
    {
        H inner; ///< inner prefix absorbed
        H outer; ///< outer prefix absorbed

        /** Finish @p running (a copy of inner that absorbed the
         *  message) into the tag; @p running is spent. */
        void
        finish(H &running, uint8_t *out) const
        {
            uint8_t inner_digest[H::outputSize];
            running.final(inner_digest);
            running = outer;
            running.update(inner_digest, H::outputSize);
            running.final(out);
        }
    };

    std::variant<States<Md5>, States<Sha1>> states_;
};

/** Incremental HMAC computation. */
class Hmac
{
  public:
    Hmac(DigestAlg alg, const Bytes &key);

    /** Restart with the same key. */
    void init();

    void update(const uint8_t *data, size_t len);
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish and return the tag. */
    Bytes final();

    /** Finish into caller storage of at least tagSize() bytes. */
    void final(uint8_t *out);

    size_t tagSize() const { return keys_.tagSize(); }

    /** One-shot convenience. */
    static Bytes compute(DigestAlg alg, const Bytes &key,
                         const Bytes &data);

  private:
    KeyedMac keys_;
    std::variant<Md5, Sha1> running_; ///< inner hash of this message
};

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_HMAC_HH
