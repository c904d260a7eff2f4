/**
 * @file
 * DES and Triple-DES (EDE3) public interfaces.
 */

#ifndef SSLA_CRYPTO_DES_HH
#define SSLA_CRYPTO_DES_HH

#include "crypto/des_kernel.hh"
#include "util/types.hh"

namespace ssla::crypto
{

/** Single DES (8-byte key with ignored parity bits, 8-byte blocks). */
class Des
{
  public:
    static constexpr size_t blockBytes = 8;

    /** @param key 8 bytes */
    explicit Des(const Bytes &key);

    void encryptBlock(const uint8_t in[8], uint8_t out[8]) const;
    void decryptBlock(const uint8_t in[8], uint8_t out[8]) const;

    const DesKeySchedule &encKey() const { return enc_; }
    const DesKeySchedule &decKey() const { return dec_; }

  private:
    DesKeySchedule enc_;
    DesKeySchedule dec_;
};

/**
 * Triple DES in EDE3 form: E(k3, D(k2, E(k1, block))), computed as one
 * IP, 48 rounds and one FP.
 */
class TripleDes
{
  public:
    static constexpr size_t blockBytes = 8;

    /** @param key 24 bytes (k1 || k2 || k3) */
    explicit TripleDes(const Bytes &key);

    void encryptBlock(const uint8_t in[8], uint8_t out[8]) const;
    void decryptBlock(const uint8_t in[8], uint8_t out[8]) const;
    /** Decrypt two independent blocks with their rounds interleaved. */
    void decryptTwoBlocks(const uint8_t in[16], uint8_t out[16]) const;

  private:
    // Encrypt path: E(k1), D(k2), E(k3); decrypt path is the reverse.
    DesKeySchedule encK1_, decK2_, encK3_;
    DesKeySchedule decK3_, encK2_, decK1_;
};

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_DES_HH
