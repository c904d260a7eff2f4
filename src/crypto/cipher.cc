#include "crypto/cipher.hh"

#include <cstring>
#include <stdexcept>

#include "crypto/aes.hh"
#include "crypto/des.hh"
#include "crypto/rc4.hh"

namespace ssla::crypto
{

namespace
{

const CipherInfo infos[] = {
    {"NULL", 0, 1, 0},
    {"RC4-128", 16, 1, 0},
    {"DES-CBC", 8, 8, 8},
    {"DES-EDE3-CBC", 24, 8, 8},
    {"AES-128-CBC", 16, 16, 16},
    {"AES-256-CBC", 32, 16, 16},
};

/** No-op cipher for NULL suites. */
class NullCipher final : public Cipher
{
  public:
    const CipherInfo &info() const override
    {
        return cipherInfo(CipherAlg::Null);
    }

    void
    process(const uint8_t *in, uint8_t *out, size_t len) override
    {
        if (in != out)
            std::memmove(out, in, len);
    }
};

/** RC4 adapter. */
class Rc4Cipher final : public Cipher
{
  public:
    explicit Rc4Cipher(const Bytes &key) : rc4_(key) {}

    const CipherInfo &info() const override
    {
        return cipherInfo(CipherAlg::Rc4_128);
    }

    void
    process(const uint8_t *in, uint8_t *out, size_t len) override
    {
        rc4_.process(in, out, len);
    }

  private:
    Rc4 rc4_;
};

/** CBC chaining over any single-block cipher. */
template <class Block>
class CbcCipher final : public Cipher
{
  public:
    CbcCipher(CipherAlg alg, const Bytes &key, const Bytes &iv,
              bool encrypt)
        : block_(key), alg_(alg), encrypt_(encrypt)
    {
        if (iv.size() != Block::blockBytes)
            throw std::invalid_argument("CBC: bad IV length");
        std::memcpy(chain_, iv.data(), Block::blockBytes);
    }

    const CipherInfo &info() const override { return cipherInfo(alg_); }

    void
    process(const uint8_t *in, uint8_t *out, size_t len) override
    {
        constexpr size_t bs = Block::blockBytes;
        if (len % bs)
            throw std::invalid_argument("CBC: partial block");
        if (encrypt_) {
            for (size_t off = 0; off < len; off += bs) {
                uint8_t buf[bs];
                for (size_t i = 0; i < bs; ++i)
                    buf[i] = in[off + i] ^ chain_[i];
                block_.encryptBlock(buf, out + off);
                std::memcpy(chain_, out + off, bs);
            }
        } else {
            // Decryption has no inter-block dependency: where the block
            // cipher can, take two blocks per step so their rounds
            // overlap.
            for (size_t off = 0; off < len;) {
                size_t n = bs;
                if constexpr (hasTwoBlockDecrypt)
                    n = len - off >= 2 * bs ? 2 * bs : bs;
                uint8_t cipher_blocks[2 * bs];
                // Save first: in-place decryption overwrites the input.
                std::memcpy(cipher_blocks, in + off, n);
                uint8_t buf[2 * bs];
                if (n == bs)
                    block_.decryptBlock(cipher_blocks, buf);
                else if constexpr (hasTwoBlockDecrypt)
                    block_.decryptTwoBlocks(cipher_blocks, buf);
                for (size_t i = 0; i < bs; ++i)
                    out[off + i] = buf[i] ^ chain_[i];
                for (size_t i = bs; i < n; ++i)
                    out[off + i] = buf[i] ^ cipher_blocks[i - bs];
                std::memcpy(chain_, cipher_blocks + n - bs, bs);
                off += n;
            }
        }
    }

  private:
    static constexpr bool hasTwoBlockDecrypt =
        requires(const Block &b, const uint8_t *in, uint8_t *out) {
            b.decryptTwoBlocks(in, out);
        };

    Block block_;
    CipherAlg alg_;
    bool encrypt_;
    uint8_t chain_[Block::blockBytes];
};

} // anonymous namespace

const CipherInfo &
cipherInfo(CipherAlg alg)
{
    return infos[static_cast<size_t>(alg)];
}

Bytes
Cipher::process(const Bytes &in)
{
    Bytes out(in.size());
    process(in.data(), out.data(), in.size());
    return out;
}

std::unique_ptr<Cipher>
Cipher::create(CipherAlg alg, const Bytes &key, const Bytes &iv,
               bool encrypt)
{
    const CipherInfo &ci = cipherInfo(alg);
    if (key.size() != ci.keyLen)
        throw std::invalid_argument("Cipher::create: bad key length");
    switch (alg) {
      case CipherAlg::Null:
        return std::make_unique<NullCipher>();
      case CipherAlg::Rc4_128:
        return std::make_unique<Rc4Cipher>(key);
      case CipherAlg::DesCbc:
        return std::make_unique<CbcCipher<Des>>(alg, key, iv, encrypt);
      case CipherAlg::Des3Cbc:
        return std::make_unique<CbcCipher<TripleDes>>(alg, key, iv,
                                                      encrypt);
      case CipherAlg::Aes128Cbc:
      case CipherAlg::Aes256Cbc:
        return std::make_unique<CbcCipher<Aes>>(alg, key, iv, encrypt);
    }
    throw std::invalid_argument("Cipher::create: unknown algorithm");
}

} // namespace ssla::crypto
