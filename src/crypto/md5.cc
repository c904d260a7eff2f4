#include "crypto/md5.hh"

#include <cstring>

namespace ssla::crypto
{

namespace
{
perf::NullMeter nullMeter;
} // anonymous namespace

void
Md5::init()
{
    state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
    totalLen_ = 0;
    bufferLen_ = 0;
}

void
Md5::update(const uint8_t *data, size_t len)
{
    if (!len)
        return; // empty Bytes may hand us data == nullptr
    totalLen_ += len;
    if (bufferLen_) {
        size_t take = std::min(len, blockBytes - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data, take);
        bufferLen_ += take;
        data += take;
        len -= take;
        if (bufferLen_ == blockBytes) {
            md5BlockT(state_, buffer_, nullMeter);
            bufferLen_ = 0;
        }
    }
    while (len >= blockBytes) {
        md5BlockT(state_, data, nullMeter);
        data += blockBytes;
        len -= blockBytes;
    }
    if (len) {
        std::memcpy(buffer_, data, len);
        bufferLen_ = len;
    }
}

void
Md5::final(uint8_t *out)
{
    uint64_t bit_len = totalLen_ * 8;
    // Padding: 0x80, zeros to 56 mod 64, then the 64-bit LE length —
    // assembled in one buffer so final() costs at most two block ops.
    uint8_t pad[72] = {0x80};
    size_t pad_len =
        (bufferLen_ < 56 ? 56 : 120) - bufferLen_;
    store64le(pad + pad_len, bit_len);
    update(pad, pad_len + 8);
    store32le(out, state_.a);
    store32le(out + 4, state_.b);
    store32le(out + 8, state_.c);
    store32le(out + 12, state_.d);
}

std::unique_ptr<Digest>
Md5::clone() const
{
    return std::make_unique<Md5>(*this);
}

Bytes
Md5::hash(const Bytes &data)
{
    Md5 md;
    md.update(data);
    return md.final();
}

} // namespace ssla::crypto
