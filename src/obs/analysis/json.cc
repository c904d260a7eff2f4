#include "obs/analysis/json.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace ssla::obs::analysis
{

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw JsonError(msg, line_, pos_ - lineStart_ + 1);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
                lineStart_ = pos_;
            } else if (c == ' ' || c == '\t' || c == '\r') {
                ++pos_;
            } else {
                break;
            }
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': {
            Json v;
            v.type = Json::Type::String;
            v.str = parseString();
            return v;
        }
        case 't':
            if (consumeLiteral("true")) {
                Json v;
                v.type = Json::Type::Bool;
                v.b = true;
                return v;
            }
            fail("bad literal");
        case 'f':
            if (consumeLiteral("false")) {
                Json v;
                v.type = Json::Type::Bool;
                v.b = false;
                return v;
            }
            fail("bad literal");
        case 'n':
            if (consumeLiteral("null"))
                return Json{};
            fail("bad literal");
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            // The checker's explicit stance: NaN/Infinity never valid.
            if (c == 'N' || c == 'I')
                fail("non-finite literal (NaN/Infinity) rejected");
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    Json
    parseObject()
    {
        Json v;
        v.type = Json::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.obj.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Json
    parseArray()
    {
        Json v;
        v.type = Json::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.arr.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\n')
                fail("raw newline in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int k = 0; k < 4; ++k) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // UTF-8 encode; surrogate pairs are passed through as
                // two 3-byte sequences (the producers never emit them).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
            }
            default: fail("bad escape character");
            }
        }
    }

    Json
    parseNumber()
    {
        size_t start = pos_;
        bool negative = false;
        bool integral = true;
        if (peek() == '-') {
            negative = true;
            ++pos_;
        }
        if (pos_ >= text_.size() ||
            !(text_[pos_] >= '0' && text_[pos_] <= '9'))
            fail("bad number");
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size() ||
                !(text_[pos_] >= '0' && text_[pos_] <= '9'))
                fail("bad fraction");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !(text_[pos_] >= '0' && text_[pos_] <= '9'))
                fail("bad exponent");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        std::string token(text_.substr(start, pos_ - start));
        Json v;
        if (integral) {
            errno = 0;
            if (negative) {
                long long ll = std::strtoll(token.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    v.type = Json::Type::Int;
                    v.i = ll;
                    return v;
                }
            } else {
                unsigned long long ull =
                    std::strtoull(token.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    if (ull <=
                        static_cast<unsigned long long>(INT64_MAX)) {
                        v.type = Json::Type::Int;
                        v.i = static_cast<int64_t>(ull);
                        v.u = ull;
                    } else {
                        v.type = Json::Type::Uint;
                        v.u = ull;
                    }
                    return v;
                }
            }
            // Fall through to double on integer overflow.
        }
        v.type = Json::Type::Double;
        v.d = std::strtod(token.c_str(), nullptr);
        return v;
    }

    std::string_view text_;
    size_t pos_ = 0;
    size_t line_ = 1;
    size_t lineStart_ = 0;
};

} // anonymous namespace

Json
parseJson(std::string_view text)
{
    return Parser(text).parseDocument();
}

} // namespace ssla::obs::analysis
