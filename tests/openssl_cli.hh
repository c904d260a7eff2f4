/**
 * @file
 * The OpenSSL command-line tool as an external oracle for tests.
 *
 * Tests that compare against it call haveOpensslCli() first and
 * GTEST_SKIP when it is absent; nothing is fetched.
 */

#ifndef SSLA_TESTS_OPENSSL_CLI_HH
#define SSLA_TESTS_OPENSSL_CLI_HH

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "util/types.hh"

namespace ssla::test
{

/** Whether the OpenSSL command-line tool is on PATH. */
inline bool
haveOpensslCli()
{
    return std::system("command -v openssl >/dev/null 2>&1") == 0;
}

/**
 * Run `openssl <args>` with @p in on stdin and return what it writes to
 * stdout, or nullopt when the command fails.
 */
inline std::optional<Bytes>
runOpenssl(const std::string &args, const Bytes &in)
{
    namespace fs = std::filesystem;
    static std::atomic<unsigned> serial{0};
    const fs::path dir =
        fs::temp_directory_path() /
        ("ssla_openssl_oracle_" + std::to_string(::getpid()) + "_" +
         std::to_string(serial.fetch_add(1)));
    fs::create_directories(dir);
    const fs::path src = dir / "in.bin";
    const fs::path dst = dir / "out.bin";
    {
        std::ofstream f(src, std::ios::binary);
        f.write(reinterpret_cast<const char *>(in.data()),
                static_cast<std::streamsize>(in.size()));
    }
    const std::string cmd = "openssl " + args + " < '" + src.string() +
                            "' > '" + dst.string() + "' 2>/dev/null";
    std::optional<Bytes> out;
    if (std::system(cmd.c_str()) == 0) {
        std::ifstream f(dst, std::ios::binary);
        out = Bytes(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    fs::remove_all(dir);
    return out;
}

} // namespace ssla::test

#endif // SSLA_TESTS_OPENSSL_CLI_HH
