/**
 * @file
 * FNV-1a 64-bit hash for the golden byte-identity tests: a pinned
 * hash of an emitted document changes whenever any byte of it does.
 */

#ifndef CONSIM_TESTS_FNV1A_HH
#define CONSIM_TESTS_FNV1A_HH

#include <cstdint>
#include <string>

namespace consim
{

/** FNV-1a 64-bit over the exact bytes of @p s. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace consim

#endif // CONSIM_TESTS_FNV1A_HH
