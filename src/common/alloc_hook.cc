#include "common/alloc_hook.hh"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace consim
{

namespace
{

std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gBytes{0};
std::atomic<int> gTrapBudget{0};

/** Dump the offender's stack to stderr (raw addresses; feed them to
 *  addr2line). backtrace() calls malloc, not operator new, so this
 *  cannot recurse into the hook. */
void
reportTrappedAlloc()
{
#if defined(__GLIBC__)
    void *frames[64];
    const int depth = backtrace(frames, 64);
    backtrace_symbols_fd(frames, depth, 2);
#endif
}

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(n, std::memory_order_relaxed);
    if (gTrapBudget.load(std::memory_order_relaxed) > 0 &&
        gTrapBudget.fetch_sub(1, std::memory_order_relaxed) > 0)
        reportTrappedAlloc();
    void *p = std::malloc(n != 0 ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::size_t align)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(n, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, align, n != 0 ? n : align) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

std::uint64_t
allocCount()
{
    return gAllocs.load(std::memory_order_relaxed);
}

std::uint64_t
allocBytes()
{
    return gBytes.load(std::memory_order_relaxed);
}

void
allocTrap(bool on)
{
    gTrapBudget.store(on ? 8 : 0, std::memory_order_relaxed);
}

} // namespace consim

// Replaceable global allocation functions ([new.delete]): every form
// funnels into the counted malloc/free wrappers above.
void *
operator new(std::size_t n)
{
    return consim::countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return consim::countedAlloc(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return consim::countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return consim::countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return consim::countedAlignedAlloc(
        n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return consim::countedAlignedAlloc(
        n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
