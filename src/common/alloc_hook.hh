/**
 * @file
 * Global allocation counters.
 *
 * The library replaces the global operator new/delete pair with
 * malloc/free wrappers that bump two relaxed atomic counters per
 * allocation: the number of allocations and the bytes requested.
 * The hot paths are engineered to be allocation-free in steady state
 * (pooled transaction tables, ring-buffered queues, in-place sharer
 * sets, small-buffer event closures); the counter is how tests and benches *prove* that instead of assuming it. The
 * counters cost two relaxed atomic adds per allocation, which is
 * noise precisely because steady state performs none.
 *
 * Usage: snapshot allocCount() after warm-up, run the measure
 * window, and assert the delta is zero. allocBytes() deltas give a
 * deterministic footprint (bytes a constructor asks for), unlike
 * host RSS, which also holds whatever the allocator kept from
 * earlier work.
 */

#ifndef CONSIM_COMMON_ALLOC_HOOK_HH
#define CONSIM_COMMON_ALLOC_HOOK_HH

#include <cstdint>

namespace consim
{

/** @return global operator-new invocations since process start. */
std::uint64_t allocCount();

/** @return bytes requested from global operator new since process
 *  start (frees are not subtracted). */
std::uint64_t allocBytes();

/**
 * Debug tripwire: while armed, the next few allocations dump their
 * call stacks to stderr (raw addresses — resolve with addr2line).
 * Arm it after warmup to find whatever broke a zero-allocation
 * window.
 */
void allocTrap(bool on);

} // namespace consim

#endif // CONSIM_COMMON_ALLOC_HOOK_HH
