/**
 * @file
 * Checkpoint/resume (`consim.ckpt.v5`): serialization of the complete
 * deterministic machine state.
 *
 * A checkpoint captures everything the next cycle's behaviour depends
 * on — the clock, the event queue (typed events only; see fabric.hh),
 * every cache array slot-index-exact (victim() choices depend on slot
 * order and LRU stamps), the bank/directory transaction tables, the
 * NoC's VC queues, credits and in-flight transmissions, the
 * memory-controller channels, workload RNG streams and hot-window
 * positions, fault-injection runtime state, thread-to-core bindings,
 * and the raw statistics registry. Restoring it into a freshly
 * constructed System built from the same configuration reproduces the
 * uninterrupted run byte for byte, including the final
 * `consim.run.v1` JSON.
 *
 * Document layout:
 *
 *   {
 *     "schema":  "consim.ckpt.v5",
 *     "context": { config, phase, mig_rng? },  // experiment layer,
 *                                              // verbatim
 *     "machine": { mesh: [x, y], cycle,
 *                  events: { seq_by_src, executed, pending },
 *                  cores, l1s, banks, dirs, mcs, dir_entries, net,
 *                  faults, qos?, dyn_sched?, stats },
 *     "vms":     [ { streams, footprint }, ... ]
 *   }
 *
 * The machine section stores no configuration: structural parameters
 * (cache geometry, mesh shape, placements) are re-derived by
 * constructing the System from the same config, and restore asserts
 * shape agreement where it is cheap to do so. The experiment layer
 * embeds the full run configuration in "context" so a resume can
 * rebuild that System without out-of-band information.
 *
 * Entry points are System::saveCheckpoint / System::restoreCheckpoint
 * (core/system.hh). Each component is described once, by an io()
 * body that both directions run (core/checkpoint.cc,
 * common/archive.hh); this header exposes the schema check and the
 * per-component save/restore that tests use.
 */

#ifndef CONSIM_CORE_CHECKPOINT_HH
#define CONSIM_CORE_CHECKPOINT_HH

#include "common/json.hh"

namespace consim
{

/** The one checkpoint schema this build writes and restores. */
inline constexpr const char *ckptSchema = "consim.ckpt.v5";

/** Refuse any document that is not ckptSchema, explaining why
 *  older schemas cannot be restored. */
void checkCkptSchema(const json::Value &doc);

/**
 * Save one component with its checkpoint description, or restore it
 * into a counterpart of the same geometry (cache-array slots without
 * a record end invalid). Instantiated for protocol messages and the
 * three cache-array kinds, which tests round-trip directly.
 */
template <class T>
json::Value ckptSave(const T &x);
template <class T>
void ckptLoad(T &x, const json::Value &v);

} // namespace consim

#endif // CONSIM_CORE_CHECKPOINT_HH
