/**
 * @file
 * The analytic cache model the kernel lowering uses at full Table II
 * scale, where per-access simulation of hundreds of megabytes of weight
 * traffic would be pointlessly slow. It models the canonical LSTM access
 * pattern: a working set of F bytes swept sequentially S times through a
 * cache of C bytes. An exact LRU set-associative cache in the test
 * support library checks it at unit scale.
 */

#ifndef MFLSTM_GPU_CACHE_HH
#define MFLSTM_GPU_CACHE_HH

namespace mflstm {
namespace gpu {

/**
 * Analytic DRAM traffic for S sequential sweeps over an F-byte working
 * set through a C-byte LRU cache:
 *
 *  - F <= r*C: the set stays resident after the first sweep; later
 *    sweeps hit. Traffic = F (compulsory only).
 *  - F > r*C: cyclic sweeps under LRU evict every line before its reuse
 *    (the classic thrashing pattern); every sweep misses almost
 *    everything. Traffic = S * F, minus the small resident fraction.
 *
 * r < 1 is an effective-residency factor accounting for conflict misses
 * and co-resident data (activations, outputs).
 *
 * @return bytes fetched from DRAM over all sweeps.
 */
double streamingReuseDramBytes(double footprint_bytes, double sweeps,
                               double capacity_bytes,
                               double residency_factor = 0.8);

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_CACHE_HH
