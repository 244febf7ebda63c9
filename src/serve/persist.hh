/**
 * @file
 * Engine warm-restart persistence on the crash-safe artifact layer
 * (DESIGN.md §11). An InferenceEngine's expensive construction work —
 * one execution plan per governor-ladder rung, each built by replaying
 * the planning sequences — is captured as an EngineWarmState and stored
 * as a checksummed container. A restarted process loads the state,
 * validates the fingerprint (model weights CRC, timing shape, plan
 * options) and hands it to the warm InferenceEngine constructor, which
 * then serves bit-identically to the engine that saved it.
 */

#ifndef MFLSTM_SERVE_PERSIST_HH
#define MFLSTM_SERVE_PERSIST_HH

#include <string>

#include "io/artifact.hh"
#include "serve/engine.hh"

namespace mflstm {
namespace serve {

/** Atomically write @p engine's warm state to @p path. */
void saveEngineState(const InferenceEngine &engine,
                     const std::string &path);

/** Atomically write an already exported state to @p path. */
void saveEngineState(const EngineWarmState &state,
                     const std::string &path);

/**
 * Load a warm state. Structural validation only — the model/shape
 * fingerprint is checked by the warm InferenceEngine constructor,
 * which is the first point where the live model is available.
 * @throws io::ArtifactError on any defect.
 */
EngineWarmState loadEngineState(const std::string &path,
                                const io::ArtifactLimits &limits = {});

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_PERSIST_HH
