/**
 * @file
 * Binary model serialization on the crash-safe artifact layer
 * (DESIGN.md §11). saveModel writes the chunked, CRC32-checksummed v2
 * container atomically; loadModel reads it back with strictly
 * bounds-checked parsing: header dimensions are validated against
 * io::ArtifactLimits with checked multiplication *before* any tensor is
 * allocated, every payload is checked against the bytes actually
 * present, and models carrying NaN/Inf weights are rejected.
 */

#ifndef MFLSTM_NN_SERIALIZE_HH
#define MFLSTM_NN_SERIALIZE_HH

#include <string>

#include "io/artifact.hh"
#include "nn/model.hh"

namespace mflstm {
namespace nn {

/**
 * Write a model to @p path as a v2 artifact (atomic: temp + fsync +
 * rename). @throws io::ArtifactError on I/O failure.
 */
void saveModel(const LstmModel &model, const std::string &path);

/**
 * Read a v2 model artifact from @p path. Either returns a fully
 * validated model or throws io::ArtifactError (a std::runtime_error)
 * with a typed reason; it never allocates from an unvalidated header
 * and never returns a partially-read model.
 */
LstmModel loadModel(const std::string &path,
                    const io::ArtifactLimits &limits = {});

/**
 * loadModel and discard — the deep verification behind `mflstm fsck`.
 * @throws io::ArtifactError exactly as loadModel does.
 */
void verifyModelFile(const std::string &path,
                     const io::ArtifactLimits &limits = {});

/** True when @p path exists and is a model artifact container. */
bool isModelFile(const std::string &path);

} // namespace nn
} // namespace mflstm

#endif // MFLSTM_NN_SERIALIZE_HH
