// Versioned, checksummed flat-blob artifact of one compiled engine:
// the CompiledModel stage descriptors plus every Dense/ConvLayerPlan,
// laid out offset-table style so the reader mmap()s the file
// read-only and points the plan arrays (biases and (shift, sign)
// groups) directly at the mapping — no
// per-field parse of the bulk data, and N processes loading the same
// artifact share one physical copy through the page cache.
//
// File layout (all little-endian):
//
//   [ 64-byte header ]  magic, version, file size, config hash,
//                       payload checksum, directory offset
//   [ arrays region  ]  every plan array, 8-byte aligned, starting at
//                       offset 64 (page-aligned mapping => aligned
//                       absolute pointers)
//   [ directory      ]  config key, QuantSpec, lanes, stage
//                       descriptors and per-plan scalars, with
//                       (offset, count) references into the arrays
//                       region — written with the util/serialize
//                       BlobWriter idiom, parsed once at load with a
//                       bounds-checked SpanReader
//
// Every validation failure — truncation, flipped payload byte, wrong
// version, wrong config key, or (behind a valid checksum) a plan whose
// geometry, offsets, indices, shifts or sign masks no compiler could have
// produced — throws util::SerializationError, so callers fall back to
// compiling instead of serving a corrupt plan.
#ifndef MAN_ARTIFACT_PLAN_ARTIFACT_H
#define MAN_ARTIFACT_PLAN_ARTIFACT_H

#include <memory>
#include <string>

#include "man/engine/fixed_network.h"

namespace man::artifact {

/// Artifact format version; readers reject anything else. Since
/// version 2 a plan's compiled layout is its only schedule layout;
/// version 3 dropped the per-plan conv tile shapes (conv tiles are
/// fixed per ISA at compile time); version 4 replaced the dense
/// quartet planes with (shift, sign) groups of term indices, and
/// version 5 the conv ones; version 6 dropped the exact flag, the
/// exact weights and the conv patch offsets (conventional layers are
/// full-alphabet grouped plans).
inline constexpr std::uint32_t kArtifactVersion = 6;

/// Serializes `engine` into a flat blob and publishes it at `path`
/// atomically (same-directory temp file + rename, so a concurrent
/// cold-starting reader never maps a torn file). `config_key` is the
/// engine-cache key the artifact answers for; loading under any other
/// key is rejected. Throws std::runtime_error when the file cannot
/// be written.
void save_engine(const man::engine::FixedNetwork& engine,
                 const std::string& path, const std::string& config_key);

/// Maps the artifact at `path` read-only, validates it (magic,
/// version, size, payload checksum, config key) and reconstructs the
/// engine with its plan arrays borrowing from the mapping, which
/// stays pinned for the engine's lifetime. Zero train/compile work;
/// the result is bit-identical to the engine that was saved. Throws
/// util::SerializationError when the file is missing, torn, corrupt,
/// of another version, or saved under a different config key.
[[nodiscard]] std::shared_ptr<const man::engine::FixedNetwork> load_engine(
    const std::string& path, const std::string& config_key);

/// Canonical artifact file name for a config key under a cache
/// directory: <dir>/<fnv1a(config_key) as hex>.plan (collisions are
/// caught by the in-file config-key check).
[[nodiscard]] std::string artifact_path(const std::string& dir,
                                        const std::string& config_key);

}  // namespace man::artifact

#endif  // MAN_ARTIFACT_PLAN_ARTIFACT_H
