#ifndef TKC_VCT_INDEX_IO_H_
#define TKC_VCT_INDEX_IO_H_

#include <string>

#include "util/status.h"
#include "vct/phc_index.h"
#include "vct/vct_index.h"

/// \file index_io.h
/// Binary (de)serialization of the multi-k PHC index — the admission index
/// a QueryEngine builds at start-up — so it is built once and reloaded
/// (QueryEngineOptions::preloaded_index), the same operational pattern as
/// persisting the PHC index in Yu et al.
///
/// Format: little-endian and versioned. A "TKCP" container holds a fixed
/// header and one length-prefixed block per k-slice; each block is a
/// "TKCV" VCT encoding (magic, version, header, then the raw CSR rows).
/// Loads validate magic, version and structural invariants (offset
/// monotonicity, window sanity, cross-slice ranges) and return
/// Status::Corruption on malformed input rather than crashing.

namespace tkc {

/// Serializes one VCT slice ("TKCV"): the PHC container's slice codec.
std::string SerializeVctIndex(const VertexCoreTimeIndex& index);

/// Parses one VCT slice; Corruption on any structural violation.
[[nodiscard]] StatusOr<VertexCoreTimeIndex> DeserializeVctIndex(
    const std::string& bytes);

/// Serializes a full multi-k PHC index ("TKCP" container: header +
/// length-prefixed per-slice VCT blocks) — the admission index a
/// QueryEngine builds at start-up, persisted once and reloaded via
/// QueryEngineOptions::preloaded_index to amortize engine start-up.
std::string SerializePhcIndex(const PhcIndex& index);

/// Parses a PHC index; Corruption on any structural violation (including
/// per-slice VCT violations and cross-slice range mismatches).
[[nodiscard]] StatusOr<PhcIndex> DeserializePhcIndex(const std::string& bytes);

/// File wrappers around SerializePhcIndex / DeserializePhcIndex.
[[nodiscard]] Status SavePhcIndex(const PhcIndex& index,
                                  const std::string& path);
[[nodiscard]] StatusOr<PhcIndex> LoadPhcIndex(const std::string& path);

}  // namespace tkc

#endif  // TKC_VCT_INDEX_IO_H_
