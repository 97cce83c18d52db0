// Prefetch hint plumbing between layers that *know* future access
// patterns (zone reads, box scans) and layers that *hold* chunk frames
// (ChunkCache). The sink interface lives here, below both, so core can
// forward hints without a dependency cycle.
#pragma once

#include <cstdint>
#include <span>

namespace drx::io {

/// Receiver of speculative chunk-read hints. Implementations must treat
/// hints as advisory: dropping one is always legal, and prefetch_chunks
/// must never block on the I/O it starts.
class PrefetchSink {
 public:
  virtual ~PrefetchSink() = default;

  /// Hints that the chunks at linear `addresses` (any order) are about
  /// to be read. Thread-safe.
  virtual void prefetch_chunks(std::span<const std::uint64_t> addresses) = 0;
};

}  // namespace drx::io
