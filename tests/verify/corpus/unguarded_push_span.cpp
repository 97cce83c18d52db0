// drx_verify seeded defect: an observability slow path on a hot path.
//
// detail::push_span is what ~ScopedSpan calls after checking the
// relaxed-atomic enabled flag. Calling it directly makes every visit
// pay for a clock read and a ring write even with tracing off. The
// hot-path-obs-guard invariant confines it to src/obs/.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   hot-path-obs-guard x1
#include <cstdint>

#include "obs/trace.hpp"

namespace drx::verify_corpus {

void record_visit(std::uint64_t start_ns, std::uint64_t bytes) {
  obs::detail::push_span("corpus.visit", "core", start_ns, bytes,
                         0);  // seeded: bypasses the enabled guard
}

}  // namespace drx::verify_corpus
