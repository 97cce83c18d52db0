// drx_verify seeded defect: the axial vectors grown behind Metadata.
//
// Metadata::extend_elements is the one sanctioned way to grow an array:
// it moves the element bounds and the chunk grid together. Extending
// the mapping directly grows the grid while element_bounds stay put,
// so the two disagree on the array's shape. The axial-mutation
// invariant confines mapping.extend() to the metadata and mapping code.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   axial-mutation x1
#include <cstddef>
#include <cstdint>

#include "core/metadata.hpp"

namespace drx::verify_corpus {

std::uint64_t grow_grid_only(core::Metadata& meta, std::size_t dim) {
  return meta.mapping.extend(dim, 1);  // seeded: bypasses extend_elements
}

}  // namespace drx::verify_corpus
