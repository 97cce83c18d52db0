// drx_verify seeded defect: raw standard-library locking.
//
// Clang's thread-safety analysis only sees acquisitions made through
// the annotated util/sync.hpp wrappers. A std::mutex and the
// std::lock_guard that takes it are invisible to it, so the
// raw-sync-primitive invariant bans both outside sync.hpp.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   raw-sync-primitive x2
#include <mutex>

namespace drx::verify_corpus {

class RawLockedCounter {
 public:
  void bump() {
    const std::lock_guard<std::mutex> guard(mu_);  // seeded: raw guard
    ++count_;
  }

 private:
  std::mutex mu_;  // seeded: raw mutex
  long count_ = 0;
};

}  // namespace drx::verify_corpus
