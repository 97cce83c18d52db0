// drx_verify seeded defect: a mutex member that guards nothing on paper.
//
// `mu_` serializes `total_`, but no DRX_GUARDED_BY names it, so clang's
// thread-safety analysis cannot check a single access to `total_`. The
// unannotated-mutex-member invariant asks for the annotation (or a
// suppression saying what the mutex serializes instead).
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   unannotated-mutex-member x1
#include "util/sync.hpp"

namespace drx::verify_corpus {

class UnguardedTally {
 public:
  void add(long n) {
    util::MutexLock lock(seq_mu_);
    total_ += n;
  }

 private:
  util::Mutex seq_mu_;  // seeded: guards total_, but nothing says so
  long total_ = 0;
};

}  // namespace drx::verify_corpus
