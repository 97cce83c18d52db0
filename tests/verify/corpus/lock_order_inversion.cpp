// drx_verify seeded defect: lock-order inversion.
//
// `io_mu_` maps to cache.io (level 58) and `seq_mu_` to cache.seq
// (level 62) in docs/LOCK_ORDER.md; acquiring the *higher* level while
// holding the lower one is an ascending edge the hierarchy forbids.
// One inversion is direct, the other crosses a call so the
// interprocedural acquisition summaries are exercised too.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   lock-order x2
#include "util/sync.hpp"

namespace drx::verify_corpus {

class InvertedLocks {
 public:
  void direct_inversion() {
    util::MutexLock io(io_mu_);
    util::MutexLock seq(seq_mu_);  // seeded: 62 acquired under 58
    ++io_ops_;
    ++generation_;
  }

  void cross_call_inversion() {
    util::MutexLock io(io_mu_);
    ++io_ops_;
    bump_generation();  // seeded: callee acquires cache.seq under cache.io
  }

 private:
  void bump_generation() {
    util::MutexLock seq(seq_mu_);
    ++generation_;
  }

  util::Mutex io_mu_;
  util::Mutex seq_mu_;
  long io_ops_ DRX_GUARDED_BY(io_mu_) = 0;
  long generation_ DRX_GUARDED_BY(seq_mu_) = 0;
};

}  // namespace drx::verify_corpus
