// drx_verify seeded defects: pool jobs cut off from the op in flight.
//
// AsyncIoPool restores the submitter's OpContext on the worker, which
// is how queue time, stage attribution and flow arrows follow an op.
// A context saved earlier names an op that has already finished, and
// an empty one names none. The pool-submit-opctx invariant wants
// obs::current_op() at every submit outside src/io/.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   pool-submit-opctx x2
#include "io/async_pool.hpp"
#include "obs/opctx.hpp"

namespace drx::verify_corpus {

void flush_later(io::AsyncIoPool& pool, const obs::OpContext& opened_by) {
  pool.submit(opened_by, [] {  // seeded: a stale context
    return Status::ok();
  });
}

void flush_detached(io::AsyncIoPool& pool) {
  pool.submit(obs::OpContext{}, [] {  // seeded: severs the causal chain
    return Status::ok();
  });
}

}  // namespace drx::verify_corpus
