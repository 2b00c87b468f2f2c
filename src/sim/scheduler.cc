#include "sim/scheduler.h"

namespace ecdb {

size_t Scheduler::RunUntil(Micros until) {
  size_t executed = 0;
  if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  const Entry* head;
  while ((head = PeekLive()) != nullptr && head->when <= until) {
    RunHead();
    ++executed;
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  }
  if (now_ < until) now_ = until;
  return executed;
}

size_t Scheduler::RunAll(size_t max_events) {
  size_t executed = 0;
  if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  while (executed < max_events && PeekLive() != nullptr) {
    RunHead();
    ++executed;
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  }
  return executed;
}

}  // namespace ecdb
