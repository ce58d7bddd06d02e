#include "layers.hpp"

#include <algorithm>
#include <utility>

namespace servebench {

std::int64_t self_time_ns(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& child : children) {
    const std::int64_t begin = std::max(child.start_ns, parent.start_ns);
    const std::int64_t end = std::min(child.end_ns, parent.end_ns);
    if (begin < end) {
      covered.emplace_back(begin, end);
    }
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [begin, end] : covered) {
    const std::int64_t from = std::max(begin, reach);
    if (from < end) {
      union_ns += end - from;
      reach = end;
    }
  }
  return (parent.end_ns - parent.start_ns) - union_ns;
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) { spans_.reserve(capacity); }

void SpanLog::add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t SpanLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void TimedHandler::handle(fhg::api::Request request, fhg::api::ResponseCallback done) {
  handle(std::move(request), fhg::api::RequestContext{}, std::move(done));
}

void TimedHandler::handle(fhg::api::Request request, const fhg::api::RequestContext& context,
                          fhg::api::ResponseCallback done) {
  if (!recording_.load(std::memory_order_relaxed)) {
    inner_.handle(std::move(request), context, std::move(done));
    return;
  }
  const auto kind = static_cast<std::uint8_t>(request.index());
  const std::int64_t start = now_ns();
  inner_.handle(std::move(request), context,
                [this, kind, start, trace_id = context.trace_id,
                 done = std::move(done)](fhg::api::Response response) {
                  log_.add(Span{layer_, start, now_ns(), trace_id, kind});
                  done(std::move(response));
                });
}

void TimedWalSink::on_commit(const fhg::engine::WalCommit& commit) {
  if (!recording_.load(std::memory_order_relaxed)) {
    inner_.on_commit(commit);
    return;
  }
  const std::int64_t start = now_ns();
  inner_.on_commit(commit);
  log_.add(Span{"wal", start, now_ns(), 0, 0});
}

}  // namespace servebench
