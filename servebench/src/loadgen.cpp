#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "fhg/api/codec.hpp"
#include "fhg/cluster/ring.hpp"
#include "stats.hpp"

namespace servebench {

namespace {

constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr std::size_t kReadChunk = 64 * 1024;

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("servebench: socket: ") + std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("servebench: connect 127.0.0.1:" + std::to_string(port) + ": " +
                             std::strerror(saved));
  }
  const int enable = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Writes all of `bytes` to a nonblocking socket, waiting for room when the
/// kernel buffer is full.  False when the peer is gone.
bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes = bytes.subspan(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd wait{fd, POLLOUT, 0};
      (void)::poll(&wait, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

void sleep_until_ns(std::int64_t deadline) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline % 1'000'000'000);
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock `now_ns` reads.
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

std::uint64_t pack_mutation(std::uint64_t applied, std::uint64_t recolors,
                            std::uint64_t table_version) {
  return (applied & 0xFFFF) | ((recolors & 0xFFFF) << 16) | (table_version << 32);
}

std::uint64_t blob_hash(std::span<const std::uint8_t> bytes) {
  return fhg::cluster::fnv1a(
      std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::uint64_t answer_of(const fhg::api::Response& response) {
  using namespace fhg::api;
  if (const auto* r = std::get_if<IsHappyResponse>(&response.payload)) {
    return r->happy ? 1 : 0;
  }
  if (const auto* r = std::get_if<NextGatheringResponse>(&response.payload)) {
    return r->holiday;
  }
  if (const auto* r = std::get_if<ApplyMutationsResponse>(&response.payload)) {
    return pack_mutation(r->applied, r->recolors, r->table_version);
  }
  if (const auto* r = std::get_if<SnapshotInstanceResponse>(&response.payload)) {
    return blob_hash(r->bytes);
  }
  if (const auto* r = std::get_if<RestoreInstanceResponse>(&response.payload)) {
    return r->replaced ? 1 : 0;
  }
  return 0;
}

LoadGen::LoadGen(const FrameSet& frames, std::span<const std::uint16_t> ports, SpanLog* spans)
    : frames_(frames), spans_(spans) {
  // Answers are kept per frame, not per request, so the generator's memory
  // does not grow with the requests a run completes.
  for (Conn& conn : conns_) {
    conn.answers.assign(frames.length, 0);
    conn.statuses.assign(frames.length, 0);
  }
  // Wake the sender at its due times, not up to 50 µs later.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      throw std::runtime_error(std::string("servebench: epoll: ") + std::strerror(errno));
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_[c].fd = dial(ports[frames.target[c]]);
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u32 = static_cast<std::uint32_t>(c);
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[c].fd, &event) != 0) {
        throw std::runtime_error(std::string("servebench: epoll_ctl: ") + std::strerror(errno));
      }
    }
  } catch (...) {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
      }
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
    throw;
  }
  receiver_ = std::thread([this] { receive_loop(); });
}

LoadGen::~LoadGen() {
  stop_receiver();
  for (Conn& conn : conns_) {
    ::close(conn.fd);
  }
  ::close(epoll_fd_);
}

std::size_t LoadGen::answered(std::size_t c) const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(conns_[c].received.load(std::memory_order_acquire), frames_.length));
}

void LoadGen::stop_receiver() {
  stopping_.store(true, std::memory_order_release);
  if (receiver_.joinable()) {
    receiver_.join();
  }
}

std::uint32_t LoadGen::begin_phase(bool timed, bool spans, std::size_t expected) {
  if (next_phase_ == kPhases) {
    throw std::logic_error("servebench: too many load phases");
  }
  PhaseAcc& acc = phases_[next_phase_];
  acc.timed = timed;
  acc.spans = spans && spans_ != nullptr;
  if (timed) {
    acc.read_ns.reserve(expected);
  }
  return next_phase_++;
}

void LoadGen::stage(std::size_t c, std::int64_t due_ns, std::uint32_t phase,
                    PhaseResult& result) {
  Conn& conn = conns_[c];
  if (!frames_.repeats && conn.staged >= frames_.length) {
    throw std::logic_error("servebench: a stream that may not repeat ran out");
  }
  // A full ring means kRing requests are in flight: send what is staged and
  // wait for answers before reusing a slot.
  while (conn.staged - conn.received.load(std::memory_order_acquire) >= kRing) {
    const std::uint64_t seen = progress_.load(std::memory_order_acquire);
    flush();
    if (conn.staged - conn.received.load(std::memory_order_acquire) >= kRing) {
      wait_progress(seen);
    }
  }
  conn.ring[conn.staged % kRing] = Slot{due_ns, 0, phase};
  const std::vector<std::uint8_t>& frame = frames_.frames[c][conn.staged % frames_.length];
  conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
  result.request_bytes += frame.size();
  ++conn.staged;
  ++result.sent;
}

void LoadGen::flush() {
  const std::int64_t now = now_ns();
  for (Conn& conn : conns_) {
    if (conn.flushed == conn.staged) {
      continue;
    }
    for (std::uint64_t pos = conn.flushed; pos < conn.staged; ++pos) {
      conn.ring[pos % kRing].sent_ns = now;
    }
    // Publish the slots before the bytes leave, so the receiver can read
    // them as soon as an answer arrives.
    conn.published.store(conn.staged, std::memory_order_release);
    if (!send_all(conn.fd, conn.outbox)) {
      broken_ = true;
    }
    conn.outbox.clear();
    conn.flushed = conn.staged;
  }
}

void LoadGen::wait_progress(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(progress_mutex_);
  progress_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
    return progress_.load(std::memory_order_acquire) != seen ||
           lost_.load(std::memory_order_acquire);
  });
}

PhaseResult LoadGen::warm_up(std::size_t per_conn, std::size_t window) {
  PhaseResult result;
  const std::uint32_t phase = begin_phase(false, false, 0);
  result.start_ns = now_ns();
  run_window(phase, window, std::numeric_limits<std::int64_t>::max(), per_conn, result);
  finish_phase(phase, result);
  return result;
}

PhaseResult LoadGen::open_loop(double rate_rps, std::size_t count, bool record_spans) {
  PhaseResult result;
  result.lag_ns.reserve(count);
  const std::uint32_t phase = begin_phase(true, record_spans, count);
  const double interval_ns = 1e9 / rate_rps;
  const std::int64_t t0 = now_ns() + 1'000'000;
  result.start_ns = t0;
  const auto due_of = [&](std::size_t k) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
  };
  std::size_t k = 0;
  while (k < count && !broken()) {
    const std::int64_t now = now_ns();
    if (due_of(k) > now) {
      sleep_until_ns(due_of(k));
      continue;
    }
    for (; k < count && due_of(k) <= now; ++k) {
      stage(k % kConnections, due_of(k), phase, result);
      result.lag_ns.push_back(now - due_of(k));
    }
    flush();
  }
  finish_phase(phase, result);
  return result;
}

PhaseResult LoadGen::closed_loop(double seconds, std::size_t window, bool record_spans) {
  PhaseResult result;
  const std::uint32_t phase = begin_phase(false, record_spans, 0);
  result.start_ns = now_ns();
  PhaseAcc& acc = phases_[phase];
  acc.slice_origin_ns = result.start_ns;
  acc.slices.assign(static_cast<std::size_t>(seconds * 1e9 / kSliceNs), 0);
  run_window(phase, window, result.start_ns + static_cast<std::int64_t>(seconds * 1e9), 0,
             result);
  finish_phase(phase, result);
  result.seconds = static_cast<double>(result.end_ns - result.start_ns) / 1e9;
  return result;
}

void LoadGen::run_window(std::uint32_t phase, std::size_t window, std::int64_t deadline_ns,
                         std::size_t per_conn, PhaseResult& result) {
  std::array<std::uint64_t, kConnections> limit{};
  for (std::size_t c = 0; c < kConnections; ++c) {
    limit[c] = per_conn == 0 ? std::numeric_limits<std::uint64_t>::max()
                             : conns_[c].staged + per_conn;
    if (!frames_.repeats && limit[c] >= frames_.length) {
      limit[c] = frames_.length;
    }
  }
  while (!broken()) {
    const std::int64_t now = now_ns();
    if (now >= deadline_ns) {
      break;
    }
    const std::uint64_t seen = progress_.load(std::memory_order_acquire);
    bool staged_any = false;
    bool all_done = true;
    for (std::size_t c = 0; c < kConnections; ++c) {
      Conn& conn = conns_[c];
      while (conn.staged < limit[c] &&
             conn.staged - conn.received.load(std::memory_order_acquire) < window) {
        stage(c, now, phase, result);
        staged_any = true;
      }
      all_done = all_done && conn.staged >= limit[c];
    }
    if (staged_any) {
      flush();
    } else if (all_done) {
      result.exhausted = per_conn == 0;
      break;
    } else {
      wait_progress(seen);
    }
  }
}

void LoadGen::finish_phase(std::uint32_t phase, PhaseResult& result) {
  flush();
  const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
  for (;;) {
    const std::uint64_t seen = progress_.load(std::memory_order_acquire);
    const bool drained = std::all_of(conns_.begin(), conns_.end(), [](const Conn& conn) {
      return conn.received.load(std::memory_order_acquire) == conn.staged;
    });
    if (drained) {
      break;
    }
    if (broken() || now_ns() > deadline) {
      // Requests still unanswered count as failed; stop the receiver so the
      // phase totals can be read without racing it.
      broken_ = true;
      stop_receiver();
      break;
    }
    wait_progress(seen);
  }
  PhaseAcc& acc = phases_[phase];
  result.completed = acc.completed;
  result.failed = result.sent - std::min(result.sent, acc.completed);
  result.response_bytes = acc.response_bytes;
  result.end_ns = acc.last_done_ns;
  result.read_ns = std::move(acc.read_ns);
  result.write_ns = std::move(acc.write_ns);
  result.slices = std::move(acc.slices);
  // A phase that ran out of stream ends early: keep its whole slices only.
  result.slices.resize(std::min<std::size_t>(
      result.slices.size(),
      static_cast<std::size_t>(std::max<std::int64_t>(0, result.end_ns - acc.slice_origin_ns) /
                               kSliceNs)));
}

void LoadGen::receive_loop() {
  std::vector<std::uint8_t> chunk(kReadChunk);
  std::array<epoll_event, kConnections> events{};
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), 20);
    bool progressed = false;
    for (int i = 0; i < ready; ++i) {
      const std::size_t c = events[static_cast<std::size_t>(i)].data.u32;
      Conn& conn = conns_[c];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk.data(), chunk.size(), 0);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        if (n <= 0) {
          lost_.store(true, std::memory_order_release);
          (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
          break;
        }
        conn.inbox.insert(conn.inbox.end(), chunk.begin(), chunk.begin() + n);
        std::size_t offset = 0;
        while (conn.inbox.size() - offset >= fhg::api::kFrameHeaderBytes) {
          const std::uint8_t* header = conn.inbox.data() + offset;
          const std::size_t payload = be32(header + 4);
          if (be32(header) != fhg::api::kFrameMagic || payload > fhg::api::kMaxFramePayload) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            lost_.store(true, std::memory_order_release);
            break;
          }
          const std::size_t total = fhg::api::kFrameHeaderBytes + payload;
          if (conn.inbox.size() - offset < total) {
            break;
          }
          on_frame(c, std::span<const std::uint8_t>(header, total));
          offset += total;
          progressed = true;
        }
        conn.inbox.erase(conn.inbox.begin(), conn.inbox.begin() + static_cast<long>(offset));
      }
    }
    if (progressed || lost_.load(std::memory_order_acquire)) {
      progress_.fetch_add(1, std::memory_order_acq_rel);
      { const std::lock_guard<std::mutex> lock(progress_mutex_); }
      progress_cv_.notify_all();
    }
  }
}

void LoadGen::on_frame(std::size_t c, std::span<const std::uint8_t> frame) {
  const std::int64_t done = now_ns();
  Conn& conn = conns_[c];
  const std::uint64_t pos = conn.received.load(std::memory_order_relaxed);
  if (pos >= conn.published.load(std::memory_order_acquire)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);  // an answer nobody asked for
    return;
  }
  const Slot slot = conn.ring[pos % kRing];
  const std::size_t f = pos % frames_.length;
  fhg::api::DecodedResponse decoded;
  std::uint8_t code = 0;
  std::uint64_t answer = 0;
  if (const fhg::api::Status status = fhg::api::decode_response(frame, decoded); !status.ok()) {
    code = static_cast<std::uint8_t>(status.code);
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  } else if (decoded.request_id != frames_.id(c, f)) {
    code = static_cast<std::uint8_t>(fhg::api::StatusCode::kInternal);
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  } else {
    code = static_cast<std::uint8_t>(decoded.response.status.code);
    answer = answer_of(decoded.response);
  }
  if (pos < frames_.length) {
    conn.answers[f] = answer;
    conn.statuses[f] = code;
  } else if (conn.answers[f] != answer || conn.statuses[f] != code) {
    // Repeats happen only on read-only streams, where a frame's answer
    // cannot change.
    repeat_mismatches_.fetch_add(1, std::memory_order_relaxed);
  }

  PhaseAcc& acc = phases_[slot.phase];
  const bool ok = code == 0;
  acc.completed += ok ? 1 : 0;
  acc.response_bytes += frame.size();
  acc.last_done_ns = done;
  if (ok && !acc.slices.empty()) {
    const auto slice = static_cast<std::size_t>((done - acc.slice_origin_ns) / kSliceNs);
    if (slice < acc.slices.size()) {
      ++acc.slices[slice];
    }
  }
  const std::size_t kind = frames_.requests[c][f].index();
  if (acc.timed) {
    (is_write_kind(kind) ? acc.write_ns : acc.read_ns)
        .push_back(ok ? done - slot.due_ns : kMissed);
  }
  if (acc.spans) {
    spans_->add(Span{"loadgen", slot.sent_ns, done, frames_.id(c, f),
                     static_cast<std::uint8_t>(kind)});
  }
  conn.received.store(pos + 1, std::memory_order_release);
}

}  // namespace servebench
