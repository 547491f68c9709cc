#include "trace/visit_schedule.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace cdnsim::trace {
namespace {

// Min-heap order for std::make_heap (which builds max-heaps): "a after b".
bool after(const VisitPos& a, const VisitPos& b) { return b < a; }

constexpr sim::SimTime kDone = std::numeric_limits<sim::SimTime>::infinity();

}  // namespace

VisitStream::VisitStream(std::vector<sim::SimTime> phases, sim::SimTime period_s,
                         sim::SimTime end_time_s)
    : phases_(std::move(phases)), period_(period_s), end_time_(end_time_s) {
  CDNSIM_EXPECTS(period_s > 0, "visit period must be positive");
  heap_.reserve(phases_.size());
  for (std::size_t k = 0; k < phases_.size(); ++k) {
    heap_.push_back({phases_[k] < end_time_ ? phases_[k] : kDone,
                     static_cast<std::uint32_t>(k)});
  }
  std::make_heap(heap_.begin(), heap_.end(), after);
  if (!heap_.empty()) next_ = heap_.front();
}

void VisitStream::sift_root() {
  // The root's key only grew: move it down to restore the (binary) heap.
  const std::size_t n = heap_.size();
  const VisitPos v = heap_.front();
  std::size_t i = 0;
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && heap_[c + 1] < heap_[c]) ++c;
    if (!(heap_[c] < v)) break;
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = v;
  next_ = heap_.front();
}

VisitPos VisitStream::pop() {
  CDNSIM_EXPECTS(!exhausted(), "pop from an exhausted visit stream");
  const VisitPos v = next_;
  VisitPos& h = heap_.front();
  // Repeated addition, not phase + i * period: this is the arithmetic
  // PeriodicTimer::fire() performs, bit for bit.
  h.time += period_;
  if (!(h.time < end_time_)) h.time = kDone;
  sift_root();
  return v;
}

std::uint64_t VisitStream::advance_until(sim::SimTime upto) {
  std::uint64_t count = 0;
  while (next_.time < upto) {
    VisitPos& h = heap_.front();
    do {
      ++count;
      h.time += period_;
    } while (h.time < upto && h.time < end_time_);
    // The head is now at or past `upto`, so it is not advanced again here.
    if (!(h.time < end_time_)) h.time = kDone;
    sift_root();
  }
  return count;
}

std::vector<VisitStream> make_visit_streams(std::size_t server_count,
                                            std::size_t users_per_server,
                                            sim::SimTime period_s,
                                            sim::SimTime start_window_s,
                                            sim::SimTime end_time_s,
                                            util::Rng& rng) {
  CDNSIM_EXPECTS(period_s > 0, "visit period must be positive");
  CDNSIM_EXPECTS(start_window_s >= 0, "start window must be non-negative");
  CDNSIM_EXPECTS(
      users_per_server == 0 ||
          server_count <= std::numeric_limits<std::uint32_t>::max() /
                              users_per_server,
      "visit stream user indices must fit in 32 bits");
  std::vector<VisitStream> out;
  out.reserve(server_count);
  // Servers in id order, users in id order within each: phases are drawn
  // in global user-id order, the exact sequence the legacy per-user timer
  // setup consumed, so callers can swap paths freely.
  for (std::size_t s = 0; s < server_count; ++s) {
    std::vector<sim::SimTime> phases;
    phases.reserve(users_per_server);
    for (std::size_t k = 0; k < users_per_server; ++k) {
      phases.push_back(rng.uniform(0.0, start_window_s));
    }
    out.emplace_back(std::move(phases), period_s, end_time_s);
  }
  return out;
}

}  // namespace cdnsim::trace
