// Stress tests for the per-server visit streams against a naive
// one-event-per-visit model.
//
// The batched visit path in the engine trusts trace::VisitStream to
// reproduce the legacy PeriodicTimer arrivals bit for bit. Here the streams
// are checked against the real thing: per-user periodic timers run on a
// Simulator, recording every (time, user) arrival. Every stream is consumed
// three ways — visit by visit (pop), in bulk windows mixed with pops
// (advance_until, the engine's walk), and per user from the phase (the
// engine's fold) — and each must agree with the reference. The regimes
// cover empty streams, all visits inside one start window, visits landing
// exactly on the horizon (dropped, matching the engine's `now >= end`
// stop), and u32 user-index limits. Advancing a stream must not allocate
// (the engine's catch-up walk runs inside the hot event path).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "support/alloc_counter.hpp"
#include "trace/visit_schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cdnsim::trace {
namespace {

struct Arrival {
  sim::SimTime time;
  std::uint32_t user;
  bool operator==(const Arrival& o) const {
    return time == o.time && user == o.user;  // bit-exact on purpose
  }
};

// The reference model: one PeriodicTimer per user, phases drawn in user-id
// order from an identically seeded RNG — exactly the legacy engine's visit
// loop. Produces per-server arrival lists sorted by (time, user); the
// simulator pops equal-time events FIFO and users start in id order, so the
// tie-break falls out of event order.
std::vector<std::vector<Arrival>> naive_arrivals(std::size_t server_count,
                                                 std::size_t users_per_server,
                                                 sim::SimTime period_s,
                                                 sim::SimTime start_window_s,
                                                 sim::SimTime end_time_s,
                                                 util::Rng& rng) {
  sim::Simulator sim;
  std::vector<std::vector<Arrival>> out(server_count);
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  const std::size_t total_users = server_count * users_per_server;
  for (std::size_t u = 0; u < total_users; ++u) {
    const std::size_t server = u / users_per_server;
    auto timer = std::make_unique<sim::PeriodicTimer>(
        sim, period_s, [&sim, &out, server, u, end_time_s] {
          if (sim.now() >= end_time_s) return;
          out[server].push_back(
              {sim.now(), static_cast<std::uint32_t>(u)});
        });
    timer->start_after(rng.uniform(0.0, start_window_s));
    timers.push_back(std::move(timer));
  }
  sim.at(end_time_s, [&timers] {
    for (auto& t : timers) t->stop();
  });
  sim.run();
  return out;
}

// Drains a copy of `stream` visit by visit; users as global ids.
std::vector<Arrival> pop_all(VisitStream stream, std::uint32_t base) {
  std::vector<Arrival> out;
  while (!stream.exhausted()) {
    const VisitPos v = stream.pop();
    out.push_back({v.time, base + v.user});
  }
  EXPECT_EQ(stream.next().time, std::numeric_limits<sim::SimTime>::infinity());
  return out;
}

// Consumes a copy of `stream` in random bulk windows mixed with single
// pops, checking every count and every next() against the reference.
void expect_bulk_walk_matches(VisitStream stream, std::uint32_t base,
                              const std::vector<Arrival>& reference,
                              util::Rng& meta) {
  std::size_t i = 0;
  const auto expect_next = [&] {
    if (i < reference.size()) {
      ASSERT_EQ(stream.next().time, reference[i].time) << "visit " << i;
      ASSERT_EQ(base + stream.next().user, reference[i].user) << "visit " << i;
    } else {
      ASSERT_TRUE(stream.exhausted());
    }
  };
  expect_next();
  while (i < reference.size()) {
    if (meta.uniform(0.0, 1.0) < 0.3) {
      const VisitPos v = stream.pop();
      ASSERT_EQ((Arrival{v.time, base + v.user}), reference[i]);
      ++i;
    } else {
      // Cut anywhere, including exactly at a visit time (ties).
      const sim::SimTime upto =
          meta.uniform(0.0, 1.0) < 0.5
              ? reference[std::min(reference.size() - 1,
                                   i + meta.index(4))].time
              : stream.next().time + meta.uniform(0.0, 25.0);
      std::size_t expected = 0;
      while (i + expected < reference.size() &&
             reference[i + expected].time < upto) {
        ++expected;
      }
      ASSERT_EQ(stream.advance_until(upto), expected);
      i += expected;
    }
    expect_next();
  }
  EXPECT_EQ(stream.advance_until(std::numeric_limits<sim::SimTime>::infinity()),
            0u);
}

// Regenerates each user's visits from its phase with the stream's
// arithmetic (the engine's fold) and checks them against that user's
// subsequence of the reference.
void expect_replay_matches(const VisitStream& stream, std::uint32_t base,
                           std::size_t users,
                           const std::vector<Arrival>& reference) {
  for (std::uint32_t k = 0; k < users; ++k) {
    std::vector<sim::SimTime> expected;
    for (const Arrival& a : reference) {
      if (a.user == base + k) expected.push_back(a.time);
    }
    std::vector<sim::SimTime> replayed;
    for (sim::SimTime t = stream.phase(k); t < stream.end_time();
         t += stream.period()) {
      replayed.push_back(t);
    }
    EXPECT_EQ(replayed, expected) << "user " << base + k;
  }
}

void expect_matches_naive(std::size_t server_count,
                          std::size_t users_per_server, sim::SimTime period_s,
                          sim::SimTime start_window_s,
                          sim::SimTime end_time_s, std::uint64_t seed) {
  util::Rng stream_rng(seed);
  util::Rng naive_rng(seed);
  const std::vector<VisitStream> streams =
      make_visit_streams(server_count, users_per_server, period_s,
                         start_window_s, end_time_s, stream_rng);
  const auto reference =
      naive_arrivals(server_count, users_per_server, period_s, start_window_s,
                     end_time_s, naive_rng);
  // Both paths must consume the identical RNG prefix.
  EXPECT_EQ(stream_rng.uniform(0.0, 1.0), naive_rng.uniform(0.0, 1.0));

  ASSERT_EQ(streams.size(), server_count);
  util::Rng meta(seed ^ 0xb0b);
  for (std::size_t s = 0; s < server_count; ++s) {
    SCOPED_TRACE("server " + std::to_string(s));
    const auto base = static_cast<std::uint32_t>(s * users_per_server);
    const std::vector<Arrival> popped = pop_all(streams[s], base);
    ASSERT_EQ(popped.size(), reference[s].size())
        << "visit count diverges from the naive model";
    for (std::size_t k = 0; k < popped.size(); ++k) {
      EXPECT_EQ(popped[k].time, reference[s][k].time) << "visit " << k;
      EXPECT_EQ(popped[k].user, reference[s][k].user) << "visit " << k;
    }
    expect_bulk_walk_matches(streams[s], base, reference[s], meta);
    expect_replay_matches(streams[s], base, users_per_server, reference[s]);
  }
}

std::size_t visit_count(const std::vector<VisitStream>& streams) {
  std::size_t total = 0;
  for (VisitStream s : streams) {
    total += s.advance_until(std::numeric_limits<sim::SimTime>::infinity());
  }
  return total;
}

TEST(VisitBatchStressTest, RandomizedRegimesMatchNaivePerVisitModel) {
  util::Rng meta(0x5eed);
  for (int round = 0; round < 30; ++round) {
    const std::size_t servers = 1 + meta.index(6);
    const std::size_t users = 1 + meta.index(5);
    const double period = meta.uniform(0.5, 30.0);
    const double window = meta.uniform(0.0, 60.0);
    const double end = meta.uniform(1.0, 200.0);
    SCOPED_TRACE("round " + std::to_string(round) + ": servers=" +
                 std::to_string(servers) + " users=" + std::to_string(users) +
                 " period=" + std::to_string(period) + " window=" +
                 std::to_string(window) + " end=" + std::to_string(end));
    expect_matches_naive(servers, users, period, window, end,
                         0x1000 + static_cast<std::uint64_t>(round));
  }
}

TEST(VisitBatchStressTest, EmptySchedulesWhenAllPhasesPastHorizon) {
  // Horizon at 0: every phase lands at or past it, so nobody ever visits
  // and every stream starts exhausted. Then the partial case: a wide start
  // window with an earlier horizon drops only the late starters.
  util::Rng rng(9);
  const std::vector<VisitStream> streams =
      make_visit_streams(4, 3, 10.0, /*start_window_s=*/100.0,
                         /*end_time_s=*/0.0, rng);
  for (const VisitStream& s : streams) {
    EXPECT_TRUE(s.exhausted());
    EXPECT_EQ(s.next().time, std::numeric_limits<sim::SimTime>::infinity());
  }
  EXPECT_EQ(visit_count(streams), 0u);
  expect_matches_naive(4, 3, 10.0, 100.0, 40.0, 11);
}

TEST(VisitBatchStressTest, AllVisitsInsideOneWindow) {
  // Period longer than the horizon: each user visits exactly once, at its
  // phase, all inside the single [0, window) epoch.
  util::Rng rng(21);
  const std::vector<VisitStream> streams =
      make_visit_streams(3, 4, /*period_s=*/1000.0, /*start_window_s=*/5.0,
                         /*end_time_s=*/5.0, rng);
  EXPECT_EQ(visit_count(streams), 12u);
  for (const VisitStream& s : streams) {
    const std::vector<Arrival> visits = pop_all(s, 0);
    ASSERT_EQ(visits.size(), 4u);
    for (std::size_t k = 1; k < visits.size(); ++k) {
      EXPECT_LE(visits[k - 1].time, visits[k].time) << "not sorted";
    }
  }
  expect_matches_naive(3, 4, 1000.0, 5.0, 5.0, 22);
}

TEST(VisitBatchStressTest, VisitExactlyAtHorizonIsDropped) {
  // Zero start window puts every phase at exactly 0; with period 2.5 and
  // horizon 10 the arrivals are {0, 2.5, 5, 7.5} — the t == 10 visit is
  // dropped by the strict < comparison, as the engine drops it.
  util::Rng rng(5);
  const std::vector<VisitStream> streams = make_visit_streams(
      2, 1, /*period_s=*/2.5, /*start_window_s=*/0.0, /*end_time_s=*/10.0, rng);
  for (const VisitStream& s : streams) {
    const std::vector<Arrival> visits = pop_all(s, 0);
    ASSERT_EQ(visits.size(), 4u);
    EXPECT_EQ(visits.front().time, 0.0);
    EXPECT_EQ(visits.back().time, 7.5);
  }
  expect_matches_naive(2, 1, 2.5, 0.0, 10.0, 5);
}

TEST(VisitBatchStressTest, SimultaneousVisitsOrderByUserId) {
  // Equal phases (zero start window): every visit is a three-way tie, which
  // the stream breaks by user id — across pops and across a bulk window
  // that ends exactly at the tied instant.
  util::Rng rng(3);
  VisitStream stream =
      make_visit_streams(1, 3, /*period_s=*/4.0, /*start_window_s=*/0.0,
                         /*end_time_s=*/12.0, rng)
          .front();
  EXPECT_EQ(stream.pop(), (VisitPos{0.0, 0}));
  EXPECT_EQ(stream.next(), (VisitPos{0.0, 1}));
  EXPECT_EQ(stream.advance_until(4.0), 2u);  // users 1 and 2 at t = 0
  EXPECT_EQ(stream.next(), (VisitPos{4.0, 0}));
  EXPECT_EQ(stream.pop(), (VisitPos{4.0, 0}));
  EXPECT_EQ(stream.pop(), (VisitPos{4.0, 1}));
  EXPECT_EQ(stream.advance_until(12.0), 4u);  // user 2 at 4, all at 8
  EXPECT_TRUE(stream.exhausted());
  expect_matches_naive(2, 3, 4.0, 0.0, 12.0, 3);
}

TEST(VisitBatchStressTest, UserIndicesBeyond16BitsSurvive) {
  // 70k users on one server: indices overflow u16 but must fit u32 intact.
  util::Rng rng(77);
  const std::vector<VisitStream> streams = make_visit_streams(
      1, 70000, /*period_s=*/100.0, /*start_window_s=*/1.0,
      /*end_time_s=*/1.5, rng);
  const std::vector<Arrival> visits = pop_all(streams[0], 0);
  EXPECT_EQ(visits.size(), 70000u);
  std::uint32_t max_user = 0;
  for (const Arrival& a : visits) max_user = std::max(max_user, a.user);
  EXPECT_EQ(max_user, 69999u);
  // Same stream, one bulk window: every user counted once.
  VisitStream bulk = streams[0];
  EXPECT_EQ(bulk.advance_until(1.5), 70000u);
  EXPECT_TRUE(bulk.exhausted());
}

TEST(VisitBatchStressTest, RejectsUserPopulationsBeyond32Bits) {
  util::Rng rng(1);
  const std::size_t half =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} / 2 + 1;
  EXPECT_THROW(make_visit_streams(half, 3, 10.0, 1.0, 0.0, rng),
               PreconditionError);
}

TEST(VisitBatchStressTest, WalkingASchedulePerformsNoAllocations) {
#if CDNSIM_ALLOC_COUNTING
  util::Rng rng(123);
  std::vector<VisitStream> streams =
      make_visit_streams(8, 5, 3.0, 50.0, 400.0, rng);
  // The engine's catch-up walk is exactly this shape: advance each stream
  // window by window, interleaved with single pops and next() reads. It
  // must stay off the heap — the walk runs inside the hot event path.
  std::uint64_t visits = 0;
  double sink = 0.0;
  const std::uint64_t before = testsupport::allocation_count();
  for (VisitStream& s : streams) {
    for (sim::SimTime upto = 7.0; !s.exhausted(); upto += 7.0) {
      visits += s.advance_until(upto);
      if (!s.exhausted()) {
        sink += s.pop().time;
        ++visits;
      }
      sink += s.next().time < upto ? 1.0 : 0.0;
    }
  }
  const std::uint64_t after = testsupport::allocation_count();
  EXPECT_EQ(after - before, 0u) << "stream walk allocated";
  EXPECT_GT(visits, 0u);
  EXPECT_GT(sink, 0.0);
#else
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
}

}  // namespace
}  // namespace cdnsim::trace
