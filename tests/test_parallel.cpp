#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace delta {
namespace {

TEST(StaticPartition, TilesTheRangeExactly) {
  for (std::size_t n : {0u, 1u, 3u, 7u, 16u, 65u}) {
    for (unsigned parts : {1u, 2u, 3u, 8u, 64u}) {
      std::size_t expect_begin = 0;
      for (unsigned p = 0; p < parts; ++p) {
        const IndexRange r = static_partition(n, parts, p);
        EXPECT_EQ(r.begin, expect_begin) << "n=" << n << " parts=" << parts;
        EXPECT_LE(r.begin, r.end);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(StaticPartition, ZeroItemsGivesEveryWorkerAnEmptyRange) {
  for (unsigned p = 0; p < 8; ++p) {
    const IndexRange r = static_partition(0, 8, p);
    EXPECT_EQ(r.size(), 0u);
  }
}

TEST(StaticPartition, FewerItemsThanWorkers) {
  // 3 items over 8 workers: the first three get one each, the rest none.
  for (unsigned p = 0; p < 8; ++p) {
    const IndexRange r = static_partition(3, 8, p);
    EXPECT_EQ(r.size(), p < 3 ? 1u : 0u) << "part " << p;
  }
}

TEST(StaticPartition, ZeroPartsIsTreatedAsOne) {
  const IndexRange r = static_partition(5, 0, 0);
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 5u);
}

TEST(CyclicBarrier, ReusableAcrossManyGenerations) {
  constexpr unsigned kParties = 4;
  constexpr int kRounds = 200;
  CyclicBarrier barrier(kParties);
  std::atomic<int> counter{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        // Inside generation r every thread must see all kParties arrivals
        // of this round (and none of round r+1 beyond what raced ahead
        // after release — hence a second barrier before re-checking).
        if (counter.load(std::memory_order_relaxed) < (r + 1) * static_cast<int>(kParties))
          mismatches.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counter.load(), kRounds * static_cast<int>(kParties));
}

TEST(WorkerPool, RunsEveryPartyExactlyOncePerSection) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.parties(), 4u);
  std::vector<int> hits(4, 0);
  for (int section = 0; section < 50; ++section)
    pool.run([&](unsigned w) { ++hits[w]; });
  for (int h : hits) EXPECT_EQ(h, 50);
}

TEST(WorkerPool, ExceptionsRethrowInWorkerIndexOrder) {
  WorkerPool pool(4);
  // Workers 2 and 3 throw; the pool must surface worker 2's exception (the
  // lowest-index failure), independent of completion order.
  try {
    pool.run([](unsigned w) {
      if (w >= 2) throw std::runtime_error("worker " + std::to_string(w));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 2");
  }
  // Error slots are cleared: the pool stays usable and a clean section
  // throws nothing.
  std::atomic<int> ran{0};
  pool.run([&](unsigned) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(WorkerPool, SinglePartyPropagatesInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.parties(), 1u);
  EXPECT_THROW(pool.run([](unsigned) { throw std::logic_error("solo"); }),
               std::logic_error);
}

TEST(SeqClaim, ClaimsOnlyTheExactNextUnit) {
  SeqClaim claim;
  claim.reset(0);
  EXPECT_EQ(claim.next_unit(), 0u);
  EXPECT_FALSE(claim.busy());
  EXPECT_FALSE(claim.try_claim(1));  // Cannot skip ahead.
  EXPECT_TRUE(claim.try_claim(0));
  EXPECT_TRUE(claim.busy());
  EXPECT_FALSE(claim.try_claim(0));  // Held units cannot be double-claimed.
  claim.complete(0);
  EXPECT_EQ(claim.next_unit(), 1u);
  EXPECT_FALSE(claim.busy());
  claim.reset(7);
  EXPECT_EQ(claim.next_unit(), 7u);
  EXPECT_TRUE(claim.try_claim(7));
}

TEST(SeqClaim, ChainExecutesUnitsInAscendingOrderUnderContention) {
  // Four threads race to steal from one chain; whichever thread wins each
  // claim, the execution order of units must be exactly 0, 1, 2, ...
  constexpr std::uint32_t kUnits = 500;
  SeqClaim claim;
  claim.reset(0);
  std::mutex order_mu;
  std::vector<std::uint32_t> order;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::uint32_t u = claim.next_unit();
        if (u >= kUnits) return;
        if (!claim.try_claim(u)) continue;
        {
          const std::lock_guard<std::mutex> lock(order_mu);
          order.push_back(u);
        }
        claim.complete(u);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(order.size(), kUnits);
  for (std::uint32_t u = 0; u < kUnits; ++u) EXPECT_EQ(order[u], u);
}

}  // namespace
}  // namespace delta
