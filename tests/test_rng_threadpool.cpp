#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/threadpool.h"

namespace df::core {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.randint(0, 1000), b.randint(0, 1000));
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, RandintInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.randint(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(4));
}

TEST(Rng, BernoulliRate) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ForkDiverges) {
  Rng a(5);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.randint(0, 1 << 20) == b.randint(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ThreadPool, RunsAllJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // the destructor runs every job still queued
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

// ---- parallel_for: the caller participates and joins only its own call ----

// How long a test waits for a call that must not depend on a blocked
// worker; the pre-caller-participating parallel_for hung there.
constexpr auto kWatchdog = std::chrono::seconds(10);

TEST(ParallelFor, CallerFinishesWhileTheOnlyWorkerIsBlocked) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.submit([released] { released.wait(); });

  std::vector<int> hits(64, 0);
  std::thread::id caller;
  auto call = std::async(std::launch::async, [&] {
    caller = std::this_thread::get_id();
    parallel_for(pool, hits.size(), [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
      ++hits[i];
    });
  });
  const bool finished = call.wait_for(kWatchdog) == std::future_status::ready;
  release.set_value();  // free the worker either way, so a failing run ends too
  call.get();
  EXPECT_TRUE(finished) << "parallel_for waited on a worker busy with another job";
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, ConcurrentCallersJoinOnlyTheirOwnWorkAndErrors) {
  ThreadPool pool(2);
  std::promise<void> b_returned;
  std::shared_future<void> b_done = b_returned.get_future().share();
  std::atomic<int> a_entered{0}, a_hits{0};
  // A's bodies cannot finish before B's call has returned.
  auto a = std::async(std::launch::async, [&] {
    parallel_for(pool, 8, [&](size_t i) {
      a_entered.fetch_add(1);
      b_done.wait();
      a_hits.fetch_add(1);
      if (i == 3) throw std::runtime_error("caller A");
    });
  });
  while (a_entered.load() == 0) std::this_thread::yield();

  std::vector<int> b_hits(64, 0);
  auto b = std::async(std::launch::async, [&] {
    parallel_for(pool, b_hits.size(), [&](size_t i) {
      ++b_hits[i];
      if (i == 5) throw std::invalid_argument("caller B");
    });
  });
  const bool b_finished = b.wait_for(kWatchdog) == std::future_status::ready;
  b_returned.set_value();
  EXPECT_TRUE(b_finished) << "a parallel_for waited on another caller's work";
  EXPECT_THROW(b.get(), std::invalid_argument);
  EXPECT_THROW(a.get(), std::runtime_error);
  for (size_t i = 0; i < b_hits.size(); ++i) EXPECT_EQ(b_hits[i], 1) << i;
  EXPECT_EQ(a_hits.load(), 8);
}

TEST(ParallelFor, NestedCallRunsSeriallyOnTheBodysThread) {
  // Heap state on its own thread: where nesting deadlocks, the test fails
  // at the watchdog and abandons the stuck call with everything it holds,
  // instead of hanging in the pool's destructor.
  struct State {
    ThreadPool pool{2};
    std::array<std::atomic<int>, 4 * 16> hits{};
    std::atomic<int> foreign{0};
    std::promise<void> done;
  };
  const auto st = std::make_shared<State>();
  std::future<void> done = st->done.get_future();
  std::thread runner([st] {
    try {
      parallel_for(st->pool, 4, [&](size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        parallel_for(st->pool, 16, [&](size_t j) {
          if (std::this_thread::get_id() != outer) st->foreign.fetch_add(1);
          st->hits[i * 16 + j].fetch_add(1);
        });
      });
      st->done.set_value();
    } catch (...) {
      st->done.set_exception(std::current_exception());
    }
  });
  const bool finished = done.wait_for(kWatchdog) == std::future_status::ready;
  if (finished) {
    runner.join();
  } else {
    runner.detach();
  }
  ASSERT_TRUE(finished) << "nested parallel_for deadlocked";
  done.get();
  EXPECT_EQ(st->foreign.load(), 0) << "a nested region fanned out";
  for (size_t i = 0; i < st->hits.size(); ++i) EXPECT_EQ(st->hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace df::core
