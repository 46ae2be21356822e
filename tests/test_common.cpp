// Unit tests for the common utilities: bit helpers, packed bitsets, the
// thread pool, RNG, statistics.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/bitvec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "exec/supervisor.hpp"
#include "flow/batch_supervisor.hpp"
#include "pla/pla_io.hpp"
#include "serve/cache.hpp"

namespace rdc {
namespace {

TEST(Bits, NumMinterms) {
  EXPECT_EQ(num_minterms(0), 1u);
  EXPECT_EQ(num_minterms(1), 2u);
  EXPECT_EQ(num_minterms(10), 1024u);
  EXPECT_EQ(num_minterms(20), 1u << 20);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance(0b0000, 0b0000), 0u);
  EXPECT_EQ(hamming_distance(0b0100, 0b0110), 1u);
  EXPECT_EQ(hamming_distance(0b1111, 0b0000), 4u);
  EXPECT_EQ(hamming_distance(0xFFFFFFFFu, 0u), 32u);
}

TEST(Bits, FlipBitIsInvolutive) {
  for (unsigned j = 0; j < 20; ++j) {
    EXPECT_EQ(flip_bit(flip_bit(12345u, j), j), 12345u);
    EXPECT_EQ(hamming_distance(12345u, flip_bit(12345u, j)), 1u);
  }
}

TEST(Bits, TestBit) {
  EXPECT_TRUE(test_bit(0b0100, 2));
  EXPECT_FALSE(test_bit(0b0100, 1));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) any_different |= (a() != b());
  EXPECT_TRUE(any_different);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.below(8)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Stats, SummarizeEmpty) {
  // Documented contract (see Summary): an empty sample reports count == 0
  // with zeroed moments — consumers must branch on count/empty(), because
  // the zeros alone cannot be told apart from an all-zero sample.
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SummarizeEmptyDistinguishableFromAllZero) {
  const std::vector<double> zeros{0.0, 0.0, 0.0};
  const Summary all_zero = summarize(zeros);
  const Summary empty = summarize({});
  // Same moments, different count — empty() is the only reliable signal.
  EXPECT_EQ(all_zero.mean, empty.mean);
  EXPECT_FALSE(all_zero.empty());
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(all_zero.count, 3u);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> values{3.0, 1.0, 2.0};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.count, 3u);
}

TEST(Stats, NormalCdfSymmetry) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0) + normal_cdf(-1.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_cdf(5.0), 1.0, 1e-6);
}

TEST(Stats, FoldedNormalZeroMean) {
  // E|Z| = sigma * sqrt(2/pi) for zero-mean Gaussians.
  EXPECT_NEAR(folded_normal_mean(0.0, 1.0), std::sqrt(2.0 / std::numbers::pi),
              1e-12);
  EXPECT_NEAR(folded_normal_mean(0.0, 2.0),
              2.0 * std::sqrt(2.0 / std::numbers::pi), 1e-12);
}

TEST(Stats, FoldedNormalLargeMeanApproachesMean) {
  // With mu >> sigma, |Z| ~ Z.
  EXPECT_NEAR(folded_normal_mean(10.0, 0.5), 10.0, 1e-6);
}

TEST(Stats, FoldedNormalDegenerateSigma) {
  EXPECT_DOUBLE_EQ(folded_normal_mean(-3.0, 0.0), 3.0);
}

TEST(Stats, PoissonPmfSumsToOne) {
  const double lambda = 3.7;
  double sum = 0.0;
  for (unsigned k = 0; k < 80; ++k) sum += poisson_pmf(k, lambda);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Stats, PoissonPmfMeanMatchesLambda) {
  const double lambda = 2.4;
  double mean = 0.0;
  for (unsigned k = 0; k < 80; ++k) mean += k * poisson_pmf(k, lambda);
  EXPECT_NEAR(mean, lambda, 1e-9);
}

TEST(Stats, PoissonZeroLambda) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
}

BitVec random_bitvec(std::uint64_t bits, Rng& rng) {
  BitVec v(bits);
  for (std::uint64_t i = 0; i < bits; ++i) v.set(i, rng.flip(0.5));
  return v;
}

TEST(BitVec, GetSetCount) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.num_words(), 3u);
  EXPECT_EQ(v.count(), 0u);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.count(), 3u);
  v.set(64, false);
  EXPECT_EQ(v.count(), 2u);
}

TEST(BitVec, ComplementRespectsTail) {
  // Sub-word vector: the complement must not set bits past size().
  BitVec v(8);
  v.set(3, true);
  const BitVec c = v.complement();
  EXPECT_EQ(c.count(), 7u);
  EXPECT_FALSE(c.get(3));
  EXPECT_TRUE(c.get(0));
  EXPECT_EQ(c.complement(), v);
}

TEST(BitVec, FillRespectsTail) {
  BitVec v(20);
  v.fill();
  EXPECT_EQ(v.count(), 20u);
  BitVec w(128);
  w.fill();
  EXPECT_EQ(w.count(), 128u);
}

TEST(BitVec, SetAlgebraMatchesPerBit) {
  Rng rng(404);
  const BitVec a = random_bitvec(200, rng);
  const BitVec b = random_bitvec(200, rng);
  BitVec conj = a;
  conj &= b;
  BitVec disj = a;
  disj |= b;
  BitVec sym = a;
  sym ^= b;
  BitVec diff = a;
  diff.and_not(b);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(conj.get(i), a.get(i) && b.get(i));
    EXPECT_EQ(disj.get(i), a.get(i) || b.get(i));
    EXPECT_EQ(sym.get(i), a.get(i) != b.get(i));
    EXPECT_EQ(diff.get(i), a.get(i) && !b.get(i));
  }
  EXPECT_EQ(popcount_and(a, b), conj.count());
  sym &= disj;
  EXPECT_EQ(popcount_xor_and(a, b, disj), sym.count());
}

TEST(BitVec, NeighborShiftMatchesFlipBit) {
  // Covers both regimes: in-word shifts (j < 6) and word swaps (j >= 6),
  // plus the sub-word lattices (n < 6).
  Rng rng(405);
  for (unsigned n = 1; n <= 8; ++n) {
    const BitVec v = random_bitvec(1u << n, rng);
    for (unsigned j = 0; j < n; ++j) {
      const BitVec shifted = v.neighbor_shift(j);
      for (std::uint32_t m = 0; m < (1u << n); ++m)
        ASSERT_EQ(shifted.get(m), v.get(flip_bit(m, j)))
            << "n=" << n << " j=" << j << " m=" << m;
      // The permutation is an involution.
      EXPECT_EQ(shifted.neighbor_shift(j), v);
      // shift_xor_neighbors is the value-change predicate.
      const BitVec changed = v.shift_xor_neighbors(j);
      for (std::uint32_t m = 0; m < (1u << n); ++m)
        ASSERT_EQ(changed.get(m), v.get(m) != v.get(flip_bit(m, j)));
    }
  }
}

TEST(BitVec, XorPermuteMatchesIndexXor) {
  Rng rng(406);
  for (unsigned n : {3u, 7u, 9u}) {
    const BitVec v = random_bitvec(1u << n, rng);
    for (int trial = 0; trial < 8; ++trial) {
      const auto mask =
          static_cast<std::uint32_t>(rng.below(1u << n));
      const BitVec permuted = v.xor_permute(mask);
      for (std::uint32_t m = 0; m < (1u << n); ++m)
        ASSERT_EQ(permuted.get(m), v.get(m ^ mask))
            << "n=" << n << " mask=" << mask << " m=" << m;
    }
  }
}

TEST(BitVec, ForEachSetVisitsInOrder) {
  BitVec v(150);
  v.set(5, true);
  v.set(77, true);
  v.set(149, true);
  std::vector<std::uint64_t> seen;
  v.for_each_set([&](std::uint64_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 77, 149}));
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleRanges) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::uint64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 8, [&](std::uint64_t i) {
    EXPECT_EQ(i, 7u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::uint64_t) {
    pool.parallel_for(0, 8, [&](std::uint64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 16,
                                 [&](std::uint64_t i) {
                                   if (i == 7)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(0, 4, [&](std::uint64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, PropagatesExceptionMessageAndStopsScheduling) {
  // After a throw the pool stops scheduling unclaimed indices (§10
  // fail-fast contract): everything below the throwing index still runs
  // (those indices were claimed first), the caller receives the first
  // error intact, and at least the already-claimed tail may run too.
  //
  // Tail cancellation is best-effort, not deterministic: `stop` is only
  // published after the throwing body unwinds, so if the OS deschedules
  // the worker right after it claims the throwing index, its peers can
  // legally drain the whole range first. Assert the cancellation half
  // over a few rounds; the deterministic halves stay strict every round.
  bool tail_cancelled = false;
  for (int round = 0; round < 5 && !tail_cancelled; ++round) {
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    std::atomic<std::uint64_t> below_three{0};
    try {
      pool.parallel_for(0, 1 << 14, [&](std::uint64_t i) {
        if (i == 3) throw std::runtime_error("index 3 failed");
        executed.fetch_add(1);
        if (i < 3) below_three.fetch_add(1);
      });
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 3 failed");
    }
    EXPECT_EQ(below_three.load(), 3u);  // lower indices always complete
    tail_cancelled = executed.load() < (1 << 14) - 1;
  }
  EXPECT_TRUE(tail_cancelled);  // the tail was cancelled in some round
}

TEST(ThreadPool, LowestThrowingIndexWinsDeterministically) {
  // Indices are claimed in increasing order, so when several indices throw
  // the caller always sees the lowest one — at any thread count.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(8);
    try {
      pool.parallel_for(0, 64, [&](std::uint64_t i) {
        if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "3");
    }
  }
}

TEST(ThreadPool, NestedExceptionStillPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](std::uint64_t) {
                                   pool.parallel_for(0, 4, [&](std::uint64_t j) {
                                     if (j == 2)
                                       throw std::runtime_error("inner");
                                   });
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedAcrossDistinctPoolsDoesNotDeadlock) {
  // Nesting is detected per thread, not per pool: a worker of pool A that
  // calls into pool B must run inline rather than block on B's queue.
  ThreadPool outer(4);
  ThreadPool inner(4);
  std::atomic<int> total{0};
  outer.parallel_for(0, 8, [&](std::uint64_t) {
    inner.parallel_for(0, 8, [&](std::uint64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, DeeplyNestedCallsComplete) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.parallel_for(0, 2, [&](std::uint64_t) {
    pool.parallel_for(0, 2, [&](std::uint64_t) {
      pool.parallel_for(0, 2, [&](std::uint64_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 8);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int serial = 0;  // no atomics needed: everything runs on this thread
  pool.parallel_for(0, 100, [&](std::uint64_t) { ++serial; });
  EXPECT_EQ(serial, 100);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> hits{0};
  ThreadPool::global().parallel_for(0, 32,
                                    [&](std::uint64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 32);
  EXPECT_GE(ThreadPool::global().num_threads(), 1u);
  EXPECT_EQ(ThreadPool::global_size(), ThreadPool::global().num_threads());
}

TEST(ThreadPool, ForkedChildRunsTheGlobalPoolInline) {
  // The batch engine forks workers from processes whose global pool is
  // running. Forking right after a parallel_for, while the workers are
  // still settling back onto the pool's condition variable, is the case
  // that used to hang a child now and then — hence the repetitions.
  ThreadPool& pool = ThreadPool::global();
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> warm{0};
    pool.parallel_for(0, 64, [&](std::uint64_t i) { warm += i; });
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::alarm(5);  // a hang becomes a SIGALRM death, not a stuck test
      std::atomic<std::uint64_t> sum{0};
      pool.parallel_for(0, 64, [&](std::uint64_t i) { sum += i; });
      ::_exit(sum == 64 * 63 / 2 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "round " << round << ": child died with signal "
        << WTERMSIG(status);
    ASSERT_EQ(WEXITSTATUS(status), 0) << "round " << round;
  }
}

// Every value below is persisted or compared across runs (warm serve
// caches, resumable journals, replayed retry schedules), so each pins the
// exact output of the hash it is built on.
TEST(StableHash, PinsPersistedValues) {
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(serve::result_cache_key("abc", "espresso", 42),
            0x91329fa0341065f7ull);
  const IncompleteSpec spec =
      parse_pla_string(".i 2\n.o 1\n11 1\n0- -\n.e\n", "pin");
  EXPECT_EQ(flow::batch_job_key(spec, "assign:zero | espresso",
                                flow::BatchOptions{}),
            0xbf04505c673dbb69ull);
  exec::RetryPolicy retry;
  retry.base_backoff_ms = 100;
  EXPECT_EQ(exec::retry_backoff_ms(retry, 0x1234, 2), 258.32431214301727);
}

}  // namespace
}  // namespace rdc
