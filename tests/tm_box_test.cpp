// Multi-word transactional storage (tm::box): no torn reads across words,
// on any backend, under concurrent whole-value writers.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "backend_param.h"
#include "tm/api.h"
#include "tm/var.h"

namespace tmcv::tm {
namespace {

struct Triple {
  std::uint64_t a = 0, b = 0, c = 0;
  [[nodiscard]] bool consistent() const noexcept {
    return b == a + 1 && c == a + 2;
  }
};

class TmBox : public test::BackendParamTest {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TmBox,
                         ::testing::Values(Backend::EagerSTM, Backend::HTM,
                                           Backend::NOrec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(TmBox, NoTornReadsUnderConcurrentWriters) {
  box<Triple> value(Triple{0, 1, 2});
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 3000; ++i) {
      atomically(GetParam(), [&] {
        value.store(Triple{i, i + 1, i + 2});
      });
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      const Triple t =
          atomically(GetParam(), [&] { return value.load(); });
      if (!t.consistent()) torn.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_TRUE(value.load_plain().consistent());
  EXPECT_EQ(value.load_plain().a, 3000u);
}

TEST_P(TmBox, ReadModifyWriteIsAtomic) {
  box<Triple> value(Triple{0, 1, 2});
  constexpr int kThreads = 4;
  constexpr int kIncrements = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        atomically(GetParam(), [&] {
          Triple v = value.load();
          ++v.a;
          v.b = v.a + 1;
          v.c = v.a + 2;
          value.store(v);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  const Triple final_value = value.load_plain();
  EXPECT_EQ(final_value.a,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_TRUE(final_value.consistent());
}

TEST(TmBoxSizes, OddSizesRoundTrip) {
  struct Odd {
    char bytes[13];
  };
  box<Odd> v;
  Odd in{};
  for (int i = 0; i < 13; ++i) in.bytes[i] = static_cast<char>('a' + i);
  atomically([&] { v.store(in); });
  const Odd out = v.load();
  for (int i = 0; i < 13; ++i) EXPECT_EQ(out.bytes[i], in.bytes[i]);
}

}  // namespace
}  // namespace tmcv::tm
