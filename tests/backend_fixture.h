// Pins the process-default TM backend for a test binary to EagerSTM,
// overriding both the compiled-in NOrec default and the
// TMCV_DEFAULT_BACKEND environment seed (the CI eager matrix leg exports it
// for the whole suite).  Tests that assert orec- or HTM-specific mechanics
// -- fastpath read-set shapes, HTM capacity and hysteresis, contention
// manager escalation -- include this header: under a NOrec default the
// family override coerces every transaction to NOrec, so those mechanics
// never engage and their assertions are vacuously wrong.
//
// Implemented as a gtest global Environment (not a static initializer):
// SetUp runs inside RUN_ALL_TESTS, deterministically after every TU's
// static initialization, so it cannot lose an ordering race against the
// env-var seed in tm/api.cpp.
#pragma once

#include <gtest/gtest.h>

#include "tm/api.h"

namespace tmcv::test {

class PinBackendEnv : public ::testing::Environment {
 public:
  explicit PinBackendEnv(tm::Backend b) : b_(b) {}
  void SetUp() override { tm::set_default_backend(b_); }

 private:
  tm::Backend b_;
};

inline const ::testing::Environment* const g_pin_backend_env =
    ::testing::AddGlobalTestEnvironment(
        new PinBackendEnv(tm::Backend::EagerSTM));

}  // namespace tmcv::test
