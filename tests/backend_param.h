// A value-parameterised fixture that runs each test with the process
// default backend set to GetParam() and restores the default it found on
// exit, so a whole-suite TMCV_DEFAULT_BACKEND run (the CI eager leg) keeps
// its backend for every test that follows.  SetUp also checks that the
// backend the test names is the one its transactions run: a default that
// coerces explicit requests (tm::resolve_backend) must not silently fold
// every leg into one backend.
#pragma once

#include <gtest/gtest.h>

#include "tm/api.h"

namespace tmcv::test {

class BackendParamTest : public ::testing::TestWithParam<tm::Backend> {
 protected:
  void SetUp() override {
    saved_ = tm::default_backend();
    tm::set_default_backend(GetParam());
    ASSERT_EQ(tm::resolve_backend(GetParam()), GetParam())
        << tm::to_string(GetParam()) << " leg runs another backend";
  }
  void TearDown() override { tm::set_default_backend(saved_); }

 private:
  tm::Backend saved_{};
};

// The same pin for one scope of a test that loops over backends itself.
class ScopedDefaultBackend {
 public:
  explicit ScopedDefaultBackend(tm::Backend b)
      : saved_(tm::default_backend()) {
    tm::set_default_backend(b);
  }
  ~ScopedDefaultBackend() { tm::set_default_backend(saved_); }

  ScopedDefaultBackend(const ScopedDefaultBackend&) = delete;
  ScopedDefaultBackend& operator=(const ScopedDefaultBackend&) = delete;

 private:
  tm::Backend saved_;
};

}  // namespace tmcv::test
