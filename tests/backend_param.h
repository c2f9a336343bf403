// A value-parameterised fixture that runs each test with the process
// default backend set to GetParam() and restores the default it found on
// exit, so a whole-suite TMCV_DEFAULT_BACKEND run (the CI eager leg) keeps
// its backend for every test that follows.
#pragma once

#include <gtest/gtest.h>

#include "tm/api.h"

namespace tmcv::test {

class BackendParamTest : public ::testing::TestWithParam<tm::Backend> {
 protected:
  void SetUp() override {
    saved_ = tm::default_backend();
    tm::set_default_backend(GetParam());
  }
  void TearDown() override { tm::set_default_backend(saved_); }

 private:
  tm::Backend saved_{};
};

}  // namespace tmcv::test
