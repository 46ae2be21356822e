// Scoped fault-injector arming for tests: installs an RDC_FAULT spec and
// disarms it on exit, even when the test fails mid-way.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "exec/fault.hpp"

namespace rdc {

struct FaultSpecGuard {
  explicit FaultSpecGuard(const std::string& spec) {
    const exec::Status status = exec::testing::set_fault_spec(spec);
    EXPECT_TRUE(status.ok()) << spec << ": " << status.to_string();
  }
  ~FaultSpecGuard() { exec::testing::set_fault_spec(""); }
  FaultSpecGuard(const FaultSpecGuard&) = delete;
  FaultSpecGuard& operator=(const FaultSpecGuard&) = delete;
};

}  // namespace rdc
