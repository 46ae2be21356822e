// Pipeline spec texts of the paper's flow for the tests that run it
// through run_flow or Pipeline::run.
#pragma once

#include <string>

namespace rdc::test {

/// The paper's conventional synthesis flow after DC assignment, mapped for
/// power.
inline const std::string kLowerHalf =
    " | espresso | factor | aig | map:power | analyze | error_rate";

/// The same flow mapped for delay.
inline const std::string kDelayLowerHalf =
    " | espresso | factor | aig | balance | map:delay | analyze | error_rate";

/// The paper's flow behind `assign`, e.g. paper_flow("assign:lcf(0.55)").
inline std::string paper_flow(const std::string& assign) {
  return assign + kLowerHalf;
}

/// Every DC policy at its default knob, as an assign pass.
inline const std::string kAssignPasses[] = {
    "assign:conventional", "assign:ranking(0.5)", "assign:ranking_inc(0.5)",
    "assign:lcf(0.55)",    "assign:all",
};

}  // namespace rdc::test
