// Tests for the hardened execution layer (DESIGN.md §10): the Status
// taxonomy, ExecBudget deadlines/cancellation, deterministic fault
// injection, budget-aware ESPRESSO/SAT, the run_flow degradation ladder
// and the parser-hardening regressions backed by fuzz/corpus/.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "espresso/espresso.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "exec/status.hpp"
#include "fault_guard.hpp"
#include "flow/synthesis_flow.hpp"
#include "flow_specs.hpp"
#include "io/aiger.hpp"
#include "io/blif_reader.hpp"
#include "obs/json.hpp"
#include "pla/pla_io.hpp"
#include "sat/solver.hpp"
#include "tt/incomplete_spec.hpp"

namespace {

using namespace rdc;

IncompleteSpec small_spec() {
  // 4-input single-output function with a DC band: enough structure for
  // every flow rung to do real work, small enough to stay instant.
  IncompleteSpec spec("exec_test", 4, 1);
  TernaryTruthTable& f = spec.output(0);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (m % 3 == 0)
      f.set_phase(m, Phase::kOne);
    else if (m % 3 == 1)
      f.set_phase(m, Phase::kDc);
  }
  return spec;
}

// --- Status taxonomy -----------------------------------------------------

TEST(ExecStatus, DefaultIsOkAndToStringIsStable) {
  exec::Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "OK");

  exec::Status s(exec::StatusCode::kDeadlineExceeded, "budget expired");
  s.with_context("espresso").with_context("flow");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.to_string(),
            "DEADLINE_EXCEEDED: flow: espresso: budget expired");
}

TEST(ExecStatus, CodeNamesAreUpperSnake) {
  EXPECT_STREQ(exec::status_code_name(exec::StatusCode::kOk), "OK");
  EXPECT_STREQ(exec::status_code_name(exec::StatusCode::kParseError),
               "PARSE_ERROR");
  EXPECT_STREQ(exec::status_code_name(exec::StatusCode::kFaultInjected),
               "FAULT_INJECTED");
  EXPECT_STREQ(exec::status_code_name(exec::StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
}

TEST(ExecStatus, FromCurrentExceptionClassifies) {
  const auto classify = [](auto&& thrower) {
    try {
      thrower();
    } catch (...) {
      return exec::status_from_current_exception();
    }
    return exec::Status();
  };
  EXPECT_EQ(classify([] { throw std::runtime_error("pla line 3: bad"); })
                .code(),
            exec::StatusCode::kParseError);
  EXPECT_EQ(classify([] { throw std::runtime_error("blif line 1: x"); })
                .code(),
            exec::StatusCode::kParseError);
  EXPECT_EQ(classify([] { throw std::runtime_error("aiger: negative"); })
                .code(),
            exec::StatusCode::kParseError);
  EXPECT_EQ(
      classify([] { throw std::runtime_error("cannot open /nope"); }).code(),
      exec::StatusCode::kUnavailable);
  EXPECT_EQ(classify([] { throw std::invalid_argument("bad cube"); }).code(),
            exec::StatusCode::kInvalidArgument);
  EXPECT_EQ(classify([] { throw 42; }).code(), exec::StatusCode::kInternal);

  // StatusError round-trips its payload losslessly.
  const exec::Status original(exec::StatusCode::kCancelled, "stop");
  const exec::Status recovered =
      classify([&] { throw exec::StatusError(original); });
  EXPECT_EQ(recovered, original);
}

TEST(ExecStatus, CaptureReturnsValueOrStatus) {
  const exec::Result<int> good = exec::capture([] { return 7; });
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);

  const exec::Result<int> bad = exec::capture(
      []() -> int { throw exec::StatusError({exec::StatusCode::kCancelled,
                                             "nope"}); });
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), exec::StatusCode::kCancelled);
}

// --- ExecBudget ----------------------------------------------------------

TEST(ExecBudget, UnlimitedNeverTrips) {
  exec::ExecBudget budget;
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(budget.check().ok());
}

TEST(ExecBudget, ExpiredDeadlineTripsSticky) {
  exec::ExecBudget budget = exec::ExecBudget::with_deadline_ms(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // check() strides the clock read; poll enough to guarantee one.
  exec::Status status;
  for (int i = 0; i < 256 && status.ok(); ++i) status = budget.check();
  EXPECT_EQ(status.code(), exec::StatusCode::kDeadlineExceeded);
  // Sticky: the very next check fails immediately with the same code.
  EXPECT_EQ(budget.check().code(), exec::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(budget.tripped());
}

TEST(ExecBudget, FreshBudgetReadsTheClockOnFirstPoll) {
  // The clock-read stride must not carry over from one budget to the
  // next: after 37 polls of a live deadline budget (not a multiple of the
  // 64-poll stride), a fresh expired budget trips on its first poll. A new
  // thread starts the stride from a known state.
  std::thread([] {
    exec::ExecBudget live = exec::ExecBudget::with_deadline_ms(60000);
    {
      exec::BudgetScope scope(&live);
      for (int i = 0; i < 37; ++i) EXPECT_TRUE(exec::checkpoint_status().ok());
    }
    exec::ExecBudget expired = exec::ExecBudget::with_deadline_ms(0.001);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    exec::BudgetScope scope(&expired);
    EXPECT_EQ(exec::checkpoint_status().code(),
              exec::StatusCode::kDeadlineExceeded);
  }).join();
}

TEST(ExecBudget, CancellationObservedByCheck) {
  exec::ExecBudget budget;
  EXPECT_TRUE(budget.check().ok());
  budget.request_cancel();
  EXPECT_EQ(budget.check().code(), exec::StatusCode::kCancelled);
  EXPECT_EQ(budget.check_now().code(), exec::StatusCode::kCancelled);
}

TEST(ExecBudget, CheckpointIsNoOpWithoutBudget) {
  EXPECT_EQ(exec::current_budget(), nullptr);
  EXPECT_NO_THROW(exec::checkpoint());
  EXPECT_TRUE(exec::checkpoint_status().ok());
}

TEST(ExecBudget, ScopeInstallsAndMasks) {
  exec::ExecBudget budget;
  {
    exec::BudgetScope scope(&budget);
    EXPECT_EQ(exec::current_budget(), &budget);
    {
      exec::BudgetScope mask(nullptr);  // the fallback rung's escape hatch
      EXPECT_EQ(exec::current_budget(), nullptr);
      EXPECT_NO_THROW(exec::checkpoint());
    }
    EXPECT_EQ(exec::current_budget(), &budget);
  }
  EXPECT_EQ(exec::current_budget(), nullptr);
}

TEST(ExecBudget, IterationCapTrips) {
  exec::BudgetLimits limits;
  limits.max_checkpoints = 100;
  exec::ExecBudget budget(limits);
  exec::Status status;
  for (int i = 0; i < 200 && status.ok(); ++i) status = budget.check();
  EXPECT_EQ(status.code(), exec::StatusCode::kResourceExhausted);
}

// --- parallel_for cancellation and error propagation ---------------------

TEST(ExecBudget, ParallelForCancellationIsPrompt) {
  // A pre-cancelled budget must stop an 8-thread fan-out of slow tasks
  // almost immediately: workers poll before each index, so only in-flight
  // tasks (one 1 ms sleep per worker at worst) can linger.
  ThreadPool pool(8);
  exec::ExecBudget budget;
  budget.request_cancel();
  exec::BudgetScope scope(&budget);

  const auto start = std::chrono::steady_clock::now();
  try {
    pool.parallel_for(0, 10000, [&](std::uint64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    FAIL() << "expected StatusError";
  } catch (const exec::StatusError& error) {
    EXPECT_EQ(error.status().code(), exec::StatusCode::kCancelled);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 50);
}

TEST(ExecBudget, EspressoBoundedSalvagesPartialResult) {
  // An already-expired deadline: minimize_bounded must not throw, and must
  // still hand back a valid cover of the on-set (the degradation
  // contract), flagged partial with the deadline code.
  const IncompleteSpec spec = small_spec();
  exec::ExecBudget budget = exec::ExecBudget::with_deadline_ms(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  exec::BudgetScope scope(&budget);

  const EspressoResult result = minimize_bounded(spec.output(0));
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.status.code(), exec::StatusCode::kDeadlineExceeded);
  // Salvaged cover still covers every ON minterm and no OFF minterm.
  const TernaryTruthTable& f = spec.output(0);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (f.phase(m) == Phase::kOne) {
      EXPECT_TRUE(result.cover.covers_minterm(m)) << "minterm " << m;
    }
    if (f.phase(m) == Phase::kZero) {
      EXPECT_FALSE(result.cover.covers_minterm(m)) << "minterm " << m;
    }
  }
}

// --- SAT budget ----------------------------------------------------------

TEST(ExecSat, SolverReturnsUnknownOnTrippedBudget) {
  // x1 != x2 (satisfiable) — trivial, but the entry check_now fires first.
  sat::Solver solver;
  const unsigned x1 = solver.new_var();
  const unsigned x2 = solver.new_var();
  solver.add_clause({sat::Lit(x1, false), sat::Lit(x2, false)});
  solver.add_clause({sat::Lit(x1, true), sat::Lit(x2, true)});

  exec::ExecBudget budget;
  budget.request_cancel();
  solver.set_budget(&budget);
  EXPECT_EQ(solver.solve(), sat::SolveResult::kUnknown);
  EXPECT_EQ(solver.last_status().code(), exec::StatusCode::kCancelled);

  // The solver stays usable once the budget is lifted.
  solver.set_budget(nullptr);
  EXPECT_EQ(solver.solve(), sat::SolveResult::kSat);
  EXPECT_TRUE(solver.last_status().ok());
}

// --- fault injection -----------------------------------------------------

TEST(ExecFault, NthHitTriggersAndLaterHitsKeepFailing) {
  FaultSpecGuard guard("espresso:2");
  const IncompleteSpec spec = small_spec();
  EXPECT_NO_THROW(minimize(spec.output(0)));  // hit 1: below trigger
  for (int i = 0; i < 2; ++i) {
    try {
      minimize(spec.output(0));  // hits 2, 3: at/after trigger
      FAIL() << "expected StatusError";
    } catch (const exec::StatusError& error) {
      EXPECT_EQ(error.status().code(), exec::StatusCode::kFaultInjected);
    }
  }
}

TEST(ExecFault, DisarmedSitesAreFree) {
  FaultSpecGuard guard("");
  EXPECT_FALSE(exec::faults_armed());
  EXPECT_NO_THROW(exec::fault_point(exec::FaultSite::kEspresso));
  EXPECT_NO_THROW(exec::fault_point(exec::FaultSite::kJob));
}

TEST(ExecFault, ParsesRulesAndRejectsGarbage) {
  for (const char* good :
       {"espresso:2", "job:kill:0.3,job:oom:0.5@2,job:hang:1",
        "sat:throw:1@3", "neighbor:0.25", "flow.exact:1,flow.heuristic:1.0",
        "flow.conventional:segv:0.", "pipeline.pass:.5"}) {
    EXPECT_TRUE(exec::testing::set_fault_spec(good).ok()) << good;
    EXPECT_TRUE(exec::faults_armed()) << good;
  }
  // A bad rule rejects the whole spec and leaves the injector disarmed,
  // even when a valid spec was armed before.
  for (const char* bad :
       {"job:explode:0.5", "job:kill:1.5", "job:kill:-0.1", "job:kill",
        "job:kill:0.5@0", "job:kill:0.5@x", ":0.5", "job:kill:", "espreso:2",
        "espresso:0", "espresso:x", ":3", "job:explode:1", "espresso",
        "espresso:1,", ",espresso:1", "espresso:1,,sat:1", "espresso:1@",
        "espresso: 1", "espresso:+1", "espresso:0.5.5", "espresso:1e-1",
        "espresso:kill:throw:1", "espresso:1,espreso:2", ","}) {
    ASSERT_TRUE(exec::testing::set_fault_spec("espresso:1").ok());
    const exec::Status status = exec::testing::set_fault_spec(bad);
    EXPECT_EQ(status.code(), exec::StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(exec::faults_armed()) << bad;
    EXPECT_NO_THROW(exec::fault_point(exec::FaultSite::kEspresso)) << bad;
  }
  EXPECT_TRUE(exec::testing::set_fault_spec("").ok());
  EXPECT_FALSE(exec::faults_armed());
}

/// True when one `job` hit fires under the (key, attempt) context.
bool job_fires(std::uint64_t key, int attempt) {
  exec::set_fault_context(key, attempt);
  try {
    exec::fault_point(exec::FaultSite::kJob);
    return false;
  } catch (const exec::StatusError& error) {
    EXPECT_EQ(error.status().code(), exec::StatusCode::kFaultInjected);
    return true;
  }
}

TEST(ExecFault, DrawsAreDeterministicPerJobAndAttempt) {
  {
    FaultSpecGuard guard("job:1@2");
    EXPECT_TRUE(exec::faults_armed());
    EXPECT_FALSE(job_fires(42, 1));
    EXPECT_TRUE(job_fires(42, 2));
    EXPECT_FALSE(job_fires(42, 3));
    EXPECT_FALSE(job_fires(0, 0));  // in process: `@attempt` never fires
  }
  {
    FaultSpecGuard guard("job:0.5");
    // Pure function of (key, attempt): repeated calls agree, and over many
    // keys the firing fraction tracks the probability.
    std::size_t fired = 0;
    for (std::uint64_t key = 0; key < 1000; ++key) {
      const bool first = job_fires(key, 1);
      EXPECT_EQ(job_fires(key, 1), first);
      if (first) ++fired;
    }
    EXPECT_GT(fired, 350u);
    EXPECT_LT(fired, 650u);
  }
  EXPECT_FALSE(exec::faults_armed());
  EXPECT_NO_THROW(exec::fault_point(exec::FaultSite::kJob));
}

// --- run_flow degradation ladder -----------------------------------------

TEST(ExecFlow, NoBudgetRunsAtFullQuality) {
  const FlowResult result =
      run_flow(small_spec(), test::paper_flow("assign:lcf(0.55)"));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kNone);
  EXPECT_GT(result.netlist.gate_count(), 0u);
}

TEST(ExecFlow, ExactFaultDescendsToHeuristic) {
  FaultSpecGuard guard("flow.exact:1");
  const FlowResult result =
      run_flow(small_spec(), test::paper_flow("assign:lcf(0.55)"));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kHeuristic);
  EXPECT_GT(result.netlist.gate_count(), 0u);
}

TEST(ExecFlow, EspressoFaultDescendsToConventional) {
  // "espresso:1" fails every minimization, so both the exact and the
  // heuristic rung die; the conventional fallback avoids ESPRESSO and
  // must still deliver a netlist.
  FaultSpecGuard guard("espresso:1");
  const FlowResult result =
      run_flow(small_spec(), test::paper_flow("assign:lcf(0.55)"));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kConventional);
  EXPECT_GT(result.netlist.gate_count(), 0u);
  // The degraded implementation is still a correct completion of the
  // spec: every specified minterm keeps its phase.
  const IncompleteSpec spec = small_spec();
  const TernaryTruthTable& f = spec.output(0);
  const TernaryTruthTable& g = result.implementation.output(0);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    if (f.phase(m) != Phase::kDc) {
      EXPECT_EQ(g.phase(m), f.phase(m));
    }
}

TEST(ExecFlow, AllRungsFailingYieldsPartial) {
  FaultSpecGuard guard("espresso:1,flow.conventional:1");
  const FlowResult result =
      run_flow(small_spec(), test::paper_flow("assign:lcf(0.55)"));
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), exec::StatusCode::kFaultInjected);
  EXPECT_EQ(result.degradation, DegradationLevel::kPartial);
}

TEST(ExecFlow, CancelledBudgetSkipsStraightToPartial) {
  // Cancellation means "stop", not "try cheaper": no rung may run.
  // run_flow runs under the budget its caller installed.
  exec::ExecBudget budget;
  budget.request_cancel();
  exec::BudgetScope scope(&budget);
  const FlowResult result =
      run_flow(small_spec(), test::paper_flow("assign:lcf(0.55)"));
  EXPECT_EQ(result.status.code(), exec::StatusCode::kCancelled);
  EXPECT_EQ(result.degradation, DegradationLevel::kPartial);
}

TEST(ExecFlow, ExpiredDeadlineStillProducesNetlistAndValidReport) {
  // The acceptance scenario: a budget that expires immediately must still
  // come back with a conventional-rung netlist, never a throw, and the
  // FlowReport must be valid JSON carrying the §10 schema additions.
  exec::ExecBudget budget = exec::ExecBudget::with_deadline_ms(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  exec::BudgetScope scope(&budget);
  const FlowResult result =
      run_flow(small_spec(), test::paper_flow("assign:lcf(0.55)"));

  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.degradation, DegradationLevel::kConventional);
  EXPECT_GT(result.netlist.gate_count(), 0u);

  const std::string json = result.report.to_json();
  std::string error;
  const auto parsed = obs::parse_json(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* degradation = metrics->find("degradation");
  ASSERT_NE(degradation, nullptr);
  EXPECT_EQ(degradation->string, "conventional");
  const obs::JsonValue* level = metrics->find("degradation_level");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->number, 2.0);
  EXPECT_NE(metrics->find("degraded_reason"), nullptr);
  const obs::JsonValue* status = metrics->find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->string, "OK");
}

TEST(ExecFlow, DegradationLevelNamesAreStable) {
  EXPECT_STREQ(degradation_level_name(DegradationLevel::kNone), "none");
  EXPECT_STREQ(degradation_level_name(DegradationLevel::kHeuristic),
               "heuristic");
  EXPECT_STREQ(degradation_level_name(DegradationLevel::kConventional),
               "conventional");
  EXPECT_STREQ(degradation_level_name(DegradationLevel::kPartial),
               "partial");
}

// --- parser hardening regressions (mirrored in fuzz/corpus/) -------------

TEST(ExecParserHardening, PlaHugeOutputHeaderIsParseError) {
  EXPECT_THROW(parse_pla_string(".i 2\n.o 4000000000\n11 1\n.e\n", "t"),
               std::runtime_error);
}

TEST(ExecParserHardening, PlaGeometryChangeAfterRowsIsParseError) {
  EXPECT_THROW(
      parse_pla_string(".i 2\n.o 1\n11 1\n.i 3\n111 1\n.e\n", "t"),
      std::runtime_error);
}

TEST(ExecParserHardening, BlifDuplicateInputIsParseError) {
  EXPECT_THROW(
      parse_blif_string(".model m\n.inputs a a\n.outputs y\n"
                        ".names a y\n1 1\n.end\n"),
      std::runtime_error);
}

TEST(ExecParserHardening, BlifInputShadowingTableIsParseError) {
  EXPECT_THROW(
      parse_blif_string(".model m\n.inputs a b\n.outputs y\n"
                        ".names b a\n1 1\n.names a y\n1 1\n.end\n"),
      std::runtime_error);
}

TEST(ExecParserHardening, BlifBadCubeCharacterCarriesLineNumber) {
  try {
    parse_blif_string(".model m\n.inputs a b\n.outputs y\n"
                      ".names a b y\n1X 1\n.end\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("blif line 4"),
              std::string::npos)
        << error.what();
  }
}

TEST(ExecParserHardening, AigerNegativeCountIsParseError) {
  EXPECT_THROW(parse_aiger_string("aag 3 2 0 -1 1\n2\n4\n6\n6 4 2\n"),
               std::runtime_error);
  EXPECT_THROW(parse_aiger_string("aag 3 2 0 1 1\n2\n4\n-6\n6 4 2\n"),
               std::runtime_error);
}

TEST(ExecParserHardening, AigerHugeHeaderIsParseErrorNotOom) {
  EXPECT_THROW(
      parse_aiger_string("aag 99999999999 2 0 1 1\n2\n4\n6\n6 4 2\n"),
      std::runtime_error);
}

TEST(ExecParserHardening, JsonDeepNestingIsErrorNotStackOverflow) {
  const std::string bomb(4000, '[');
  std::string error;
  EXPECT_FALSE(obs::parse_json(bomb, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
  // 100 levels is fine (cap is 128).
  const std::string deep_ok =
      std::string(100, '[') + "1" + std::string(100, ']');
  EXPECT_TRUE(obs::parse_json(deep_ok, &error).has_value()) << error;
}

}  // namespace
