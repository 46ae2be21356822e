#include "exec/chaos.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/hash.hpp"

namespace rdc::exec {
namespace {

/// Uniform draw in [0, 1) from (job, attempt, rule) — 53 mantissa bits.
/// FNV-1a is the supervisor's only randomness source, so decisions replay
/// exactly across runs.
double chaos_draw(std::uint64_t job_key, int attempt, std::size_t rule) {
  std::uint64_t hash = fnv1a_bytes(&job_key, sizeof job_key);
  hash = fnv1a_bytes(&attempt, sizeof attempt, hash);
  hash = fnv1a_bytes(&rule, sizeof rule, hash);
  return static_cast<double>(hash >> 11) * 0x1p-53;
}

struct ChaosState {
  std::mutex mutex;
  ChaosSpec spec;
  bool initialized = false;
};

ChaosState& state() {
  static ChaosState* instance = new ChaosState;  // leaked: see obs singletons
  return *instance;
}

const ChaosSpec& active_spec() {
  ChaosState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.initialized) {
    s.initialized = true;
    if (const char* env = std::getenv("RDC_CHAOS");
        env != nullptr && *env != '\0') {
      Result<ChaosSpec> parsed = parse_chaos_spec(env);
      if (parsed.ok()) {
        s.spec = std::move(*parsed);
      } else {
        std::fprintf(stderr, "[rdc::exec] ignoring RDC_CHAOS: %s\n",
                     parsed.status().to_string().c_str());
      }
    }
  }
  return s.spec;
}

[[noreturn]] void chaos_kill() {
  std::raise(SIGKILL);
  std::abort();  // unreachable: SIGKILL cannot be handled
}

[[noreturn]] void chaos_segv() {
  // A genuine signal death, not a throw: the supervisor must classify the
  // SIGSEGV, so this must bypass every C++ error channel. Raising the
  // signal with the default disposition restored (sanitizer runtimes hook
  // SIGSEGV, and UBSan rewrites a literal null store into an abort) keeps
  // the worker's exit status WIFSIGNALED on every build flavor.
  std::signal(SIGSEGV, SIG_DFL);
  std::raise(SIGSEGV);
  std::abort();  // unreachable: default SIGSEGV disposition terminates
}

void chaos_oom() {
  // Touch every page so the pressure is resident, not just reserved. The
  // self-cap bounds the damage when the worker has no RLIMIT_AS (e.g.
  // sanitizer builds, where address-space limits are unusable).
  constexpr std::size_t kChunk = std::size_t{16} << 20;
  constexpr std::size_t kSelfCap = std::size_t{512} << 20;
  std::vector<std::unique_ptr<char[]>> blocks;
  for (std::size_t total = 0; total < kSelfCap; total += kChunk) {
    blocks.push_back(std::make_unique<char[]>(kChunk));  // throws bad_alloc
    std::memset(blocks.back().get(), 0xA5, kChunk);
  }
  throw StatusError(Status(StatusCode::kResourceExhausted,
                           "chaos oom: allocation bomb reached its cap"));
}

void chaos_hang() {
  // Long enough to blow any sane wall deadline; bounded so a run without
  // one still terminates.
  for (int i = 0; i < 600; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

}  // namespace

const char* chaos_action_name(ChaosAction action) {
  switch (action) {
    case ChaosAction::kNone: return "none";
    case ChaosAction::kKill: return "kill";
    case ChaosAction::kSegv: return "segv";
    case ChaosAction::kOom: return "oom";
    case ChaosAction::kHang: return "hang";
  }
  return "unknown";
}

Result<ChaosSpec> parse_chaos_spec(const std::string& spec) {
  const auto invalid = [](const std::string& what) {
    return Status(StatusCode::kInvalidArgument, "chaos spec: " + what);
  };
  ChaosSpec out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string rule_text = spec.substr(begin, end - begin);
    begin = end + 1;
    if (rule_text.empty()) {
      if (end == spec.size()) break;
      return invalid("empty rule");
    }

    const std::size_t colon = rule_text.find(':');
    if (colon == std::string::npos)
      return invalid("rule '" + rule_text + "' lacks ':probability'");
    const std::string action_name = rule_text.substr(0, colon);
    std::string prob_text = rule_text.substr(colon + 1);

    ChaosRule rule;
    if (action_name == "kill") rule.action = ChaosAction::kKill;
    else if (action_name == "segv") rule.action = ChaosAction::kSegv;
    else if (action_name == "oom") rule.action = ChaosAction::kOom;
    else if (action_name == "hang") rule.action = ChaosAction::kHang;
    else return invalid("unknown action '" + action_name + "'");

    if (const std::size_t at = prob_text.find('@');
        at != std::string::npos) {
      const std::string attempt_text = prob_text.substr(at + 1);
      prob_text.resize(at);
      char* attempt_end = nullptr;
      const long attempt = std::strtol(attempt_text.c_str(), &attempt_end, 10);
      if (attempt_end == attempt_text.c_str() || *attempt_end != '\0' ||
          attempt < 1)
        return invalid("bad attempt filter '@" + attempt_text + "'");
      rule.attempt = static_cast<int>(attempt);
    }

    char* prob_end = nullptr;
    rule.probability = std::strtod(prob_text.c_str(), &prob_end);
    if (prob_end == prob_text.c_str() || *prob_end != '\0' ||
        !(rule.probability >= 0.0 && rule.probability <= 1.0))
      return invalid("probability '" + prob_text + "' not in [0, 1]");
    out.rules.push_back(rule);
    if (end == spec.size()) break;
  }
  return out;
}

bool chaos_armed() { return active_spec().armed(); }

ChaosAction chaos_decide(std::uint64_t job_key, int attempt) {
  const ChaosSpec& spec = active_spec();
  for (std::size_t i = 0; i < spec.rules.size(); ++i) {
    const ChaosRule& rule = spec.rules[i];
    if (rule.attempt != 0 && rule.attempt != attempt) continue;
    if (chaos_draw(job_key, attempt, i) < rule.probability)
      return rule.action;
  }
  return ChaosAction::kNone;
}

void chaos_maybe_inject(std::uint64_t job_key, int attempt) {
  if (!chaos_armed()) return;
  switch (chaos_decide(job_key, attempt)) {
    case ChaosAction::kNone: return;
    case ChaosAction::kKill: chaos_kill();
    case ChaosAction::kSegv: chaos_segv();
    case ChaosAction::kOom: chaos_oom(); return;
    case ChaosAction::kHang: chaos_hang(); return;
  }
}

namespace testing {

void set_chaos_spec(const std::string& spec) {
  ChaosState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.initialized = true;
  s.spec = ChaosSpec{};
  if (spec.empty()) return;
  Result<ChaosSpec> parsed = parse_chaos_spec(spec);
  if (parsed.ok()) {
    s.spec = std::move(*parsed);
  } else {
    std::fprintf(stderr, "[rdc::exec] set_chaos_spec: %s\n",
                 parsed.status().to_string().c_str());
  }
}

}  // namespace testing

}  // namespace rdc::exec
