#include "exec/fault.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "obs/events.hpp"

namespace rdc::exec {
namespace {

constexpr std::array<const char*, 8> kSiteNames = {
    "espresso",       "sat",               "neighbor",      "flow.exact",
    "flow.heuristic", "flow.conventional", "pipeline.pass", "job"};
static_assert(kSiteNames.size() == std::size_t(FaultSite::kJob) + 1);

enum class Action { kThrow, kKill, kSegv, kOom, kHang };
constexpr std::array<const char*, 5> kActionNames = {"throw", "kill", "segv",
                                                     "oom", "hang"};

struct Rule {
  FaultSite site = FaultSite::kEspresso;
  Action action = Action::kThrow;
  std::uint64_t count = 0;   ///< N trigger; 0 = p trigger
  double probability = 0.0;  ///< p trigger
  int attempt = 0;           ///< 0 = any attempt
  std::uint64_t hits = 0;
};

std::mutex g_mutex;  // guards the three below
std::vector<Rule>& g_rules = *new std::vector<Rule>;  // leaked: outlives exit
std::uint64_t g_job_key = 0;
int g_attempt = 0;
std::atomic<bool> g_armed{false};

/// Uniform draw in [0, 1) from (job, attempt, rule) — 53 mantissa bits.
/// A pure hash, so decisions replay exactly across runs.
double draw(std::uint64_t job_key, int attempt, std::size_t rule) {
  std::uint64_t hash = fnv1a_bytes(&job_key, sizeof job_key);
  hash = fnv1a_bytes(&attempt, sizeof attempt, hash);
  hash = fnv1a_bytes(&rule, sizeof rule, hash);
  return static_cast<double>(hash >> 11) * 0x1p-53;
}

Status invalid(const std::string& what) {
  return Status(StatusCode::kInvalidArgument, "fault spec: " + what);
}

/// Digits only (no sign, no blanks); false when empty or out of range.
bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos)
    return false;
  errno = 0;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

Status parse_rule(const std::string& text, Rule& rule) {
  std::string body = text;
  if (const std::size_t at = body.find('@'); at != body.npos) {
    std::uint64_t attempt = 0;
    if (!parse_count(body.substr(at + 1), attempt) || attempt < 1 ||
        attempt > INT_MAX)
      return invalid("bad attempt filter in '" + text + "'");
    rule.attempt = static_cast<int>(attempt);
    body.resize(at);
  }
  const std::size_t first = body.find(':');
  const std::size_t last = body.rfind(':');
  if (first == body.npos)
    return invalid("rule '" + text + "' is not site:[action:]trigger");
  const std::string site = body.substr(0, first);
  const auto* named = std::find(kSiteNames.begin(), kSiteNames.end(), site);
  if (named == kSiteNames.end())
    return invalid("unknown site '" + site + "'");
  rule.site = FaultSite(named - kSiteNames.begin());
  if (first != last) {
    const std::string action = body.substr(first + 1, last - first - 1);
    named = std::find(kActionNames.begin(), kActionNames.end(), action);
    if (named == kActionNames.end())
      return invalid("unknown action '" + action + "'");
    rule.action = Action(named - kActionNames.begin());
  }
  const std::string trigger = body.substr(last + 1);
  if (trigger.find('.') == trigger.npos) {
    if (!parse_count(trigger, rule.count) || rule.count == 0)
      return invalid("count '" + trigger + "' is not an integer >= 1");
    return Status();
  }
  char* end = nullptr;
  rule.probability = std::strtod(trigger.c_str(), &end);
  if (trigger.find_first_not_of("0123456789.") != trigger.npos ||
      *end != '\0' || !(rule.probability >= 0.0 && rule.probability <= 1.0))
    return invalid("probability '" + trigger + "' not in [0, 1]");
  return Status();
}

/// Replaces the rules and the context; a bad spec leaves nothing armed.
Status install_locked(const std::string& spec) {
  g_rules.clear();
  g_job_key = 0;
  g_attempt = 0;
  Status status;
  for (std::size_t begin = 0; !spec.empty() && status.ok();) {
    const std::size_t comma = spec.find(',', begin);
    const std::string text = spec.substr(begin, comma - begin);
    Rule rule;
    status = text.empty() ? invalid("empty rule") : parse_rule(text, rule);
    g_rules.push_back(rule);
    if (comma == spec.npos) break;
    begin = comma + 1;
  }
  if (!status.ok()) g_rules.clear();
  g_armed.store(!g_rules.empty(), std::memory_order_release);
  return status;
}

std::once_flag g_env_once;

void load_env_spec() {
  std::call_once(g_env_once, [] {
    const char* spec = std::getenv("RDC_FAULT");
    if (spec == nullptr || *spec == '\0') return;
    std::unique_lock<std::mutex> lock(g_mutex);
    const Status status = install_locked(spec);
    lock.unlock();
    if (!status.ok())
      std::fprintf(stderr, "[rdc::exec] ignoring RDC_FAULT: %s\n",
                   status.to_string().c_str());
  });
}

void inject_oom() {
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

}  // namespace

bool faults_armed() {
  load_env_spec();
  return g_armed.load(std::memory_order_acquire);
}

void fault_point(FaultSite site) {
  load_env_spec();
  if (!g_armed.load(std::memory_order_relaxed)) return;
  Rule fired;  // copied out so the action runs unlocked
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    const Rule* match = nullptr;
    // Every matching rule counts the hit; the first one that fires acts.
    for (std::size_t i = 0; i < g_rules.size(); ++i) {
      Rule& rule = g_rules[i];
      if (rule.site != site || (rule.attempt != 0 && rule.attempt != g_attempt))
        continue;
      ++rule.hits;
      if (match == nullptr &&
          (rule.count != 0 ? rule.hits >= rule.count
                           : draw(g_job_key, g_attempt, i) < rule.probability))
        match = &rule;
    }
    if (match == nullptr) return;
    fired = *match;
  }
  const char* name = kSiteNames[std::size_t(site)];
  if (obs::events_enabled()) {
    obs::Record fields;
    fields.set("site", name);
    fields.set("hit", fired.hits);
    obs::emit_event("fault.fired", fields);
  }
  switch (fired.action) {
    case Action::kThrow:
      throw StatusError(Status(StatusCode::kFaultInjected,
                               "injected fault at '" + std::string(name) +
                                   "' (hit " + std::to_string(fired.hits) +
                                   ")"));
    case Action::kKill:
      std::raise(SIGKILL);
      std::abort();  // unreachable: SIGKILL cannot be handled
    case Action::kSegv:
      // A genuine signal death, not a throw: the supervisor must classify
      // the SIGSEGV, so this must bypass every C++ error channel. Raising
      // the signal with the default disposition restored (sanitizer
      // runtimes hook SIGSEGV, and UBSan rewrites a literal null store into
      // an abort) keeps the exit status WIFSIGNALED on every build flavor.
      std::signal(SIGSEGV, SIG_DFL);
      std::raise(SIGSEGV);
      std::abort();  // unreachable: default SIGSEGV disposition terminates
    case Action::kOom: inject_oom(); return;
    case Action::kHang:
      // Long enough to blow any sane wall deadline; bounded so a run
      // without one still terminates.
      for (int i = 0; i < 600; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return;
  }
}

void set_fault_context(std::uint64_t job_key, int attempt) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_job_key = job_key;
  g_attempt = attempt;
  for (Rule& rule : g_rules) rule.hits = 0;
}

namespace testing {

Status set_fault_spec(const std::string& spec) {
  load_env_spec();  // consume the env var first so it can't overwrite us
  std::lock_guard<std::mutex> lock(g_mutex);
  return install_locked(spec);
}

}  // namespace testing

}  // namespace rdc::exec
