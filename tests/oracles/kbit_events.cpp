#include "oracles/kbit_events.hpp"

#include <bit>

namespace rdc::oracle {

std::vector<reliability::MintermEvents> kbit_events(
    const TernaryTruthTable& spec, std::span<const std::uint32_t> dcs,
    unsigned k) {
  std::vector<std::uint32_t> masks;
  for (std::uint32_t mask = 0; mask < spec.size(); ++mask)
    if (static_cast<unsigned>(std::popcount(mask)) == k) masks.push_back(mask);
  std::vector<reliability::MintermEvents> events(dcs.size());
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    unsigned care_on = 0;
    unsigned care_off = 0;
    for (const std::uint32_t mask : masks) {
      const std::uint32_t x = dcs[i] ^ mask;
      if (!spec.is_care(x)) continue;
      if (spec.is_on(x))
        ++care_on;
      else
        ++care_off;
    }
    events[i].if_on = static_cast<double>(care_off);
    events[i].if_off = static_cast<double>(care_on);
  }
  return events;
}

}  // namespace rdc::oracle
