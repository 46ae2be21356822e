#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace rdc {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;  // count == 0 marks the moments invalid
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  return s;
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double folded_normal_mean(double mu, double sigma) {
  if (sigma <= 0.0) return std::abs(mu);
  const double r = mu / sigma;
  // E|Z| = sigma*sqrt(2/pi)*exp(-mu^2/2sigma^2) + mu*(1 - 2*Phi(-mu/sigma))
  return sigma * std::sqrt(2.0 / std::numbers::pi) * std::exp(-0.5 * r * r) +
         mu * (1.0 - 2.0 * normal_cdf(-r));
}

double poisson_pmf(unsigned k, double lambda) {
  if (lambda <= 0.0) return k == 0 ? 1.0 : 0.0;
  const double log_p = static_cast<double>(k) * std::log(lambda) - lambda -
                       std::lgamma(static_cast<double>(k) + 1.0);
  return std::exp(log_p);
}

}  // namespace rdc
