// Small statistics helpers used by the reliability estimates (Section 5 of
// the paper) and by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <span>

namespace rdc {

/// Summary of a sample: min / max / mean, as reported in the paper's
/// Figure 5 ("normalized min, max, and mean ... across all benchmarks").
///
/// Empty-sample contract: summarize({}) returns count == 0 with min, max
/// and mean zero. The zeros carry no statistical meaning — an all-zero
/// sample also summarizes to zeros — so consumers that can receive empty
/// input (the obs report/summary layer, histogram printers) must branch on
/// count (or empty()) before trusting the moments. This is deliberate:
/// NaN poisoning would leak into printed tables, and throwing would force
/// every aggregation loop to pre-check.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;

  /// True iff the sample had no values; min/max/mean are then meaningless.
  bool empty() const { return count == 0; }
};

/// Computes min/max/mean of a sample; see Summary for the empty contract.
Summary summarize(std::span<const double> values);

/// Standard normal cumulative distribution function.
double normal_cdf(double x);

/// E|Z| for Z ~ N(mu, sigma^2) (mean of the folded normal distribution).
double folded_normal_mean(double mu, double sigma);

/// Poisson probability mass P(k; lambda) = lambda^k e^-lambda / k!.
/// Computed in log space for robustness at large k/lambda.
double poisson_pmf(unsigned k, double lambda);

}  // namespace rdc
