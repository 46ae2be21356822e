// Input check shared by the error-rate kernels (error_rate.cpp,
// fault_model.cpp). Internal to src/reliability/.
#pragma once

#include "tt/ternary_function.hpp"

namespace rdc::reliability_detail {

/// Throws std::invalid_argument ("<where>: ...") unless `implementation`
/// is completely specified and has `spec`'s input count.
void check_error_rate_pair(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec, const char* where);

}  // namespace rdc::reliability_detail
