#include "common/rng.h"

#include <cmath>

namespace catnap {

std::uint64_t
Rng::geometric(double p)
{
    if (p >= 1.0) return 0;
    if (p <= 0.0) return ~0ULL;
    // Inverse-CDF sampling; u in [0,1) so log1p(-u) is finite.
    const double u = next_double();
    const double v = std::log1p(-u) / std::log1p(-p);
    return static_cast<std::uint64_t>(v);
}

} // namespace catnap
