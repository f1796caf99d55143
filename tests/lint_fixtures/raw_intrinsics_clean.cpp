// Lint fixture (never compiled): SIMD spoken through the wrapper layer,
// plus near misses the intrinsics rule must ignore. A comment naming
// _mm256_add_pd or <immintrin.h> is not a use.
#include <string>

#include "common/simd.hpp"

void scale4(double* p, double a) {
  using V = ecotune::simd::V4;  // the wrappers are the API
  V::mul(V::load(p), V::broadcast(a)).store(p);
}

int mm256 = 0;          // no leading underscore: not an intrinsic
int _mask = 0;          // _m prefix alone is not a vector type
std::string doc() { return "see immintrin.h for the ISA listing"; }
