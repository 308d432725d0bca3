// Dense-vector distance kernels. Squared Euclidean distance is the library's
// canonical metric (Definition 2 of the paper adopts it to avoid sqrt).
//
// These are thin wrappers over the runtime-dispatched SIMD kernel subsystem
// (src/simd/): AVX-512/AVX2/NEON when the CPU has them, a scalar reference
// otherwise, and RPQ_SIMD=scalar forces the scalar path.
#pragma once

#include <cstddef>

#include "simd/simd.h"

namespace rpq {

/// Squared L2 distance between two D-dim float vectors.
inline float SquaredL2(const float* a, const float* b, size_t d) {
  return simd::SquaredL2(a, b, d);
}

/// Inner product <a, b>.
inline float Dot(const float* a, const float* b, size_t d) {
  return simd::Dot(a, b, d);
}

/// Squared norm ||a||^2.
inline float SquaredNorm(const float* a, size_t d) {
  return simd::SquaredNorm(a, d);
}

}  // namespace rpq
