// Copyright (c) 2026 The plastream Authors. MIT license.
//
// A small portable SIMD shim for the per-dimension kernels of the filter
// hot path (slide bound updates, swing slope clamps, cache range checks).
//
// The shim exposes a fixed-width pack of doubles (`simd::Pack`) whose
// width is chosen at compile time — 4 lanes with AVX2, 2 with SSE2 (always
// present on x86-64), 1 on anything else — plus a 1-lane `simd::Scalar`
// with the identical interface for loop tails. Kernels are written once as
// templates over the pack type and instantiated for both, so the vector
// body and the scalar tail are the same code and therefore the same FP
// operation sequence.
//
// Exact-FP-equivalence rule: every operation here maps to one IEEE-754
// double operation per lane, in the order written. There is no
// fused-multiply-add (the build pins -ffp-contract=off so scalar code
// cannot be contracted either), no reassociation, and no approximate
// reciprocal. Conditional updates use compute-then-blend: both arms are
// evaluated (they are pure) and Select() keeps the taken arm per lane —
// bit-identical to a scalar `cond ? a : b`. Min/max are expressed through
// comparisons and Select rather than native min/max instructions, whose
// ±0 and NaN conventions differ from the C++ ternary they replace.
// Consequently a kernel's Pack and Scalar instantiations produce the same
// bytes: tests/common_test.cc checks every operation here lane by lane,
// and the property harness and the golden chain digests check the filters
// end to end.
//
// Dispatch policy: width is fixed at compile time from the target ISA
// (`__AVX2__`, `__SSE2__`/x86-64, else scalar). Each filter family writes
// its per-dimension check and update once, as a lane template, and runs it
// through ForEachLaneGroup for every entry point (per point, row batch,
// columnar batch). SetForceScalar(true) makes that walk run every
// dimension at one lane: the 1-lane instantiation of the same kernel,
// which the bench uses to measure what the vector lanes buy and the tests
// use to cross-check the two instantiations. There is no environment
// variable or other runtime option.

#ifndef PLASTREAM_COMMON_SIMD_H_
#define PLASTREAM_COMMON_SIMD_H_

#include <atomic>
#include <cmath>
#include <cstddef>

#if defined(__AVX2__)
#include <immintrin.h>
#define PLASTREAM_SIMD_AVX2 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define PLASTREAM_SIMD_SSE2 1
#endif

namespace plastream {
namespace simd {

/// The instruction set the pack type compiles to ("avx2", "sse2",
/// "scalar"); surfaced in bench output so artifacts name their ISA.
#if defined(PLASTREAM_SIMD_AVX2)
inline constexpr const char* kIsa = "avx2";
#elif defined(PLASTREAM_SIMD_SSE2)
inline constexpr const char* kIsa = "sse2";
#else
inline constexpr const char* kIsa = "scalar";
#endif

namespace internal {
inline std::atomic<bool> force_scalar{false};
}  // namespace internal

/// True when ForEachLaneGroup runs every dimension at one lane.
inline bool ForceScalar() {
  return internal::force_scalar.load(std::memory_order_relaxed);
}

/// Sets the ForceScalar switch: the test and bench seam. Every lane
/// kernel gives the same bits at either setting, so flipping it never
/// changes a filter's output.
inline void SetForceScalar(bool on) {
  internal::force_scalar.store(on, std::memory_order_relaxed);
}

/// One-lane pack: plain double arithmetic behind the pack interface. Used
/// for loop tails (dims % width), for every dimension when ForceScalar()
/// is set, and as the Pack type on non-SIMD targets.
struct Scalar {
  /// Lane payload.
  double v = 0.0;

  /// Lanes in this pack type.
  static constexpr size_t kLanes = 1;

  /// Comparison result; Any() is true when some lane's predicate held.
  struct Mask {
    /// Lane predicate.
    bool m = false;
    /// True when any lane matched.
    bool Any() const { return m; }
  };

  /// Loads kLanes consecutive doubles from `p` (unaligned).
  static Scalar Load(const double* p) { return Scalar{*p}; }
  /// All lanes set to `x`.
  static Scalar Broadcast(double x) { return Scalar{x}; }
  /// Stores kLanes consecutive doubles to `p` (unaligned).
  void Store(double* p) const { *p = v; }

  /// Lane-wise sum.
  friend Scalar operator+(Scalar a, Scalar b) { return Scalar{a.v + b.v}; }
  /// Lane-wise difference.
  friend Scalar operator-(Scalar a, Scalar b) { return Scalar{a.v - b.v}; }
  /// Lane-wise product.
  friend Scalar operator*(Scalar a, Scalar b) { return Scalar{a.v * b.v}; }
  /// Lane-wise quotient.
  friend Scalar operator/(Scalar a, Scalar b) { return Scalar{a.v / b.v}; }

  /// Lane-wise a > b.
  friend Mask operator>(Scalar a, Scalar b) { return Mask{a.v > b.v}; }
  /// Lane-wise a < b.
  friend Mask operator<(Scalar a, Scalar b) { return Mask{a.v < b.v}; }
  /// Lane-wise a >= b.
  friend Mask operator>=(Scalar a, Scalar b) { return Mask{a.v >= b.v}; }
};

/// Lane-wise mask union.
inline Scalar::Mask operator|(Scalar::Mask a, Scalar::Mask b) {
  return Scalar::Mask{a.m || b.m};
}

/// Per lane: mask ? a : b — the compute-then-blend conditional.
inline Scalar Select(Scalar::Mask mask, Scalar a, Scalar b) {
  return mask.m ? a : b;
}

/// Lane-wise |a| (sign bit cleared, exactly like std::abs on doubles).
inline Scalar Abs(Scalar a) { return Scalar{std::fabs(a.v)}; }

#if defined(PLASTREAM_SIMD_AVX2)

/// Four-lane AVX2 pack of doubles. See Scalar for the per-member contract.
struct Pack {
  /// Lane payload.
  __m256d v;

  /// Lanes in this pack type.
  static constexpr size_t kLanes = 4;

  /// Comparison result; Any() is true when some lane's predicate held.
  struct Mask {
    /// All-ones / all-zeros lane masks.
    __m256d m;
    /// True when any lane matched.
    bool Any() const { return _mm256_movemask_pd(m) != 0; }
  };

  /// Loads kLanes consecutive doubles from `p` (unaligned).
  static Pack Load(const double* p) { return Pack{_mm256_loadu_pd(p)}; }
  /// All lanes set to `x`.
  static Pack Broadcast(double x) { return Pack{_mm256_set1_pd(x)}; }
  /// Stores kLanes consecutive doubles to `p` (unaligned).
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  /// Lane-wise sum.
  friend Pack operator+(Pack a, Pack b) {
    return Pack{_mm256_add_pd(a.v, b.v)};
  }
  /// Lane-wise difference.
  friend Pack operator-(Pack a, Pack b) {
    return Pack{_mm256_sub_pd(a.v, b.v)};
  }
  /// Lane-wise product.
  friend Pack operator*(Pack a, Pack b) {
    return Pack{_mm256_mul_pd(a.v, b.v)};
  }
  /// Lane-wise quotient.
  friend Pack operator/(Pack a, Pack b) {
    return Pack{_mm256_div_pd(a.v, b.v)};
  }

  /// Lane-wise a > b.
  friend Mask operator>(Pack a, Pack b) {
    return Mask{_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  /// Lane-wise a < b.
  friend Mask operator<(Pack a, Pack b) {
    return Mask{_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  /// Lane-wise a >= b.
  friend Mask operator>=(Pack a, Pack b) {
    return Mask{_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
};

/// Lane-wise mask union.
inline Pack::Mask operator|(Pack::Mask a, Pack::Mask b) {
  return Pack::Mask{_mm256_or_pd(a.m, b.m)};
}

/// Per lane: mask ? a : b — the compute-then-blend conditional.
inline Pack Select(Pack::Mask mask, Pack a, Pack b) {
  return Pack{_mm256_blendv_pd(b.v, a.v, mask.m)};
}

/// Lane-wise |a| (sign bit cleared, exactly like std::abs on doubles).
inline Pack Abs(Pack a) {
  return Pack{_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}

#elif defined(PLASTREAM_SIMD_SSE2)

/// Two-lane SSE2 pack of doubles. See Scalar for the per-member contract.
struct Pack {
  /// Lane payload.
  __m128d v;

  /// Lanes in this pack type.
  static constexpr size_t kLanes = 2;

  /// Comparison result; Any() is true when some lane's predicate held.
  struct Mask {
    /// All-ones / all-zeros lane masks.
    __m128d m;
    /// True when any lane matched.
    bool Any() const { return _mm_movemask_pd(m) != 0; }
  };

  /// Loads kLanes consecutive doubles from `p` (unaligned).
  static Pack Load(const double* p) { return Pack{_mm_loadu_pd(p)}; }
  /// All lanes set to `x`.
  static Pack Broadcast(double x) { return Pack{_mm_set1_pd(x)}; }
  /// Stores kLanes consecutive doubles to `p` (unaligned).
  void Store(double* p) const { _mm_storeu_pd(p, v); }

  /// Lane-wise sum.
  friend Pack operator+(Pack a, Pack b) { return Pack{_mm_add_pd(a.v, b.v)}; }
  /// Lane-wise difference.
  friend Pack operator-(Pack a, Pack b) { return Pack{_mm_sub_pd(a.v, b.v)}; }
  /// Lane-wise product.
  friend Pack operator*(Pack a, Pack b) { return Pack{_mm_mul_pd(a.v, b.v)}; }
  /// Lane-wise quotient.
  friend Pack operator/(Pack a, Pack b) { return Pack{_mm_div_pd(a.v, b.v)}; }

  /// Lane-wise a > b.
  friend Mask operator>(Pack a, Pack b) {
    return Mask{_mm_cmpgt_pd(a.v, b.v)};
  }
  /// Lane-wise a < b.
  friend Mask operator<(Pack a, Pack b) {
    return Mask{_mm_cmplt_pd(a.v, b.v)};
  }
  /// Lane-wise a >= b.
  friend Mask operator>=(Pack a, Pack b) {
    return Mask{_mm_cmpge_pd(a.v, b.v)};
  }
};

/// Lane-wise mask union.
inline Pack::Mask operator|(Pack::Mask a, Pack::Mask b) {
  return Pack::Mask{_mm_or_pd(a.m, b.m)};
}

/// Per lane: mask ? a : b — the compute-then-blend conditional.
inline Pack Select(Pack::Mask mask, Pack a, Pack b) {
  // blendv is SSE4.1; and/andnot/or is the SSE2 spelling of the same
  // bit-select (masks are all-ones or all-zeros per lane).
  return Pack{_mm_or_pd(_mm_and_pd(mask.m, a.v),
                        _mm_andnot_pd(mask.m, b.v))};
}

/// Lane-wise |a| (sign bit cleared, exactly like std::abs on doubles).
inline Pack Abs(Pack a) {
  return Pack{_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}

#else

/// Non-SIMD target: the full-width pack is the one-lane Scalar.
using Pack = Scalar;

#endif

/// Kahan–Neumaier accumulation of `value` into kLanes consecutive
/// (sum, compensation) pairs — the exact operation sequence of
/// KahanSum::Add per lane, so SoA accumulators updated through this
/// function total to the same bits as a std::vector<KahanSum>.
template <typename V>
inline void KahanAdd(double* sum, double* comp, V value) {
  const V s = V::Load(sum);
  const V c = V::Load(comp);
  const V t = s + value;
  // Neumaier's branch, as compute-then-blend: both corrections are exact
  // FP expressions, and Select keeps the one the scalar branch would take.
  const V correction =
      Select(Abs(s) >= Abs(value), (s - t) + value, (value - t) + s);
  (c + correction).Store(comp);
  t.Store(sum);
}

/// Walks dimensions [0, d) in lane groups: full Pack groups, then the
/// remainder one Scalar lane at a time, or every dimension as a Scalar lane
/// when ForceScalar() is set. For each group starting at dimension i it
/// calls `body.template operator()<V>(i)` with V the group's pack type,
/// e.g. `[&]<typename V>(size_t i) { ...; return false; }`. The body
/// returns true to stop the walk, which then returns true; the walk
/// returns false after visiting every group.
template <typename Body>
inline bool ForEachLaneGroup(size_t d, Body&& body) {
  size_t i = 0;
  if (!ForceScalar()) {
    for (; i + Pack::kLanes <= d; i += Pack::kLanes) {
      if (body.template operator()<Pack>(i)) return true;
    }
  }
  for (; i < d; ++i) {
    if (body.template operator()<Scalar>(i)) return true;
  }
  return false;
}

}  // namespace simd
}  // namespace plastream

#endif  // PLASTREAM_COMMON_SIMD_H_
