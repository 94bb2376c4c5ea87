// Runtime-dispatched SIMD variants of the bitword kernels.
//
// Every kernel exists in three tiers — scalar, AVX2, AVX-512 — compiled
// in this one translation unit via per-function target attributes, so the
// build needs no special flags and `-march=native` stays optional. The
// tier is resolved once per process (cpuid via __builtin_cpu_supports,
// which also checks OS xsave state) and pinned behind bitword::dispatch();
// DYNBCAST_FORCE_SCALAR in the environment forces the scalar tier so the
// non-AVX path stays testable on AVX hardware.
//
// All tiers are exact drop-ins: same results word for word, including
// popcounts, bit-identical damage-relax sums (each y owns one lane and
// receives the same IEEE additions in the same order on every tier) and
// the same next pick (an exact min over the freshly written costs, then
// the lowest y that attains it).
// The AVX tiers assume nothing about alignment (loadu/storeu) and fall
// back to scalar words for the remainder of the span.
// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include "src/support/bitset.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#define DYNBCAST_SIMD_X86 1
#include <immintrin.h>
#else
#define DYNBCAST_SIMD_X86 0
#endif

namespace dynbcast {
namespace bitword {
namespace {

// --- scalar tier ------------------------------------------------------

void orAssignScalar(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t nwords) noexcept {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] |= src[i];
}

std::size_t orCountScalar(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t nwords) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

std::size_t andAssignCountScalar(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t nwords) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

inline std::size_t lowBit(std::uint64_t w) noexcept {
  return static_cast<std::size_t>(std::countr_zero(w));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The running next pick of a damage relax: the least cost over the open
/// y visited so far. Blocks are visited in ascending y and the pick moves
/// only on a strict improvement, so the lowest y wins a tie. The first
/// open y always replaces the empty start (y = n), even at cost +inf, so
/// a tie at +inf (noise large enough to overflow the weights) also yields
/// the lowest open y, never n.
struct RelaxPick {
  double cost;
  std::size_t y;
};

// The damage relax visits y in blocks of 64 (one open/unaware word). The
// scalar tier walks only the set bits of (open & unaware[x]), so it does
// exactly the additions a per-pair loop does and no masked-off work.
std::size_t damageRelaxScalar(const DamageRelax& a) noexcept {
  RelaxPick best{kInf, a.n};
  for (std::size_t b = 0; b < a.nwords; ++b) {
    const std::uint64_t open = a.open[b];
    if (open == 0) continue;
    const std::uint64_t* unaware = a.unaware + b * a.n;
    double acc[64] = {};
    for (std::size_t wi = 0; wi < a.nwords; ++wi) {
      for (std::uint64_t h = a.pickHeard[wi]; h != 0; h &= h - 1) {
        const std::size_t x = wi * 64 + lowBit(h);
        const double w = a.weight[x];
        for (std::uint64_t m = open & unaware[x]; m != 0; m &= m - 1) {
          acc[lowBit(m)] += w;
        }
      }
    }
    double* cost = a.cost + b * 64;
    std::size_t* parent = a.parent + b * 64;
    for (std::uint64_t m = open; m != 0; m &= m - 1) {
      const std::size_t j = lowBit(m);
      if (a.assign || acc[j] < cost[j]) {
        cost[j] = acc[j];
        parent[j] = a.pick;
      }
      if (cost[j] < best.cost || best.y == a.n) best = {cost[j], b * 64 + j};
    }
  }
  return best.y;
}

constexpr Kernels kScalarKernels{
    &orAssignScalar,    &orCountScalar,     &andAssignCountScalar,
    &damageRelaxScalar, SimdLevel::kScalar, "scalar"};

#if DYNBCAST_SIMD_X86

// --- AVX2 tier --------------------------------------------------------
//
// 256-bit lanes, four words per step. Popcounts stay scalar per word
// (hardware POPCNT): at the span lengths that reach the dispatch table
// the OR/AND traffic dominates, and per-word counts keep the results
// trivially identical to the scalar tier.

__attribute__((target("avx2,popcnt"))) void orAssignAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < nwords; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2,popcnt"))) std::size_t orCountAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i r = _mm256_or_si256(d, s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 0))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 1))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 2))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 3))));
  }
  for (; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

__attribute__((target("avx2,popcnt"))) std::size_t andAssignCountAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i r = _mm256_and_si256(d, s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 0))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 1))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 2))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 3))));
  }
  for (; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

// Damage relax, AVX2: one 64-bit lane per y, four y per register. A
// 64-y block is done as two 32-y halves so the G <= 8 accumulators of a
// half stay in registers; G stops at the highest open y of the half.
// blendv keeps every lane whose y is closed or already knows x at its
// old value, so each lane sees exactly the scalar tier's additions.
// The next pick comes from the new costs still in registers: a min over
// the half (closed lanes read +inf), then the first open lane equal to it.

/// kNibbleLanes.masks[k]: 64-bit lane i is all ones iff bit i of k is set.
struct NibbleLanes {
  alignas(32) std::uint64_t masks[16][4];
};

constexpr NibbleLanes makeNibbleLanes() {
  NibbleLanes t{};
  for (std::size_t k = 0; k < 16; ++k) {
    for (std::size_t i = 0; i < 4; ++i) {
      t.masks[k][i] = ((k >> i) & 1) != 0 ? ~std::uint64_t{0} : 0;
    }
  }
  return t;
}

constexpr NibbleLanes kNibbleLanes = makeNibbleLanes();

__attribute__((target("avx2,popcnt"))) inline __m256i nibbleLanes(
    std::uint64_t bits, std::size_t group) noexcept {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(
      kNibbleLanes.masks[(bits >> (4 * group)) & 15]));
}

__attribute__((target("avx2,popcnt"))) inline double leastLane(
    __m256d v) noexcept {
  __m128d m = _mm_min_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(m);
}

template <std::size_t G>
__attribute__((target("avx2,popcnt"))) void damageRelaxHalfAvx2(
    const DamageRelax& a, std::size_t b, std::size_t shift,
    std::uint64_t open, RelaxPick& best) noexcept {
  const std::uint64_t* unaware = a.unaware + b * a.n;
  __m256d acc[G];
#pragma GCC unroll 8
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_setzero_pd();
  const __m256i openLanes =
      _mm256_set1_epi64x(static_cast<long long>(open << shift));
  for (std::size_t wi = 0; wi < a.nwords; ++wi) {
    // Keep only the x that some open y of the half has not heard: one
    // vector test per four x instead of a hard-to-predict branch per x.
    const std::size_t xs = std::min<std::size_t>(64, a.n - wi * 64);
    const std::uint64_t valid =
        xs == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << xs) - 1;
    std::uint64_t live = 0;
    for (std::size_t j = 0; j < (xs + 3) / 4; ++j) {
      const __m256i words = _mm256_maskload_epi64(
          reinterpret_cast<const long long*>(unaware + wi * 64 + 4 * j),
          nibbleLanes(valid, j));
      const __m256i none = _mm256_cmpeq_epi64(
          _mm256_and_si256(words, openLanes), _mm256_setzero_si256());
      const auto heardByAll = static_cast<std::uint64_t>(
          _mm256_movemask_pd(_mm256_castsi256_pd(none)));
      live |= (~heardByAll & 15) << (4 * j);
    }
    for (std::uint64_t h = a.pickHeard[wi] & live; h != 0; h &= h - 1) {
      const std::size_t x = wi * 64 + lowBit(h);
      const std::uint64_t m = (unaware[x] >> shift) & open;
      const __m256d w = _mm256_set1_pd(a.weight[x]);
#pragma GCC unroll 8
      for (std::size_t g = 0; g < G; ++g) {
        acc[g] = _mm256_blendv_pd(acc[g], _mm256_add_pd(acc[g], w),
                                  _mm256_castsi256_pd(nibbleLanes(m, g)));
      }
    }
  }
  double* cost = a.cost + b * 64 + shift;
  auto* parent = reinterpret_cast<long long*>(a.parent + b * 64 + shift);
  const __m256i pick = _mm256_set1_epi64x(static_cast<long long>(a.pick));
  const __m256d inf = _mm256_set1_pd(kInf);
  __m256d fresh[G];
  __m256d least = inf;
#pragma GCC unroll 8
  for (std::size_t g = 0; g < G; ++g) {
    const __m256i groupOpen = nibbleLanes(open, g);
    __m256i update = groupOpen;
    __m256d now = acc[g];
    if (!a.assign) {
      const __m256d old = _mm256_loadu_pd(cost + 4 * g);
      const __m256d less = _mm256_cmp_pd(acc[g], old, _CMP_LT_OQ);
      update = _mm256_and_si256(update, _mm256_castpd_si256(less));
      now = _mm256_blendv_pd(old, acc[g], less);
    }
    _mm256_maskstore_pd(cost + 4 * g, update, acc[g]);
    _mm256_maskstore_epi64(parent + 4 * g, update, pick);
    fresh[g] = _mm256_blendv_pd(inf, now, _mm256_castsi256_pd(groupOpen));
    least = _mm256_min_pd(least, fresh[g]);
  }
  const double m = leastLane(least);
  if (!(m < best.cost) && best.y != a.n) return;
  const __m256d target = _mm256_set1_pd(m);
  for (std::size_t g = 0; g < G; ++g) {
    // Closed lanes read +inf too: mask them out for an all-+inf half.
    const auto equal =
        static_cast<std::uint64_t>(_mm256_movemask_pd(
            _mm256_cmp_pd(fresh[g], target, _CMP_EQ_OQ))) &
        ((open >> (4 * g)) & 15);
    if (equal != 0) {
      best = {m, b * 64 + shift + 4 * g + lowBit(equal)};
      return;
    }
  }
}

__attribute__((target("avx2,popcnt"))) std::size_t damageRelaxAvx2(
    const DamageRelax& a) noexcept {
  static_assert(sizeof(std::size_t) == sizeof(long long));
  RelaxPick best{kInf, a.n};
  for (std::size_t b = 0; b < a.nwords; ++b) {
    for (std::size_t shift = 0; shift < 64; shift += 32) {
      const std::uint64_t open = (a.open[b] >> shift) & 0xffffffffull;
      if (open == 0) continue;
      switch ((64 - std::countl_zero(open) + 3) / 4) {
        case 1: damageRelaxHalfAvx2<1>(a, b, shift, open, best); break;
        case 2: damageRelaxHalfAvx2<2>(a, b, shift, open, best); break;
        case 3: damageRelaxHalfAvx2<3>(a, b, shift, open, best); break;
        case 4: damageRelaxHalfAvx2<4>(a, b, shift, open, best); break;
        case 5: damageRelaxHalfAvx2<5>(a, b, shift, open, best); break;
        case 6: damageRelaxHalfAvx2<6>(a, b, shift, open, best); break;
        case 7: damageRelaxHalfAvx2<7>(a, b, shift, open, best); break;
        default: damageRelaxHalfAvx2<8>(a, b, shift, open, best); break;
      }
    }
  }
  return best.y;
}

constexpr Kernels kAvx2Kernels{
    &orAssignAvx2,    &orCountAvx2,     &andAssignCountAvx2,
    &damageRelaxAvx2, SimdLevel::kAvx2, "avx2"};

// --- AVX-512 tier -----------------------------------------------------
//
// 512-bit lanes, eight words per step, with VPOPCNTDQ doing eight
// popcounts per instruction and a vector accumulator reduced once at the
// end. Requires avx512f+avx512bw+avx512vpopcntdq (Ice Lake onwards) and
// BMI2 (pext, for the damage relax).

#define DYNBCAST_AVX512_TARGET \
  target("avx512f,avx512bw,avx512vpopcntdq,popcnt,bmi2")

// Manual horizontal sum: gcc 12's _mm512_reduce_add_epi64 trips
// -Werror=uninitialized via _mm256_undefined_si256 in its own header.
__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t horizontalSum512(
    __m512i acc) noexcept {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::size_t c = 0;
  for (const std::uint64_t w : lanes) c += static_cast<std::size_t>(w);
  return c;
}

__attribute__((DYNBCAST_AVX512_TARGET)) void orAssignAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(d, s));
  }
  for (; i < nwords; ++i) dst[i] |= src[i];
}

__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t orCountAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i r = _mm512_or_si512(d, s);
    _mm512_storeu_si512(dst + i, r);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(r));
  }
  std::size_t c = horizontalSum512(acc);
  for (; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t andAssignCountAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i r = _mm512_and_si512(d, s);
    _mm512_storeu_si512(dst + i, r);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(r));
  }
  std::size_t c = horizontalSum512(acc);
  for (; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

// Damage relax, AVX-512: one 64-bit lane per OPEN y. pext packs a
// block's open lanes of unaware[x] into the low bits, so lane k of the
// G = ⌈|open|/8⌉ accumulators belongs to the k-th open y of the block
// and closed y cost no work; mask_add_pd leaves every lane whose y
// already knows x untouched. expandload then moves the packed sums back
// to their y positions for the compare and the masked stores, and the
// next pick is a masked min over the block's new costs, then the first
// lane equal to it.
//
// The masked min keeps gcc 12's unmasked _mm512_min_pd and its
// _mm512_undefined_pd (the -Werror=uninitialized trap noted above) out.

__attribute__((DYNBCAST_AVX512_TARGET)) double leastLane512(
    __m512d v) noexcept {
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, v);
  double m = lanes[0];
  for (const double c : lanes) m = c < m ? c : m;
  return m;
}

template <std::size_t G>
__attribute__((DYNBCAST_AVX512_TARGET)) void damageRelaxBlockAvx512(
    const DamageRelax& a, std::size_t b, std::uint64_t open,
    RelaxPick& best) noexcept {
  const std::uint64_t* unaware = a.unaware + b * a.n;
  __m512d acc[G];
#pragma GCC unroll 8
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm512_setzero_pd();
  const __m512i openLanes = _mm512_set1_epi64(static_cast<long long>(open));
  for (std::size_t wi = 0; wi < a.nwords; ++wi) {
    // Keep only the x that some open y of the block has not heard: one
    // vector test per eight x instead of a hard-to-predict branch per x.
    const std::size_t xs = std::min<std::size_t>(64, a.n - wi * 64);
    const std::uint64_t valid =
        xs == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << xs) - 1;
    std::uint64_t live = 0;
    for (std::size_t j = 0; j < (xs + 7) / 8; ++j) {
      const auto lanes = static_cast<__mmask8>(valid >> (8 * j));
      const __m512i words =
          _mm512_maskz_loadu_epi64(lanes, unaware + wi * 64 + 8 * j);
      live |= static_cast<std::uint64_t>(
                  _mm512_test_epi64_mask(words, openLanes))
              << (8 * j);
    }
    for (std::uint64_t h = a.pickHeard[wi] & live; h != 0; h &= h - 1) {
      const std::size_t x = wi * 64 + lowBit(h);
      const std::uint64_t m = _pext_u64(unaware[x], open);
      const __m512d w = _mm512_set1_pd(a.weight[x]);
#pragma GCC unroll 8
      for (std::size_t g = 0; g < G; ++g) {
        acc[g] = _mm512_mask_add_pd(
            acc[g], static_cast<__mmask8>(m >> (8 * g)), acc[g], w);
      }
    }
  }
  alignas(64) double packed[8 * G];
#pragma GCC unroll 8
  for (std::size_t g = 0; g < G; ++g) _mm512_store_pd(packed + 8 * g, acc[g]);
  double* cost = a.cost + b * 64;
  std::size_t* parent = a.parent + b * 64;
  const __m512i pick = _mm512_set1_epi64(static_cast<long long>(a.pick));
  __m512d fresh[8];  // new costs, valid in the group's open lanes
  __m512d least = _mm512_set1_pd(kInf);
  std::size_t next = 0;  // packed index of the group's first open y
  for (std::size_t g = 0; g < 8; ++g) {
    const auto lanes = static_cast<__mmask8>(open >> (8 * g));
    if (lanes == 0) continue;
    const __m512d sums = _mm512_maskz_expandloadu_pd(lanes, packed + next);
    next += static_cast<std::size_t>(std::popcount(lanes));
    __mmask8 update = lanes;
    __m512d now = sums;
    if (!a.assign) {
      const __m512d old = _mm512_loadu_pd(cost + 8 * g);
      update = _mm512_mask_cmp_pd_mask(lanes, sums, old, _CMP_LT_OQ);
      now = _mm512_mask_blend_pd(update, old, sums);
    }
    _mm512_mask_storeu_pd(cost + 8 * g, update, sums);
    _mm512_mask_storeu_epi64(parent + 8 * g, update, pick);
    fresh[g] = now;
    least = _mm512_mask_min_pd(least, lanes, least, now);
  }
  const double m = leastLane512(least);
  if (!(m < best.cost) && best.y != a.n) return;
  const __m512d target = _mm512_set1_pd(m);
  for (std::size_t g = 0; g < 8; ++g) {
    const auto lanes = static_cast<__mmask8>(open >> (8 * g));
    if (lanes == 0) continue;
    const auto equal = static_cast<std::uint64_t>(
        _mm512_mask_cmp_pd_mask(lanes, fresh[g], target, _CMP_EQ_OQ));
    if (equal != 0) {
      best = {m, b * 64 + 8 * g + lowBit(equal)};
      return;
    }
  }
}

__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t damageRelaxAvx512(
    const DamageRelax& a) noexcept {
  RelaxPick best{kInf, a.n};
  for (std::size_t b = 0; b < a.nwords; ++b) {
    const std::uint64_t open = a.open[b];
    if (open == 0) continue;
    switch ((std::popcount(open) + 7) / 8) {
      case 1: damageRelaxBlockAvx512<1>(a, b, open, best); break;
      case 2: damageRelaxBlockAvx512<2>(a, b, open, best); break;
      case 3: damageRelaxBlockAvx512<3>(a, b, open, best); break;
      case 4: damageRelaxBlockAvx512<4>(a, b, open, best); break;
      case 5: damageRelaxBlockAvx512<5>(a, b, open, best); break;
      case 6: damageRelaxBlockAvx512<6>(a, b, open, best); break;
      case 7: damageRelaxBlockAvx512<7>(a, b, open, best); break;
      default: damageRelaxBlockAvx512<8>(a, b, open, best); break;
    }
  }
  return best.y;
}

#undef DYNBCAST_AVX512_TARGET

constexpr Kernels kAvx512Kernels{
    &orAssignAvx512,    &orCountAvx512,     &andAssignCountAvx512,
    &damageRelaxAvx512, SimdLevel::kAvx512, "avx512"};

#endif  // DYNBCAST_SIMD_X86

SimdLevel detectCpuLevel() noexcept {
#if DYNBCAST_SIMD_X86
  // __builtin_cpu_supports includes the OSXSAVE/xgetbv check, so a
  // kernel that disabled AVX state saving reports unsupported here.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq") &&
      __builtin_cpu_supports("bmi2")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool forceScalarFromEnv() noexcept {
  const char* v = std::getenv("DYNBCAST_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

const char* simdLevelName(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

bool simdSupported(SimdLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(detectCpuLevel());
}

const Kernels& kernelsFor(SimdLevel level) noexcept {
  if (!simdSupported(level)) return kScalarKernels;
#if DYNBCAST_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx512:
      return kAvx512Kernels;
    case SimdLevel::kAvx2:
      return kAvx2Kernels;
    case SimdLevel::kScalar:
      break;
  }
#endif
  return kScalarKernels;
}

SimdLevel resolveSimdLevel() noexcept {
  if (forceScalarFromEnv()) return SimdLevel::kScalar;
  return detectCpuLevel();
}

const Kernels& dispatch() noexcept {
  // Resolved exactly once; concurrent first calls are safe (magic
  // statics) and the table never changes afterwards, so the hot-path
  // read is a guard check plus a pointer load.
  static const Kernels& table = kernelsFor(resolveSimdLevel());
  return table;
}

}  // namespace bitword
}  // namespace dynbcast
