#include "tensor/activations.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace mflstm {
namespace tensor {

float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

float
hardSigmoid(float x)
{
    return std::clamp(0.25f * x + 0.5f, 0.0f, 1.0f);
}

/*
 * tensor::tanh below is a four-lane port of glibc 2.36's
 * sysdeps/ieee754/flt-32/s_tanhf.c and s_expm1f.c, the float versions
 * of fdlibm's s_tanh.c and s_expm1.c (conversion to float by Ian Lance
 * Taylor, Cygnus Support), which carry this notice:
 *
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 *
 * Every branch of the scalar code becomes a per-lane select between
 * results that are all computed, and every float expression keeps its
 * operands and order, so each lane rounds exactly as the scalar code.
 */

namespace {

typedef float Floats __attribute__((vector_size(16)));
typedef std::int32_t Ints __attribute__((vector_size(16)));
typedef std::uint32_t Bits __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Floats) / sizeof(float);

/** A comparison's lane mask (all ones or zero) picks @p a or @p b. */
Floats
select(Ints mask, Floats a, Floats b)
{
    return std::bit_cast<Floats>((std::bit_cast<Ints>(a) & mask) |
                                 (std::bit_cast<Ints>(b) & ~mask));
}

Ints
select(Ints mask, Ints a, Ints b)
{
    return (a & mask) | (b & ~mask);
}

/** Adds @p k to the exponent field of @p y: SET_FLOAT_WORD(y, i+(k<<23)). */
Floats
scaleExponent(Floats y, Ints k)
{
    return std::bit_cast<Floats>(std::bit_cast<Bits>(y) +
                                 (std::bit_cast<Bits>(k) << 23));
}

/**
 * expm1f, lane by lane, bit for bit on the arguments tanhLanes passes:
 * 2|x| in [2, 44) and -2|x| in (-2, -2^-54]. The scalar code's exits
 * for other arguments (overflow above 88.72, -1 below -27 ln2, NaN and
 * inf, and k = 1, which needs an argument in (0.35, 1.04)) are left
 * out; in such lanes the result is unspecified but computed without
 * undefined behaviour.
 */
Floats
expm1Lanes(Floats x)
{
    constexpr float ln2_hi = 6.9313812256e-01f;  // 0x3f317180
    constexpr float ln2_lo = 9.0580006145e-06f;  // 0x3717f7d1
    constexpr float invln2 = 1.4426950216e+00f;  // 0x3fb8aa3b
    constexpr float Q1 = -3.3333335072e-02f;     // 0xbd088889
    constexpr float Q2 = 1.5873016091e-03f;      // 0x3ad00d01
    constexpr float Q3 = -7.9365076090e-05f;     // 0xb8a670cd
    constexpr float Q4 = 4.0082177293e-06f;      // 0x36867e54
    constexpr float Q5 = -2.0109921195e-07f;     // 0xb457edbb

    const Ints hx = std::bit_cast<Ints>(x) & 0x7fffffff;
    const Ints negative = std::bit_cast<Ints>(x) < 0;

    // Argument reduction: x = k ln2 + r, |r| <= 0.5 ln2. Between 0.5 ln2
    // and 1.5 ln2 the scalar code takes k = +-1 without the multiply;
    // t*ln2_hi and t*ln2_lo below are then exactly its +-ln2_hi and
    // +-ln2_lo, and with k = 0 they leave x as it is.
    const Ints reduced = hx > 0x3eb17218;       // |x| > 0.5 ln2
    const Ints nearOne = hx < 0x3f851592;       // |x| < 1.5 ln2
    const Ints finite = hx < 0x42b17218;        // |x| < 88.72, k fits
    const Floats kf = invln2 * x + select(negative, Floats{} - 0.5f,
                                          Floats{} + 0.5f);
    // No lane converts an out-of-range float: those lanes become 0.
    const Ints k = select(
        reduced & nearOne, select(negative, Ints{} - 1, Ints{} + 1),
        __builtin_convertvector(
            select(reduced & ~nearOne & finite, kf, Floats{}), Ints));
    const Floats t = __builtin_convertvector(k, Floats);
    const Floats hi = x - t * ln2_hi;
    const Floats lo = t * ln2_lo;
    const Floats r = hi - lo;
    const Floats c = (hi - r) - lo;

    // r is now in the primary range.
    const Floats hfx = 0.5f * r;
    const Floats hxs = r * hfx;
    const Floats r1 =
        1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    const Floats t3 = 3.0f - r1 * hfx;
    const Floats e = hxs * ((r1 - t3) / (6.0f - r * t3));
    const Floats ek = (r * (e - c) - c) - hxs;

    // The scalar code's k = 0, k = -1 and |x| < 2^-25 exits return the
    // k < 23 result bit for bit, so they are folded into it: at k = 0,
    // 0 - (ek - r) is its r - (r*e - hxs), as c = 0; at k = -1,
    // (-1 - (ek - r)) / 2 is its 0.5*(r - ek) - 0.5, halving being
    // exact; below 2^-25, r - (r*e - hxs) rounds to its x. 1 - 2^-k is
    // exact for k < 23: SET_FLOAT_WORD(t, 0x3f800000 - (0x1000000>>k)).
    const Floats twoToMinusK =
        std::bit_cast<Floats>(std::bit_cast<Bits>(0x7f - k) << 23);
    const Floats kLow = scaleExponent((1.0f - twoToMinusK) - (ek - r), k);
    const Floats kHigh = scaleExponent((r - (ek + twoToMinusK)) + 1.0f, k);
    const Floats kFar = scaleExponent(1.0f - (ek - r), k) - 1.0f;
    return select((k <= -2) | (k > 56), kFar, select(k < 23, kLow, kHigh));
}

Floats
tanhLanes(Floats x)
{
    const Ints jx = std::bit_cast<Ints>(x);
    const Ints ix = jx & 0x7fffffff;
    const Ints sign = jx & static_cast<std::int32_t>(0x80000000u);
    const Floats ax = std::bit_cast<Floats>(ix);

    // |x| >= 1: z = 1 - 2 / (t + 2), t = expm1(2|x|); below it
    // z = -t / (t + 2), t = expm1(-2|x|). Both are written as
    // a + n / (t + 2): a - q and a + (-q) round alike, and 0 + q is q
    // because q is never zero here.
    const Ints large = ix >= 0x3f800000;
    const Floats twoAx = 2.0f * ax;
    const Floats t = expm1Lanes(select(large, twoAx, -twoAx));
    const Floats z = select(large, Floats{} + 1.0f, Floats{}) +
                     select(large, Floats{} - 2.0f, -t) / (t + 2.0f);

    // |x| >= 22, inf included: 1 - tiny, which rounds to 1.
    Floats y = select(ix < 0x41b00000, z, Floats{} + 1.0f);
    y = std::bit_cast<Floats>(std::bit_cast<Ints>(y) | sign);  // -z if x < 0
    y = select(ix < 0x24000000, x * (1.0f + x), y);  // |x| < 2^-55, +-0
    return select(ix > 0x7f800000, x + x, y);         // NaN
}

} // anonymous namespace

void
tanh(std::span<const float> in, std::span<float> out)
{
    assert(in.size() == out.size());
    std::size_t j = 0;
    for (; j + kLanes <= in.size(); j += kLanes) {
        Floats v;
        std::memcpy(&v, in.data() + j, sizeof v);
        v = tanhLanes(v);
        std::memcpy(out.data() + j, &v, sizeof v);
    }
    if (const std::size_t rest = in.size() - j) {
        Floats v = {};
        std::memcpy(&v, in.data() + j, rest * sizeof(float));
        v = tanhLanes(v);
        std::memcpy(out.data() + j, &v, rest * sizeof(float));
    }
}

float
sigmoidGradFromOutput(float s)
{
    return s * (1.0f - s);
}

float
tanhGradFromOutput(float t)
{
    return 1.0f - t * t;
}

} // namespace tensor
} // namespace mflstm
