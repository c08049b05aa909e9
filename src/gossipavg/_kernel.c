/* The gossipavg engines' compiled kernel: a CPython extension module.
 *
 * pcg64() makes a run's stream: numpy's PCG64(seed), with numpy's
 * SeedSequence hash of the seed, its state and its outputs, behind a
 * "BitGenerator" capsule as numpy's own, so that every entry below takes
 * either; random_raw() and uniform() fill a buffer as bit_generator.random_raw
 * and rng.uniform do, and pcg64_state() reads a stream's state.
 * draw() draws one chunk's randomness from a bitgen_t (a numpy Generator's,
 * or a stream of pcg64()) with numpy's own C samplers (libnpyrandom.a), in
 * the order and with the calls the numpy methods make, so the values and the
 * generator state afterwards are those of rng.integers or rng.permutation,
 * then rng.normal or rng.random, then rng.random.  Its normals take the
 * first ziggurat step of numpy's random_standard_normal inline, without its
 * branch on the sign (standard_normal()), and the rest in numpy's function
 * on the same draws.
 * Its permutations make random_interval's draws inline and apply each one
 * without a branch; indices above 2^32 - 1 still call random_interval.
 * discrete_map() maps the uniforms that draw() leaves for the discrete model
 * as noise.sample_batch does, calling numpy for its one step: an in-place
 * np.log1p of the folds, whose SIMD results libm's log1p does not reproduce.
 * onestep_cases() draws the inputs of verify's one-step check the same way:
 * per case, the values of rng.integers(2, 33), rng.uniform(-spread, spread,
 * n), rng.choice(n, 2, replace=False) and rng.normal(0, sigma, 2), packed
 * case after case (verify._onestep_cases is its Python form).
 * pair_chunk() applies a batch of pairwise exchanges to the agent values in
 * place, exactly as the Python reference loop in dynamics.py does
 * (_pairs_reference, which calls _receive once for each agent of a pair,
 * then _decomposition_step).
 * run() makes a whole run's boundary loop in one call, as the Python loop
 * _Engine._record does over draw(), the discrete map, pair_chunk() and
 * exact_moments(), whose static code it shares: the chunks and resyncs,
 * the tracker checks at each record step, the decomposition windows and the
 * snapshot rows, in the order of one schedule (struct schedule), which its
 * producer thread, where it has one, walks too.  It calls back into numpy
 * twice, through the C API, where the Python loop calls numpy: np.log1p for
 * the discrete map, and np.dot on a work array of values - initial average
 * for each snapshot's tss, so both are numpy's bits (np.dot's order of
 * summation depends on the BLAS and its threads).  Where the exact sums
 * decline, it calls dynamics._exact.
 * exact_moments() computes the mean and the potential about it from
 * correctly rounded sums, exactly as the math.fsum body of dynamics._exact:
 * a superaccumulator adds every summand exactly into integer bins, carries,
 * and rounds half-even once, at about 2 to 3 ns per value and sum on a
 * 2 GHz Xeon (fsum's partials took 23 to 29).  It declines, so that
 * math.fsum runs, only where fsum could raise: on a value or square that is
 * not finite, or one so large that n of them could overflow a partial.
 * Every floating-point operation is written in the same order as there, so
 * the results are bit-identical provided the compiler neither fuses
 * multiply-adds nor reassociates: build with -ffp-contract=off and never
 * with -ffast-math.  The loader (_native.py) does so.
 *
 * Each entry is METH_FASTCALL and takes arrays through the buffer protocol;
 * it checks every buffer (format, dimension, contiguity, length, writability
 * where it writes), every pair index and every scalar, and raises TypeError,
 * ValueError, OverflowError or IndexError before it touches any buffer or
 * draws; run() can fail later only where a call into Python (numpy,
 * math.fsum or a signal handler) raises.
 * None of them releases the GIL while it works: the calls are short or call
 * back into Python.  run() lets a waiting thread take the GIL between its
 * chunks, touching nothing while it is released.  Where its caller asks
 * (ahead), a producer thread, which touches no Python object, draws run()'s
 * chunks ahead while run() applies them (see struct ring), and run() joins
 * it before it returns.  That is the one place where two threads share a
 * generator, and dynamics._Engine.advance holds the generator's own lock
 * (rng.bit_generator.lock, which dynamics.KernelPCG64 has too) around such
 * a call; the other entries do not lock it, as the engines never share one.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <inttypes.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

#include "numpy/random/distributions.h"

/* CPython's float floor division v // w for nonzero w (_float_div_mod in
 * Objects/floatobject.c): fmod, then snap the quotient to an integer.  It is
 * not floor(v / w): the two differ for NaN, infinities and near-integral
 * quotients. */
static double py_floordiv(double v, double w)
{
    double mod = fmod(v, w);
    double div = (v - mod) / w;
    double floordiv;

    if (mod) {
        if ((w < 0) != (mod < 0))
            div -= 1.0;
    }
    if (div) {
        floordiv = floor(div);
        if (div - floordiv > 0.5)
            floordiv += 1.0;
    } else {
        floordiv = copysign(0.0, v / w);
    }
    return floordiv;
}

static double clamp(double v, double vmin, double vmax)
{
    if (v > vmax)
        return vmax;
    if (v < vmin)
        return vmin;
    return v;
}

/* a where c is nonzero, else b, selected bitwise: no branch to mispredict
 * on the random parities and coins of the rounding rule. */
static double pick(int c, double a, double b)
{
    const uint64_t m = -(uint64_t)(c != 0);
    uint64_t ua, ub, r;
    double out;

    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    r = (ua & m) | (ub & ~m);
    memcpy(&out, &r, sizeof out);
    return out;
}

#if defined(__GNUC__)
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif

/* round_half() for every s that its fast path leaves: Python's s // 2.0
 * (py_floordiv), then the same rounding.  Out of line, so that the compiler
 * inlines the fast path into apply_pairs() rather than calling round_half()
 * and saving the pair loop's registers around each call. */
static NOINLINE double round_half_rare(double s, double u, int8_t *offset)
{
    const double f = py_floordiv(s, 2.0);

    if (s != 2.0 * f) {
        if (u < 0.5) {
            *offset = 1;
            return f + 1.0;
        }
        *offset = -1;
        return f;
    }
    *offset = 0;
    return s * 0.5;
}

/* s / 2 rounded up (coin u < 0.5) or down when s is not even; the offset
 * records +1, -1, or 0 when s / 2 is stored as is.
 *
 * Python's s // 2.0 (py_floordiv) costs a libm fmod.  Where h = s * 0.5 is
 * exact and |h| < 2^52 -- s is zero, or 2^-1021 <= |s| < 2^53 -- it equals
 * floor(h), taken here from the truncation t of h through int64: s is even
 * exactly when t == h, and floor(h) is t, less 1 where t > h.  Every other s
 * takes round_half_rare(): at s = -2^-1074, for one, s * 0.5 rounds to -0.0,
 * whose floor is -0.0 where Python gives -1.0. */
static inline double round_half(double s, double u, int8_t *offset)
{
    const double a = fabs(s);

    if (a < 0x1p53 && (a >= 0x1p-1021 || s == 0.0)) {
        const double h = s * 0.5;
        const double t = (double)(int64_t)h;
        const int odd = t != h;
        const int up = odd & (u < 0.5);

        *offset = (int8_t)(up + up - odd);
        return pick(odd, t - (double)(t > h) + (double)up, h);
    }
    return round_half_rare(s, u, offset);
}

/* An update rule, dynamics._rule_flags(rule): round, clamp into [vmin, vmax]. */
struct rule {
    int do_round, do_clamp;
    double vmin, vmax;
};

/* Apply npairs exchanges (idx[2k], idx[2k+1]) to x[0..n) in order.
 *
 * noise[2k] is agent idx[2k]'s outgoing channel noise and coins[2k] its
 * rounding coin (coins may be NULL unless the rule rounds).  A self-pair is skipped.
 * state holds {mean, phibar, s_prime, s_star, s_minus} and is updated in
 * place; the last four only when decomp is set.  If offsets is not NULL, the
 * rounding offset of each agent is written to it (0 for a self-pair). */
static void apply_pairs(double *x, int64_t n, const int64_t *idx, const double *noise,
                        const double *coins, int64_t npairs, const struct rule *rule,
                        int decomp, double *state, int8_t *offsets)
{
    const int do_round = rule->do_round, do_clamp = rule->do_clamp;
    const double vmin = rule->vmin, vmax = rule->vmax;
    double mean = state[0], phibar = state[1];
    double sp = state[2], ss = state[3], sm = state[4];
    const double inv_n = 1.0 / (double)n;
    const double inv4n = 0.25 * inv_n;

    for (int64_t k = 0; k < 2 * npairs; k += 2) {
        const int64_t i = idx[k], j = idx[k + 1];
        double xi, xj, wi, wj, si, sj, vi, vj;
        int8_t ri = 0, rj = 0;

        if (i == j) {
            if (offsets)
                offsets[k] = offsets[k + 1] = 0;
            continue;
        }
        xi = x[i];
        xj = x[j];
        wi = xj + noise[k + 1];
        wj = xi + noise[k];
        if (do_clamp) {
            wi = clamp(wi, vmin, vmax);
            wj = clamp(wj, vmin, vmax);
        }
        si = xi + wi;
        sj = xj + wj;
        if (do_round) {
            vi = round_half(si, coins[k], &ri);
            vj = round_half(sj, coins[k + 1], &rj);
        } else {
            vi = si * 0.5;
            vj = sj * 0.5;
        }
        if (do_clamp) {
            vi = clamp(vi, vmin, vmax);
            vj = clamp(vj, vmin, vmax);
        }
        if (decomp) {
            const double a = vi + vi - xi - xj;
            const double c = vj + vj - xi - xj;
            const double d = xi - xj;
            const double dsq = d * d;
            const double nsum = a + c;
            const double z = (xi + xj) * 0.5 - mean;
            const double quarter = (a * a + c * c) * 0.25;

            sp += quarter;
            ss += nsum * z;
            if (phibar > 0.0) {
                const double dl = dsq / (phibar + phibar);
                sm += dl < 1.0 ? dl : 1.0;
            } else {
                sm += inv_n;
            }
            phibar += -dsq * 0.5 + quarter - nsum * nsum * inv4n + nsum * z;
        }
        mean += (vi - xi + vj - xj) * inv_n;
        x[i] = vi;
        x[j] = vj;
        if (offsets) {
            offsets[k] = ri;
            offsets[k + 1] = rj;
        }
    }
    state[0] = mean;
    state[1] = phibar;
    state[2] = sp;
    state[3] = ss;
    state[4] = sm;
}

/* Exact sums: Neal's large superaccumulator feeding his small one (Fast
 * Exact Summation Using Small and Large Superaccumulators,
 * arXiv:1505.05571).
 *
 * A finite nonzero double is m * 2^p units of 2^-1074: m is its 53-bit
 * mantissa with the implicit bit (a subnormal has none) and p = max(E, 1) - 1
 * for the biased exponent E.  The large accumulator keeps one uint64_t bin
 * per sign and exponent and adds m to it, which is exact for BLOCK = 2^11
 * summands.  After each block the touched bins are flushed into the small
 * accumulator, which holds sum_k chunk[k] * 2^(32k) units in int64_t chunks:
 * a bin's value b * 2^p adds b << (p % 32), split into 32-bit pieces, with
 * its sign to chunks p / 32 and up.  Carrying then brings every chunk but
 * the top one back into [0, 2^32).  No bit is ever dropped, so the sum is
 * exact until the one rounding at the end. */
#define BLOCK 2048
#define NCHUNKS 67 /* p <= 2045 reaches chunk 65; 66 takes carries */
#define LOW32 INT64_C(0xffffffff)
#define FRAC UINT64_C(0xfffffffffffff)
#define IMPLICIT (UINT64_C(1) << 52)

/* Add b * 2^p units, negated if negative, to the chunks, without carrying. */
static void add_scaled(int64_t *chunk, uint64_t b, int p, int negative)
{
    const int r = p & 31;
    const int64_t sign = -(int64_t)negative;
    const int64_t lo = (int64_t)(b << r & LOW32);
    const int64_t mid = (int64_t)(b >> (32 - r) & LOW32);
    const int64_t hi = (int64_t)(b >> (32 - r) >> 32);

    chunk += p >> 5;
    chunk[0] += (lo ^ sign) - sign;
    chunk[1] += (mid ^ sign) - sign;
    chunk[2] += (hi ^ sign) - sign;
}

/* Move each chunk's bits above its low 32 into the next chunk. */
static void carry(int64_t *chunk)
{
    for (int k = 0; k < NCHUNKS - 1; k++) {
        const int64_t low = chunk[k] & LOW32;

        chunk[k + 1] += (chunk[k] - low) / (LOW32 + 1);
        chunk[k] = low;
    }
}

static int bit_length(uint64_t v)
{
    int b = 0;

    for (; v; v >>= 1)
        b++;
    return b;
}

/* The carried chunks' value rounded half-even to a double; the caller
 * guarantees that it lies below 2^1022. */
static double round_chunks(int64_t *chunk)
{
    int top = NCHUNKS - 1, negative, width, pos, sticky = 0;
    uint64_t hi, mid, lo, window, mant, tail;
    double r;

    while (top >= 0 && chunk[top] == 0)
        top--;
    if (top < 0)
        return 0.0;
    negative = chunk[top] < 0;
    if (negative) {
        for (int k = 0; k <= top; k++)
            chunk[k] = -chunk[k];
        carry(chunk);
        while (chunk[top] == 0)
            top--;
    }
    /* window: the 64 bits from the top set bit (at unit 2^pos) down */
    hi = (uint64_t)chunk[top];
    mid = top >= 1 ? (uint64_t)chunk[top - 1] : 0;
    lo = top >= 2 ? (uint64_t)chunk[top - 2] : 0;
    width = bit_length(hi);
    pos = 32 * top + width - 1;
    window = hi << (64 - width) | mid << (32 - width) | lo >> width;
    if (pos < 53) {
        /* below 2^53 units, so exactly a double */
        r = ldexp((double)(window >> (63 - pos)), -1074);
    } else {
        for (int k = 0; k < top - 2; k++)
            sticky |= chunk[k] != 0;
        sticky |= (lo & ((UINT64_C(1) << width) - 1)) != 0;
        mant = window >> 11;
        tail = window & 0x7ff;
        if (tail > 0x400 || (tail == 0x400 && (sticky || (mant & 1))))
            mant++;
        r = ldexp((double)mant, pos - 52 - 1074);
    }
    return negative ? -r : r;
}

/* *out = the correctly rounded sum of x[0..n), or, if squares is set, of
 * the squares (x[k] - mean) * (x[k] - mean), each rounded on its own.
 * Zeros are skipped, and only the bins in the range of exponents seen so
 * far, [emin, emax], are zeroed and flushed.  Returns nonzero, with *out
 * untouched, wherever math.fsum could raise: on a summand that is not
 * finite, or so large that n of them could overflow a partial (largest
 * biased exponent + bit length of n + 2 > 2046). */
static int exact_sum(const double *x, int64_t n, int squares, double mean, double *out)
{
    uint64_t bins[2 * 2048]; /* [sign << 11 | E], each zeroed when first in range */
    int64_t chunk[NCHUNKS] = {0};
    const unsigned limit = 2044 - (unsigned)bit_length((uint64_t)n);
    unsigned emin = 2048, emax = 0; /* the empty range */

    for (int64_t start = 0; start < n; start += BLOCK) {
        const int64_t stop = n - start > BLOCK ? start + BLOCK : n;

        for (int64_t k = start; k < stop; k++) {
            double v = x[k];
            uint64_t bits, m;
            unsigned idx, e;

            if (squares) {
                const double d = v - mean;

                v = d * d;
            }
            memcpy(&bits, &v, sizeof bits);
            m = (bits & FRAC) | IMPLICIT;
            idx = (unsigned)(bits >> 52);
            e = idx & 0x7ff;
            if (e < emin || e > emax) {
                if (e == 0x7ff)
                    return 1;
                if (e == 0) {
                    if (!(bits & FRAC))
                        continue;
                    /* a subnormal: the scale of E = 1 without the implicit bit */
                    m ^= IMPLICIT;
                    idx++;
                    e = 1;
                }
                if (emin > emax)
                    emin = (emax = e) + 1;
                for (; e < emin; emin--)
                    bins[emin - 1] = bins[2048 | (emin - 1)] = 0;
                for (; e > emax; emax++)
                    bins[emax + 1] = bins[2048 | (emax + 1)] = 0;
            }
            bins[idx] += m;
        }
        if (emax > limit)
            return 1;
        for (unsigned e = emin; e <= emax; e++) {
            for (unsigned s = 0; s < 2; s++) {
                uint64_t *b = &bins[s << 11 | e];

                if (*b) {
                    add_scaled(chunk, *b, (int)e - 1, (int)s);
                    *b = 0;
                }
            }
        }
        carry(chunk);
    }
    *out = round_chunks(chunk);
    return 0;
}

/* out[0] = fsum(x[0..n)) / n, the mean, and out[1] = fsum((x[k] - mean) *
 * (x[k] - mean)), each square rounded on its own: both equal math.fsum bit
 * for bit, a correctly rounded sum being unique.  Returns 0 on success;
 * nonzero, with out untouched, on n < 1 and where exact_sum() declines, where
 * the caller recomputes with math.fsum (which then returns or raises what it
 * does). */
static int moments(const double *x, int64_t n, double *out)
{
    double sum, phibar, mean;

    if (n < 1 || exact_sum(x, n, 0, 0.0, &sum))
        return 1;
    mean = sum / (double)n;
    if (exact_sum(x, n, 1, mean, &phibar))
        return 1;
    out[0] = mean;
    out[1] = phibar;
    return 0;
}

/* ------------------------------------------------------------------------
 * A run's stream: numpy's PCG64, seeded and stepped here
 * ------------------------------------------------------------------------ */

/* numpy's PCG64(seed) for one integer seed in [0, 2^64): the same outputs
 * and the same state, held in numpy's layout (the 128-bit state and
 * increment, and the buffered uinteger and has_uint32 of next_uint32), so
 * that a run needs no numpy.random (O'Neill, PCG, 2014; numpy's NEP 19 on
 * SeedSequence and bitgen_t).
 *
 * Seeding is numpy's SeedSequence(seed).generate_state(4, uint64), then
 * PCG64's set_seed.  The sequence hashes the seed's 32-bit words, low first
 * (one below 2^32; a missing word hashes as 0, so one word and two agree),
 * into a pool of 4 words, and mixes each pool word into every other
 * (seed_pool()); generate_state hashes the pool, cycled, into 8 words and
 * pairs them, low word first, into v[0..4).  set_seed takes initstate =
 * v[0] << 64 | v[1] and initseq = v[2] << 64 | v[3]: state 0, inc =
 * (initseq << 1) | 1, a step, state += initstate, a step.  A step is state =
 * state * MULT + inc modulo 2^128; next_uint64 steps, then returns the
 * XSL-RR of the new state, hi ^ lo rotated right by hi >> 58; next_uint32
 * keeps the high half of a next_uint64 for the next call, and next_double is
 * (next_uint64 >> 11) * 2^-53, as numpy's pcg64.h has them.
 *
 * The 128-bit words are unsigned __int128 where the compiler has the type,
 * else pairs of 64-bit limbs: a step took 2.9 to 3.3 ns with the first and
 * 4.0 to 4.5 ns with the second (gcc 12.2 -O2, a 2-vCPU Xeon KVM guest).
 * The type matters where the draws set a run's pace, as in sync-trace: one
 * synchronous round's draws at n = 10^4 took 82 to 96 us on this stream,
 * and 86 to 110 us on numpy's. */
#define SEED_INIT_A UINT32_C(0x43b0d7e5)
#define SEED_MULT_A UINT32_C(0x931e8875)
#define SEED_INIT_B UINT32_C(0x8b51f9dd)
#define SEED_MULT_B UINT32_C(0x58f38ded)
#define SEED_MIX_L UINT32_C(0xca01f9dd)
#define SEED_MIX_R UINT32_C(0x4973f715)
#define PCG_MULT_HI UINT64_C(2549297995355413924)
#define PCG_MULT_LO UINT64_C(4865540595714422341)

#if defined(__SIZEOF_INT128__)
__extension__ typedef unsigned __int128 u128;

static u128 u128_of(uint64_t hi, uint64_t lo)
{
    return (u128)hi << 64 | lo;
}

static uint64_t u128_hi(u128 v)
{
    return (uint64_t)(v >> 64);
}

static uint64_t u128_lo(u128 v)
{
    return (uint64_t)v;
}

static u128 u128_add(u128 a, u128 b)
{
    return a + b;
}

static u128 u128_mul(u128 a, u128 b)
{
    return a * b;
}
#else
typedef struct {
    uint64_t hi, lo;
} u128;

static u128 u128_of(uint64_t hi, uint64_t lo)
{
    u128 v;

    v.hi = hi;
    v.lo = lo;
    return v;
}

static uint64_t u128_hi(u128 v)
{
    return v.hi;
}

static uint64_t u128_lo(u128 v)
{
    return v.lo;
}

static u128 u128_add(u128 a, u128 b)
{
    const uint64_t lo = a.lo + b.lo;

    return u128_of(a.hi + b.hi + (lo < a.lo), lo);
}

/* The low 128 bits of a * b: a.lo * b.lo in full, from 32-bit halves, and
 * the low 64 bits of the cross terms. */
static u128 u128_mul(u128 a, u128 b)
{
    const uint64_t a0 = a.lo & 0xffffffff, a1 = a.lo >> 32;
    const uint64_t b0 = b.lo & 0xffffffff, b1 = b.lo >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    const uint64_t mid = (p00 >> 32) + (p01 & 0xffffffff) + (p10 & 0xffffffff);

    return u128_of(a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a.hi * b.lo + a.lo * b.hi,
                   mid << 32 | (p00 & 0xffffffff));
}
#endif

/* A stream behind a "BitGenerator" capsule, as numpy's: the capsule holds
 * &bg, whose state is the struct. */
struct pcg64 {
    bitgen_t bg;
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
};

static void pcg64_step(struct pcg64 *s)
{
    s->state = u128_add(u128_mul(s->state, u128_of(PCG_MULT_HI, PCG_MULT_LO)), s->inc);
}

static uint64_t pcg64_next64(void *st)
{
    struct pcg64 *s = st;
    uint64_t hi, x;
    unsigned rot;

    pcg64_step(s);
    hi = u128_hi(s->state);
    x = hi ^ u128_lo(s->state);
    rot = (unsigned)(hi >> 58);
    return x >> rot | x << ((64 - rot) & 63);
}

static uint32_t pcg64_next32(void *st)
{
    struct pcg64 *s = st;
    uint64_t next;

    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    next = pcg64_next64(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hashmix, which steps the hash constant *h. */
static uint32_t hashmix(uint32_t value, uint32_t *h)
{
    value ^= *h;
    *h *= SEED_MULT_A;
    value *= *h;
    return value ^ value >> 16;
}

static uint32_t seed_mix(uint32_t x, uint32_t y)
{
    const uint32_t r = SEED_MIX_L * x - SEED_MIX_R * y;

    return r ^ r >> 16;
}

/* SeedSequence(seed)'s pool of 4 words (its mix_entropy). */
static void seed_pool(uint64_t seed, uint32_t *pool)
{
    uint32_t h = SEED_INIT_A;

    for (int k = 0; k < 4; k++)
        pool[k] = hashmix(k < 2 ? (uint32_t)(seed >> 32 * k) : 0, &h);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = seed_mix(pool[dst], hashmix(pool[src], &h));
}

/* s as np.random.PCG64(seed) leaves it. */
static void pcg64_seed(struct pcg64 *s, uint64_t seed)
{
    uint32_t pool[4], h = SEED_INIT_B;
    uint64_t v[4] = {0};
    u128 initseq;

    seed_pool(seed, pool);
    for (int k = 0; k < 8; k++) { /* generate_state(4, uint64) */
        uint32_t w = pool[k % 4] ^ h;

        h *= SEED_MULT_B;
        w *= h;
        v[k / 2] |= (uint64_t)(w ^ w >> 16) << 32 * (k % 2);
    }
    initseq = u128_of(v[2], v[3]);
    s->state = u128_of(0, 0);
    s->inc = u128_add(u128_add(initseq, initseq), u128_of(0, 1));
    pcg64_step(s);
    s->state = u128_add(s->state, u128_of(v[0], v[1]));
    pcg64_step(s);
    s->has_uint32 = 0;
    s->uinteger = 0;
}

/* ------------------------------------------------------------------------
 * Standard normals: numpy's ziggurat with its first step inlined
 * ------------------------------------------------------------------------ */

/* numpy's random_standard_normal (Marsaglia & Tsang's ziggurat, 256
 * layers) takes r = next_uint64 and from it idx = r & 0xff, the sign, bit 8,
 * and rabs = (r >> 9) & (2^52 - 1).  Where rabs < k[idx] it returns
 * x = +-rabs * w[idx]; any other r (about 1.5%) goes on to a wedge or the
 * tail and may draw more.  Its compiled form branches on the random sign
 * bit, wrong about half the time.  standard_normal() repeats that first step
 * with the sign XORed in, and hands any other r to numpy's own function
 * through a bitgen_t that returns r once, then forwards to the generator:
 * numpy's values from numpy's draws, bit for bit.
 *
 * zig_w and zig_k are numpy's tables, read at module init from its function
 * (calibrate()); check_normal() then compares the two on a scripted stream,
 * and the module refuses to load on any difference. */
static double zig_w[256];
static uint64_t zig_k[256];

/* A bitgen_t's state that returns r to the first next_uint64, then forwards
 * every call to bg. */
struct replay {
    bitgen_t *bg;
    uint64_t r;
    int pending;
};

static uint64_t replay_uint64(void *st)
{
    struct replay *p = st;

    if (p->pending) {
        p->pending = 0;
        return p->r;
    }
    return p->bg->next_uint64(p->bg->state);
}

static uint32_t replay_uint32(void *st)
{
    struct replay *p = st;

    return p->bg->next_uint32(p->bg->state);
}

static double replay_double(void *st)
{
    struct replay *p = st;

    return p->bg->next_double(p->bg->state);
}

static uint64_t replay_raw(void *st)
{
    struct replay *p = st;

    return p->bg->next_raw(p->bg->state);
}

/* numpy's random_standard_normal on bg, its first next_uint64 being r. */
static double replayed_normal(bitgen_t *bg, uint64_t r)
{
    struct replay p = {bg, r, 1};
    bitgen_t once = {&p, replay_uint64, replay_uint32, replay_double, replay_raw};

    return random_standard_normal(&once);
}

static inline double standard_normal(bitgen_t *bg)
{
    const uint64_t r = bg->next_uint64(bg->state);
    const unsigned idx = (unsigned)(r & 0xff);
    const uint64_t rabs = (r >> 9) & FRAC;
    const double x = (double)rabs * zig_w[idx];
    uint64_t bits;
    double out;

    if (rabs >= zig_k[idx])
        return replayed_normal(bg, r);
    memcpy(&bits, &x, sizeof bits);
    bits ^= (r & 0x100) << 55; /* bit 8 of r into the sign */
    memcpy(&out, &bits, sizeof out);
    return out;
}

/* A scripted bitgen_t's state: next_uint64 returns r first if pending, then
 * a SplitMix64 stream from sm; next_double is (next_uint64 >> 11) * 2^-53, as
 * PCG64's.  calls counts every value asked for. */
struct script {
    uint64_t r;
    int pending;
    uint64_t sm, calls;
};

static uint64_t script_uint64(void *st)
{
    struct script *s = st;
    uint64_t z;

    s->calls++;
    if (s->pending) {
        s->pending = 0;
        return s->r;
    }
    z = s->sm += UINT64_C(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * UINT64_C(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94d049bb133111eb);
    return z ^ (z >> 31);
}

static uint32_t script_uint32(void *st)
{
    return (uint32_t)(script_uint64(st) >> 32);
}

static double script_double(void *st)
{
    return (double)(script_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* fn's value on a script of r, then SplitMix64 from seed 0; *calls gets the
 * number of values it asked for. */
static double scripted(double (*fn)(bitgen_t *), uint64_t r, uint64_t *calls)
{
    struct script s = {r, 1, 0, 0};
    bitgen_t bg = {&s, script_uint64, script_uint32, script_double, script_uint64};
    const double x = fn(&bg);

    *calls = s.calls;
    return x;
}

/* Read numpy's tables from random_standard_normal: zig_k[idx] is the least
 * rabs whose call asks for more than one value (bisected; 2^52 where none
 * does), and zig_w[idx] the value at rabs = 1, which is 1.0 * w[idx] exactly
 * (0 where rabs = 1 is not on the fast path, so w[idx] is never used). */
static void calibrate(void)
{
    uint64_t calls;

    for (unsigned idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = FRAC + 1;

        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;

            scripted(random_standard_normal, mid << 9 | idx, &calls);
            if (calls > 1)
                hi = mid;
            else
                lo = mid + 1;
        }
        zig_k[idx] = lo;
        zig_w[idx] = lo > 1 ? scripted(random_standard_normal, UINT64_C(1) << 9 | idx, &calls)
                            : 0.0;
    }
}

/* Compare standard_normal() with random_standard_normal, in value and in
 * values asked for: on each r at the edge of a fast path (rabs = k[idx] - 1
 * and k[idx]) of either sign, then on 4096 draws of one SplitMix64 stream.
 * Returns 0 where they agree, else nonzero with the first difference in why. */
static int check_normal(char *why, size_t size)
{
    struct script a = {0, 0, 1, 0}, b = a;
    bitgen_t ga = {&a, script_uint64, script_uint32, script_double, script_uint64};
    bitgen_t gb = {&b, script_uint64, script_uint32, script_double, script_uint64};

    for (unsigned idx = 0; idx < 256; idx++) {
        for (uint64_t rabs = zig_k[idx] - (zig_k[idx] > 0); rabs <= zig_k[idx] && rabs <= FRAC;
             rabs++) {
            for (uint64_t sign = 0; sign < 2; sign++) {
                /* bits 61 to 63, which neither reads, vary too */
                const uint64_t r = (uint64_t)(idx & 7) << 61 | rabs << 9 | sign << 8 | idx;
                uint64_t ca, cb;
                const double xa = scripted(random_standard_normal, r, &ca);
                const double xb = scripted(standard_normal, r, &cb);

                if (memcmp(&xa, &xb, sizeof xa) || ca != cb) {
                    snprintf(why, size, "r = 0x%016" PRIx64 " gives %.17g from %" PRIu64
                             " values, numpy %.17g from %" PRIu64, r, xb, cb, xa, ca);
                    return 1;
                }
            }
        }
    }
    for (int k = 0; k < 4096; k++) {
        const double xa = random_standard_normal(&ga);
        const double xb = standard_normal(&gb);

        if (memcmp(&xa, &xb, sizeof xa) || a.calls != b.calls) {
            snprintf(why, size, "draw %d of a SplitMix64 stream gives %.17g, numpy %.17g", k,
                     xb, xa);
            return 1;
        }
    }
    return 0;
}

/* Take obj's buffer into *view: one-dimensional and C-contiguous, of items
 * of kind 'd' (float64), 'q' (int64) or 'b' (int8), at least min_len of
 * them, and writable if asked.  Returns -1, holding no buffer, with an
 * error raised where it cannot: TypeError for an object that is no buffer
 * or of another format, ValueError for other shapes and, from numpy, for a
 * read-only or strided array. */
static int get_buffer(PyObject *obj, Py_buffer *view, const char *name, char kind,
                      int writable, Py_ssize_t min_len)
{
    const Py_ssize_t itemsize = kind == 'b' ? 1 : 8;
    const char *f;

    view->obj = NULL; /* stays NULL where obj exports no buffer at all */
    if (PyObject_GetBuffer(obj, view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0)))
        return -1;
    f = view->format ? view->format : "B"; /* NULL means unsigned bytes */
    if (!(view->itemsize == itemsize && f[0] != '\0' && f[1] == '\0' &&
          (f[0] == kind || (kind == 'q' && f[0] == 'l')))) {
        PyErr_Format(PyExc_TypeError, "%s must be a native %s array, got format '%s'", name,
                     kind == 'd' ? "float64" : kind == 'q' ? "int64" : "int8", f);
    } else if (view->ndim != 1) {
        PyErr_Format(PyExc_ValueError, "%s must be one-dimensional, got %d dimensions", name,
                     view->ndim);
    } else if (view->shape[0] < min_len) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd entries, needs %zd", name, view->shape[0],
                     min_len);
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* get_buffer() for an optional buffer: None leaves view->buf NULL. */
static int get_optional(PyObject *obj, Py_buffer *view, const char *name, char kind,
                        Py_ssize_t min_len)
{
    view->buf = NULL;
    view->obj = NULL;
    return obj == Py_None ? 0 : get_buffer(obj, view, name, kind, 1, min_len);
}

/* Release the first `taken` views, skipping those that hold no buffer. */
static void release(Py_buffer *views, int taken)
{
    while (taken-- > 0)
        if (views[taken].obj)
            PyBuffer_Release(&views[taken]);
}

static int check_nargs(const char *fn, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", fn, want, nargs);
    return -1;
}

/* A Python int that must not be negative. */
static int get_count(PyObject *obj, const char *name, Py_ssize_t *out)
{
    *out = PyLong_AsSsize_t(obj);
    if (*out >= 0)
        return 0;
    if (!PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "%s must not be negative", name);
    return -1;
}

/* The rule of a flags tuple (do_round, do_clamp, vmin, vmax). */
static int get_rule(PyObject *flags, struct rule *rule)
{
    if (!PyTuple_Check(flags) || PyTuple_GET_SIZE(flags) != 4) {
        PyErr_SetString(PyExc_TypeError, "flags must be (do_round, do_clamp, vmin, vmax)");
        return -1;
    }
    rule->do_round = PyObject_IsTrue(PyTuple_GET_ITEM(flags, 0));
    rule->do_clamp = PyObject_IsTrue(PyTuple_GET_ITEM(flags, 1));
    rule->vmin = PyFloat_AsDouble(PyTuple_GET_ITEM(flags, 2));
    rule->vmax = PyFloat_AsDouble(PyTuple_GET_ITEM(flags, 3));
    return PyErr_Occurred() ? -1 : 0;
}

enum { NOISE_ZERO, NOISE_GAUSSIAN, NOISE_UNIFORMS };

/* Fill noise[0..m) by noise code (zeros; normal(0, scale) per value, as
 * rng.normal(0.0, scale, m); or uniforms, as rng.random(m), which
 * map_discrete() then maps to the discrete model), then,
 * where coins is not NULL, coins[0..m) with uniforms, as rng.random(m). */
static void draw_noise_and_coins(bitgen_t *bg, Py_ssize_t m, int code, double scale,
                                 double *noise, double *coins)
{
    if (code == NOISE_GAUSSIAN) {
        for (Py_ssize_t k = 0; k < m; k++)
            noise[k] = 0.0 + scale * standard_normal(bg); /* numpy's random_normal */
    } else if (code == NOISE_UNIFORMS) {
        random_standard_uniform_fill(bg, m, noise);
    } else {
        memset(noise, 0, (size_t)m * sizeof *noise);
    }
    if (coins)
        random_standard_uniform_fill(bg, m, coins);
}

/* One chunk's draws: count uniform agents in [0, n) or, if matching, a
 * permutation of all n (count == n) into agents, then noise[0..m) and, where
 * coins is not NULL, coins[0..m), m the agents of the whole pairs. */
static void draw_chunk(bitgen_t *bg, int matching, Py_ssize_t n, Py_ssize_t count, int code,
                       double scale, int64_t *agents, double *noise, double *coins)
{
    if (matching) {
        /* rng.permutation(n): arange, then numpy's Fisher-Yates from the top.
         * random_interval(bg, i) draws j = next_uint32 & mask, mask the least
         * 2^k - 1 >= i, until j <= i (next_uint64 above 2^32 - 1).  Below 2^32
         * the loop makes those draws itself, and a rejected j swaps perm[i]
         * with itself and keeps i, so no branch depends on the draw. */
        int64_t *perm = agents;
        uint64_t i = (uint64_t)n - 1;
        uint32_t mask;

        for (Py_ssize_t k = 0; k < n; k++)
            perm[k] = k;
        for (; i > UINT32_MAX; i--) {
            const uint64_t j = random_interval(bg, i);
            const int64_t t = perm[i];

            perm[i] = perm[j];
            perm[j] = t;
        }
        for (mask = 0; mask < i; mask = (mask << 1) | 1)
            ;
        while (i > 0) {
            const uint32_t j = bg->next_uint32(bg->state) & mask;
            const int take = j <= i;
            const uint64_t at = take ? j : i;
            const int64_t t = perm[i];

            perm[i] = perm[at];
            perm[at] = t;
            i -= take;
            mask >>= i <= mask >> 1;
        }
    } else {
        /* rng.integers(0, n, count) */
        random_bounded_uint64_fill(bg, 0, (uint64_t)n - 1, count, false, (uint64_t *)agents);
    }
    draw_noise_and_coins(bg, count - count % 2, code, scale, noise, coins);
}

/* draw(capsule, matching, n, count, noise code, scale, pairs, noise, coins or
 * None): draw_chunk() into the buffers.  The pairs buffer takes count agents,
 * the noise and coins buffers one value per agent of each whole pair. */
static PyObject *draw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    Py_ssize_t n, count, m;
    int matching, code;
    double scale;
    Py_buffer views[3];
    int held = 0;

    (void)self;
    if (check_nargs("draw", nargs, 9))
        return NULL;
    bg = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (!bg || (matching = PyObject_IsTrue(args[1])) < 0 || get_count(args[2], "n", &n) ||
        get_count(args[3], "count", &count))
        return NULL;
    code = PyLong_AsLong(args[4]);
    scale = PyFloat_AsDouble(args[5]);
    if (PyErr_Occurred())
        return NULL;
    if (n < 1 || (matching && count != n) || code < NOISE_ZERO || code > NOISE_UNIFORMS) {
        PyErr_Format(PyExc_ValueError, "draw(): bad n %zd, count %zd or noise code %d", n,
                     count, code);
        return NULL;
    }
    m = count - count % 2;
    if (get_buffer(args[6], &views[held++], "pairs", 'q', 1, count) ||
        get_buffer(args[7], &views[held++], "noise", 'd', 1, m) ||
        get_optional(args[8], &views[held++], "coins", 'd', m)) {
        release(views, held);
        return NULL;
    }
    draw_chunk(bg, matching, n, count, code, scale, views[0].buf, views[1].buf, views[2].buf);
    release(views, held);
    Py_RETURN_NONE;
}

/* numpy's log1p and dot, taken from the numpy module at module init.  The
 * kernel calls them through the C API where the Python code calls numpy, so
 * that the discrete map's logarithms and a snapshot's tss are numpy's values
 * bit for bit: np.log1p is SIMD code that libm's log1p does not reproduce,
 * and np.dot the BLAS ddot, whose order of summation (split across threads
 * above 10^4 values, where more than one is allowed) no loop here repeats. */
static PyObject *numpy_log1p, *numpy_dot;

/* Map each uniform u of noise[0..m), as draw_chunk() leaves them for the
 * discrete model, to copysign(floor(log1p(-|2u - 1|) / log_q), u - 0.5),
 * log_q = log1p(-p) < 0, noise.sample_batch's map bit for bit: the folds
 * -|2u - 1| go to folds[0..m) (folds_obj is their float64 array), computed
 * as sample_batch's ufuncs compute them, with the fold -1 of u = 0 written as
 * 0.0, whose logarithm, 0 instead of -inf, gives the same +-0 and numpy no
 * divide-by-zero; np.log1p takes their logarithms in place; then each
 * quotient's floor, a non-finite one giving magnitude 0.  Below 2^52 the
 * floor is the truncation t through int64, less 1 where t > q, as
 * round_half() takes it; at or above, a finite quotient is already an
 * integer.  log_q = -inf (p = 1) writes +0.0, as sample_batch does.
 * Returns 0, or -1 with an exception set where the call into numpy fails. */
static int map_discrete(double *noise, PyObject *folds_obj, double *folds, Py_ssize_t m,
                        double log_q)
{
    PyObject *logs, *args[2], *got;

    for (Py_ssize_t k = 0; k < m; k++) {
        const double f = -fabs(noise[k] * 2.0 - 1.0);

        folds[k] = f == -1.0 ? 0.0 : f;
    }
    logs = PySequence_GetSlice(folds_obj, 0, m);
    if (!logs)
        return -1;
    args[0] = args[1] = logs; /* np.log1p(logs, logs): out= given positionally */
    got = PyObject_Vectorcall(numpy_log1p, args, 2, NULL);
    Py_DECREF(logs);
    if (!got)
        return -1;
    Py_DECREF(got);
    if (isinf(log_q)) {
        memset(noise, 0, (size_t)m * sizeof *noise);
        return 0;
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        const double q = folds[k] / log_q;
        double mag;

        if (fabs(q) < 0x1p52) {
            const double t = (double)(int64_t)q;

            mag = t - (double)(t > q);
        } else {
            mag = isfinite(q) ? q : 0.0;
        }
        noise[k] = copysign(mag, noise[k] - 0.5);
    }
    return 0;
}

/* discrete_map(noise, folds, m, log_q): map_discrete() of noise[0..m), with
 * folds a float64 array of at least m values, for a log_q = log1p(-p)
 * below 0. */
static PyObject *discrete_map(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer views[2];
    int held = 0, failed;
    Py_ssize_t m;
    double log_q;

    (void)self;
    if (check_nargs("discrete_map", nargs, 4) || get_count(args[2], "m", &m))
        return NULL;
    log_q = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred())
        return NULL;
    if (!(log_q < 0.0)) {
        PyErr_Format(PyExc_ValueError, "discrete_map(): log1p(-p) must be negative, got %R",
                     args[3]);
        return NULL;
    }
    if (get_buffer(args[0], &views[held++], "noise", 'd', 1, m) ||
        get_buffer(args[1], &views[held++], "folds", 'd', 1, m)) {
        release(views, held);
        return NULL;
    }
    failed = map_discrete(views[0].buf, args[1], views[1].buf, m, log_q);
    release(views, held);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

/* rng.uniform(low, high)'s range, *range = high - low, refused with the
 * exception that numpy raises.  Returns 0, or -1 with it raised. */
static int uniform_range(double low, double high, double *range)
{
    *range = high - low;
    if (!isfinite(*range)) {
        PyErr_SetString(PyExc_OverflowError, "high - low range exceeds valid bounds");
        return -1;
    }
    if (signbit(*range)) {
        PyErr_SetString(PyExc_ValueError, "high - low < 0");
        return -1;
    }
    return 0;
}

/* The agents a one-step case may hold: rng.integers(2, 33). */
enum { ONESTEP_MIN_N = 2, ONESTEP_MAX_N = 32 };

/* onestep_cases(capsule, cases, spread, sigma, ns, values, pairs, noise):
 * draw the inputs of `cases` cases of verify's one-step check, case after
 * case, with the calls and in the order of
 *   n = rng.integers(2, 33)
 *   rng.uniform(-spread, spread, size=n)
 *   rng.choice(n, size=2, replace=False)
 *   rng.normal(0.0, sigma, size=2)
 * into ns[k], the next n entries of values (packed, no padding), pairs[2k],
 * pairs[2k + 1] and noise[2k], noise[2k + 1].  values must hold 32 per case,
 * the most the cases can take.  choice() is numpy's Floyd sampling of two
 * of n, then its one-swap shuffle; a bounded draw over [0, 0], at n = 2,
 * consumes nothing.  spread and sigma are refused as numpy's uniform() and
 * normal() refuse them, but before any draw. */
static PyObject *onestep_cases(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    Py_ssize_t cases;
    double spread, sigma, range;
    Py_buffer views[4];
    int held = 0;
    uint64_t *ns;
    int64_t *pairs;
    double *values, *noise;

    (void)self;
    if (check_nargs("onestep_cases", nargs, 8))
        return NULL;
    bg = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (!bg || get_count(args[1], "cases", &cases))
        return NULL;
    spread = PyFloat_AsDouble(args[2]);
    sigma = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred() || uniform_range(-spread, spread, &range))
        return NULL;
    if (!isnan(sigma) && signbit(sigma)) {
        PyErr_SetString(PyExc_ValueError, "scale < 0");
        return NULL;
    }
    if (cases > PY_SSIZE_T_MAX / ONESTEP_MAX_N) {
        PyErr_Format(PyExc_ValueError, "onestep_cases(): %zd cases is too many", cases);
        return NULL;
    }
    if (get_buffer(args[4], &views[held++], "ns", 'q', 1, cases) ||
        get_buffer(args[5], &views[held++], "values", 'd', 1, ONESTEP_MAX_N * cases) ||
        get_buffer(args[6], &views[held++], "pairs", 'q', 1, 2 * cases) ||
        get_buffer(args[7], &views[held++], "noise", 'd', 1, 2 * cases)) {
        release(views, held);
        return NULL;
    }
    ns = views[0].buf;
    values = views[1].buf;
    pairs = views[2].buf;
    noise = views[3].buf;
    for (Py_ssize_t k = 0; k < cases; k++) {
        uint64_t n, a, b;

        random_bounded_uint64_fill(bg, ONESTEP_MIN_N, ONESTEP_MAX_N - ONESTEP_MIN_N, 1, false,
                                   &n);
        ns[k] = n;
        for (uint64_t i = 0; i < n; i++)
            *values++ = random_uniform(bg, -spread, range);
        a = random_bounded_uint64(bg, 0, n - 2, 0, false);
        b = random_bounded_uint64(bg, 0, n - 1, 0, false);
        if (b == a)
            b = n - 1;
        if (random_bounded_uint64(bg, 0, 1, 0, false) == 0) {
            const uint64_t t = a;

            a = b;
            b = t;
        }
        pairs[2 * k] = (int64_t)a;
        pairs[2 * k + 1] = (int64_t)b;
        noise[2 * k] = 0.0 + sigma * standard_normal(bg);
        noise[2 * k + 1] = 0.0 + sigma * standard_normal(bg);
    }
    release(views, held);
    Py_RETURN_NONE;
}

static void free_pcg64(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, "BitGenerator"));
}

/* pcg64(seed): a new stream, np.random.PCG64(seed) for an int seed in
 * [0, 2^64), behind a "BitGenerator" capsule, which frees it. */
static PyObject *pcg64(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    unsigned long long seed;
    struct pcg64 *s;
    PyObject *capsule;

    (void)self;
    if (check_nargs("pcg64", nargs, 1))
        return NULL;
    seed = PyLong_AsUnsignedLongLong(args[0]);
    if (PyErr_Occurred())
        return NULL;
    s = PyMem_Malloc(sizeof *s);
    if (!s)
        return PyErr_NoMemory();
    s->bg.state = s;
    s->bg.next_uint64 = pcg64_next64;
    s->bg.next_uint32 = pcg64_next32;
    s->bg.next_double = pcg64_next_double;
    s->bg.next_raw = pcg64_next64;
    pcg64_seed(s, (uint64_t)seed);
    capsule = PyCapsule_New(&s->bg, "BitGenerator", free_pcg64);
    if (!capsule)
        PyMem_Free(s);
    return capsule;
}

/* pcg64_state(capsule): the state of a pcg64() stream, ((state high, low),
 * (inc high, low), has_uint32, uinteger), the 128-bit words as 64-bit
 * halves. */
static PyObject *pcg64_state(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    const struct pcg64 *s;

    (void)self;
    if (check_nargs("pcg64_state", nargs, 1) ||
        !(bg = PyCapsule_GetPointer(args[0], "BitGenerator")))
        return NULL;
    if (bg->next_uint64 != pcg64_next64) {
        PyErr_SetString(PyExc_TypeError, "pcg64_state() takes a stream that pcg64() made");
        return NULL;
    }
    s = bg->state;
    return Py_BuildValue("((KK)(KK)iI)", (unsigned long long)u128_hi(s->state),
                         (unsigned long long)u128_lo(s->state), (unsigned long long)u128_hi(s->inc),
                         (unsigned long long)u128_lo(s->inc), s->has_uint32,
                         (unsigned int)s->uinteger);
}

/* random_raw(capsule, out): fill the int64 buffer out with next_raw outputs,
 * each one's 64 bits as they are, as bit_generator.random_raw(len(out)). */
static PyObject *random_raw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    Py_buffer view;
    uint64_t *out;

    (void)self;
    if (check_nargs("random_raw", nargs, 2) ||
        !(bg = PyCapsule_GetPointer(args[0], "BitGenerator")) ||
        get_buffer(args[1], &view, "out", 'q', 1, 0))
        return NULL;
    out = view.buf;
    for (Py_ssize_t k = 0; k < view.shape[0]; k++)
        out[k] = bg->next_raw(bg->state);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* uniform(capsule, low, high, out): fill the float64 buffer out as
 * rng.uniform(low, high, len(out)) does, with numpy's random_uniform, after
 * its checks of the range. */
static PyObject *uniform(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    double low, high, range;
    Py_buffer view;
    double *out;

    (void)self;
    if (check_nargs("uniform", nargs, 4) ||
        !(bg = PyCapsule_GetPointer(args[0], "BitGenerator")))
        return NULL;
    low = PyFloat_AsDouble(args[1]);
    high = PyFloat_AsDouble(args[2]);
    if (PyErr_Occurred() || uniform_range(low, high, &range) ||
        get_buffer(args[3], &view, "out", 'd', 1, 0))
        return NULL;
    out = view.buf;
    for (Py_ssize_t k = 0; k < view.shape[0]; k++)
        out[k] = random_uniform(bg, low, range);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* pair_chunk(values, pairs, noise, coins, m, flags, decomp, state, offsets):
 * apply the exchanges (pairs[2k], pairs[2k+1]) for 2k + 1 < m.  flags is
 * (do_round, do_clamp, vmin, vmax); coins and offsets may be None, coins
 * only where the rule does not round.  Every index is checked against
 * len(values) before any exchange. */
static PyObject *pair_chunk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer views[6];
    int held = 0, decomp;
    Py_ssize_t m, n;
    struct rule rule;
    const int64_t *idx;

    (void)self;
    if (check_nargs("pair_chunk", nargs, 9) || get_count(args[4], "m", &m) ||
        get_rule(args[5], &rule))
        return NULL;
    decomp = PyObject_IsTrue(args[6]);
    if (PyErr_Occurred())
        return NULL;
    if (get_buffer(args[7], &views[held++], "state", 'd', 1, 5) ||
        get_buffer(args[0], &views[held++], "values", 'd', 1, 0) ||
        get_buffer(args[1], &views[held++], "pairs", 'q', 0, m) ||
        get_buffer(args[2], &views[held++], "noise", 'd', 0, m) ||
        get_optional(args[3], &views[held++], "coins", 'd', m) ||
        get_optional(args[8], &views[held++], "offsets", 'b', m))
        goto fail;
    if (views[0].shape[0] != 5) {
        PyErr_Format(PyExc_ValueError, "state must hold the 5 trackers, got %zd",
                     views[0].shape[0]);
        goto fail;
    }
    if (rule.do_round && !views[4].buf) {
        PyErr_SetString(PyExc_ValueError, "a rounding rule needs coins");
        goto fail;
    }
    n = views[1].shape[0];
    idx = views[2].buf;
    for (Py_ssize_t k = 0; k < m - m % 2; k++) {
        if (idx[k] < 0 || idx[k] >= n) {
            PyErr_Format(PyExc_IndexError, "pair index %lld out of range for %zd agents",
                         (long long)idx[k], n);
            goto fail;
        }
    }
    apply_pairs(views[1].buf, n, idx, views[3].buf, views[4].buf, m / 2, &rule, decomp,
                views[0].buf, views[5].buf);
    release(views, held);
    Py_RETURN_NONE;
fail:
    release(views, held);
    return NULL;
}

/* ------------------------------------------------------------------------
 * A run's boundary loop in one call: run()
 * ------------------------------------------------------------------------ */

/* One engine (dynamics._Engine) as run() advances it. */
struct engine {
    bitgen_t *bg;
    PyObject *values; /* the values array, for dynamics._exact */
    double *x;
    Py_ssize_t n;
    double *state; /* mean, phibar, S', S*, S^- */
    int64_t *agents;
    double *noise, *coins; /* coins NULL where the rule does not round */
    PyObject *folds;       /* the folds array, for np.log1p */
    double *fold;
    struct rule rule;
    int code, matching, decomp;
    double param, drift_tol;
    Py_ssize_t per_step;
    PyObject *exact; /* dynamics._exact, where moments() declines */
    double drift[3]; /* a drifted tracker (0 the mean, 1 the potential), its value, the exact */
};

/* The exact mean and potential of the values into out[]: moments(), or
 * where it declines dynamics._exact, whose math.fsum returns or raises what
 * it does.  Returns 0, or -1 with an exception set. */
static int exact_of(struct engine *e, double *out)
{
    PyObject *got;
    int ok;

    if (!moments(e->x, e->n, out))
        return 0;
    got = PyObject_CallOneArg(e->exact, e->values);
    if (!got)
        return -1;
    ok = PyArg_ParseTuple(got, "dd", &out[0], &out[1]);
    Py_DECREF(got);
    return ok ? 0 : -1;
}

/* _Engine._resync, less its counter, which the schedule keeps: while a
 * window is open, write the exact mean and potential into the trackers,
 * after, with check, a drift check of each: a tracker off by more than
 * drift_tol * (1 + |exact|) stops the run, with e->drift set.  With check,
 * exact[] gets them in any case (exact may be NULL without).  Returns 0, 1
 * on a drift, or -1 with an exception set. */
static int resync(struct engine *e, int check, double *exact)
{
    double own[2];

    if (!(check || e->decomp))
        return 0;
    if (!exact)
        exact = own;
    if (exact_of(e, exact))
        return -1;
    if (e->decomp) {
        for (int k = 0; check && k < 2; k++) {
            if (fabs(e->state[k] - exact[k]) > e->drift_tol * (1.0 + fabs(exact[k]))) {
                e->drift[0] = k;
                e->drift[1] = e->state[k];
                e->drift[2] = exact[k];
                return 1;
            }
        }
        e->state[0] = exact[0];
        e->state[1] = exact[1];
    }
    return 0;
}

/* A run's schedule, _Engine._record's over _Engine._advance's: the record
 * steps 0, each multiple of record_every up to steps, steps itself and each
 * window end (ends, the flat sorted (t0, t1) pairs), and between two of them
 * chunks of at most `chunk` steps, none past a resync.  A resync falls due
 * every resync_every steps, counted from the last record step, which
 * resyncs too, and runs before the next chunk.  run() walks it, and so does
 * its producer, on a copy: the chunks it draws ahead are the run's chunks. */
struct schedule {
    Py_ssize_t steps, record_every, chunk, resync_every, nends;
    const int64_t *ends;
    Py_ssize_t done, target, since_resync;
    Py_ssize_t w;  /* the ends before ends[w] are past */
    int recorded;  /* whether the record step at target was given */
};

enum { SCHED_CHUNK, SCHED_RECORD, SCHED_END };

/* The schedule's next event: the record step at s->done (SCHED_RECORD), a
 * chunk of *b steps, after a resync where *due (SCHED_CHUNK), or, after the
 * record at steps, SCHED_END. */
static int sched_next(struct schedule *s, Py_ssize_t *b, int *due)
{
    if (s->done == s->target) {
        Py_ssize_t t;

        if (!s->recorded) {
            s->recorded = 1;
            s->since_resync = 0;
            return SCHED_RECORD;
        }
        if (s->done == s->steps)
            return SCHED_END;
        /* the earliest of the next multiple of record_every (or steps) and
         * the next window end */
        t = s->done - s->done % s->record_every;
        s->target = s->steps - t <= s->record_every ? s->steps : t + s->record_every;
        while (s->w < s->nends && s->ends[s->w] <= s->done)
            s->w++;
        if (s->w < s->nends && s->ends[s->w] < s->target)
            s->target = (Py_ssize_t)s->ends[s->w];
        s->recorded = 0;
    }
    *due = s->since_resync >= s->resync_every;
    if (*due)
        s->since_resync = 0;
    *b = s->chunk;
    if (*b > s->target - s->done)
        *b = s->target - s->done;
    if (*b > s->resync_every - s->since_resync)
        *b = s->resync_every - s->since_resync;
    s->done += *b;
    s->since_resync += *b;
    return SCHED_CHUNK;
}

/* ------------------------------------------------------------------------
 * Draws made ahead: a producer thread and a ring of chunks
 * ------------------------------------------------------------------------ */

/* A chunk's draws never depend on the values, so with a second CPU a
 * producer thread can make them while run()'s thread maps the discrete
 * noise, applies the pairs and records: it walks a copy of the run's
 * schedule and draws each chunk, on the same bitgen_t and in the same
 * order, into slot k % RING of a ring.  One thread writes each counter:
 * `made`, the chunks drawn, the producer; `used`, the chunks applied, and
 * `stop`, run()'s thread.  A wait spins on its counter, yielding the CPU,
 * for up to SPIN_NS, then blocks on the condition variable, and a writer
 * wakes a blocked thread.  On a 2-vCPU guest, blocking at once lost the
 * gain, the woken producer being placed on run()'s CPU, and so did naps of
 * 20 to 100 us; a spin without the yield cost up to SPIN_NS per hand-off
 * where the scheduler kept both threads on one CPU (a 1 ms spin made one
 * fig-b run 0.57 s against 0.08 s inline).  That guest also often started
 * the producer on run()'s CPU and left it there, so the producer moves
 * itself once, at its start (start_away()), and keeps the caller's
 * affinity mask.  The producer never touches a
 * Python object, and it is started with every signal blocked, so that the
 * handlers run in the thread that checks them.  It is a joinable POSIX
 * thread: CPython's PyThread_start_new_thread starts detached ones, which
 * no call can join, and the producer must be gone when run() returns. */
#define RING 8
#define SPIN_NS 1000000

struct ring {
    struct schedule plan;    /* the producer's walk */
    const struct engine *e;  /* read only: its generator, schedule and noise */
    Py_ssize_t cap;          /* the agents of the longest chunk */
    int64_t *agents;         /* RING slots of cap each, then as many of noise */
    double *noise, *coins;   /* and of coins, where the rule rounds */
    Py_ssize_t made, used, stop, sleepers;
    int away; /* the CPU run()'s thread ran on at the start, or -1 */
    pthread_mutex_t mu;
    pthread_cond_t cv;
    pthread_t thread;
};

static Py_ssize_t load(const Py_ssize_t *p)
{
    return __atomic_load_n(p, __ATOMIC_SEQ_CST);
}

static int ready(const struct ring *r, const Py_ssize_t *counter, Py_ssize_t want)
{
    return load(counter) >= want || load(&r->stop);
}

/* Wait until *counter reaches want or the run stops: yield the CPU for up
 * to SPIN_NS, which lets the other thread run where the two share one, then
 * sleep until post() wakes it.  Returns nonzero where the run stops. */
static int wait_for(struct ring *r, const Py_ssize_t *counter, Py_ssize_t want)
{
    struct timespec t0, t;

    if (ready(r, counter, want))
        return load(&r->stop) != 0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    while (!ready(r, counter, want)) {
        clock_gettime(CLOCK_MONOTONIC, &t);
        if ((int64_t)(t.tv_sec - t0.tv_sec) * 1000000000 + (t.tv_nsec - t0.tv_nsec) < SPIN_NS) {
            sched_yield();
            continue;
        }
        /* counted as a sleeper before the last check: a post() after that
         * check sees it, and wakes it once it waits */
        pthread_mutex_lock(&r->mu);
        __atomic_add_fetch(&r->sleepers, 1, __ATOMIC_SEQ_CST);
        while (!ready(r, counter, want))
            pthread_cond_wait(&r->cv, &r->mu);
        __atomic_sub_fetch(&r->sleepers, 1, __ATOMIC_SEQ_CST);
        pthread_mutex_unlock(&r->mu);
    }
    return load(&r->stop) != 0;
}

/* Set *counter to value, then wake any thread that sleeps in wait_for(). */
static void post(struct ring *r, Py_ssize_t *counter, Py_ssize_t value)
{
    __atomic_store_n(counter, value, __ATOMIC_SEQ_CST);
    if (load(&r->sleepers)) {
        pthread_mutex_lock(&r->mu);
        pthread_cond_broadcast(&r->cv);
        pthread_mutex_unlock(&r->mu);
    }
}

/* Slot k's buffers. */
static void slot(const struct ring *r, Py_ssize_t k, int64_t **agents, double **noise,
                 double **coins)
{
    const Py_ssize_t at = k % RING * r->cap;

    *agents = r->agents + at;
    *noise = r->noise + at;
    *coins = r->coins ? r->coins + at : NULL;
}

/* Move the calling thread off CPU `away` where its affinity mask allows
 * another: narrow the mask to the others, which migrates it, then restore
 * the mask at once.  The thread is not pinned; only its start is placed. */
static void start_away(int away)
{
#ifdef __linux__
    cpu_set_t mask, others;

    if (away < 0 || away >= CPU_SETSIZE || sched_getaffinity(0, sizeof mask, &mask))
        return;
    others = mask;
    CPU_CLR(away, &others);
    if (CPU_COUNT(&others) && !sched_setaffinity(0, sizeof others, &others))
        sched_setaffinity(0, sizeof mask, &mask);
#else
    (void)away;
#endif
}

/* The producer: start away from run()'s CPU, then draw chunk after chunk of
 * the schedule, each into its slot once run()'s thread has applied the
 * chunk RING before it. */
static void *produce(void *arg)
{
    struct ring *r = arg;
    const struct engine *e = r->e;
    Py_ssize_t b, made = 0;
    int64_t *agents;
    double *noise, *coins;
    int due, kind;

    start_away(r->away);
    while ((kind = sched_next(&r->plan, &b, &due)) != SCHED_END) {
        if (kind == SCHED_RECORD)
            continue;
        if (wait_for(r, &r->used, made - RING + 1))
            break;
        slot(r, made, &agents, &noise, &coins);
        draw_chunk(e->bg, e->matching, e->n, b * e->per_step, e->code, e->param, agents, noise,
                   coins);
        post(r, &r->made, ++made);
    }
    return NULL;
}

/* Start a producer on plan, a schedule not yet walked, whose chunks take at
 * most cap agents.  NULL where it cannot (no memory or no thread), and the
 * run then draws its chunks itself. */
static struct ring *start_ring(const struct engine *e, const struct schedule *plan,
                               Py_ssize_t cap)
{
    const Py_ssize_t arrays = e->coins ? 3 : 2;
    struct ring *r;
    sigset_t all, old;
    int failed;

    if (cap > PY_SSIZE_T_MAX / RING / arrays / (Py_ssize_t)sizeof(double) ||
        !(r = PyMem_RawCalloc(1, sizeof *r)))
        return NULL;
    r->plan = *plan;
    r->e = e;
#ifdef __linux__
    r->away = sched_getcpu();
#else
    r->away = -1;
#endif
    r->cap = cap;
    r->agents = PyMem_RawMalloc((size_t)(arrays * RING * cap) * sizeof(double));
    if (r->agents && !pthread_mutex_init(&r->mu, NULL)) {
        if (!pthread_cond_init(&r->cv, NULL)) {
            r->noise = (double *)(r->agents + RING * cap);
            r->coins = e->coins ? r->noise + RING * cap : NULL;
            sigfillset(&all);
            pthread_sigmask(SIG_BLOCK, &all, &old);
            failed = pthread_create(&r->thread, NULL, produce, r);
            pthread_sigmask(SIG_SETMASK, &old, NULL);
            if (!failed)
                return r;
            pthread_cond_destroy(&r->cv);
        }
        pthread_mutex_destroy(&r->mu);
    }
    PyMem_RawFree(r->agents);
    PyMem_RawFree(r);
    return NULL;
}

/* Stop the producer, wait for it to end and free the ring. */
static void stop_ring(struct ring *r)
{
    post(r, &r->stop, 1);
    Py_BEGIN_ALLOW_THREADS
    pthread_join(r->thread, NULL);
    Py_END_ALLOW_THREADS
    pthread_cond_destroy(&r->cv);
    pthread_mutex_destroy(&r->mu);
    PyMem_RawFree(r->agents);
    PyMem_RawFree(r);
}

/* The snapshot row (step, tss, phibar, phi, mean, drift) of the values, with
 * exact[] their mean and potential, as dynamics._snapshot_row makes it: tss
 * is np.dot(d, d) of d = values - x0, written into diff (a float64 array of
 * n values at d).  A new reference, or NULL with an exception set. */
static PyObject *snapshot_row(const struct engine *e, Py_ssize_t step, double x0,
                              const double *exact, PyObject *diff, double *d)
{
    PyObject *args[2], *dot;
    double tss;

    for (Py_ssize_t k = 0; k < e->n; k++)
        d[k] = e->x[k] - x0;
    args[0] = args[1] = diff;
    dot = PyObject_Vectorcall(numpy_dot, args, 2, NULL);
    if (!dot)
        return NULL;
    tss = PyFloat_AsDouble(dot);
    Py_DECREF(dot);
    if (tss == -1.0 && PyErr_Occurred())
        return NULL;
    return Py_BuildValue("(nddddd)", step, tss, exact[1], 2.0 * (double)e->n * exact[1],
                         exact[0], exact[0] - x0);
}

/* Append item, a new reference or NULL, to list.  Returns 0, or -1 with an
 * exception set. */
static int append(PyObject *list, PyObject *item)
{
    int failed = !item || PyList_Append(list, item);

    Py_XDECREF(item);
    return failed ? -1 : 0;
}

/* A tuple of `size` items, or NULL with a TypeError naming it. */
static PyObject *get_tuple(PyObject *obj, const char *name, Py_ssize_t size)
{
    if (PyTuple_Check(obj) && PyTuple_GET_SIZE(obj) == size)
        return obj;
    PyErr_Format(PyExc_TypeError, "%s must be a tuple of %zd items", name, size);
    return NULL;
}

/* run(capsule, values, state, buffers, diff, flags, noise, schedule, decomp,
 *     x0, steps, record_every, windows, drift_tol, exact, ahead):
 * dynamics._Engine._record's loop, the boundary loop of a run, in one call.
 * buffers is the engine's (agents, noise, coins, offsets, folds), noise its
 * (code, parameter), schedule (matching, resync interval, longest chunk,
 * agents per step); decomp is the engine's window flag, x0 the initial
 * average, windows the flat int64 (t0, t1) pairs, sorted and apart, within
 * [0, steps].  At each record step, each
 * multiple of record_every up to steps, steps itself and each t0 and t1,
 * counted from the call, it advances in the engine's chunks and resyncs,
 * checks and resyncs the trackers as refresh() does, closes a window that
 * ends there, appends the snapshot row and opens a window that starts there
 * on the same exact sums.  Before each chunk it does what the interpreter did
 * between the Python loop's chunks: it lets a waiting Python thread take the
 * GIL, and it runs the signal handlers, so that a long run neither stalls
 * the caller's other threads nor ignores Ctrl-C.  With ahead, and no window
 * open or to open, a producer thread draws the chunks (see struct ring), and
 * it has ended when the call returns; where an exception ends the call, the
 * generator may then be up to RING chunks ahead of the values.  Returns
 * (rows, closed, decomp, drift): each closed window as (t0, t1, phi_bar(t0),
 * phi_bar(t1), S', S*, S^-), and drift None, or (tracker, tracked, exact,
 * step) for a tracker that drifted at a record step, where the run stopped.
 * Either way the call ends on a record step, so no resync is pending. */
static PyObject *run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct engine e;
    struct schedule plan = {0};
    struct ring *ring = NULL;
    Py_buffer views[8];
    int held = 0, ahead;
    PyObject *buffers, *noise, *schedule, *rows = NULL, *closed = NULL, *drift = NULL;
    PyObject *out = NULL;
    Py_ssize_t cap, need, nwin, next = 0, open = -1, chunks = 0;
    double x0, exact[2], phi0 = 0.0;
    const int64_t *win;

    (void)self;
    if (check_nargs("run", nargs, 16))
        return NULL;
    e.bg = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (!e.bg || !(buffers = get_tuple(args[3], "buffers", 5)) || get_rule(args[5], &e.rule) ||
        !(noise = get_tuple(args[6], "noise", 2)) ||
        !(schedule = get_tuple(args[7], "schedule", 4)) ||
        get_count(PyTuple_GET_ITEM(schedule, 1), "resync interval", &plan.resync_every) ||
        get_count(PyTuple_GET_ITEM(schedule, 2), "chunk", &plan.chunk) ||
        get_count(PyTuple_GET_ITEM(schedule, 3), "agents per step", &e.per_step) ||
        get_count(args[10], "steps", &plan.steps) ||
        get_count(args[11], "record_every", &plan.record_every))
        return NULL;
    e.matching = PyObject_IsTrue(PyTuple_GET_ITEM(schedule, 0));
    e.code = PyLong_AsLong(PyTuple_GET_ITEM(noise, 0));
    e.param = PyFloat_AsDouble(PyTuple_GET_ITEM(noise, 1));
    e.decomp = PyObject_IsTrue(args[8]);
    x0 = PyFloat_AsDouble(args[9]);
    e.drift_tol = PyFloat_AsDouble(args[13]);
    ahead = PyObject_IsTrue(args[15]);
    if (PyErr_Occurred())
        return NULL;
    if (plan.resync_every < 1 || plan.chunk < 1 || e.per_step < 1 || plan.record_every < 1 ||
        e.code < NOISE_ZERO || e.code > NOISE_UNIFORMS ||
        (e.code == NOISE_UNIFORMS && !(e.param < 0.0))) {
        PyErr_SetString(PyExc_ValueError, "run(): a bad schedule, record_every or noise");
        return NULL;
    }
    if (!PyCallable_Check(args[14])) {
        PyErr_SetString(PyExc_TypeError, "run(): exact must be callable");
        return NULL;
    }
    e.exact = args[14];
    e.values = args[1];
    cap = plan.chunk < plan.resync_every ? plan.chunk : plan.resync_every;
    if (cap > PY_SSIZE_T_MAX / e.per_step) {
        PyErr_SetString(PyExc_ValueError, "run(): chunks too large");
        return NULL;
    }
    need = cap * e.per_step;
    e.folds = PyTuple_GET_ITEM(buffers, 4);
    if (get_buffer(args[1], &views[held++], "values", 'd', 1, 1) ||
        get_buffer(args[2], &views[held++], "state", 'd', 1, 5) ||
        get_buffer(PyTuple_GET_ITEM(buffers, 0), &views[held++], "agents", 'q', 1, need) ||
        get_buffer(PyTuple_GET_ITEM(buffers, 1), &views[held++], "noise", 'd', 1, need) ||
        get_optional(e.rule.do_round ? PyTuple_GET_ITEM(buffers, 2) : Py_None,
                     &views[held++], "coins", 'd', need) ||
        get_buffer(e.folds, &views[held++], "folds", 'd', 1, need) ||
        get_buffer(args[12], &views[held++], "windows", 'q', 0, 0))
        goto fail;
    e.x = views[0].buf;
    e.n = views[0].shape[0];
    e.state = views[1].buf;
    e.agents = views[2].buf;
    e.noise = views[3].buf;
    e.coins = views[4].buf;
    e.fold = views[5].buf;
    win = views[6].buf;
    nwin = views[6].shape[0] / 2;
    if (views[1].shape[0] != 5 || (e.rule.do_round && !e.coins) ||
        (e.matching && (e.per_step != e.n || plan.chunk != 1))) {
        PyErr_SetString(PyExc_ValueError, "run(): state must hold the 5 trackers, a rounding "
                        "rule needs coins, and a matching takes all n agents in each step");
        goto fail;
    }
    if (views[6].shape[0] % 2) {
        PyErr_SetString(PyExc_ValueError, "run(): windows must hold (t0, t1) pairs");
        goto fail;
    }
    for (Py_ssize_t k = 0; k < 2 * nwin; k++) {
        if ((k % 2 ? win[k] <= win[k - 1] : win[k] < (k ? win[k - 1] : 0)) ||
            win[k] > plan.steps) {
            PyErr_SetString(PyExc_ValueError, "run(): windows must be sorted and apart, "
                                              "t0 < t1, within [0, steps]");
            goto fail;
        }
    }
    if (get_buffer(args[4], &views[held++], "diff", 'd', 1, e.n) ||
        !(rows = PyList_New(0)) || !(closed = PyList_New(0)))
        goto fail;
    plan.ends = win;
    plan.nends = 2 * nwin;
    /* only a window's tracker check stops a run early, stranding drawn chunks */
    if (ahead && !nwin && !e.decomp)
        ring = start_ring(&e, &plan, need);
    for (;;) {
        Py_ssize_t b, count, m;
        int due, drifted;
        const int kind = sched_next(&plan, &b, &due);

        if (kind == SCHED_CHUNK) {
            int64_t *agents = e.agents;
            double *noise = e.noise, *coins = e.coins;

            Py_BEGIN_ALLOW_THREADS
            if (ring)
                wait_for(ring, &ring->made, chunks + 1);
            Py_END_ALLOW_THREADS
            if (PyErr_CheckSignals() || (due && resync(&e, 0, NULL)))
                goto fail;
            count = b * e.per_step;
            m = count - count % 2;
            if (ring)
                slot(ring, chunks, &agents, &noise, &coins);
            else
                draw_chunk(e.bg, e.matching, e.n, count, e.code, e.param, agents, noise, coins);
            if (e.code == NOISE_UNIFORMS && map_discrete(noise, e.folds, e.fold, m, e.param))
                goto fail;
            apply_pairs(e.x, e.n, agents, noise, coins, m / 2, &e.rule, e.decomp, e.state, NULL);
            chunks++;
            if (ring)
                post(ring, &ring->used, chunks);
            continue;
        }
        if (kind == SCHED_END) {
            drift = Py_None;
            Py_INCREF(drift);
            break;
        }
        /* a record step, b = plan.done */
        b = plan.done;
        drifted = resync(&e, 1, exact);
        if (drifted < 0)
            goto fail;
        if (drifted) {
            drift = Py_BuildValue("(iddn)", (int)e.drift[0], e.drift[1], e.drift[2], b);
            break;
        }
        if (open >= 0 && b == win[2 * open + 1]) {
            e.decomp = 0;
            if (append(closed, Py_BuildValue("(nnddddd)", (Py_ssize_t)win[2 * open], b, phi0,
                                             exact[1], e.state[2], e.state[3], e.state[4])))
                goto fail;
            open = -1;
        }
        if (append(rows, snapshot_row(&e, b, x0, exact, args[4], views[7].buf)))
            goto fail;
        if (next < nwin && win[2 * next] == b) {
            /* begin_decomposition on the refresh's exact sums */
            e.state[2] = e.state[3] = e.state[4] = 0.0;
            e.decomp = 1;
            e.state[0] = exact[0];
            e.state[1] = exact[1];
            phi0 = exact[1];
            open = next++;
        }
    }
fail:
    if (ring)
        stop_ring(ring);
    release(views, held);
    if (drift)
        out = Py_BuildValue("(OOON)", rows, closed, e.decomp ? Py_True : Py_False, drift);
    Py_XDECREF(rows);
    Py_XDECREF(closed);
    return out;
}

/* exact_moments(values): (mean, phibar), or None where moments() declines,
 * for the caller's math.fsum. */
static PyObject *exact_moments(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    int declined;
    double out[2];

    (void)self;
    if (check_nargs("exact_moments", nargs, 1) || get_buffer(args[0], &view, "values", 'd', 0, 0))
        return NULL;
    declined = moments(view.buf, view.shape[0], out);
    PyBuffer_Release(&view);
    if (declined)
        Py_RETURN_NONE;
    return Py_BuildValue("(dd)", out[0], out[1]);
}

/* py_floordiv(v, w): the C port of v // w, for the tests. */
static PyObject *floordiv(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double v, w;

    (void)self;
    if (check_nargs("py_floordiv", nargs, 2))
        return NULL;
    v = PyFloat_AsDouble(args[0]);
    w = PyFloat_AsDouble(args[1]);
    if (PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(py_floordiv(v, w));
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef methods[] = {
    {"draw", FASTCALL(draw), "One chunk's pairs or permutation, noise and coins."},
    {"discrete_map", FASTCALL(discrete_map), "The discrete noise from its uniforms."},
    {"onestep_cases", FASTCALL(onestep_cases), "The inputs of verify's one-step cases."},
    {"pcg64", FASTCALL(pcg64), "A new stream: numpy's PCG64(seed), behind a capsule."},
    {"pcg64_state", FASTCALL(pcg64_state), "The state of a stream that pcg64() made."},
    {"random_raw", FASTCALL(random_raw), "Raw 64-bit outputs of a stream."},
    {"uniform", FASTCALL(uniform), "rng.uniform(low, high, len(out)) into out."},
    {"pair_chunk", FASTCALL(pair_chunk), "Apply a batch of exchanges in place."},
    {"run", FASTCALL(run), "A run's boundary loop: chunks, resyncs, snapshots, windows."},
    {"exact_moments", FASTCALL(exact_moments), "Correctly rounded mean and potential."},
    {"py_floordiv", FASTCALL(floordiv), "Python's float floor division."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The gossipavg engines' draws, pair loop and exact sums.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    char why[200];
    PyObject *numpy;

    calibrate();
    if (check_normal(why, sizeof why)) {
        PyErr_Format(PyExc_ImportError, "the normal check failed: %s", why);
        return NULL;
    }
    numpy = PyImport_ImportModule("numpy");
    if (!numpy)
        return NULL;
    Py_XDECREF(numpy_dot);
    Py_XDECREF(numpy_log1p);
    numpy_dot = PyObject_GetAttrString(numpy, "dot");
    numpy_log1p = PyObject_GetAttrString(numpy, "log1p");
    Py_DECREF(numpy);
    if (!numpy_dot || !numpy_log1p)
        return NULL;
    return PyModule_Create(&module);
}
