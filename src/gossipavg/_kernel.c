/* Compiled pair loop and exact sums of the gossipavg engines.
 *
 * pair_chunk() applies a batch of pairwise exchanges to the agent values in
 * place, exactly as the Python reference loop in dynamics.py does
 * (_pairs_reference, which calls _receive once for each agent of a pair,
 * then _decomposition_step).
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
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* CPython's float floor division v // w for nonzero w (_float_div_mod in
 * Objects/floatobject.c): fmod, then snap the quotient to an integer.  It is
 * not floor(v / w): the two differ for NaN, infinities and near-integral
 * quotients. */
double py_floordiv(double v, double w)
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

/* s / 2 rounded up (coin u < 0.5) or down when s is not even; the offset
 * records +1, -1, or 0 when s / 2 is stored as is.
 *
 * Python's s // 2.0 (py_floordiv) costs a libm fmod.  Where h = s * 0.5 is
 * exact and |h| < 2^52 -- s is zero, or 2^-1021 <= |s| < 2^53 -- it equals
 * floor(h), taken here from the truncation t of h through int64: s is even
 * exactly when t == h, and floor(h) is t, less 1 where t > h.  Every other s
 * takes py_floordiv: at s = -2^-1074, for one, s * 0.5 rounds to -0.0, whose
 * floor is -0.0 where Python gives -1.0. */
static double round_half(double s, double u, int8_t *offset)
{
    const double a = fabs(s);
    double f;

    if (a < 0x1p53 && (a >= 0x1p-1021 || s == 0.0)) {
        const double h = s * 0.5;
        const double t = (double)(int64_t)h;
        const int odd = t != h;
        const int up = odd & (u < 0.5);

        *offset = (int8_t)(up + up - odd);
        return pick(odd, t - (double)(t > h) + (double)up, h);
    }
    f = py_floordiv(s, 2.0);
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

/* Apply npairs exchanges (idx[2k], idx[2k+1]) to x[0..n) in order.
 *
 * noise[2k] is agent idx[2k]'s outgoing channel noise and coins[2k] its
 * rounding coin (coins may be NULL unless do_round).  A self-pair is skipped.
 * state holds {mean, phibar, s_prime, s_star, s_minus} and is updated in
 * place; the last four only when decomp is set.  If offsets is not NULL, the
 * rounding offset of each agent is written to it (0 for a self-pair). */
void pair_chunk(double *x, int64_t n, const int64_t *idx, const double *noise,
                const double *coins, int64_t npairs, int do_round, int do_clamp,
                double vmin, double vmax, int decomp, double *state,
                int8_t *offsets)
{
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

/* out[0] = fsum(x[0..n)) / n, the mean; if with_phibar, also
 * out[1] = fsum((x[k] - mean) * (x[k] - mean)), each square rounded on its
 * own.  Both equal math.fsum bit for bit: a correctly rounded sum is
 * unique.  Returns 0 on success; nonzero, with out untouched, on n < 1 and
 * where exact_sum() declines, where the caller recomputes with math.fsum
 * (which then returns or raises what it does). */
int exact_moments(const double *x, int64_t n, int with_phibar, double *out)
{
    double sum, phibar = 0.0, mean;

    if (n < 1 || exact_sum(x, n, 0, 0.0, &sum))
        return 1;
    mean = sum / (double)n;
    if (with_phibar && exact_sum(x, n, 1, mean, &phibar))
        return 1;
    out[0] = mean;
    if (with_phibar)
        out[1] = phibar;
    return 0;
}
