/* Compiled pair loop and exact sums of the gossipavg engines.
 *
 * pair_chunk() applies a batch of pairwise exchanges to the agent values in
 * place, exactly as the Python reference loop in dynamics.py does
 * (_pairs_reference, which calls _receive once for each agent of a pair,
 * then _decomposition_step).
 * exact_moments() computes the mean and the potential about it from
 * correctly rounded sums, exactly as the math.fsum body of dynamics._exact.
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

/* Partials kept by fsum_add(); CPython's math.fsum starts with as many and
 * grows the array, exact_moments() gives up instead. */
#define NUM_PARTIALS 32

/* Add x to the non-overlapping partials p[0..*n) (Shewchuk's algorithm, as
 * math_fsum in CPython's Modules/mathmodule.c).  Returns nonzero, leaving
 * the partials unusable, if x or the new top partial is not finite or the
 * partials array is full. */
static int fsum_add(double *p, int *n, double x)
{
    int i = 0;

    if (!isfinite(x))
        return 1;
    for (int j = 0; j < *n; j++) {
        double y = p[j], hi, yr, lo;

        if (fabs(x) < fabs(y)) {
            const double t = x;
            x = y;
            y = t;
        }
        hi = x + y;
        yr = hi - x;
        lo = y - yr;
        if (lo != 0.0)
            p[i++] = lo;
        x = hi;
    }
    *n = i;
    if (x != 0.0) {
        if (!isfinite(x) || i >= NUM_PARTIALS)
            return 1;
        p[(*n)++] = x;
    }
    return 0;
}

/* The correctly rounded sum of the partials, with CPython's half-even
 * fix-up across partials. */
static double fsum_result(const double *p, int n)
{
    double hi = 0.0, lo = 0.0, x, y, yr;

    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}

/* out[0] = fsum(x[0..n)) / n, the mean; if with_phibar, also
 * out[1] = fsum((x[k] - mean) * (x[k] - mean)), each square rounded on its
 * own.  Both equal math.fsum bit for bit.  Returns 0 on success; nonzero,
 * with out untouched, on n < 1, a non-finite summand or partial, or a full
 * partials array, where the caller recomputes with math.fsum (which then
 * returns or raises what it does). */
int exact_moments(const double *x, int64_t n, int with_phibar, double *out)
{
    double p[NUM_PARTIALS], mean;
    int np = 0;

    if (n < 1)
        return 1;
    for (int64_t k = 0; k < n; k++)
        if (fsum_add(p, &np, x[k]))
            return 1;
    mean = fsum_result(p, np) / (double)n;
    if (with_phibar) {
        np = 0;
        for (int64_t k = 0; k < n; k++) {
            const double d = x[k] - mean;

            if (fsum_add(p, &np, d * d))
                return 1;
        }
        out[1] = fsum_result(p, np);
    }
    out[0] = mean;
    return 0;
}
