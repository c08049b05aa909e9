/* The gossipavg engines' compiled kernel: a CPython extension module.
 *
 * draw() draws one chunk's randomness from a numpy Generator's bitgen_t with
 * numpy's own C samplers (libnpyrandom.a), in the order and with the calls
 * the numpy methods make, so the values and the generator state afterwards
 * are those of rng.integers or rng.permutation, then rng.normal or
 * rng.random, then rng.random.
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
 *
 * Each entry is METH_FASTCALL and takes arrays through the buffer protocol;
 * it checks every buffer (format, dimension, contiguity, length, writability
 * where it writes) and every pair index, and raises TypeError, ValueError or
 * IndexError before it touches any.
 * None of them releases the GIL: the calls are short, and the generator is
 * not locked against other threads, as the engines never share one.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

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
static void apply_pairs(double *x, int64_t n, const int64_t *idx, const double *noise,
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
static int moments(const double *x, int64_t n, int with_phibar, double *out)
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

/* ------------------------------------------------------------------------
 * The Python entries
 * ------------------------------------------------------------------------ */

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

enum { NOISE_ZERO, NOISE_GAUSSIAN, NOISE_UNIFORMS };

/* Fill noise[0..m) by noise code (zeros; normal(0, scale) per value, as
 * rng.normal(0.0, scale, m); or uniforms, as rng.random(m), for Python to map
 * to the discrete model), then, where coins is not NULL, coins[0..m) with
 * uniforms, as rng.random(m). */
static void draw_noise_and_coins(bitgen_t *bg, Py_ssize_t m, int code, double scale,
                                 double *noise, double *coins)
{
    if (code == NOISE_GAUSSIAN) {
        for (Py_ssize_t k = 0; k < m; k++)
            noise[k] = random_normal(bg, 0.0, scale);
    } else if (code == NOISE_UNIFORMS) {
        random_standard_uniform_fill(bg, m, noise);
    } else {
        memset(noise, 0, (size_t)m * sizeof *noise);
    }
    if (coins)
        random_standard_uniform_fill(bg, m, coins);
}

/* draw(capsule, matching, n, count, noise code, scale, pairs, noise, coins or
 * None): count uniform agents in [0, n) or, if matching, a permutation of
 * all n (count == n).  The pairs buffer takes count agents, the noise and
 * coins buffers one value per agent of each whole pair. */
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
    if (matching) {
        /* rng.permutation(n): arange, then numpy's Fisher-Yates from the top */
        int64_t *perm = views[0].buf;

        for (Py_ssize_t i = 0; i < n; i++)
            perm[i] = i;
        for (Py_ssize_t i = n - 1; i > 0; i--) {
            const int64_t j = (int64_t)random_interval(bg, (uint64_t)i);
            const int64_t t = perm[i];

            perm[i] = perm[j];
            perm[j] = t;
        }
    } else {
        /* rng.integers(0, n, count) */
        random_bounded_uint64_fill(bg, 0, (uint64_t)n - 1, count, false, views[0].buf);
    }
    draw_noise_and_coins(bg, m, code, scale, views[1].buf, views[2].buf);
    release(views, held);
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
    int held = 0, do_round, do_clamp, decomp;
    Py_ssize_t m, n;
    double vmin, vmax;
    PyObject *flags;
    const int64_t *idx;

    (void)self;
    if (check_nargs("pair_chunk", nargs, 9) || get_count(args[4], "m", &m))
        return NULL;
    flags = args[5];
    if (!PyTuple_Check(flags) || PyTuple_GET_SIZE(flags) != 4) {
        PyErr_SetString(PyExc_TypeError, "flags must be (do_round, do_clamp, vmin, vmax)");
        return NULL;
    }
    do_round = PyObject_IsTrue(PyTuple_GET_ITEM(flags, 0));
    do_clamp = PyObject_IsTrue(PyTuple_GET_ITEM(flags, 1));
    vmin = PyFloat_AsDouble(PyTuple_GET_ITEM(flags, 2));
    vmax = PyFloat_AsDouble(PyTuple_GET_ITEM(flags, 3));
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
    if (do_round && !views[4].buf) {
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
    apply_pairs(views[1].buf, n, idx, views[3].buf, views[4].buf, m / 2, do_round, do_clamp,
                vmin, vmax, decomp, views[0].buf, views[5].buf);
    release(views, held);
    Py_RETURN_NONE;
fail:
    release(views, held);
    return NULL;
}

/* exact_moments(values, with_phibar): (mean, phibar), phibar None unless
 * asked for; None where moments() declines, for the caller's math.fsum. */
static PyObject *exact_moments(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    int with_phibar, declined;
    double out[2];

    (void)self;
    if (check_nargs("exact_moments", nargs, 2))
        return NULL;
    with_phibar = PyObject_IsTrue(args[1]);
    if (with_phibar < 0 || get_buffer(args[0], &view, "values", 'd', 0, 0))
        return NULL;
    declined = moments(view.buf, view.shape[0], with_phibar, out);
    PyBuffer_Release(&view);
    if (declined)
        Py_RETURN_NONE;
    if (with_phibar)
        return Py_BuildValue("(dd)", out[0], out[1]);
    return Py_BuildValue("(dO)", out[0], Py_None);
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
    {"pair_chunk", FASTCALL(pair_chunk), "Apply a batch of exchanges in place."},
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
    return PyModule_Create(&module);
}
