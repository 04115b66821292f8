/*
 * Window loops of ivstream.estimators: B trials stepped through a window of
 * rows of their sample blocks, updating the state in place.
 *
 * Each trial's iterates are bitwise equal to numpy's gufuncs on the same
 * buffers, because every product whose sum has more than one term calls the
 * OpenBLAS routine numpy itself calls, with the same arguments:
 *   np.vecdot(a, b)      0. + ddot(n, a, 1, b, 1)
 *   np.matvec(A, x)      dgemv(RowMajor, NoTrans) on the C-contiguous (m, n) A
 *   np.vecmat(x, A)      dgemv(RowMajor, Trans) on the C-contiguous (n, m) A,
 *                        and one ddot when A has a single column (m = 1)
 * A sum of one term (a dot of length one, a matvec or vecmat whose inner
 * length is one: every product at d_x = d_z = 1, and fit's vecmat when
 * d_z = 1 < d_x) is computed inline as 0. + a * b, which has the same bits:
 * ddot, and dgemv with beta 0 (which zeroes y) and alpha 1, start the sum at
 * +0 and add the one product, so the product is rounded once and -0 becomes
 * +0, as here; numpy's own loop for a one-term matmul does the same.
 * Every other operation is one IEEE operation per element in numpy's order,
 * so the file must be compiled with -ffp-contract=off and without
 * -ffast-math. -O3 and -march=native keep these bits: the loops they
 * vectorise are the elementwise updates, where each element is still one
 * multiply and one subtract, add or divide, each correctly rounded in any
 * instruction set the CPU has, and no multiply and add are fused; every sum
 * of more than one term is a BLAS call, and gcc reorders no floating-point
 * sum without -ffast-math (or -fassociative-math).
 * Arrays are C-contiguous float64: the state theta (B, d_x),
 * or (S, B, d_x) for the two-timescale loop, gamma (B, d_z, d_x),
 * U (B, d_x, d_x) and V (B, d_z, d_z). The samples are read in place from
 * each trial's own blocks: z, x, x_prime and y are tables of B addresses, one
 * block per trial, and a window steps rows t0, ..., t0 + rows - 1 of them, so
 * row t of trial i is z[i] + t * d_z, x[i] + t * d_x, x_prime[i] + t * d_x
 * and y[i][t]. alphas and betas hold the window's steps, one per row. Every
 * loop takes the same (t0, rows, alphas, betas) tail and ignores the steps
 * it does not take. Trials never read each other's state, so each trial runs
 * through the whole window in turn.
 *
 * Each loop clears the floating-point exception flags when it starts and
 * returns those its arithmetic raised, as numpy's NPY_FPE_* bits (see
 * fp_events), or -1 if it cannot allocate its work rows.
 */
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t blasint;

enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

typedef double ddot_fn(blasint n, const double *x, blasint incx, const double *y, blasint incy);
typedef void dgemv_fn(int order, int trans, blasint m, blasint n, double alpha, const double *a, blasint lda,
                      const double *x, blasint incx, double beta, double *y, blasint incy);
/* A table of B blocks, one per trial, each read in place. */
typedef const double *const *blocks;

static ddot_fn *ddot;
static dgemv_fn *dgemv;

/* numpy's own scipy_cblas_ddot64_ and scipy_cblas_dgemv64_; set before any loop runs. */
void use_blas(ddot_fn *numpy_ddot, dgemv_fn *numpy_dgemv)
{
    ddot = numpy_ddot;
    dgemv = numpy_dgemv;
}

/* The flags raised since the loop began: divide 1, overflow 2, underflow 4, invalid 8, as numpy's. */
static int fp_events(void)
{
    int raised = fetestexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW | FE_INVALID);
    return (raised & FE_DIVBYZERO ? 1 : 0) | (raised & FE_OVERFLOW ? 2 : 0) | (raised & FE_UNDERFLOW ? 4 : 0) |
           (raised & FE_INVALID ? 8 : 0);
}

/*
 * The steps of a regressor's fit at t = start + 1, ..., start + rows for n
 * schedules, terms[2j] * pow(t, -terms[2j + 1]) into steps[j * rows + t - start - 1]:
 * libm's pow, as schedule.step calls it. A constant step has exponent 0, as
 * pow(t, -0.) is exactly 1. A schedule that shares its exponent with the one
 * before it shares its pow.
 */
void fit_steps(blasint rows, blasint start, blasint n, const double *terms, double *steps)
{
    for (blasint i = 0; i < rows; i++) {
        double t = (double)(start + 1 + i), power = 0.0;
        for (blasint j = 0; j < n; j++) {
            if (j == 0 || terms[2 * j + 1] != terms[2 * j - 1])
                power = pow(t, -terms[2 * j + 1]);
            steps[j * rows + i] = terms[2 * j] * power;
        }
    }
}

/* A sum of one term is 0. + a * b, as ddot and dgemv (alpha 1, beta 0) compute it; longer sums call them. */
static double vecdot(blasint n, const double *a, const double *b)
{
    return n == 1 ? 0. + a[0] * b[0] : 0. + ddot(n, a, 1, b, 1);
}

static void matvec(blasint m, blasint n, const double *a, const double *x, double *out)
{
    if (n == 1)
        for (blasint k = 0; k < m; k++)
            out[k] = 0. + a[k] * x[0];
    else
        dgemv(ROW_MAJOR, NO_TRANS, m, n, 1.0, a, n, x, 1, 0.0, out, 1);
}

static void vecmat(blasint n, blasint m, const double *x, const double *a, double *out)
{
    if (m == 1)
        out[0] = vecdot(n, x, a);
    else if (n == 1)
        for (blasint k = 0; k < m; k++)
            out[k] = 0. + x[0] * a[k];
    else
        dgemv(ROW_MAJOR, TRANS, n, m, 1.0, a, m, x, 1, 0.0, out, 1);
}

/*
 * two_sample_update: theta -= (alpha * (x . theta - y)) * x_prime.
 * The next row's dot reads back the theta this update stores. Stored in 256-
 * or 512-bit vectors, as -march=native would on an AVX-512 CPU, a row of
 * d_x = 4 or 8 made this loop 4-11% slower per row than 128-bit stores
 * (measured on an AVX-512 Xeon), so it alone keeps to 128-bit vectors.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target("prefer-vector-width=128")))
#endif
int two_sample_window(blasint b, blasint d_x, double *theta, blocks x, blocks x_prime, blocks y, blasint t0,
                      blasint rows, const double *alphas, const double *betas)
{
    (void)betas;
    feclearexcept(FE_ALL_EXCEPT);
    for (blasint i = 0; i < b; i++) {
        double *th = theta + i * d_x;
        for (blasint t = 0; t < rows; t++) {
            const double *x_t = x[i] + (t0 + t) * d_x, *xp_t = x_prime[i] + (t0 + t) * d_x;
            double resid = (vecdot(d_x, x_t, th) - y[i][t0 + t]) * alphas[t];
            for (blasint k = 0; k < d_x; k++)
                th[k] -= resid * xp_t[k];
        }
    }
    return fp_events();
}

/*
 * S thetas on one gamma: theta s takes the raw residual x . theta - y when
 * direct[s], else the predicted one (z^T gamma) . theta - y.
 */
int two_timescale_window(blasint b, blasint d_z, blasint d_x, blasint s, const char *direct, double *theta,
                         double *gamma, blocks z, blocks x, blocks y, blasint t0, blasint rows,
                         const double *alphas, const double *betas)
{
    double *zg = malloc((size_t)(d_x + s) * sizeof(double)), *resid = zg + d_x;
    if (zg == NULL)
        return -1;
    feclearexcept(FE_ALL_EXCEPT);
    for (blasint i = 0; i < b; i++) {
        double *g = gamma + i * d_z * d_x;
        for (blasint t = 0; t < rows; t++) {
            const double *z_t = z[i] + (t0 + t) * d_z, *x_t = x[i] + (t0 + t) * d_x;
            vecmat(d_z, d_x, z_t, g, zg);
            for (blasint j = 0; j < s; j++)
                resid[j] = vecdot(d_x, direct[j] ? x_t : zg, theta + (j * b + i) * d_x);
            for (blasint j = 0; j < s; j++) {
                double *th = theta + (j * b + i) * d_x, r = (resid[j] - y[i][t0 + t]) * alphas[t];
                for (blasint k = 0; k < d_x; k++)
                    th[k] -= r * zg[k];
            }
            for (blasint k = 0; k < d_x; k++)
                zg[k] -= x_t[k];
            for (blasint l = 0; l < d_z; l++) {
                double bz = betas[t] * z_t[l];
                for (blasint k = 0; k < d_x; k++)
                    g[l * d_x + k] -= bz * zg[k];
            }
        }
    }
    int events = fp_events();
    free(zg);
    return events;
}

/*
 * online_2sls_update. A trial whose rank-one denominator is not positive,
 * where the 1-d kernel raises, ends the window with every entry of its
 * state NaN; a NaN denominator does not hide a non-positive one.
 */
int online_2sls_window(blasint b, blasint d_z, blasint d_x, double *theta, double *gamma, double *u, double *v,
                       blocks z, blocks x, blocks y, blasint t0, blasint rows, const double *alphas,
                       const double *betas)
{
    (void)alphas, (void)betas;
    double *w = malloc((size_t)(4 * d_x + 2 * d_z) * sizeof(double));
    if (w == NULL)
        return -1;
    feclearexcept(FE_ALL_EXCEPT);
    double *uw = w + d_x, *gain_u = uw + d_x, *x_w = gain_u + d_x, *vz = x_w + d_x, *gain_v = vz + d_z;
    for (blasint i = 0; i < b; i++) {
        double *th = theta + i * d_x, *g = gamma + i * d_z * d_x, *u_i = u + i * d_x * d_x,
               *v_i = v + i * d_z * d_z;
        for (blasint t = 0; t < rows; t++) {
            const double *z_t = z[i] + (t0 + t) * d_z, *x_t = x[i] + (t0 + t) * d_x;
            vecmat(d_z, d_x, z_t, g, w);
            matvec(d_z, d_z, v_i, z_t, vz);
            double denom_v = vecdot(d_z, z_t, vz);
            matvec(d_x, d_x, u_i, w, uw);
            double denom_u = vecdot(d_x, w, uw);
            denom_u += 1.0;
            denom_v += 1.0;
            if (denom_u <= 0.0 || denom_v <= 0.0) {
                for (double *p = th; p < th + d_x; p++) *p = NAN;
                for (double *p = g; p < g + d_z * d_x; p++) *p = NAN;
                for (double *p = u_i; p < u_i + d_x * d_x; p++) *p = NAN;
                for (double *p = v_i; p < v_i + d_z * d_z; p++) *p = NAN;
                break;
            }
            for (blasint l = 0; l < d_z; l++)
                gain_v[l] = vz[l] / denom_v;
            for (blasint l = 0; l < d_z; l++)
                for (blasint m = 0; m < d_z; m++)
                    v_i[l * d_z + m] -= vz[l] * gain_v[m];
            for (blasint k = 0; k < d_x; k++)
                x_w[k] = x_t[k] - w[k];
            for (blasint l = 0; l < d_z; l++)
                for (blasint k = 0; k < d_x; k++)
                    g[l * d_x + k] += gain_v[l] * x_w[k];
            for (blasint k = 0; k < d_x; k++)
                gain_u[k] = uw[k] / denom_u;
            for (blasint k = 0; k < d_x; k++)
                for (blasint m = 0; m < d_x; m++)
                    u_i[k * d_x + m] -= uw[k] * gain_u[m];
            double resid = y[i][t0 + t] - vecdot(d_x, w, th);
            for (blasint k = 0; k < d_x; k++)
                th[k] += gain_u[k] * resid;
        }
    }
    int events = fp_events();
    free(w);
    return events;
}
