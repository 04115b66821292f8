/*
 * Window loops of ivstream.estimators: B trials stepped through a window of
 * rows of their sample blocks, updating the state in place. The normal
 * sampler of ivstream.dgp, standard_normals, follows them, then the
 * checkpoint metrics of ivstream.harness, checkpoint_metrics, and last the
 * formatter of ivstream.cli's CSV values, shortest_reprs (with use_pow5), so
 * that adding each moved no function before it. checkpoint_metrics computes
 * each theta's metrics with the loops' vecdot and matvec, numpy's bits:
 *   dist_sq              np.vecdot(d, d), d = theta - theta_star
 *   test_mse             np.vecdot(r, r) / test_n, r = test_y - np.matvec(test_x, theta)
 *
 * Each trial's iterates are bitwise equal to numpy's gufuncs on the same
 * buffers, because every product whose sum has more than one term calls the
 * OpenBLAS routine numpy itself calls, with the same arguments:
 *   np.vecdot(a, b)      0. + ddot(n, a, 1, b, 1)
 *   np.matvec(A, x)      dgemv(RowMajor, NoTrans) on the C-contiguous (m, n) A,
 *                        and one ddot when A has a single row (m = 1: only a
 *                        held-out set of one row; the loops' A are square)
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
 * vectorise are the elementwise updates and, at d = 1, the loops over trials
 * (see the row steps below), where each element is still one multiply and one
 * subtract, add or divide, each correctly rounded in any instruction set the
 * CPU has, and no multiply and add are fused; every sum of more than one term
 * is a BLAS call, and gcc reorders no floating-point sum without -ffast-math
 * (or -fassociative-math).
 * Arrays are C-contiguous float64: the state theta (B, d_x),
 * or (S, B, d_x) for the two-timescale loop, gamma (B, d_z, d_x),
 * U (B, d_x, d_x) and V (B, d_z, d_z). The samples are read in place from
 * each trial's own blocks: z, x, x_prime and y are tables of B addresses, one
 * block per trial, and a window steps rows t0, ..., t0 + rows - 1 of them, so
 * row t of trial i is z[i] + t * d_z, x[i] + t * d_x, x_prime[i] + t * d_x
 * and y[i][t]. alphas and betas hold the window's steps, one per row. Every
 * loop takes the same (t0, rows, alphas, betas) tail and ignores the steps
 * it does not take. Trials never read each other's state, so the trials of a
 * window may step in any order: each row steps every trial, in SIMD lanes at
 * d_x = d_z = 1 (d_x = 1 for two_sample_window), except that
 * online_2sls_window at d > 1 runs each trial through the whole window in
 * turn.
 *
 * Each loop clears the floating-point exception flags when it starts and
 * returns those its arithmetic raised, as numpy's NPY_FPE_* bits (see
 * fp_events), or -1 if it cannot allocate its work rows. online_2sls_window
 * adds NOT_POSITIVE when a trial's rank-one denominator was not positive.
 */
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t blasint;

enum { NOT_POSITIVE = 16 };

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
static inline double vecdot(blasint n, const double *a, const double *b)
{
    return n == 1 ? 0. + a[0] * b[0] : 0. + ddot(n, a, 1, b, 1);
}

static inline void matvec(blasint m, blasint n, const double *a, const double *x, double *out)
{
    if (n == 1)
        for (blasint k = 0; k < m; k++)
            out[k] = 0. + a[k] * x[0];
    else
        dgemv(ROW_MAJOR, NO_TRANS, m, n, 1.0, a, n, x, 1, 0.0, out, 1);
}

static inline void vecmat(blasint n, blasint m, const double *x, const double *a, double *out)
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
 * Each update is written once, as a static inline step of one trial on one
 * row (*_row). two_sample_window and two_timescale_window call it in one loop
 * nest (*_rows), rows outer and trials inner, at every d; online_2sls_window
 * is the one loop with a second order (it says why). At d = 1 the nest is
 * called with constant sizes (*_lanes), so every product is the inline
 * 0. + a * b, and gcc vectorises the loop over trials: the B trials'
 * independent chains of operations run side by side in SIMD lanes, each lane
 * loading its trial's row through the address tables. At d > 1 a row step
 * calls BLAS, and the trials of a row run one after another. A lane does its
 * trial's scalar operations in the scalar order, with no sum across lanes,
 * and a trial runs the same operations in either order, so each trial's bits
 * are the same in either order and at any vector width, and a window's events
 * are the OR of each trial's own. A streaming 2SLS trial whose denominator is
 * not positive is NaN from that row on, in either order, and the quiet NaN
 * arithmetic of its later steps raises no event. A
 * trial's work values are its own: locals of the loop body, or its entries of
 * an array. gcc cannot tell the state it stores from the blocks it loads
 * through the tables, so "#pragma GCC ivdep" states what holds: a trial's
 * iteration writes only its own state and work values, and the blocks are
 * only read.
 *
 * The lane loops are functions of their own, compiled for 256-bit vectors: at
 * B = 6, 512-bit vectors leave every trial to the 256-bit remainder loop and
 * the scalar one, and a 512-bit divide takes about twice as long as a 256-bit
 * one; streaming 2SLS took 30-55% more per trial-row at B = 4 and 6 with
 * 512-bit vectors (measured on an AVX-512 Xeon).
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define LANE_LOOP __attribute__((noinline, target("prefer-vector-width=256")))
#else
#define LANE_LOOP __attribute__((noinline))
#endif

/* two_sample_update on row t of one trial: theta -= (alpha * (x . theta - y)) * x_prime. */
static inline void two_sample_row(blasint d_x, double *th, const double *x_t, const double *xp_t, double y,
                                  double alpha)
{
    double resid = (vecdot(d_x, x_t, th) - y) * alpha;
    for (blasint k = 0; k < d_x; k++)
        th[k] -= resid * xp_t[k];
}

/* two_sample_window's loop nest: each row steps every trial. */
static inline void two_sample_rows(blasint b, blasint d_x, double *theta, blocks x, blocks x_prime, blocks y,
                                   blasint t0, blasint rows, const double *alphas)
{
    for (blasint t = 0; t < rows; t++)
#pragma GCC ivdep
        for (blasint i = 0; i < b; i++)
            two_sample_row(d_x, theta + i * d_x, x[i] + (t0 + t) * d_x, x_prime[i] + (t0 + t) * d_x, y[i][t0 + t],
                           alphas[t]);
}

/* The nest at d_x = 1, in SIMD lanes. */
LANE_LOOP
static void two_sample_lanes(blasint b, double *theta, blocks x, blocks x_prime, blocks y, blasint t0, blasint rows,
                             const double *alphas)
{
    two_sample_rows(b, 1, theta, x, x_prime, y, t0, rows, alphas);
}

/*
 * At d_x > 1 a trial's next row follows closely when B is small, and its dot
 * reads back the theta this row stores. Stored in 256- or 512-bit vectors, as
 * -march=native would on an AVX-512 CPU, the nest took 27% more per
 * trial-row at B = 1, d_x = 8 and 11% more at B = 27, d_x = 4 than with
 * 128-bit stores (measured on an AVX-512 Xeon), so this instantiation keeps to
 * 128-bit vectors.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target("prefer-vector-width=128")))
#endif
int two_sample_window(blasint b, blasint d_x, double *theta, blocks x, blocks x_prime, blocks y, blasint t0,
                      blasint rows, const double *alphas, const double *betas)
{
    (void)betas;
    feclearexcept(FE_ALL_EXCEPT);
    if (d_x == 1)
        two_sample_lanes(b, theta, x, x_prime, y, t0, rows, alphas);
    else
        two_sample_rows(b, d_x, theta, x, x_prime, y, t0, rows, alphas);
    return fp_events();
}

/*
 * The S thetas of one trial on its gamma, on row t: theta s, at th + s * stride,
 * takes the raw residual x . theta - y when direct[s], else the predicted one
 * (z^T gamma) . theta - y. zg holds d_x values and resid S.
 */
static inline void two_timescale_row(blasint d_z, blasint d_x, blasint s, const char *direct, double *th,
                                     blasint stride, double *g, const double *z_t, const double *x_t, double y,
                                     double alpha, double beta, double *zg, double *resid)
{
    vecmat(d_z, d_x, z_t, g, zg);
    for (blasint j = 0; j < s; j++)
        resid[j] = vecdot(d_x, direct[j] ? x_t : zg, th + j * stride);
    for (blasint j = 0; j < s; j++) {
        double *th_j = th + j * stride, r = (resid[j] - y) * alpha;
        for (blasint k = 0; k < d_x; k++)
            th_j[k] -= r * zg[k];
    }
    for (blasint k = 0; k < d_x; k++)
        zg[k] -= x_t[k];
    for (blasint l = 0; l < d_z; l++) {
        double bz = beta * z_t[l];
        for (blasint k = 0; k < d_x; k++)
            g[l * d_x + k] -= bz * zg[k];
    }
}

/* The thetas of a d = 1 lane: at most LANE_THETAS, so that zg and resid fit in a local array. */
enum { LANE_THETAS = 2 };

/*
 * two_timescale_window's loop nest: each row steps every trial. A trial's zg
 * and resid are a local array of its iteration when they fit in one, as at
 * d = 1, where they stay in registers, else its d_x + S entries of work.
 */
static inline void two_timescale_rows(blasint b, blasint d_z, blasint d_x, blasint s, const char *direct,
                                      double *theta, double *gamma, blocks z, blocks x, blocks y, blasint t0,
                                      blasint rows, const double *alphas, const double *betas, double *work)
{
    for (blasint t = 0; t < rows; t++)
#pragma GCC ivdep
        for (blasint i = 0; i < b; i++) {
            double local[1 + LANE_THETAS], *zg = d_x + s <= 1 + LANE_THETAS ? local : work + i * (d_x + s);
            two_timescale_row(d_z, d_x, s, direct, theta + i * d_x, b * d_x, gamma + i * d_z * d_x,
                              z[i] + (t0 + t) * d_z, x[i] + (t0 + t) * d_x, y[i][t0 + t], alphas[t], betas[t], zg,
                              zg + d_x);
        }
}

/* The nest at d_x = d_z = 1, in SIMD lanes (gcc makes a copy of it for each constant S it is called with). */
LANE_LOOP
static void two_timescale_lanes(blasint b, blasint s, const char *direct, double *theta, double *gamma, blocks z,
                                blocks x, blocks y, blasint t0, blasint rows, const double *alphas,
                                const double *betas)
{
    /* a copy that no store of the loop may alias, so that the flags are read once, not per trial and row */
    char flags[LANE_THETAS];
    memcpy(flags, direct, (size_t)s);
    two_timescale_rows(b, 1, 1, s, flags, theta, gamma, z, x, y, t0, rows, alphas, betas, NULL);
}

/* S thetas on one gamma (see two_timescale_row). */
int two_timescale_window(blasint b, blasint d_z, blasint d_x, blasint s, const char *direct, double *theta,
                         double *gamma, blocks z, blocks x, blocks y, blasint t0, blasint rows,
                         const double *alphas, const double *betas)
{
    if (d_z == 1 && d_x == 1 && (s == 1 || s == LANE_THETAS)) {
        feclearexcept(FE_ALL_EXCEPT);
        if (s == 1)
            two_timescale_lanes(b, 1, direct, theta, gamma, z, x, y, t0, rows, alphas, betas);
        else
            two_timescale_lanes(b, LANE_THETAS, direct, theta, gamma, z, x, y, t0, rows, alphas, betas);
        return fp_events();
    }
    double *work = malloc((size_t)(b * (d_x + s)) * sizeof(double));
    if (work == NULL)
        return -1;
    feclearexcept(FE_ALL_EXCEPT);
    two_timescale_rows(b, d_z, d_x, s, direct, theta, gamma, z, x, y, t0, rows, alphas, betas, work);
    int events = fp_events();
    free(work);
    return events;
}

/*
 * online_2sls_update on row t of one trial, in two halves. The first computes
 * w = z^T gamma, V z, U w and the two rank-one denominators; the second, run
 * only when both are positive, updates the state, with d_x values in gain_u
 * and x_w and d_z in gain_v.
 */
static inline void online_2sls_denominators(blasint d_z, blasint d_x, const double *g, const double *u_i,
                                            const double *v_i, const double *z_t, double *w, double *vz,
                                            double *uw, double *denom_u, double *denom_v)
{
    vecmat(d_z, d_x, z_t, g, w);
    matvec(d_z, d_z, v_i, z_t, vz);
    double dv = vecdot(d_z, z_t, vz);
    matvec(d_x, d_x, u_i, w, uw);
    *denom_u = vecdot(d_x, w, uw) + 1.0;
    *denom_v = dv + 1.0;
}

/*
 * Whether a denominator is not positive: +-0, or a number other than NaN with
 * its sign bit set. On a NaN it must raise no invalid event, as numpy's
 * comparison raises none. <= would, and gcc vectorises islessequal with a
 * compare that does, so this compares only with ==, which is quiet, and the
 * sign copied onto 1.0, which is never a NaN.
 */
static inline int not_positive(double denom)
{
    return (denom == 0.0) | ((copysign(1.0, denom) < 0.0) & (denom == denom));
}

static inline void online_2sls_apply(blasint d_z, blasint d_x, double *th, double *g, double *u_i, double *v_i,
                                     const double *x_t, double y, const double *w, const double *vz,
                                     const double *uw, double denom_u, double denom_v, double *gain_u,
                                     double *x_w, double *gain_v)
{
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
    double resid = y - vecdot(d_x, w, th);
    for (blasint k = 0; k < d_x; k++)
        th[k] += gain_u[k] * resid;
}

/*
 * The whole row: NOT_POSITIVE, with every entry of the trial's state set to
 * NaN, when a denominator is not positive (where the 1-d kernel raises),
 * else 0. work holds 4 * d_x + 2 * d_z values.
 */
static inline int online_2sls_row(blasint d_z, blasint d_x, double *th, double *g, double *u_i, double *v_i,
                                  const double *z_t, const double *x_t, double y, double *work)
{
    double *w = work, *uw = w + d_x, *gain_u = uw + d_x, *x_w = gain_u + d_x, *vz = x_w + d_x, *gain_v = vz + d_z;
    double denom_u, denom_v;
    online_2sls_denominators(d_z, d_x, g, u_i, v_i, z_t, w, vz, uw, &denom_u, &denom_v);
    if (not_positive(denom_u) | not_positive(denom_v)) {
        for (double *p = th; p < th + d_x; p++) *p = NAN;
        for (double *p = g; p < g + d_z * d_x; p++) *p = NAN;
        for (double *p = u_i; p < u_i + d_x * d_x; p++) *p = NAN;
        for (double *p = v_i; p < v_i + d_z * d_z; p++) *p = NAN;
        return NOT_POSITIVE;
    }
    online_2sls_apply(d_z, d_x, th, g, u_i, v_i, x_t, y, w, vz, uw, denom_u, denom_v, gain_u, x_w, gain_v);
    return 0;
}

/*
 * online_2sls_window's rows at d_x = d_z = 1, trials inner. A row computes
 * every trial's denominators; then, in a row where one is not positive, each
 * trial with such a denominator has its state and its row values set to NaN;
 * then the row updates every trial. A NaN trial's update, in that row and
 * every later one, is quiet NaN arithmetic, which raises no event and keeps
 * every entry the NaN it is, so once each of the B trials has ended in the
 * window the loop stops. (A trial that came in NaN never ends here, as its
 * denominators are NaN.) work holds 5 values per trial. Returns NOT_POSITIVE
 * if a trial ended.
 */
LANE_LOOP
static int online_2sls_lanes(blasint b, double *theta, double *gamma, double *u, double *v, blocks z, blocks x,
                             blocks y, blasint t0, blasint rows, double *work)
{
    double *w = work, *vz = w + b, *uw = vz + b, *denom_u = uw + b, *denom_v = denom_u + b;
    blasint ended = 0;
    for (blasint t = t0; t < t0 + rows; t++) {
        int bad = 0;
#pragma GCC ivdep
        for (blasint i = 0; i < b; i++) {
            online_2sls_denominators(1, 1, gamma + i, u + i, v + i, z[i] + t, w + i, vz + i, uw + i, denom_u + i,
                                     denom_v + i);
            bad |= not_positive(denom_u[i]) | not_positive(denom_v[i]);
        }
        if (bad) {
            for (blasint i = 0; i < b; i++)
                if (not_positive(denom_u[i]) | not_positive(denom_v[i])) {
                    theta[i] = gamma[i] = u[i] = v[i] = NAN;
                    w[i] = vz[i] = uw[i] = denom_u[i] = denom_v[i] = NAN;
                    ended++;
                }
            if (ended == b)
                break;
        }
#pragma GCC ivdep
        for (blasint i = 0; i < b; i++) {
            double gain_u[1], x_w[1], gain_v[1];
            online_2sls_apply(1, 1, theta + i, gamma + i, u + i, v + i, x[i] + t, y[i][t], w + i, vz + i, uw + i,
                              denom_u[i], denom_v[i], gain_u, x_w, gain_v);
        }
    }
    return ended ? NOT_POSITIVE : 0;
}

/*
 * online_2sls_update. A trial whose rank-one denominator is not positive,
 * where the 1-d kernel raises, is NaN from that row on: every entry of its
 * state is NaN, and the loop returns NOT_POSITIVE among its events; a NaN
 * denominator does not hide a non-positive one. At d > 1 the loop goes on to
 * the next trial, as that trial's later rows would step NaN on NaN.
 *
 * This is the one loop with two orders: rows outer at d = 1, and at d > 1
 * each trial through the whole window in turn. At d > 1 a rows-outer nest of
 * online_2sls_row took 4-8% more per trial-row than this order at B = 1, 6
 * and 10, at d_x = 4, d_z = 8 and at d_x = 8, d_z = 16 (measured on an
 * AVX-512 Xeon).
 */
int online_2sls_window(blasint b, blasint d_z, blasint d_x, double *theta, double *gamma, double *u, double *v,
                       blocks z, blocks x, blocks y, blasint t0, blasint rows, const double *alphas,
                       const double *betas)
{
    (void)alphas, (void)betas;
    int lanes = d_z == 1 && d_x == 1, not_positive_seen = 0;
    double *work = malloc((size_t)(lanes ? 5 * b : 4 * d_x + 2 * d_z) * sizeof(double));
    if (work == NULL)
        return -1;
    feclearexcept(FE_ALL_EXCEPT);
    if (lanes)
        not_positive_seen = online_2sls_lanes(b, theta, gamma, u, v, z, x, y, t0, rows, work);
    else
        for (blasint i = 0; i < b; i++)
            for (blasint t = t0; t < t0 + rows; t++) {
                int ended = online_2sls_row(d_z, d_x, theta + i * d_x, gamma + i * d_z * d_x, u + i * d_x * d_x,
                                            v + i * d_z * d_z, z[i] + t * d_z, x[i] + t * d_x, y[i][t], work);
                if (ended) {
                    not_positive_seen = ended;
                    break;
                }
            }
    int events = fp_events() | not_positive_seen;
    free(work);
    return events;
}

/*
 * The normal sampler of ivstream.dgp: numpy's Generator.standard_normal on a
 * PCG64 bit generator, bit for bit, stepping the generator's state in place.
 * It is numpy's PCG64 step (the 128-bit LCG, then the XSL-RR output of the
 * new state) inlined into numpy's 256-layer normal ziggurat
 * (random_standard_normal in numpy/random/src/distributions): the same draws,
 * the same tables, the same operations in the same order, and the same slow
 * paths, the idx-0 tail through log1p and the wedge test through exp. The
 * sign is applied by XOR-ing the sign bit, which is exactly numpy's negation
 * without its branch. exp and log1p are the process's glibc libm, the one
 * numpy's random module calls, resolved by glibc for the same CPU. numpy
 * binds exp's older GLIBC_2.2.5 version, a wrapper that differs from the
 * default exp only in how it reports overflow and underflow, which the wedge
 * test's exp(-x * x / 2), |x| < 3.66, never reaches.
 *
 * normal() reads its words from a word source. Without AVX-512F and
 * AVX-512DQ the source is the LCG stepped once per word. With them (the
 * build's CPU macros choose; there is no option), 16 lanes of the same LCG
 * draw the words ahead into a buffer, in stream order: lane j starts j + 1
 * steps past the state and then jumps 16 steps at a time, state ->
 * A * state + C with A = m^16 and C = inc * (m^15 + ... + m + 1), the closed
 * form PCG64.advance uses. The 128-bit product is built from 64-bit lanes:
 * vpmullq for the low words, a 32-bit vpmuludq high product for the carry
 * into the high word, and vprorvq for XSL-RR. Word k of the buffer is then
 * the output of the LCG's state k + 1 steps on, the word the scalar step
 * returns k + 1 calls later, so both sources give the same words. The fast
 * path runs normal()'s layer test on 8 words at once: it gathers wi and ki,
 * scales the 52 bits (exact in a double) by wi in one rounded multiply, and
 * XORs in the sign, the operations of the scalar test element by element.
 * When all 8 pass, it stores 8 normals; otherwise it stores the passing
 * prefix and leaves the first failing word unread, and normal() reads it
 * again and goes on to the tail or the wedge, taking any further words from
 * the same buffer. So each normal uses the same words as numpy's, in the
 * same order. On exit the state is the entry state advanced by the words
 * used, by the same closed form, which is where numpy leaves it; the words
 * drawn ahead and not used are dropped.
 *
 * The tables are numpy's ki_double, wi_double and fi_double
 * (numpy/random/src/distributions/ziggurat_constants.h; copyright the NumPy
 * Developers, under numpy's BSD-3-Clause license), as the bit patterns of
 * their 64-bit entries: ki compares with the 52 random bits, wi scales them,
 * fi is the ziggurat's height at each layer.
 */
union zig_table {
    uint64_t bits[256];
    double value[256];
};

static const union zig_table zig_ki = {{
    0x000ef33d8025ef6a, 0x0000000000000000, 0x000c08be98fbc6a8, 0x000da354fabd8142,
    0x000e51f67ec1eeea, 0x000eb255e9d3f77e, 0x000eef4b817ecab9, 0x000f19470afa44aa,
    0x000f37ed61ffcb18, 0x000f4f469561255c, 0x000f61a5e41ba396, 0x000f707a755396a4,
    0x000f7cb2ec28449a, 0x000f86f10c6357d3, 0x000f8fa6578325de, 0x000f9724c74dd0da,
    0x000f9da907dbf509, 0x000fa360f581fa74, 0x000fa86fde5b4bf8, 0x000facf160d354dc,
    0x000fb0fb6718b90f, 0x000fb49f8d5374c6, 0x000fb7ec2366fe77, 0x000fbaece9a1e50e,
    0x000fbdab9d040bed, 0x000fc03060ff6c57, 0x000fc2821037a248, 0x000fc4a67ae25bd1,
    0x000fc6a2977aee31, 0x000fc87aa92896a4, 0x000fca325e4bde85, 0x000fcbcce902231a,
    0x000fcd4d12f839c4, 0x000fceb54d8fec99, 0x000fd007bf1dc930, 0x000fd1464dd6c4e6,
    0x000fd272a8e2f450, 0x000fd38e4ff0c91e, 0x000fd49a9990b478, 0x000fd598b8920f53,
    0x000fd689c08e99ec, 0x000fd76ea9c8e832, 0x000fd848547b08e8, 0x000fd9178bad2c8c,
    0x000fd9dd07a7add2, 0x000fda9970105e8c, 0x000fdb4d5dc02e20, 0x000fdbf95c5bfcd0,
    0x000fdc9debb99a7d, 0x000fdd3b8118729d, 0x000fddd288342f90, 0x000fde6364369f64,
    0x000fdeee708d514e, 0x000fdf7401a6b42e, 0x000fdff46599ed40, 0x000fe06fe4bc24f2,
    0x000fe0e6c225a258, 0x000fe1593c28b84c, 0x000fe1c78cbc3f99, 0x000fe231e9db1caa,
    0x000fe29885da1b91, 0x000fe2fb8fb54186, 0x000fe35b33558d4a, 0x000fe3b799d0002a,
    0x000fe410e99ead7f, 0x000fe46746d47734, 0x000fe4bad34c095c, 0x000fe50baed29524,
    0x000fe559f74ebc78, 0x000fe5a5c8e41212, 0x000fe5ef3e138689, 0x000fe6366fd91078,
    0x000fe67b75c6d578, 0x000fe6be661e11aa, 0x000fe6ff55e5f4f2, 0x000fe73e5900a702,
    0x000fe77b823e9e39, 0x000fe7b6e37070a2, 0x000fe7f08d774243, 0x000fe8289053f08c,
    0x000fe85efb35173a, 0x000fe893dc840864, 0x000fe8c741f0cebc, 0x000fe8f9387d4ef6,
    0x000fe929cc879b1d, 0x000fe95909d388ea, 0x000fe986fb939aa2, 0x000fe9b3ac714866,
    0x000fe9df2694b6d5, 0x000fea0973abe67c, 0x000fea329cf166a4, 0x000fea5aab32952c,
    0x000fea81a6d5741a, 0x000feaa797de1cf0, 0x000feacc85f3d920, 0x000feaf07865e63c,
    0x000feb13762fec13, 0x000feb3585fe2a4a, 0x000feb56ae3162b4, 0x000feb76f4e284fa,
    0x000feb965fe62014, 0x000febb4f4cf9d7c, 0x000febd2b8f449d0, 0x000febefb16e2e3e,
    0x000fec0be31ebde8, 0x000fec2752b15a15, 0x000fec42049dafd3, 0x000fec5bfd29f196,
    0x000fec75406ceef4, 0x000fec8dd2500cb4, 0x000feca5b6911f12, 0x000fecbcf0c427fe,
    0x000fecd38454fb15, 0x000fece97488c8b3, 0x000fecfec47f91b7, 0x000fed1377358528,
    0x000fed278f844903, 0x000fed3b10242f4c, 0x000fed4dfbad586e, 0x000fed605498c3dd,
    0x000fed721d414fe8, 0x000fed8357e4a982, 0x000fed9406a42cc8, 0x000feda42b85b704,
    0x000fedb3c8746ab4, 0x000fedc2df416652, 0x000fedd171a46e52, 0x000feddf813c8ad3,
    0x000feded0f909980, 0x000fedfa1e0fd414, 0x000fee06ae124bc4, 0x000fee12c0d95a06,
    0x000fee1e579006e0, 0x000fee29734b6524, 0x000fee34150ae4bc, 0x000fee3e3db89b3c,
    0x000fee47ee2982f4, 0x000fee51271db086, 0x000fee59e9407f41, 0x000fee623528b42e,
    0x000fee6a0b5897f1, 0x000fee716c3e077a, 0x000fee7858327b82, 0x000fee7ecf7b06ba,
    0x000fee84d2484ab2, 0x000fee8a60b66343, 0x000fee8f7accc851, 0x000fee94207e25da,
    0x000fee9851a829ea, 0x000fee9c0e13485c, 0x000fee9f557273f4, 0x000feea22762ccae,
    0x000feea4836b42ac, 0x000feea668fc2d71, 0x000feea7d76ed6fa, 0x000feea8ce04fa0a,
    0x000feea94be8333b, 0x000feea950296410, 0x000feea8d9c0075e, 0x000feea7e7897654,
    0x000feea678481d24, 0x000feea48aa29e83, 0x000feea21d22e4da, 0x000fee9f2e352024,
    0x000fee9bbc26af2e, 0x000fee97c524f2e4, 0x000fee93473c0a3a, 0x000fee8e40557516,
    0x000fee88ae369c7a, 0x000fee828e7f3dfd, 0x000fee7bdea7b888, 0x000fee749bff37ff,
    0x000fee6cc3a9bd5e, 0x000fee64529e007e, 0x000fee5b45a32888, 0x000fee51994e57b6,
    0x000fee474a0006cf, 0x000fee3c53e12c50, 0x000fee30b2e02ad8, 0x000fee2462ad8205,
    0x000fee175eb83c5a, 0x000fee09a22a1447, 0x000fedfb27e349cc, 0x000fedebea76216c,
    0x000feddbe422047e, 0x000fedcb0ece39d3, 0x000fedb964042cf4, 0x000feda6dce938c9,
    0x000fed937237e98d, 0x000fed7f1c38a836, 0x000fed69d2b9c02b, 0x000fed538d06ae00,
    0x000fed3c41dea422, 0x000fed23e76a2fd8, 0x000fed0a732fe644, 0x000fecefda07fe34,
    0x000fecd4100eb7b8, 0x000fecb708956eb4, 0x000fec98b61230c1, 0x000fec790a0da978,
    0x000fec57f50f31fe, 0x000fec356686c962, 0x000fec114cb4b335, 0x000febeb948e6fd0,
    0x000febc429a0b692, 0x000feb9af5ee0cdc, 0x000feb6fe1c98542, 0x000feb42d3ad1f9e,
    0x000feb13b00b2d4b, 0x000feae2591a02e9, 0x000feaaeae992257, 0x000fea788d8ee326,
    0x000fea3fcffd73e5, 0x000fea044c8dd9f6, 0x000fe9c5d62f563b, 0x000fe9843ba947a4,
    0x000fe93f471d4728, 0x000fe8f6bd76c5d6, 0x000fe8aa5dc4e8e6, 0x000fe859e07ab1ea,
    0x000fe804f690a940, 0x000fe7ab488233c0, 0x000fe74c751f6aa5, 0x000fe6e8102aa202,
    0x000fe67da0b6abd8, 0x000fe60c9f38307e, 0x000fe5947338f742, 0x000fe51470977280,
    0x000fe48bd436f458, 0x000fe3f9bffd1e37, 0x000fe35d35eeb19c, 0x000fe2b5122fe4fe,
    0x000fe20003995557, 0x000fe13c82788314, 0x000fe068c4ee67b0, 0x000fdf82b02b71aa,
    0x000fde87c57efeaa, 0x000fdd7509c63bfd, 0x000fdc46e529bf13, 0x000fdaf8f82e0282,
    0x000fd985e1b2ba75, 0x000fd7e6ef48cf04, 0x000fd613adbd650b, 0x000fd40149e2f012,
    0x000fd1a1a7b4c7ac, 0x000fcee204761f9e, 0x000fcba8d85e11b2, 0x000fc7d26ecd2d22,
    0x000fc32b2f1e22ed, 0x000fbd6581c0b83a, 0x000fb606c4005434, 0x000fac40582a2874,
    0x000f9e971e014598, 0x000f89fa48a41dfc, 0x000f66c5f7f0302c, 0x000f1a5a4b331c4a
}};
static const union zig_table zig_wi = {{
    0x3ccf493b7815d979, 0x3c8b8d0be3fdf6c6, 0x3c9250af3c2c5bb4, 0x3c957cb938443b61,
    0x3c9801fce82fa70c, 0x3c9a230c2e4cd0bc, 0x3c9c004d2f3861f7, 0x3c9dac2f5a747274,
    0x3c9f32482d4cd5c3, 0x3ca04d32278ebbad, 0x3ca0f5053b025d43, 0x3ca192a697413677,
    0x3ca227a28f7a1af5, 0x3ca2b52e3863d880, 0x3ca33c3fc05791f5, 0x3ca3bd9ec1a2b12f,
    0x3ca439ef8dff9b55, 0x3ca4b1bb363dfea7, 0x3ca52575621ad374, 0x3ca59580a707ce96,
    0x3ca60231cfd97eea, 0x3ca66bd261a37c3d, 0x3ca6d2a292000570, 0x3ca736dad346f8a6,
    0x3ca798ad10b32a77, 0x3ca7f845ad46f543, 0x3ca855cc53430a77, 0x3ca8b1649e7b769a,
    0x3ca90b2ea94ecf98, 0x3ca96347822c1eea, 0x3ca9b9c98e38c546, 0x3caa0eccdca4a72c,
    0x3caa62676d77cd59, 0x3caab4ad6e101630, 0x3cab05b16d136c9c, 0x3cab558487427a29,
    0x3caba4368e529f3a, 0x3cabf1d62abf8232, 0x3cac3e70f9594ef3, 0x3cac8a13a5323b61,
    0x3cacd4c9fe72268b, 0x3cad1e9f0e80b748, 0x3cad679d29e41f10, 0x3cadafce0023b8c3,
    0x3cadf73aa9f17653, 0x3cae3debb5d2edfe, 0x3cae83e9337a6f00, 0x3caec93abdf982ce,
    0x3caf0de784f06226, 0x3caf51f654d8f688, 0x3caf956d9e87d7ae, 0x3cafd8537dfa2eac,
    0x3cb00d56e04234ec, 0x3cb02e40f5398f9a, 0x3cb04eea9e16a5fc, 0x3cb06f565b72a010,
    0x3cb08f869071f40b, 0x3cb0af7d84bc6113, 0x3cb0cf3d664bcc7f, 0x3cb0eec84b16086b,
    0x3cb10e20329515ee, 0x3cb12d4707310fbe, 0x3cb14c3e9f8e9141, 0x3cb16b08bfc4201e,
    0x3cb189a71a78da34, 0x3cb1a81b51ee6d88, 0x3cb1c666f8f82acb, 0x3cb1e48b93e0d42e,
    0x3cb2028a9940a09f, 0x3cb2206572c4c6e9, 0x3cb23e1d7de9c31f, 0x3cb25bb40ca96bfb,
    0x3cb2792a661dd37f, 0x3cb29681c719d71b, 0x3cb2b3bb62b82eda, 0x3cb2d0d862e1b853,
    0x3cb2edd9e8cba98e, 0x3cb30ac10d6e48d7, 0x3cb3278ee1f4b930, 0x3cb3444470265ea1,
    0x3cb360e2baca52d5, 0x3cb37d6abe05586a, 0x3cb399dd6fb2b264, 0x3cb3b63bbfb83d03,
    0x3cb3d28698561de0, 0x3cb3eebede725a83, 0x3cb40ae571e09e74, 0x3cb426fb2da6745d,
    0x3cb44300e83c30a4, 0x3cb45ef773cac75d, 0x3cb47adf9e66c336, 0x3cb496ba32488f2f,
    0x3cb4b287f602415d, 0x3cb4ce49acb311dc, 0x3cb4ea001638a605, 0x3cb505abef5e5562,
    0x3cb5214df20a8b5a, 0x3cb53ce6d56a664f, 0x3cb558774e1bb2c8, 0x3cb574000e555f78,
    0x3cb58f81c60e8514, 0x3cb5aafd23241b59, 0x3cb5c672d17d733d, 0x3cb5e1e37b2f8cd3,
    0x3cb5fd4fc89f5e38, 0x3cb618b860a31fc3, 0x3cb6341de8a2b0a2, 0x3cb64f8104b7260b,
    0x3cb66ae257c99672, 0x3cb6864283b13137, 0x3cb6a1a22950b2b1, 0x3cb6bd01e8b343bb,
    0x3cb6d8626128d352, 0x3cb6f3c43161f854, 0x3cb70f27f78b68eb, 0x3cb72a8e516914c6,
    0x3cb745f7dc70eedc, 0x3cb7616535e5731f, 0x3cb77cd6faeff449, 0x3cb7984dc8babd93,
    0x3cb7b3ca3c8b1409, 0x3cb7cf4cf3db22fb, 0x3cb7ead68c73dee7, 0x3cb80667a486ea1f,
    0x3cb82200dac88676, 0x3cb83da2ce899f15, 0x3cb8594e1fd1f5bd, 0x3cb875036f7a7ec5,
    0x3cb890c35f47f72d, 0x3cb8ac8e9205c043, 0x3cb8c865aba10c9c, 0x3cb8e44951446a27,
    0x3cb9003a2973b58f, 0x3cb91c38dc288347, 0x3cb9384612ef0afc, 0x3cb954627903a28a,
    0x3cb9708ebb70d5ee, 0x3cb98ccb892e2a31, 0x3cb9a919933f99bf, 0x3cb9c5798cd5d92c,
    0x3cb9e1ec2b6f7411, 0x3cb9fe7226fad24a, 0x3cba1b0c39f93692, 0x3cba37bb21a2c85b,
    0x3cba547f9e0bbb88, 0x3cba715a724aa9a4, 0x3cba8e4c64a0313d, 0x3cbaab563e9ff108,
    0x3cbac878cd5af5ce, 0x3cbae5b4e18bb336, 0x3cbb030b4fc3a11a, 0x3cbb207cf09a985b,
    0x3cbb3e0aa0e00c00, 0x3cbb5bb541ce3d03, 0x3cbb797db93f8927, 0x3cbb9764f1e5f73c,
    0x3cbbb56bdb85256e, 0x3cbbd3936b2ec0a2, 0x3cbbf1dc9b81ae83, 0x3cbc10486cec16a0,
    0x3cbc2ed7e5f07a2d, 0x3cbc4d8c136e0d1c, 0x3cbc6c6608ec8705, 0x3cbc8b66e0eba617,
    0x3cbcaa8fbd36a2ab, 0x3cbcc9e1c73bd690, 0x3cbce95e3068e037, 0x3cbd0906328b8f6e,
    0x3cbd28db1037ef20, 0x3cbd48de1533c647, 0x3cbd691096e7f123, 0x3cbd8973f4d7fba5,
    0x3cbdaa0999206e70, 0x3cbdcad2f8fc490e, 0x3cbdebd195522e37, 0x3cbe0d06fb49d21c,
    0x3cbe2e74c4ea46f6, 0x3cbe501c99c1d188, 0x3cbe72002f97fe25, 0x3cbe94214b2abf0a,
    0x3cbeb681c0f76f08, 0x3cbed9237610a73a, 0x3cbefc086101eca9, 0x3cbf1f328ac25321,
    0x3cbf42a40fb74d6d, 0x3cbf665f20c90168, 0x3cbf8a6604899782, 0x3cbfaebb187122bf,
    0x3cbfd360d22fe785, 0x3cbff859c118f60b, 0x3cc00ed447d3a075, 0x3cc021a8028fc947,
    0x3cc034a983a902ab, 0x3cc047da4e3ef5c7, 0x3cc05b3bf6adb37e, 0x3cc06ed023a72668,
    0x3cc082988f632e17, 0x3cc0969708e8a254, 0x3cc0aacd7571c0c4, 0x3cc0bf3dd1eed448,
    0x3cc0d3ea34aa3d30, 0x3cc0e8d4cf116593, 0x3cc0fdffefa69fb6, 0x3cc1136e04207041,
    0x3cc129219bbb5d35, 0x3cc13f1d69c4096d, 0x3cc1556448602e3b, 0x3cc16bf93b9deef3,
    0x3cc182df74d21261, 0x3cc19a1a564eebac, 0x3cc1b1ad777f2f8e, 0x3cc1c99ca971a694,
    0x3cc1e1ebfbe4ae39, 0x3cc1fa9fc2e2d901, 0x3cc213bc9d04cc81, 0x3cc22d477a6fd3ee,
    0x3cc24745a4ac9c24, 0x3cc261bcc77658e0, 0x3cc27cb2faa8592e, 0x3cc2982ecd770e78,
    0x3cc2b437532a0a52, 0x3cc2d0d43196db97, 0x3cc2ee0db1a978f5, 0x3cc30becd256aeee,
    0x3cc32a7b5e68a4a3, 0x3cc349c405ae12a3, 0x3cc369d27a33a840, 0x3cc38ab39256410a,
    0x3cc3ac7570ae88fa, 0x3cc3cf27b31704a6, 0x3cc3f2dbaa60f475, 0x3cc417a49cb9e5da,
    0x3cc43d9815545e94, 0x3cc464ce44a73a15, 0x3cc48d62759c43bc, 0x3cc4b7739d6b5a27,
    0x3cc4e3250dcd8902, 0x3cc5109f53e9ac41, 0x3cc54011523a7e42, 0x3cc571b1a94ae41b,
    0x3cc5a5c08b718dd9, 0x3cc5dc8a243ad0fe, 0x3cc61669cf861e4c, 0x3cc653ce7b006aea,
    0x3cc69540be9fe5c3, 0x3cc6db6b8d09e232, 0x3cc72728f05f7a34, 0x3cc7799556090673,
    0x3cc7d42df4d6ce8c, 0x3cc839030529f234, 0x3cc8ab0fbfaa7c14, 0x3cc92ee0946f4496,
    0x3cc9cbee014057ab, 0x3cca8fdc7894775a, 0x3ccb981f3878fdb1, 0x3ccd3bb48209ad33
}};
static const union zig_table zig_fi = {{
    0x3ff0000000000000, 0x3fef446ac979f087, 0x3feeb7545b6ca915, 0x3fee3f11e027f077,
    0x3fedd36fa704de95, 0x3fed70920657bcf2, 0x3fed144978a119dc, 0x3fecbd33a8a72deb,
    0x3fec6a5ecea9787f, 0x3fec1b1cd9eebaea, 0x3febceeb4ee1dc82, 0x3feb85653a8ff552,
    0x3feb3e3a8234dd10, 0x3feaf92a3f6ce8a2, 0x3feab5fef17a2504, 0x3fea748bd550c9e1,
    0x3fea34aafdf5af0f, 0x3fe9f63bee651fd8, 0x3fe9b9228d240681, 0x3fe97d4657617ac1,
    0x3fe94291c21b7a47, 0x3fe908f1bd31714f, 0x3fe8d0554fe60aa8, 0x3fe898ad48badf02,
    0x3fe861ebfc37bcac, 0x3fe82c050f56cf6e, 0x3fe7f6ed4b20e2cb, 0x3fe7c29a779c6858,
    0x3fe78f033ca0b0d5, 0x3fe75c1f0770d856, 0x3fe729e5f43f6d12, 0x3fe6f850baea7aee,
    0x3fe6c7589e635a89, 0x3fe696f75e513b2a, 0x3fe667272a92e323, 0x3fe637e298550c18,
    0x3fe6092498802665, 0x3fe5dae86f4aff6a, 0x3fe5ad29acc85c89, 0x3fe57fe4264c8d8f,
    0x3fe55313f08d9e46, 0x3fe526b55a656cd5, 0x3fe4fac4e820b667, 0x3fe4cf3f4f494ec0,
    0x3fe4a42172dc5278, 0x3fe479685fdf5012, 0x3fe44f114a493679, 0x3fe425198a355fe3,
    0x3fe3fb7e99585b82, 0x3fe3d23e10af31a3, 0x3fe3a955a662cd0e, 0x3fe380c32bda00d5,
    0x3fe358848bf550e9, 0x3fe33097c9703a35, 0x3fe308fafd6438ef, 0x3fe2e1ac55ea3bee,
    0x3fe2baaa14d7954a, 0x3fe293f28e93cd15, 0x3fe26d84290504ed, 0x3fe2475d5a90db84,
    0x3fe2217ca92ff7f2, 0x3fe1fbe0a9929620, 0x3fe1d687fe549969, 0x3fe1b171573fd111,
    0x3fe18c9b709b3c50, 0x3fe16805128639da, 0x3fe143ad105ea99c, 0x3fe11f9248311f38,
    0x3fe0fbb3a2325913, 0x3fe0d810104142a0, 0x3fe0b4a68d70d9ae, 0x3fe091761d995d81,
    0x3fe06e7dccf03c36, 0x3fe04bbcafa63f2e, 0x3fe02931e18b822a, 0x3fe006dc85b8cac4,
    0x3fdfc9778c7bbda1, 0x3fdf859da7a900ca, 0x3fdf4229cb2f7af3, 0x3fdeff1a717e8f95,
    0x3fdebc6e20bd1f54, 0x3fde7a236a4ec3c5, 0x3fde3838ea5f9b85, 0x3fddf6ad47763a09,
    0x3fddb57f320b56b1, 0x3fdd74ad6426de33, 0x3fdd3436a1021080, 0x3fdcf419b4ae5b6d,
    0x3fdcb45573c0a848, 0x3fdc74e8bb00d7c7, 0x3fdc35d26f1d2cb8, 0x3fdbf7117c616a17,
    0x3fdbb8a4d6716d91, 0x3fdb7a8b7807131b, 0x3fdb3cc462b331ca, 0x3fdaff4e9ea18552,
    0x3fdac2293a5f5a9e, 0x3fda85534aa4d880, 0x3fda48cbea20c04d, 0x3fda0c923946843e,
    0x3fd9d0a55e1e93df, 0x3fd995048418c0c6, 0x3fd959aedbe09f93, 0x3fd91ea39b33cb17,
    0x3fd8e3e1fcb9f115, 0x3fd8a9693fde9188, 0x3fd86f38a8ac5ab6, 0x3fd8354f7faa0dd9,
    0x3fd7fbad11b8d911, 0x3fd7c250aff414b0, 0x3fd78939af9252eb, 0x3fd7506769c7b1ed,
    0x3fd717d93ba9614c, 0x3fd6df8e86124caa, 0x3fd6a786ad88de21, 0x3fd66fc11a25cbe2,
    0x3fd6383d377be515, 0x3fd600fa7480d2c8, 0x3fd5c9f84376c244, 0x3fd5933619d6eebe,
    0x3fd55cb3703d0100, 0x3fd5266fc2533bed, 0x3fd4f06a8ebf6d92, 0x3fd4baa357109ca2,
    0x3fd485199fad6ad4, 0x3fd44fccefc324fe, 0x3fd41abcd1357a19, 0x3fd3e5e8d08ed2db,
    0x3fd3b1507cf143ae, 0x3fd37cf368081379, 0x3fd348d125f9d19e, 0x3fd314e94d5af62f,
    0x3fd2e13b77210766, 0x3fd2adc73e963fdd, 0x3fd27a8c414db11e, 0x3fd2478a1f17de89,
    0x3fd214c079f7cc9e, 0x3fd1e22ef6188116, 0x3fd1afd539c2f050, 0x3fd17db2ed5454e8,
    0x3fd14bc7bb34ee67, 0x3fd11a134fcf2423, 0x3fd0e895598709c4, 0x3fd0b74d88b242da,
    0x3fd0863b8f904336, 0x3fd0555f2242e9d9, 0x3fd024b7f6c7747e, 0x3fcfe88b89df93c5,
    0x3fcf88108cb83235, 0x3fcf27fe6ce998d2, 0x3fcec854a4c99c44, 0x3fce6912b2283cdd,
    0x3fce0a3816457184, 0x3fcdabc455c7900a, 0x3fcd4db6f8b2514f, 0x3fccf00f8a5e6fcc,
    0x3fcc92cd9971df53, 0x3fcc35f0b7d89d47, 0x3fcbd9787abe18a1, 0x3fcb7d647a8731aa,
    0x3fcb21b452ccd13a, 0x3fcac667a2571807, 0x3fca6b7e0b19267e, 0x3fca10f7322d7e3d,
    0x3fc9b6d2bfd2fe5a, 0x3fc95d105f6a7c27, 0x3fc903afbf74fa69, 0x3fc8aab09192815b,
    0x3fc852128a819a38, 0x3fc7f9d5621f7175, 0x3fc7a1f8d368a323, 0x3fc74a7c9c7ab5a6,
    0x3fc6f3607e964716, 0x3fc69ca43e21f25c, 0x3fc64647a2adf19c, 0x3fc5f04a76f883f9,
    0x3fc59aac88f31d6c, 0x3fc5456da9c86835, 0x3fc4f08dade31fc1, 0x3fc49c0c6cf5ce2d,
    0x3fc447e9c20375d5, 0x3fc3f4258b6931ae, 0x3fc3a0bfaae8d7ee, 0x3fc34db805b4ab88,
    0x3fc2fb0e847c2a65, 0x3fc2a8c3137a071a, 0x3fc256d5a2835eb7, 0x3fc2054625183c34,
    0x3fc1b41492757d42, 0x3fc16340e5a82d63, 0x3fc112cb1da26eb9, 0x3fc0c2b33d5209ba,
    0x3fc072f94bb8bf85, 0x3fc0239d54067d2a, 0x3fbfa93ecb6b222c, 0x3fbf0bff29520e1c,
    0x3fbe6f7bf29aa54b, 0x3fbdd3b56176e88f, 0x3fbd38abb9bd91e5, 0x3fbc9e5f493b740a,
    0x3fbc04d0680b1015, 0x3fbb6bff78f2e233, 0x3fbad3ece9caf633, 0x3fba3c9933ea6286,
    0x3fb9a604dc9d5b19, 0x3fb9103075a4a0ab, 0x3fb87b1c9dbf2852, 0x3fb7e6ca013eefd6,
    0x3fb753395aaa1176, 0x3fb6c06b73694a4c, 0x3fb62e6124854d18, 0x3fb59d1b577466a4,
    0x3fb50c9b06fa2bae, 0x3fb47ce1401b2213, 0x3fb3edef23269a86, 0x3fb35fc5e4d93e70,
    0x3fb2d266cf9b3111, 0x3fb245d344dd0d91, 0x3fb1ba0cbe97897d, 0x3fb12f14d0f2179d,
    0x3fb0a4ed2c159625, 0x3fb01b979e30e497, 0x3faf262c2b6c6e35, 0x3fae16d547b25181,
    0x3fad092efeadf162, 0x3fabfd3e0f282a2c, 0x3faaf30790385f70, 0x3fa9ea90f9295563,
    0x3fa8e3e02a68b5ab, 0x3fa7defb77af271e, 0x3fa6dbe9b398d064, 0x3fa5dab23cf2add4,
    0x3fa4db5d0e11275d, 0x3fa3ddf2ce98eecb, 0x3fa2e27ce83df497, 0x3fa1e9059f1f6abc,
    0x3fa0f1982e968011, 0x3f9ff881d718a5c4, 0x3f9e121adb828c75, 0x3f9c301983cd091a,
    0x3f9a529f4e22ebf8, 0x3f9879d1b600c10a, 0x3f96a5daf40bbf82, 0x3f94d6eaf2fbb064,
    0x3f930d388dab5e13, 0x3f91490334603012, 0x3f8f152a4f72dd49, 0x3f8ba48d274f8fac,
    0x3f8841040d8da478, 0x3f84eb96421acfe0, 0x3f81a59229952f92, 0x3f7ce160f8ec6837,
    0x3f769ea8d90cb85d, 0x3f708a1f03b0b1fd, 0x3f655f9f43c1b067, 0x3f54a605b6b9f70f
}};

/* ziggurat_nor_r and ziggurat_nor_inv_r, as numpy rounds them. */
static const double zig_r = 0x1.d3bb48209ad33p+1, zig_inv_r = 0x1.183aa6c20e8c1p-2;

typedef unsigned __int128 pcg128;

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128. */
static const pcg128 pcg_multiplier = (pcg128)0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL;

/* numpy's PCG64 next64: one LCG step, then the XSL-RR output of the new state. */
static inline uint64_t pcg64_next(pcg128 *state, pcg128 inc)
{
    *state = *state * pcg_multiplier + inc;
    uint64_t v = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (v >> rot) | (v << (-rot & 63));
}

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>

/*
 * The LCG's jump by delta steps, state -> *mult * state + *plus, by square and
 * multiply (numpy's pcg_advance_lcg_128, which PCG64.advance calls).
 */
static void pcg64_jump(uint64_t delta, pcg128 inc, pcg128 *mult, pcg128 *plus)
{
    pcg128 m = pcg_multiplier, p = inc, acc_mult = 1, acc_plus = 0;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            acc_mult *= m;
            acc_plus = acc_plus * m + p;
        }
        p *= m + 1;
        m *= m;
    }
    *mult = acc_mult;
    *plus = acc_plus;
}

enum { ZIG_LANES = 16, ZIG_WORDS = 1024 }; /* ZIG_WORDS: the most words one refill draws */

/*
 * The stream's words, drawn ahead into buf by ZIG_LANES lanes of the LCG:
 * lane j holds element j % 8 of hi[j / 8] and lo[j / 8], the high and low
 * words of the state whose output is the next word at offset j of a round.
 * left is the number of normals the call still owes, which bounds how far
 * ahead a refill draws.
 */
struct words {
    __m512i hi[2], lo[2];
    __m512i jump_hi, jump_lo, plus_hi, plus_lo;
    uint64_t *next, *end, drawn;
    blasint left;
    uint64_t buf[ZIG_WORDS + 8];
};

/* The high words of a * b, 64 by 64 bits in each element, from four 32 by 32-bit products; b_32 is b >> 32. */
static inline __m512i mulhi_epu64(__m512i a, __m512i b, __m512i b_32)
{
    const __m512i low32 = _mm512_set1_epi64(0xffffffff);
    __m512i a_32 = _mm512_srli_epi64(a, 32);
    __m512i ll = _mm512_mul_epu32(a, b), hl = _mm512_mul_epu32(a_32, b);
    __m512i lh = _mm512_mul_epu32(a, b_32), hh = _mm512_mul_epu32(a_32, b_32);
    __m512i mid = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
    __m512i cross = _mm512_add_epi64(_mm512_and_si512(mid, low32), lh);
    return _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(mid, 32)), _mm512_srli_epi64(cross, 32));
}

/* Draws rounds of ZIG_LANES words into buf after the unread ones, enough for the normals owed. */
static void refill(struct words *src)
{
    blasint kept = src->end - src->next, rounds = (src->left + 8 - kept + ZIG_LANES - 1) / ZIG_LANES;
    if (rounds > ZIG_WORDS / ZIG_LANES)
        rounds = ZIG_WORDS / ZIG_LANES;
    for (blasint k = 0; k < kept; k++) /* fewer than 8 */
        src->buf[k] = src->next[k];
    uint64_t *w = src->buf + kept;
    __m512i hi[2] = {src->hi[0], src->hi[1]}, lo[2] = {src->lo[0], src->lo[1]};
    const __m512i jump_hi = src->jump_hi, jump_lo = src->jump_lo, jump_lo32 = _mm512_srli_epi64(jump_lo, 32);
    const __m512i plus_hi = src->plus_hi, plus_lo = src->plus_lo, ones = _mm512_set1_epi64(-1);
    for (blasint r = 0; r < rounds; r++)
        for (int v = 0; v < 2; v++, w += 8) {
            __m512i out = _mm512_xor_si512(hi[v], lo[v]);
            _mm512_storeu_si512(w, _mm512_rorv_epi64(out, _mm512_srli_epi64(hi[v], 58)));
            /* state = jump * state + plus, mod 2^128 */
            __m512i new_hi = _mm512_add_epi64(mulhi_epu64(lo[v], jump_lo, jump_lo32),
                                              _mm512_add_epi64(_mm512_mullo_epi64(lo[v], jump_hi),
                                                               _mm512_mullo_epi64(hi[v], jump_lo)));
            lo[v] = _mm512_add_epi64(_mm512_mullo_epi64(lo[v], jump_lo), plus_lo);
            __mmask8 carry = _mm512_cmplt_epu64_mask(lo[v], plus_lo);
            hi[v] = _mm512_add_epi64(new_hi, plus_hi);
            hi[v] = _mm512_mask_sub_epi64(hi[v], carry, hi[v], ones);
        }
    for (int v = 0; v < 2; v++) {
        src->hi[v] = hi[v];
        src->lo[v] = lo[v];
    }
    src->next = src->buf;
    src->end = w;
    src->drawn += (uint64_t)rounds * ZIG_LANES;
}

/* The lanes at the stream's state and an empty buffer (not cleared: a refill writes each word it holds). */
static void start_words(struct words *src, pcg128 state, pcg128 inc)
{
    uint64_t lane_hi[ZIG_LANES], lane_lo[ZIG_LANES];
    for (int j = 0; j < ZIG_LANES; j++) { /* lane j starts j + 1 steps ahead */
        state = state * pcg_multiplier + inc;
        lane_hi[j] = (uint64_t)(state >> 64);
        lane_lo[j] = (uint64_t)state;
    }
    for (int v = 0; v < 2; v++) {
        src->hi[v] = _mm512_loadu_si512(lane_hi + 8 * v);
        src->lo[v] = _mm512_loadu_si512(lane_lo + 8 * v);
    }
    pcg128 mult, plus;
    pcg64_jump(ZIG_LANES, inc, &mult, &plus);
    src->jump_hi = _mm512_set1_epi64((int64_t)(uint64_t)(mult >> 64));
    src->jump_lo = _mm512_set1_epi64((int64_t)(uint64_t)mult);
    src->plus_hi = _mm512_set1_epi64((int64_t)(uint64_t)(plus >> 64));
    src->plus_lo = _mm512_set1_epi64((int64_t)(uint64_t)plus);
    src->next = src->end = src->buf;
    src->drawn = 0;
}

static inline uint64_t next_word(struct words *src)
{
    if (src->next == src->end)
        refill(src);
    return *src->next++;
}
#else
struct words {
    pcg128 state, inc;
};

static inline uint64_t next_word(struct words *src)
{
    return pcg64_next(&src->state, src->inc);
}
#endif

/* numpy's next_double: the top 53 bits, scaled into [0, 1). */
static inline double next_double(struct words *src)
{
    return (double)(next_word(src) >> 11) * (1.0 / 9007199254740992.0);
}

/* x with its sign bit XOR-ed with bit 0 of sign: -x when it is set, exactly. */
static inline double flip_sign(double x, uint64_t sign)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (sign & 1) << 63;
    memcpy(&x, &bits, sizeof x);
    return x;
}

static double normal(struct words *src)
{
    for (;;) {
        uint64_t r = next_word(src);
        int idx = r & 0xff;
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = flip_sign((double)rabs * zig_wi.value[idx], r);
        if (rabs < zig_ki.bits[idx])
            return x; /* 99.3% of draws */
        if (idx == 0) {
            for (;;) {
                double xx = -zig_inv_r * log1p(-next_double(src));
                double yy = -log1p(-next_double(src));
                if (yy + yy > xx * xx)
                    return flip_sign(zig_r + xx, rabs >> 8);
            }
        }
        if ((zig_fi.value[idx - 1] - zig_fi.value[idx]) * next_double(src) + zig_fi.value[idx] < exp(-0.5 * x * x))
            return x;
    }
}

/*
 * n standard normals into out, drawn from the PCG64 generator whose numpy
 * pcg64_state is at state_address (BitGenerator.ctypes.state_address): its
 * first field points at the generator's {state, inc}, two unsigned __int128.
 * The state is then the one numpy's standard_normal would have left.
 */
void standard_normals(const void *state_address, blasint n, double *out)
{
    pcg128 *pcg, state, inc;
    memcpy(&pcg, state_address, sizeof pcg);
    memcpy(&state, &pcg[0], sizeof state);
    memcpy(&inc, &pcg[1], sizeof inc);
#if defined(__AVX512F__) && defined(__AVX512DQ__)
    struct words src;
    start_words(&src, state, inc);
    pcg128 mult, plus;
    const __m512i byte = _mm512_set1_epi64(0xff), mantissa = _mm512_set1_epi64(0x000fffffffffffffLL);
    const __m512i sign = _mm512_set1_epi64(INT64_MIN);
    for (blasint i = 0; i < n;) {
        if (src.end - src.next < 8) {
            src.left = n - i;
            refill(&src);
        }
        /* normal()'s layer test on the next 8 words at once */
        uint64_t *next = src.next;
        __m512i r = _mm512_loadu_si512(next);
        __m512i idx = _mm512_and_si512(r, byte), rabs = _mm512_and_si512(_mm512_srli_epi64(r, 9), mantissa);
        __m512d x = _mm512_mul_pd(_mm512_cvtepu64_pd(rabs), _mm512_i64gather_pd(idx, zig_wi.value, 8));
        x = _mm512_xor_pd(x, _mm512_castsi512_pd(_mm512_and_si512(_mm512_slli_epi64(r, 55), sign)));
        unsigned accept = _mm512_cmplt_epu64_mask(rabs, _mm512_i64gather_epi64(idx, zig_ki.bits, 8));
        /* A branch, not the accepted count, moves on by 8: the next load need not wait for this test. */
        if (accept == 0xff && n - i >= 8) {
            _mm512_storeu_pd(out + i, x);
            src.next = next + 8;
            i += 8;
            continue;
        }
        blasint k = __builtin_ctz(~accept); /* the accepted prefix */
        if (k > n - i)
            k = n - i;
        _mm512_mask_storeu_pd(out + i, (__mmask8)((1u << k) - 1), x);
        i += k;
        src.next = next + k;
        if (i < n) { /* the first rejected word: normal() reads it again and goes on */
            src.left = n - i;
            out[i++] = normal(&src);
        }
    }
    pcg64_jump(src.drawn - (uint64_t)(src.end - src.next), inc, &mult, &plus);
    state = mult * state + plus;
#else
    struct words src = {state, inc};
    for (blasint i = 0; i < n; i++)
        out[i] = normal(&src);
    state = src.state;
#endif
    memcpy(&pcg[0], &state, sizeof state);
}

/*
 * The harness's checkpoint metrics of a lane's S thetas (S, B, d_x), each
 * written to column col of its (B, checkpoints) rows, row i at i * stride:
 * dist[j] gets theta j's dist_sq, vecdot(d, d) with d = theta - theta_star,
 * and, when test_n > 0, mse[j] its test_mse, vecdot(r, r) / test_n with
 * r = test_y - matvec(test_x, theta) over trial i's held-out set, test_x[i]
 * (test_n, d_x) and test_y[i] (test_n,). work holds d_x + test_n doubles. It
 * returns the number of thetas with a finite dist_sq in some trial.
 */
blasint checkpoint_metrics(blasint s, blasint b, blasint d_x, const double *theta, const double *theta_star,
                           blasint test_n, blocks test_x, blocks test_y, double *const *dist, double *const *mse,
                           double *work, blasint stride, blasint col)
{
    double *d = work, *r = work + d_x;
    blasint finite = 0;
    for (blasint j = 0; j < s; j++) {
        int any = 0;
        for (blasint i = 0; i < b; i++) {
            const double *th = theta + (j * b + i) * d_x;
            for (blasint k = 0; k < d_x; k++)
                d[k] = th[k] - theta_star[k];
            double sq = vecdot(d_x, d, d);
            dist[j][i * stride + col] = sq;
            any |= isfinite(sq) != 0;
            if (test_n > 0) {
                if (test_n == 1) /* numpy's matvec takes the dot of a single row, not dgemv */
                    r[0] = vecdot(d_x, test_x[i], th);
                else
                    matvec(test_n, d_x, test_x[i], th, r);
                for (blasint k = 0; k < test_n; k++)
                    r[k] = test_y[i][k] - r[k];
                mse[j][i * stride + col] = vecdot(test_n, r, r) / (double)test_n;
            }
        }
        finite += any;
    }
    return finite;
}

/*
 * The text float.__repr__ gives each of n doubles, each followed by a
 * newline, into out, which holds 25 bytes per value (the longest text,
 * -2.2250738585072014e-308, and its newline); returns the bytes written. The digits are Ryu's (Adams, PLDI 2018): the shortest decimal
 * that rounds back to the double, of those the closest to it, and of two
 * equally close the one with an even last digit, which are the digits of
 * David Gay's dtoa in mode 0, the routine repr calls. The layout is repr's:
 * positional for 1e-4 <= |x| < 1e16 with ".0" on an integral value,
 * d[.ddd]e+XX or e-XX with at least two exponent digits otherwise, and
 * "-0.0", "inf", "-inf", "nan". Integer arithmetic only, on the 125-bit
 * tables of 5^q and 2^j / 5^q that ivstream._native computes with Python's
 * integers and hands over through use_pow5 before the first call.
 */
enum { POW5_BITS = 125 };

static const uint64_t *pow5_inv, *pow5_pos;

/* Row q of inv is floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1 and row i of pos the top 125 bits of 5^i, (low, high). */
void use_pow5(const uint64_t *inv, const uint64_t *pos)
{
    pow5_inv = inv;
    pow5_pos = pos;
}

/* The bit length of 5^e, 1 for e = 0; floor(log10(2^e)); floor(log10(5^e)). */
static inline int pow5_bits(int e) { return (int)(((uint32_t)e * 1217359) >> 19) + 1; }
static inline int log10_pow2(int e) { return (int)(((uint32_t)e * 78913) >> 18); }
static inline int log10_pow5(int e) { return (int)(((uint32_t)e * 732923) >> 20); }

static inline int multiple_of_pow5(uint64_t v, int p)
{
    int count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

/* (m * mul) >> j for the 128-bit mul at row, j >= 64. */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *row, int j)
{
    pcg128 low = (pcg128)m * row[0], high = (pcg128)m * row[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest digits of the positive finite m2 * 2^e2 (Ryu's d2d), as digits * 10^*e10. */
static uint64_t shortest(uint64_t m2, int e2, int even, int mm_shift, int *e10)
{
    uint64_t mv = 4 * m2, vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0, removed = 0, last = 0;
    if (e2 >= 0) {
        int q = log10_pow2(e2) - (e2 > 3), j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *row = pow5_inv + 2 * q;
        vr = mul_shift(mv, row, j);
        vp = mul_shift(mv + 2, row, j);
        vm = mul_shift(mv - 1 - mm_shift, row, j);
        *e10 = q;
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        int q = log10_pow5(-e2) - (-e2 > 1), i = -e2 - q, j = q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *row = pow5_pos + 2 * i;
        vr = mul_shift(mv, row, j);
        vp = mul_shift(mv + 2, row, j);
        vm = mul_shift(mv - 1 - mm_shift, row, j);
        *e10 = q + e2;
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ULL << q) - 1)) == 0;
        }
    }
    if (vm_zeros || vr_zeros) {
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10, vp /= 10, vm /= 10;
        }
        if (vm_zeros)
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = (int)(vr % 10);
                vr /= 10, vp /= 10, vm /= 10;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly half way: the even digit */
        *e10 += removed;
        return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    }
    for (; vp / 10 > vm / 10; removed++) {
        last = (int)(vr % 10);
        vr /= 10, vp /= 10, vm /= 10;
    }
    *e10 += removed;
    return vr + (vr == vm || last >= 5);
}

static char *repr(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mantissa = bits & ((1ULL << 52) - 1);
    int exponent = (int)(bits >> 52) & 0x7ff;
    if (exponent == 0x7ff && mantissa != 0) {
        *p++ = 'n', *p++ = 'a', *p++ = 'n';
        return p;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff) {
        *p++ = 'i', *p++ = 'n', *p++ = 'f';
        return p;
    }
    if (exponent == 0 && mantissa == 0) {
        *p++ = '0', *p++ = '.', *p++ = '0';
        return p;
    }
    int e10;
    uint64_t m2 = exponent ? mantissa | 1ULL << 52 : mantissa;
    uint64_t v = shortest(m2, (exponent ? exponent : 1) - 1077, (m2 & 1) == 0, mantissa != 0 || exponent <= 1, &e10);
    char digits[20];
    int n = 0;
    for (; v; v /= 10)
        digits[19 - n++] = (char)('0' + v % 10);
    const char *d = digits + 20 - n;
    int point = e10 + n; /* x = 0.d * 10^point */
    if (point <= 0 && point > -4) {
        *p++ = '0';
        *p++ = '.';
        for (int k = point; k < 0; k++)
            *p++ = '0';
        for (int k = 0; k < n; k++)
            *p++ = d[k];
        return p;
    }
    if (point > 0 && point <= 16) {
        for (int k = 0; k < n || k < point; k++) {
            if (k == point)
                *p++ = '.';
            *p++ = k < n ? d[k] : '0';
        }
        if (point >= n) {
            *p++ = '.';
            *p++ = '0';
        }
        return p;
    }
    *p++ = d[0];
    if (n > 1)
        *p++ = '.';
    for (int k = 1; k < n; k++)
        *p++ = d[k];
    int e = point - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    e = e < 0 ? -e : e;
    if (e >= 100)
        *p++ = (char)('0' + e / 100);
    *p++ = (char)('0' + e / 10 % 10);
    *p++ = (char)('0' + e % 10);
    return p;
}

blasint shortest_reprs(blasint n, const double *x, char *out)
{
    char *p = out;
    for (blasint i = 0; i < n; i++) {
        p = repr(x[i], p);
        *p++ = '\n';
    }
    return p - out;
}
