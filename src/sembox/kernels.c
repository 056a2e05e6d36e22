/* The element kernels of sembox: the right-hand side and the modal
 * filter, one fused loop per element.
 *
 * Compiled per order with -DNN=n (nodes per direction) by kernels.py and
 * called through ctypes.  Every batch is node-major, (y, z, element, x):
 * the node (i, j, k) of element e of an E-element batch sits at
 * ((j * NN + k) * E + e) * NN + i, and a point-field row holds NV
 * variables.  Inside an element the kernels hold structure-of-arrays
 * copies in element order, [k][j][i] (z, y, x).
 *
 * The bytes equal those of the numpy kernels they replaced (the test
 * oracles), which takes three things.  The build keeps every product
 * and sum apart (-ffp-contract=off); the pointwise arithmetic runs in
 * numpy's order, one rounding per operation; and every contraction is
 * an explicit fma chain from +0.0 in ascending l, which is what the
 * BLAS's small-k GEMM kernel computes.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#ifndef NN
#error "compile with -DNN=<nodes per direction>"
#endif

#define NV 5
#define N2 (NN * NN)
#define N3 (NN * NN * NN)

/* The kernels' verdict on a gather index outside the point field */
#define BAD_INDEX INT64_MIN

/* The NV rows of the ``n_points``-row field ``state`` at the element's
 * nodes into element-order arrays ``q``, and, unless ``p`` is NULL, the
 * values of the point fields ``p`` and ``r`` there into ``pe`` and
 * ``re``; 0 (the gather unfinished) for an index outside the field,
 * else 1. */
static int gather(const double *state, const double *p, const double *r,
                  int64_t n_points, const int64_t *gids, int64_t E, int64_t e,
                  double q[NV][N3], double pe[N3], double re[N3])
{
    for (int k = 0; k < NN; k++)
        for (int j = 0; j < NN; j++) {
            const int64_t at = ((int64_t)(j * NN + k) * E + e) * NN;
            for (int i = 0; i < NN; i++) {
                const int64_t g = gids[at + i];
                const int n = (k * NN + j) * NN + i;
                if ((uint64_t)g >= (uint64_t)n_points)
                    return 0;
                for (int v = 0; v < NV; v++)
                    q[v][n] = state[g * NV + v];
                if (p) {
                    pe[n] = p[g];
                    re[n] = r[g];
                }
            }
        }
    return 1;
}

/* 1 when each of the n values is finite: x - x is 0 for a finite x and
 * NaN for an infinite or NaN one */
static int all_finite(const double *a, int n)
{
    int finite = 1;
    for (int i = 0; i < n; i++)
        finite &= a[i] - a[i] == 0.0;
    return finite;
}

/* Element e of the node-major batch ``batch`` in element order. */
static void load(const double *batch, int64_t E, int64_t e, double dst[N3])
{
    for (int k = 0; k < NN; k++)
        for (int j = 0; j < NN; j++) {
            const double *src = batch + ((int64_t)(j * NN + k) * E + e) * NN;
            for (int i = 0; i < NN; i++)
                dst[(k * NN + j) * NN + i] = src[i];
        }
}

/* The element-order values ``src`` (NV, N3) into element e's rows of
 * the node-major contributions ``out`` (NN, NN, E, NN, NV). */
static void store(const double src[NV][N3], int64_t E, int64_t e,
                  double *out)
{
    for (int k = 0; k < NN; k++)
        for (int j = 0; j < NN; j++) {
            double *o = out + ((int64_t)(j * NN + k) * E + e) * NN * NV;
            for (int i = 0; i < NN; i++)
                for (int v = 0; v < NV; v++)
                    o[i * NV + v] = src[v][(k * NN + j) * NN + i];
        }
}

/* Prefetch the row of node-major batch values (8 bytes each) at ``at``,
 * and for writing the contributions' row there (NV times as long: its
 * first two and its last cache line).  An element's rows lie NN^2 batch
 * rows apart, too many streams for the hardware prefetcher; issued a
 * few elements ahead of the loop, these hide most of the misses. */
#define PREFETCH_ROW(batch, at) __builtin_prefetch((batch) + (at))
#define PREFETCH_OUT(out, at)                                        \
    do {                                                             \
        __builtin_prefetch((out) + (at) * NV, 1);                    \
        __builtin_prefetch((out) + (at) * NV + 8, 1);                \
        __builtin_prefetch((out) + ((at) + NN) * NV - 1, 1);         \
    } while (0)

/* elements the loops prefetch ahead */
#define AHEAD 4

/* dst[k][j][a] = sum_l A[a][l] src[k][j][l] (along x); ``add`` adds
 * the contraction to dst, else stores it. */
static inline void along_x(const double A[NN][NN], const double src[N3],
                           double dst[N3], int add)
{
    for (int r = 0; r < N2; r++)
        for (int a = 0; a < NN; a++) {
            double acc = 0.0;
            for (int l = 0; l < NN; l++)
                acc = fma(A[a][l], src[r * NN + l], acc);
            dst[r * NN + a] = add ? dst[r * NN + a] + acc : acc;
        }
}

/* dst[k][a][i] = sum_l A[a][l] src[k][l][i] (along y) */
static inline void along_y(const double A[NN][NN], const double src[N3],
                           double dst[N3], int add)
{
    for (int k = 0; k < NN; k++)
        for (int a = 0; a < NN; a++)
            for (int i = 0; i < NN; i++) {
                double acc = 0.0;
                for (int l = 0; l < NN; l++)
                    acc = fma(A[a][l], src[(k * NN + l) * NN + i], acc);
                const int n = (k * NN + a) * NN + i;
                dst[n] = add ? dst[n] + acc : acc;
            }
}

/* dst[a][j][i] = sum_l A[a][l] src[l][j][i] (along z) */
static inline void along_z(const double A[NN][NN], const double src[N3],
                           double dst[N3], int add)
{
    for (int a = 0; a < NN; a++)
        for (int ji = 0; ji < N2; ji++) {
            double acc = 0.0;
            for (int l = 0; l < NN; l++)
                acc = fma(A[a][l], src[l * N2 + ji], acc);
            const int n = a * N2 + ji;
            dst[n] = add ? dst[n] + acc : acc;
        }
}

/* The contravariant flux along xi_a at the element's nodes, from the
 * cofactor row g = jg[a]: with U = (g0 q1 + g1 q2 + g2 q3) / q0,
 * F = U q, plus g_c p' on the momentum row 1 + c. */
static void flux(const double g[3][N3], const double q[NV][N3],
                 const double pe[N3], double F[NV][N3])
{
    for (int n = 0; n < N3; n++) {
        double u = g[0][n] * q[1][n];
        u = u + g[1][n] * q[2][n];
        u = u + g[2][n] * q[3][n];
        u = u / q[0][n];
        for (int v = 0; v < NV; v++)
            F[v][n] = u * q[v][n];
        for (int c = 0; c < 3; c++)
            F[1 + c][n] = F[1 + c][n] + g[c][n] * pe[n];
    }
}

/* J w-weighted right-hand-side contributions of an E-element batch:
 * -w (D_x F_0 + D_y F_1 + D_z F_2), minus (g jw)(q0 - rho_bar) on the
 * vertical momentum, into ``out`` (NN, NN, E, NN, NV).
 *
 * ``state`` (n_points, NV) and the perturbation pressure ``p_prime``
 * and background density ``rho_bar`` (n_points each) are point fields,
 * gathered by ``gids``; ``jw`` is a node-major batch, ``jg`` the (3, 3)
 * node-major cofactor batches, ``diff`` the (NN, NN) differentiation
 * matrix and ``weights`` the (NN, NN, NN) [k][j][i] quadrature weights.
 *
 * Returns 0; or -(e + 1) for the first element e whose gathered state
 * is not finite, or BAD_INDEX for an index outside the field, either of
 * which ends the call; else e + 1 for the first element e whose
 * contributions are not finite. */
int64_t rhs_contributions(const double *state, const double *p_prime,
                          const double *rho_bar, int64_t n_points,
                          const int64_t *gids, const double *jg,
                          const double *jw,
                          const double *diff, const double *weights,
                          double gravity, int64_t E, double *out)
{
    const double (*D)[NN] = (const double (*)[NN])diff;
    const int64_t M = E * N3;
    int64_t bad_rhs = 0;
    for (int64_t e = 0; e < E; e++) {
        double q[NV][N3], pe[N3], rb[N3], g[3][N3], F[NV][N3], div[NV][N3];
        for (int jk = 0; e + AHEAD < E && jk < N2; jk++) {
            const int64_t at = ((int64_t)jk * E + e + AHEAD) * NN;
            PREFETCH_ROW(gids, at);
            PREFETCH_ROW(jw, at);
            for (int r = 0; r < 9; r++)
                PREFETCH_ROW(jg + r * M, at);
            PREFETCH_OUT(out, at);
        }
        if (!gather(state, p_prime, rho_bar, n_points, gids, E, e, q, pe, rb))
            return BAD_INDEX;
        if (!all_finite(q[0], NV * N3))
            return -(e + 1);
        /* x, then y and z added to it, each direction's flux once */
        for (int a = 0; a < 3; a++) {
            for (int c = 0; c < 3; c++)
                load(jg + (3 * a + c) * M, E, e, g[c]);
            flux(g, q, pe, F);
            for (int v = 0; v < NV; v++) {
                if (a == 0)
                    along_x(D, F[v], div[v], 0);
                else if (a == 1)
                    along_y(D, F[v], div[v], 1);
                else
                    along_z(D, F[v], div[v], 1);
            }
        }
        /* the weights, then the gravity source on the vertical momentum */
        double *jwe = g[0];
        load(jw, E, e, jwe);
        for (int n = 0; n < N3; n++) {
            const double mw = -weights[n];
            for (int v = 0; v < NV; v++)
                div[v][n] = div[v][n] * mw;
            div[3][n] = div[3][n] - (gravity * jwe[n]) * (q[0][n] - rb[n]);
        }
        store(div, E, e, out);
        if (!bad_rhs && !all_finite(div[0], NV * N3))
            bad_rhs = e + 1;
    }
    return bad_rhs;
}

/* J w-weighted filtered values of an E-element batch: the (NN, NN)
 * filter matrix ``filt`` along z, y and x of each element's gathered
 * state, times ``jw``, into ``out`` (NN, NN, E, NN, NV).  Returns 0, or
 * BAD_INDEX for an index outside the field, which ends the call. */
int64_t filter_contributions(const double *state, int64_t n_points,
                             const int64_t *gids, const double *jw,
                             const double *filt, int64_t E, double *out)
{
    const double (*A)[NN] = (const double (*)[NN])filt;
    for (int64_t e = 0; e < E; e++) {
        double q[NV][N3], s[NV][N3], jwe[N3];
        for (int jk = 0; e + AHEAD < E && jk < N2; jk++) {
            const int64_t at = ((int64_t)jk * E + e + AHEAD) * NN;
            PREFETCH_ROW(gids, at);
            PREFETCH_ROW(jw, at);
            PREFETCH_OUT(out, at);
        }
        if (!gather(state, NULL, NULL, n_points, gids, E, e, q, NULL, NULL))
            return BAD_INDEX;
        load(jw, E, e, jwe);
        for (int v = 0; v < NV; v++) {
            along_z(A, q[v], s[v], 0);
            along_y(A, s[v], q[v], 0);
            along_x(A, q[v], s[v], 0);
            for (int n = 0; n < N3; n++)
                s[v][n] = s[v][n] * jwe[n];
        }
        store(s, E, e, out);
    }
    return 0;
}
