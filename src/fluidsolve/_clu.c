/* Diffusion steps in C: the inner loops of fluidsolve.diffusion._run_clu and _run_vlu.
 *
 * fluidsolve_clu_steps performs the IEEE operations of
 * diffusion._coordinate_step entry by entry, in column order, so F, H and
 * every loss are bitwise equal to the per-step engine. Without a compiler,
 * diffusion._python_clu runs that Python step with this function's contract.
 *
 * fluidsolve_vlu_steps performs the operations of diffusion.diffuse_vector in
 * the order numpy performs them: np.bincount's scatter in stored order and
 * numpy's pairwise summation for the three reductions, so F, H and every
 * recorded number are bitwise equal to the per-step engine.
 *
 * Compile with -ffp-contract=off and never with -ffast-math: a fused
 * multiply-add would change the bits of old + fl * v, and reassociation would
 * change the order of every sum.
 */
#include <math.h>
#include <stdint.h>

/* Run up to k steps at order[pos], order[pos + 1], ... (cyclic, period entries).
 *
 * acc holds {running residual, window cancelled, window contracted, total
 * cancelled, total contracted}; *delivered counts the stored entries of every
 * column whose fluid was nonzero. Stops after the first step whose running
 * residual is <= stop_at and returns the number of steps taken.
 */
int64_t fluidsolve_clu_steps(int64_t k, int64_t pos, double stop_at,
                             const int64_t *order, int64_t period,
                             const int64_t *indptr, const int64_t *rows, const double *vals,
                             double *f, double *h, double *acc, int64_t *delivered)
{
    double resid = acc[0], win_c = acc[1], win_k = acc[2], total_c = acc[3], total_k = acc[4];
    int64_t count = *delivered;
    int64_t taken = 0;
    while (taken < k) {
        int64_t i = order[pos];
        pos = pos + 1 == period ? 0 : pos + 1;
        taken++;
        double fl = f[i];
        if (fl != 0.0) {
            h[i] += fl;
            f[i] = 0.0;
            double cancelled = 0.0, sum_delta = 0.0;
            for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
                double old = f[rows[p]];
                double delta = fl * vals[p];
                double new_ = old + delta;
                f[rows[p]] = new_;
                double abs_delta = fabs(delta);
                sum_delta += abs_delta;
                /* rounding is monotone, so this overlap is never negative */
                cancelled += fabs(old) + abs_delta - fabs(new_);
            }
            count += indptr[i + 1] - indptr[i];
            double abs_fl = fabs(fl);
            double contracted = abs_fl - sum_delta;
            if (contracted <= 0.0) /* not fmax(0, .): a NaN must stay NaN */
                contracted = 0.0;
            resid = resid - abs_fl + sum_delta - cancelled;
            if (resid < 0.0) /* a NaN stays NaN for the exact check to catch */
                resid = 0.0;
            total_c += cancelled;
            total_k += contracted;
            win_c += cancelled;
            win_k += contracted;
        }
        if (resid <= stop_at)
            break;
    }
    acc[0] = resid;
    acc[1] = win_c;
    acc[2] = win_k;
    acc[3] = total_c;
    acc[4] = total_k;
    *delivered = count;
    return taken;
}

/* numpy's pairwise summation of n contiguous doubles (DOUBLE_pairwise_sum): a
 * plain loop below 8 elements, 8 accumulators up to 128, and above that two
 * halves split at a multiple of 8. Any other order changes the bits of a sum.
 */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* ndarray.sum() of a contiguous float64 array: the reduction adds the pairwise sum to 0.0. */
static double np_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* Run up to k vector-level steps on the nnz stored entries (rows, cols, vals).
 *
 * scratch holds 2n doubles. Step t writes {l1(F) after the step, cancelled,
 * contracted} to out[3t], out[3t + 1], out[3t + 2]. Stops after the first step
 * whose l1(F) is <= stop_at or not finite and returns the number of steps
 * taken.
 */
int64_t fluidsolve_vlu_steps(int64_t k, double stop_at, int64_t n, int64_t nnz,
                             const int64_t *rows, const int64_t *cols, const double *vals,
                             double *f, double *h, double *scratch, double *out)
{
    double *new_f = scratch, *abs_in = scratch + n;
    for (int64_t i = 0; i < n; i++)
        new_f[i] = fabs(f[i]);
    double before = np_sum(new_f, n);
    int64_t taken = 0;
    while (taken < k) {
        for (int64_t i = 0; i < n; i++) {
            h[i] += f[i];
            new_f[i] = 0.0;
            abs_in[i] = 0.0;
        }
        /* np.bincount's loop, for the signed and the absolute contributions */
        for (int64_t p = 0; p < nnz; p++) {
            double pe = vals[p] * f[cols[p]];
            new_f[rows[p]] += pe;
            abs_in[rows[p]] += fabs(pe);
        }
        for (int64_t i = 0; i < n; i++) {
            f[i] = new_f[i];
            new_f[i] = fabs(f[i]);
        }
        double new_l1 = np_sum(new_f, n);
        double arrived = np_sum(abs_in, n);
        for (int64_t i = 0; i < n; i++)
            abs_in[i] -= new_f[i];
        double cancelled = np_sum(abs_in, n);
        double contracted = before - arrived;
        if (contracted <= 0.0) /* not fmax(0, .): a NaN must stay NaN */
            contracted = 0.0;
        out[3 * taken] = new_l1;
        out[3 * taken + 1] = cancelled;
        out[3 * taken + 2] = contracted;
        taken++;
        before = new_l1;
        if (new_l1 <= stop_at || !isfinite(new_l1))
            break;
    }
    return taken;
}
