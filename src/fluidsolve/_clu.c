/* Diffusion runs in C: the loops of fluidsolve.diffusion._run.
 *
 * Both functions take a run's state as acc = {residual, window cancelled,
 * window contracted, total cancelled, total contracted} and run = {step,
 * delivered, status}, update it in place, and write the trace rows they make,
 * {residual, cancelled, contracted} each, to out, at most cap of them per call.
 * The status is an index of diffusion._STATUS: budget (keep going), converged
 * (an exact l1(F) <= stop_at) or non_finite (an exact l1(F) is inf or NaN).
 *
 * fluidsolve_clu_run is the coordinate-level driver. Each step performs the
 * IEEE operations of diffusion._coordinate_step entry by entry, in column
 * order, so F, H and every loss are bitwise equal to the per-step engine.
 * Without a compiler, diffusion._python_clu runs the same loop on that step.
 *
 * fluidsolve_vlu_run performs the operations of diffusion.diffuse_vector in
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

enum { BUDGET, CONVERGED, NON_FINITE };

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

/* The status an exact l1(F) implies; stop_at is tol, or -1 for a run without one. */
static int64_t status_of(double l1, double stop_at)
{
    if (!isfinite(l1))
        return NON_FINITE;
    return l1 <= stop_at ? CONVERGED : BUDGET;
}

/* Run coordinate-level steps at order[step % period], ... from step run[0].
 *
 * Each stretch runs up to the next window end (a multiple of every), multiple
 * of n or max_steps, and ends early after the first step whose running
 * residual is <= stop_at. The exact l1(F), np.abs(F).sum() computed in
 * scratch (n doubles), replaces the running residual then and after every n
 * steps, and only it sets the status. A window end writes a row and zeroes
 * the window sums. Returns the rows written; the run goes on while the status
 * is budget, the step is below max_steps and fewer than cap rows are written.
 */
int64_t fluidsolve_clu_run(int64_t max_steps, double stop_at, int64_t cap, int64_t every,
                           int64_t period, int64_t n, const int64_t *order,
                           const int64_t *indptr, const int64_t *rows, const double *vals,
                           double *f, double *h, double *scratch, double *acc, int64_t *run,
                           double *out)
{
    double resid = acc[0], win_c = acc[1], win_k = acc[2], total_c = acc[3], total_k = acc[4];
    int64_t step = run[0], count = run[1], status = BUDGET, written = 0;
    int64_t pos = step % period;
    while (status == BUDGET && step < max_steps && written < cap) {
        int64_t k = every - step % every;
        if (n - step % n < k)
            k = n - step % n;
        if (max_steps - step < k)
            k = max_steps - step;
        for (; k > 0; k--) {
            int64_t i = order[pos];
            pos = pos + 1 == period ? 0 : pos + 1;
            step++;
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
        if (resid <= stop_at || step % n == 0) {
            for (int64_t i = 0; i < n; i++)
                scratch[i] = fabs(f[i]);
            resid = np_sum(scratch, n);
            status = status_of(resid, stop_at);
        }
        if (step % every == 0) {
            out[3 * written] = resid;
            out[3 * written + 1] = win_c;
            out[3 * written + 2] = win_k;
            written++;
            win_c = win_k = 0.0;
        }
    }
    acc[0] = resid;
    acc[1] = win_c;
    acc[2] = win_k;
    acc[3] = total_c;
    acc[4] = total_k;
    run[0] = step;
    run[1] = count;
    run[2] = status;
    return written;
}

/* Run vector-level steps on the nnz stored entries (rows, cols, vals) from step run[0].
 *
 * acc[0] holds the exact l1(F) before the next step; the window sums are not
 * used. scratch holds 2n doubles. Every step writes a row and sets the status
 * from its exact l1(F). Returns the rows written, under the same conditions as
 * fluidsolve_clu_run.
 */
int64_t fluidsolve_vlu_run(int64_t max_steps, double stop_at, int64_t cap, int64_t n,
                           int64_t nnz, const int64_t *rows, const int64_t *cols,
                           const double *vals, double *f, double *h, double *scratch,
                           double *acc, int64_t *run, double *out)
{
    double *new_f = scratch, *abs_in = scratch + n;
    double before = acc[0], total_c = acc[3], total_k = acc[4];
    int64_t step = run[0], count = run[1], status = BUDGET, written = 0;
    while (status == BUDGET && step < max_steps && written < cap) {
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
        step++;
        count += nnz;
        total_c += cancelled;
        total_k += contracted;
        out[3 * written] = new_l1;
        out[3 * written + 1] = cancelled;
        out[3 * written + 2] = contracted;
        written++;
        before = new_l1;
        status = status_of(new_l1, stop_at);
    }
    acc[0] = before;
    acc[3] = total_c;
    acc[4] = total_k;
    run[0] = step;
    run[1] = count;
    run[2] = status;
    return written;
}
