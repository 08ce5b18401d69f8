/* Coordinate-level diffusion steps, the inner loop of fluidsolve.diffusion._run_clu.
 *
 * Each step performs the IEEE operations of diffusion.diffuse_coordinate entry
 * by entry, in column order, so F and H end bitwise equal to the per-step
 * engine. _clu.steps_py is the Python transcription of this function with the
 * same contract; the two agree bitwise in every output.
 *
 * Compile with -ffp-contract=off and never with -ffast-math: a fused
 * multiply-add would change the bits of old + fl * v.
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
