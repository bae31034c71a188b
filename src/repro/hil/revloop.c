/*
 * Native revolution loop of the batched cavity-in-the-loop bench.
 *
 * One call advances B lanes by up to n revolutions.  Per turn and lane it
 * runs exactly the sequence of the Python oracle
 * (BatchedCavityInTheLoop.run(..., _native=False)):
 *
 *   1. gap phase  = amps * jump_rad(t) + last_correction * (pi/180)
 *   2. the CGRA kernel, executed as a tape of (op, dst, a, b, io) rows
 *      lowered from the compiled program, then the PHI latch list;
 *      its IO rows are the bench's period sensor, the reference and gap
 *      ring-buffer reads (DDS sine -> optional faults -> ADC) and the
 *      delta-t actuator writes
 *   3. the phase detector and the control-filter recurrence
 *   4. time advance and the strided record
 *
 * Bit-exactness: build with -O2 -ffp-contract=off and no -ffast-math.
 * Every expression keeps the oracle's operand order.  Registers are
 * stored as doubles; in single precision every kernel result is rounded
 * through float (RND below), which equals float32 arithmetic for
 * + - * / sqrt because 53 >= 2*24 + 2.
 *
 * The loop never raises.  A zero divisor, a negative sqrt operand or an
 * overflow/invalid/divide-by-zero flag stops the call *before* the
 * failing turn is committed and returns its index; the caller re-runs
 * that turn on the Python path, which reports the error itself.
 */
#include <fenv.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OP_READ, OP_READ_ADDR, OP_WRITE, OP_FADD, OP_FSUB, OP_FMUL, OP_FDIV, OP_FSQRT, OP_FNEG };
enum { IO_PERIOD = 0, IO_REF = 1, IO_GAP = 2, IO_DELTA_T = 16 };

#define FP_FAULTS (FE_OVERFLOW | FE_INVALID | FE_DIVBYZERO)

typedef struct {
    /* shapes and the lowered kernel */
    int64_t lanes, n_bunches, n_rows, n_latch, single, gamma_slot;
    const int32_t *tape;    /* n_rows x 5: op, dst, a, b, io */
    const int32_t *latch;   /* n_latch x 2: phi slot, source slot */
    double *regs;           /* n_slots x lanes */
    /* signal chain */
    double t_rev, f_sample, w_ref, w_gap, adc_amplitude, lsb;
    int64_t quantize, code_min, code_max, adc_bits;
    /* phase-jump drive */
    double jump_start, jump_period, jump_deg, d2r;
    const double *amps;     /* lanes */
    double *gap;            /* lanes */
    /* control loop */
    int64_t ctrl_enabled, ctrl_divider, ctrl_has_limit, use_bunch0, ctrl_tick, saturations;
    double ctrl_limit, ctrl_r, ctrl_gc, phase_scale;
    double *x_prev, *y_prev, *last;   /* lanes each */
    /* plant state */
    double *delta_t;        /* lanes x n_bunches */
    double time;
    /* fault channels, one row per turn of this call; NULL when disarmed */
    const uint8_t *fault_active, *fault_stuck;
    const double *gap_phase, *gap_gain, *gap_clip;   /* n x lanes */
    const int64_t *stuck_mask;                       /* n x lanes */
    /* strided record */
    int64_t rec_every, turn0, rec_idx;
    double *rec_time, *rec_phase, *rec_corr, *rec_jump, *rec_dt, *rec_dt_all, *rec_gamma;
    /* committed ADC telemetry */
    int64_t adc_samples, adc_clips;
    /* scratch: 4 x lanes + lanes x n_bunches + n_latch x lanes doubles */
    double *scratch;
} revloop_t;

int64_t revloop_sizeof(void) { return (int64_t)sizeof(revloop_t); }

void revloop_sin(const double *x, double *y, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        y[i] = sin(x[i]);
}

/* PhaseJumpPattern.phase_deg_at, scalar form. */
static double jump_deg_at(const revloop_t *c, double t)
{
    if (t < c->jump_start)
        return 0.0;
    double k = floor((t - c->jump_start) / c->jump_period) + 1.0;
    return fmod(k, 2.0) == 1.0 ? c->jump_deg : 0.0;
}

/* ADC.convert (+ apply_stuck_mask) + codes_to_volts. */
static double adc(const revloop_t *c, double v, int stuck, int64_t mask,
                  int64_t *samples, int64_t *clips)
{
    int64_t code = (int64_t)rint(v / c->lsb);
    *samples += 1;
    if (code < c->code_min || code > c->code_max)
        *clips += 1;
    code = code < c->code_min ? c->code_min : code;
    code = code > c->code_max ? c->code_max : code;
    if (stuck) {
        int64_t word = (code & (((int64_t)1 << c->adc_bits) - 1)) | mask;
        code = word - ((word >> (c->adc_bits - 1)) & 1) * ((int64_t)1 << c->adc_bits);
    }
    return (double)code * c->lsb;
}

#define RND(x) (single ? (double)(float)(x) : (x))

static int64_t run_turns(revloop_t *c, int64_t n)
{
    const int64_t B = c->lanes, nb = c->n_bunches, single = c->single;
    double *const R = c->regs;
    double *const gapn = c->scratch;
    double *const x = gapn + B;
    double *const u = x + B;
    double *const lastn = u + B;
    double *const dtn = lastn + B;
    double *const phi_saved = dtn + B * nb;

    for (int64_t k = 0; k < n; k++) {
        int64_t samples = 0, clips = 0, sat = 0;
        int bad = 0;
        feclearexcept(FE_ALL_EXCEPT);
        const double t = c->time;

        /* 1. gap phase: amps * jr + last * d2r */
        const double jr = jump_deg_at(c, t) * c->d2r;
        for (int64_t l = 0; l < B; l++)
            gapn[l] = c->amps[l] * jr + c->last[l] * c->d2r;

        const int active = c->fault_active != NULL && c->fault_active[k];
        const int stuck = active && c->fault_stuck[k];
        const double *fphase = active ? c->gap_phase + k * B : NULL;
        const double *fgain = active ? c->gap_gain + k * B : NULL;
        const double *fclip = active ? c->gap_clip + k * B : NULL;
        const int64_t *fmask = active ? c->stuck_mask + k * B : NULL;
        memcpy(dtn, c->delta_t, sizeof(double) * B * nb);

        /* 2. kernel tape */
        for (int64_t r = 0; r < c->n_rows && !bad; r++) {
            const int32_t *row = c->tape + 5 * r;
            double *dst = R + row[1] * B;
            const double *a = R + row[2] * B;
            const double *b = R + row[3] * B;
            const int io = row[4];
            switch (row[0]) {
            case OP_READ:
                for (int64_t l = 0; l < B; l++)
                    dst[l] = RND(c->t_rev);
                break;
            case OP_READ_ADDR:
                for (int64_t l = 0; l < B; l++) {
                    const double ts = a[l] / c->f_sample;
                    double v;
                    if (io == IO_REF) {
                        v = c->adc_amplitude * sin(c->w_ref * ts);
                        if (c->quantize)
                            v = adc(c, v, 0, 0, &samples, &clips);
                    } else {
                        const double base = c->w_gap * ts + gapn[l];
                        if (active) {
                            v = c->adc_amplitude * sin(base + fphase[l]);
                            v = v * fgain[l];
                            v = v > -fclip[l] ? v : -fclip[l];
                            v = v < fclip[l] ? v : fclip[l];
                            if (stuck || c->quantize)
                                v = adc(c, v, stuck, stuck ? fmask[l] : 0, &samples, &clips);
                        } else {
                            v = c->adc_amplitude * sin(base);
                            if (c->quantize)
                                v = adc(c, v, 0, 0, &samples, &clips);
                        }
                    }
                    dst[l] = RND(v);
                }
                break;
            case OP_WRITE:
                for (int64_t l = 0; l < B; l++) {
                    dtn[l * nb + (io - IO_DELTA_T)] = a[l];
                    dst[l] = 0.0;
                }
                break;
            case OP_FADD:
                for (int64_t l = 0; l < B; l++)
                    dst[l] = RND(a[l] + b[l]);
                break;
            case OP_FSUB:
                for (int64_t l = 0; l < B; l++)
                    dst[l] = RND(a[l] - b[l]);
                break;
            case OP_FMUL:
                for (int64_t l = 0; l < B; l++)
                    dst[l] = RND(a[l] * b[l]);
                break;
            case OP_FDIV:
                for (int64_t l = 0; l < B; l++)
                    bad |= b[l] == 0.0;
                if (!bad)
                    for (int64_t l = 0; l < B; l++)
                        dst[l] = RND(a[l] / b[l]);
                break;
            case OP_FSQRT:
                for (int64_t l = 0; l < B; l++)
                    bad |= a[l] < 0.0;
                if (!bad)
                    for (int64_t l = 0; l < B; l++)
                        dst[l] = RND(sqrt(a[l]));
                break;
            case OP_FNEG:
                for (int64_t l = 0; l < B; l++)
                    dst[l] = -a[l];
                break;
            default:
                bad = 1;
            }
        }
        if (bad || fetestexcept(FP_FAULTS))
            return k;

        /* PHI latch, sequential on live slots; undone if the turn fails */
        for (int64_t p = 0; p < c->n_latch; p++) {
            double *phi = R + c->latch[2 * p] * B;
            memcpy(phi_saved + p * B, phi, sizeof(double) * B);
            memcpy(phi, R + c->latch[2 * p + 1] * B, sizeof(double) * B);
        }

        /* 3. phase detector and control filter */
        for (int64_t l = 0; l < B; l++) {
            double dt = dtn[l * nb];
            if (!c->use_bunch0) {
                double s = 0.0;
                for (int64_t i = 0; i < nb; i++)
                    s += dtn[l * nb + i];
                dt = s / (double)nb;
            }
            x[l] = dt * c->phase_scale;
        }
        const int run_now = c->ctrl_enabled && c->ctrl_tick % c->ctrl_divider == 0;
        for (int64_t l = 0; l < B; l++) {
            if (!c->ctrl_enabled) {
                lastn[l] = 0.0;
            } else if (!run_now) {
                lastn[l] = c->last[l];
            } else {
                const double t1 = c->y_prev[l] * c->ctrl_r;
                const double t2 = (x[l] - c->x_prev[l]) * c->ctrl_gc;
                u[l] = t1 + t2;
                double v = u[l];
                if (c->ctrl_has_limit && fabs(v) > c->ctrl_limit) {
                    sat++;
                    v = v > -c->ctrl_limit ? v : -c->ctrl_limit;
                    v = v < c->ctrl_limit ? v : c->ctrl_limit;
                }
                lastn[l] = v;
            }
        }

        if (fetestexcept(FP_FAULTS)) {
            for (int64_t p = c->n_latch - 1; p >= 0; p--)
                memcpy(R + c->latch[2 * p] * B, phi_saved + p * B, sizeof(double) * B);
            return k;
        }

        /* commit */
        memcpy(c->gap, gapn, sizeof(double) * B);
        memcpy(c->delta_t, dtn, sizeof(double) * B * nb);
        if (c->ctrl_enabled) {
            if (run_now) {
                memcpy(c->x_prev, x, sizeof(double) * B);
                memcpy(c->y_prev, u, sizeof(double) * B);   /* unclipped */
            }
            c->ctrl_tick++;
        }
        memcpy(c->last, lastn, sizeof(double) * B);
        c->saturations += sat;
        c->adc_samples += samples;
        c->adc_clips += clips;

        /* 4. time advance and strided record */
        c->time = t + c->t_rev;
        if ((c->turn0 + k + 1) % c->rec_every == 0) {
            const int64_t i = c->rec_idx++;
            const double jd = jump_deg_at(c, c->time);
            c->rec_time[i] = c->time;
            for (int64_t l = 0; l < B; l++) {
                c->rec_phase[i * B + l] = x[l];
                c->rec_corr[i * B + l] = lastn[l];
                c->rec_jump[i * B + l] = c->amps[l] * jd;
                c->rec_dt[i * B + l] = dtn[l * nb];
                c->rec_gamma[i * B + l] = R[c->gamma_slot * B + l];
            }
            memcpy(c->rec_dt_all + i * B * nb, dtn, sizeof(double) * B * nb);
        }
    }
    return n;
}

/* Advance up to n turns; returns the number committed.  Leaves the
 * floating-point status flags clear. */
int64_t revloop_run(revloop_t *c, int64_t n)
{
    const int64_t done = run_turns(c, n);
    feclearexcept(FE_ALL_EXCEPT);
    return done;
}
