/* Compiled integer kernels: the uint64 twin of collatz_lab._pure.

   Built only on request, in place, with the gcc line in README "Install";
   `collatz_lab.kernels` then binds each function of the method table at the
   end in place of _pure's.  Only the kernels that a command reaches have a
   twin here: the step kernels, and the scans and checker spans that
   `verify` runs.  The rest run pure on both backends; PURE_ONLY in
   tests/test_kernels.py names them.

   One rule keeps every result equal to _pure's: a kernel runs on uint64 and
   hands to the _pure function of the same name whatever might not fit, or
   lies below the kernel's domain, where _pure raises ValueError or gives its
   own formula's value.  The rule has three doors, each a call of pure_call:
   - RANGE, for the scans and checker spans, hands over the whole call, with
     the caller's arguments, when call_args finds one that does not fit, or
     when the range's first element lies below its domain;
   - SCALAR, for the one-argument kernels, likewise;
   - pure_range, behind RANGE's one range loop, which checks an element at
     a time: one that does not fit goes alone to _pure over [v, v], and the
     elements past the kernel's uint64 limit go in one.
   Only OverflowError is taken as "does not fit"; any other conversion
   error, or a wrong argument count, propagates.

   The range checks at the end are _pure's scan and span loop bodies on
   uint64, with the step helpers below in place of the inlined formulas.
   The orbit-walk spans walk each start with literal loops, one parity run
   (or one step) at a time, without _pure's block jumps or its memo of
   finished tails, which pays where the values are bigints; covering's is
   _pure's lock-step walk of the three orbits, so it stores none of them and
   allocates nothing. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;

#define U64_MAX UINT64_MAX
#define SAFE3 ((U64_MAX - 1) / 3)   /* 3n + 1 fits for n up to this */
#define SAFE_N ((u64)1 << 62)       /* (2 p(n) + 1) 2^q(n) fits below this */

static PyObject *pure;     /* collatz_lab._pure */
static u64 pow3[41];       /* 3^40 < 2^64 < 3^41 */

/* --- uint64 arithmetic ---------------------------------------------------- */

/* v != 0 */
static inline int ctz(u64 v) { return __builtin_ctzll(v); }

/* p(2n) = n, p(2n+1) = p(n): drop the trailing ones, then halve. */
static inline u64 p_u64(u64 v) { return v == U64_MAX ? 0 : v >> ctz(~v) >> 1; }

/* q(n) = ruler(n + 1): the trailing one-bits, plus one. */
static inline int q_u64(u64 v) { return (v == U64_MAX ? 64 : ctz(~v)) + 1; }

/* odd * 3^e, or 0 when that passes 2^64 (odd >= 1, so 0 is never a value). */
static inline u64 mul_pow3(u64 odd, int e)
{
    u64 out;
    if (e > 40 || __builtin_mul_overflow(odd, pow3[e], &out))
        return 0;
    return out;
}

/* Steps: each sets *out and returns nonzero when the uint64 result is exact,
   and returns 0 when _pure must compute it instead. */

static inline int ruler_u64(u64 v, u64 *out)
{
    if (v == 0)
        return 0;
    *out = ctz(v) + 1;
    return 1;
}

static inline int interleave_p_u64(u64 v, u64 *out)
{
    *out = p_u64(v);
    return 1;
}

static inline int shifted_ruler_q_u64(u64 v, u64 *out)
{
    *out = q_u64(v);
    return 1;
}

static inline int odd_part_u64(u64 v, u64 *out)
{
    if (v == 0)
        return 0;
    *out = v >> ctz(v);
    return 1;
}

/* One parity run: even v drops to its odd part, odd v lands on
   3^e (v + 1) / 2^e - 1 with 2^e exactly dividing v + 1. */
static inline int apt_u64(u64 v, u64 *out)
{
    if ((v & 1) == 0)
        return odd_part_u64(v, out);
    if (v == U64_MAX)
        return 0;
    u64 m = v + 1;
    int e = ctz(m);
    u64 k = mul_pow3(m >> e, e);
    *out = k - 1;
    return k != 0;
}

static inline int emapt_pq_u64(u64 u, u64 *out)
{
    if (u < 2)
        return 0;
    u64 m = p_u64((u - 2) >> 1);
    u64 k = mul_pow3(2 * p_u64(m) + 1, q_u64(m));
    *out = k - 1;
    return k != 0;
}

/* The apt step of u's odd part. */
static inline int emapt_ruler_u64(u64 u, u64 *out)
{
    u64 odd;
    return odd_part_u64(u, &odd) && apt_u64(odd, out);
}

static inline int omapt_u64(u64 v, u64 *out)
{
    if (v == 0)
        return 0;
    u64 m = (v - 1) >> 1;
    u64 k = mul_pow3(2 * p_u64(m) + 1, q_u64(m));
    *out = 2 * p_u64((k - 3) >> 1) + 1;
    return k != 0;
}

static inline int x_u64(u64 x, u64 *out)
{
    if (x > SAFE3)
        return 0;
    u64 m = p_u64(3 * x);
    u64 k = mul_pow3(2 * p_u64(m) + 1, q_u64(m) - 1);
    *out = (k - 1) >> 1;
    return k != 0;
}

/* The plain and the half-step map. */
static inline int c_u64(u64 x, u64 *out)
{
    if ((x & 1) == 0) {
        *out = x >> 1;
        return 1;
    }
    *out = 3 * x + 1;
    return x <= SAFE3;
}

static inline int t_u64(u64 x, u64 *out)
{
    if ((x & 1) == 0) {
        *out = x >> 1;
        return 1;
    }
    *out = (3 * x + 1) >> 1;
    return x <= SAFE3;
}

/* --- arguments and the _pure fallback ------------------------------------- */

/* The _pure function `name` called with the caller's arguments. */
static PyObject *pure_call(const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fn = PyObject_GetAttrString(pure, name);
    if (fn == NULL)
        return NULL;
    PyObject *result = PyObject_Vectorcall(fn, args, nargs, NULL);
    Py_DECREF(fn);
    return result;
}

/* After a conversion: 1 when it fit, 0 when it overflowed (the OverflowError
   is cleared), -1 on any other error. */
static int fitted(int failed)
{
    if (!failed)
        return 1;
    if (!PyErr_ExceptionMatches(PyExc_OverflowError))
        return -1;
    PyErr_Clear();
    return 0;
}

static int to_u64(PyObject *o, u64 *v)
{
    *v = PyLong_AsUnsignedLongLong(o);
    return fitted(*v == (u64)-1 && PyErr_Occurred());
}

static int to_ll(PyObject *o, long long *v)
{
    *v = PyLong_AsLongLong(o);
    return fitted(*v == -1 && PyErr_Occurred());
}

/* A range kernel's lo and hi into u and, when budgeted, the budget after
   them into *budget: 1 when all fit, 0 when one does not (_pure takes the
   call), -1 on any other error, a wrong argument count included. */
static inline __attribute__((always_inline)) int
call_args(const char *name, PyObject *const *args, Py_ssize_t nargs, int budgeted,
          u64 u[2], long long *budget)
{
    if (nargs != 2 + budgeted) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %d arguments (%zd given)",
                     name, 2 + budgeted, nargs);
        return -1;
    }
    for (int i = 0; i < 2; i++) {
        int fits = to_u64(args[i], &u[i]);
        if (fits <= 0)
            return fits;
    }
    return budgeted ? to_ll(args[2], budget) : 1;
}

/* --- one-argument kernels -------------------------------------------------- */

#define SCALAR(name, step)                                                   \
    static PyObject *name(PyObject *Py_UNUSED(self), PyObject *n)            \
    {                                                                        \
        u64 v, out;                                                          \
        int fits = to_u64(n, &v);                                            \
        if (fits < 0)                                                        \
            return NULL;                                                     \
        if (fits && step(v, &out))                                           \
            return PyLong_FromUnsignedLongLong(out);                         \
        return pure_call(#name, &n, 1);                                      \
    }

SCALAR(ruler, ruler_u64)
SCALAR(interleave_p, interleave_p_u64)
SCALAR(shifted_ruler_q, shifted_ruler_q_u64)
SCALAR(odd_part, odd_part_u64)
SCALAR(apt_step, apt_u64)
SCALAR(emapt_step_pq, emapt_pq_u64)
SCALAR(emapt_step_ruler, emapt_ruler_u64)
SCALAR(omapt_step, omapt_u64)
SCALAR(x_step, x_u64)

/* --- orbits ---------------------------------------------------------------- */

/* Steps *x under step, counting in *steps, until it equals target or 1 or
   has taken budget steps; 0, or -1 when a step does not fit. */
static inline __attribute__((always_inline)) int
walk(u64 *x, u64 target, long long *steps, long long budget, int (*step)(u64, u64 *))
{
    for (; *x != target && *x != 1 && *steps < budget; ++*steps)
        if (!step(*x, x))
            return -1;
    return 0;
}

/* _pure's lock-step walk from n >= 1: each accelerated value steps the
   half-step walk until it is equal, and each half-step value the plain walk.
   Sets the element counts len (plain, half-step, accelerated; -1 past the
   budget) and *ok as _pure does, or returns 0 when a value does not fit. */
static int cover(u64 n, long long budget, long long len[3], int *ok)
{
    u64 c = n, t = n, a = n;
    long long sc = 0, st = 0, sa = 0;
    *ok = 1;
    while (a != 1 && sa < budget) {
        if (!apt_u64(a, &a))
            return 0;
        sa++;
        while (t != a && t != 1 && st < budget) {
            if (!t_u64(t, &t))
                return 0;
            st++;
            if (walk(&c, t, &sc, budget, c_u64) < 0)
                return 0;
            if (c != t)
                break;
        }
        if (t != a || c != t) {
            *ok = 0;
            break;
        }
    }
    /* Each walk on its own to 1, to count its length. */
    if (walk(&c, 1, &sc, budget, c_u64) < 0 || walk(&t, 1, &st, budget, t_u64) < 0
        || walk(&a, 1, &sa, budget, apt_u64) < 0)
        return 0;
    if (c != 1 || t != 1 || a != 1)
        *ok = -1;
    len[0] = c == 1 ? sc + 1 : -1;
    len[1] = t == 1 ? st + 1 : -1;
    len[2] = a == 1 ? sa + 1 : -1;
    return 1;
}

/* --- ranges: scans and checker spans, one element at a time -------------- */

/* What a range found: a scan's violating inputs, or a span's (input, detail)
   violations, its exhausted inputs and how many inputs it checked. */
typedef struct {
    PyObject *violations, *exhausted;
    u64 checked;
} Findings;

/* How an element's check ends, then how the pq-form walk of a u-residues
   seed ends. */
enum { DONE, FAILED, NO_FIT, REACHED_2, EXHAUSTED, NOT_2_MOD_6, NOT_2_OR_8_MOD_18 };

/* What a range kernel returns: a scan the list of violating inputs, a span
   the triple (checked, violations, exhausted). */
enum { LIST, TRIPLE };

/* Out of line, so that a range loop keeps no list in a register. */
#define COLD __attribute__((cold, noinline))

/* Appends item to list and drops it: DONE, or FAILED when item is NULL (its
   error is set) or the append fails. */
static COLD int append(PyObject *list, PyObject *item)
{
    int failed = item == NULL || PyList_Append(list, item) < 0;
    Py_XDECREF(item);
    return failed ? FAILED : DONE;
}

static COLD int flagged(Findings *f, u64 n)
{
    return append(f->violations, PyLong_FromUnsignedLongLong(n));
}

static COLD int exhaust(Findings *f, u64 n)
{
    return append(f->exhausted, PyLong_FromUnsignedLongLong(n));
}

/* Appends (n, detail), dropping detail; a NULL detail is an error set. */
static COLD int violation(Findings *f, u64 n, PyObject *detail)
{
    return append(f->violations, Py_BuildValue("(KN)", (unsigned long long)n, detail));
}

/* Appends what _pure's range kernel `name` returns over [lo, hi]: a scan's
   list, or a span's (checked, violations, exhausted).  DONE or FAILED. */
static int pure_range(Findings *f, const char *name, u64 lo, u64 hi,
                      long long budget, int budgeted)
{
    PyObject *args[3] = {PyLong_FromUnsignedLongLong(lo), PyLong_FromUnsignedLongLong(hi),
                         PyLong_FromLongLong(budget)};
    PyObject *got = args[0] && args[1] && args[2] ? pure_call(name, args, 2 + budgeted) : NULL;
    for (int i = 0; i < 3; i++)
        Py_XDECREF(args[i]);
    unsigned long long checked = 0;
    PyObject *violations = got, *more_exhausted = NULL;
    int ok = got && (PyList_Check(got) || PyArg_ParseTuple(got, "KOO", &checked, &violations,
                                                           &more_exhausted));
    ok = ok && PyList_SetSlice(f->violations, PY_SSIZE_T_MAX, PY_SSIZE_T_MAX, violations) == 0
         && (more_exhausted == NULL
             || PyList_SetSlice(f->exhausted, PY_SSIZE_T_MAX, PY_SSIZE_T_MAX,
                                more_exhausted) == 0);
    f->checked += checked;
    Py_XDECREF(got);
    return ok ? DONE : FAILED;
}

/* An element's check: it records what it finds at v and returns DONE, or
   FAILED with an error set, or NO_FIT, having recorded nothing, when a value
   does not fit in uint64. */
typedef int (*Check)(Findings *, u64, long long);

/* After element v's check said end, not DONE: FAILED, or DONE once _pure's
   `name` over [v, v] has taken an element that did not fit (and counted it
   in place of the range loop). */
static COLD int
settle(Findings *f, const char *name, u64 v, int end, long long budget, int budgeted)
{
    if (end == FAILED || pure_range(f, name, v, v, budget, budgeted) != DONE)
        return FAILED;
    f->checked--;
    return DONE;
}

/* Checks v, v + stride, ... <= last, each element counted as one checked
   input.  Never steps past last, so never wraps. */
static inline __attribute__((always_inline)) int
range(Findings *f, const char *name, u64 v, u64 last, u64 stride, long long budget,
      int budgeted, Check check)
{
    f->checked += (last - v) / stride + 1;
    for (;; v += stride) {
        int end = check(f, v, budget);
        if (end != DONE && settle(f, name, v, end, budget, budgeted) != DONE)
            return FAILED;
        if (last - v < stride)
            return DONE;
    }
}

/* The range kernel `name` over the elements first, first + stride, ... <=
   hi, each checked by name##_check; it returns a LIST or a TRIPLE.  An
   argument that does not fit, or a first element below least, hands the
   whole call to _pure, which raises, or finds nothing when rounding lo up to
   first wrapped past 2^64; the elements past limit go to _pure in one call. */
#define RANGE(name, result, budgeted, first, stride, least, limit)           \
    static PyObject *name(PyObject *Py_UNUSED(self), PyObject *const *args, \
                          Py_ssize_t nargs)                                  \
    {                                                                        \
        u64 u[2] = {0, 0};                                                   \
        long long budget = 0;                                                \
        int fits = call_args(#name, args, nargs, budgeted, u, &budget);      \
        if (fits < 0)                                                        \
            return NULL;                                                     \
        u64 lo = u[0], hi = u[1], v = (first), min = (least);                \
        if (!fits || v < min)                                                \
            return pure_call(#name, args, nargs);                            \
        Findings f = {PyList_New(0), PyList_New(0), 0};                      \
        int end = f.violations && f.exhausted ? DONE : FAILED;               \
        if (end == DONE && v <= hi && v <= (limit))                          \
            end = range(&f, #name, v, hi < (limit) ? hi : (limit), stride,   \
                        budget, budgeted, name##_check);                     \
        if (end == DONE && v <= hi && hi > (limit))                          \
            end = pure_range(&f, #name, v > (limit) ? v : (limit) + 1, hi,   \
                             budget, budgeted);                              \
        PyObject *out = NULL;                                                \
        if (end == DONE)                                                     \
            out = (result) == LIST ? Py_BuildValue("O", f.violations)        \
                  : Py_BuildValue("(KOO)", (unsigned long long)f.checked,    \
                                  f.violations, f.exhausted);                \
        Py_XDECREF(f.violations);                                            \
        Py_XDECREF(f.exhausted);                                             \
        return out;                                                          \
    }

static int scan_p3n_check(Findings *f, u64 n, long long Py_UNUSED(budget))
{
    return p_u64(3 * n) % 3 == 1 ? flagged(f, n) : DONE;
}

static int scan_x_residues_check(Findings *f, u64 x, long long Py_UNUSED(budget))
{
    u64 out;
    if (!x_u64(x, &out))
        return NO_FIT;
    return out % 3 == 2 ? flagged(f, x) : DONE;
}

/* Whether the pq and ruler forms of the even step from u differ: 1 or 0, or
   -1 when one does not fit. */
static inline int emapt_forms_differ(u64 u)
{
    u64 via_pq, via_ruler;
    if (!emapt_pq_u64(u, &via_pq) || !emapt_ruler_u64(u, &via_ruler))
        return -1;
    return via_pq != via_ruler;
}

/* Walks *x under the pq form for at most budget steps, leaving the last
   image in *x.  Each image must be 2 mod 6 when mod6 is set, and 2 or 8
   mod 18 from image from18 on. */
static int residue_walk(u64 *x, long long budget, int mod6, long long from18)
{
    for (long long step = 1; step <= budget; step++) {
        if (*x == 2)
            return REACHED_2;
        if (!emapt_pq_u64(*x, x))
            return NO_FIT;
        if (mod6 && *x % 6 != 2)
            return NOT_2_MOD_6;
        if (step >= from18 && *x % 18 != 2 && *x % 18 != 8)
            return NOT_2_OR_8_MOD_18;
    }
    return *x == 2 ? REACHED_2 : EXHAUSTED;
}

/* Records how seed's walk ended at image x: DONE, FAILED, or NO_FIT when
   the walk did not fit. */
static int record_walk(Findings *f, u64 seed, int end, u64 x)
{
    unsigned long long image = x;
    if (end == NO_FIT)
        return NO_FIT;
    if (end == EXHAUSTED)
        return exhaust(f, seed);
    if (end == NOT_2_MOD_6)
        return violation(f, seed, PyUnicode_FromFormat(
                             "element %llu is not 2 mod 6", image));
    if (end == NOT_2_OR_8_MOD_18)
        return violation(f, seed, PyUnicode_FromFormat(
                             "element %llu is not 2 or 8 mod 18", image));
    return DONE;
}

static int span_u_residues_check(Findings *f, u64 u, long long budget)
{
    u64 x = u;
    int end = residue_walk(&x, budget, 1, 2);
    return record_walk(f, u, end, x);
}

/* One ruler-form step from the odd seed, then the pq form. */
static int span_u_residues_odd_check(Findings *f, u64 seed, long long budget)
{
    u64 x;
    if (!emapt_ruler_u64(seed, &x))
        return NO_FIT;
    int end = residue_walk(&x, budget, 0, 1);
    return record_walk(f, seed, end, x);
}

/* The literal parity run from n against its closed-form length and apt_step. */
static int span_parity_runs_check(Findings *f, u64 n, long long Py_UNUSED(budget))
{
    u64 x = n, landing;
    int run = 0, expected;
    if ((n & 1) == 0) {
        for (; (x & 1) == 0; run++)
            x >>= 1;
        expected = ctz(n >> 1) + 1;
    } else {
        for (; x & 1; run++)
            if (!t_u64(x, &x))
                return NO_FIT;
        expected = ctz((n + 1) >> 1) + 1;
    }
    if (!apt_u64(n, &landing))
        return NO_FIT;
    if (run != expected)
        return violation(f, n, PyUnicode_FromFormat("run length %d, expected %d",
                                                    run, expected));
    if (x != landing)
        return violation(f, n, PyUnicode_FromFormat(
                             "run lands on %llu, not the accelerated step",
                             (unsigned long long)x));
    return DONE;
}

/* For even n >= 2, the pq and ruler forms of the even step; then both index
   maps from p(n) and q(n) against apt_step.  Below SAFE_N the even value
   2(n + 1) fits. */
static int span_dual_forms_check(Findings *f, u64 n, long long Py_UNUSED(budget))
{
    int even_step = n >= 2 && (n & 1) == 0;
    int differ = even_step ? emapt_forms_differ(n) : 0;
    u64 odd = 2 * p_u64(n) + 1, even_landing, odd_landing;
    int q = q_u64(n);
    u64 even = odd << q, succ = mul_pow3(odd, q);
    if (differ < 0 || succ == 0 || !apt_u64(even, &even_landing)
        || !apt_u64(even - 1, &odd_landing))
        return NO_FIT;
    f->checked += even_step;   /* the even step is one more input */
    if (!differ && even_landing == odd && odd_landing == succ - 1)
        return DONE;
    int end = DONE;
    if (differ)
        end = violation(f, n, PyUnicode_FromString("pq and ruler forms disagree"));
    if (end == DONE && even_landing != odd)
        end = violation(f, n, PyUnicode_FromString(
                            "even index map disagrees with accelerated step"));
    if (end == DONE && odd_landing != succ - 1)
        end = violation(f, n, PyUnicode_FromString(
                            "odd index map disagrees with accelerated step"));
    return end;
}

/* The orbit-walk spans, each start walked on its own: the checks of
   _pure's covering_chain, apt_stopping and emapt_stopping of 6n + 2.
   _pure's spans share finished tails between starts; these walk each start
   in full. */
static int span_covering_check(Findings *f, u64 n, long long budget)
{
    long long len[3];
    int ok;
    if (!cover(n, budget, len, &ok))
        return NO_FIT;
    if (ok == 0)
        return violation(f, n, PyUnicode_FromString("orbit containment failed"));
    if (ok < 0)
        return exhaust(f, n);
    if (len[2] > len[1] || len[1] > len[0])
        return violation(f, n, PyUnicode_FromFormat("length chain broken: %lld, %lld, %lld",
                                                    len[2], len[1], len[0]));
    return DONE;
}

static int span_conjecture_apt_check(Findings *f, u64 n, long long budget)
{
    u64 x = n;
    long long steps = 0;
    if (walk(&x, 1, &steps, budget, apt_u64) < 0)
        return NO_FIT;
    return x == 1 ? DONE : exhaust(f, n);
}

static int span_conjecture_emapt_check(Findings *f, u64 n, long long budget)
{
    u64 x = 6 * n + 2;
    long long steps = 0;
    if (walk(&x, 2, &steps, budget, emapt_pq_u64) < 0)
        return NO_FIT;
    return x == 2 ? DONE : exhaust(f, n);
}

/*    name                   result  budgeted  first  stride  least  limit */
RANGE(scan_p3n,              LIST,   0, lo, 1, 0, SAFE3)
RANGE(scan_x_residues,       LIST,   0, lo, 1, 0, SAFE3)
RANGE(span_u_residues,       TRIPLE, 1, lo + (lo & 1), 2, 2, U64_MAX)
RANGE(span_u_residues_odd,   TRIPLE, 1, lo | 1, 2, 1, U64_MAX)
RANGE(span_parity_runs,      TRIPLE, 0, lo, 1, 1, SAFE3)
RANGE(span_dual_forms,       TRIPLE, 0, lo, 1, 0, SAFE_N - 1)
RANGE(span_covering,         TRIPLE, 1, lo, 1, 1, U64_MAX)
RANGE(span_conjecture_apt,   TRIPLE, 1, lo, 1, 1, U64_MAX)
RANGE(span_conjecture_emapt, TRIPLE, 1, lo, 1, 0, (U64_MAX - 2) / 6)   /* 6n + 2 fits */

/* --- module ---------------------------------------------------------------- */

#define ONE(name) {#name, name, METH_O, NULL}
#define MANY(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ONE(ruler),
    ONE(interleave_p),
    ONE(shifted_ruler_q),
    ONE(odd_part),
    ONE(apt_step),
    ONE(emapt_step_pq),
    ONE(emapt_step_ruler),
    ONE(omapt_step),
    ONE(x_step),
    MANY(scan_p3n),
    MANY(scan_x_residues),
    MANY(span_u_residues),
    MANY(span_u_residues_odd),
    MANY(span_parity_runs),
    MANY(span_dual_forms),
    MANY(span_covering),
    MANY(span_conjecture_apt),
    MANY(span_conjecture_emapt),
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *Py_UNUSED(module))
{
    pow3[0] = 1;
    for (int e = 1; e <= 40; e++)
        pow3[e] = 3 * pow3[e - 1];
    if (pure == NULL)
        pure = PyImport_ImportModule("collatz_lab._pure");
    return pure == NULL ? -1 : 0;
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
    {0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "collatz_lab._fast",
    .m_doc = "Compiled integer kernels; the uint64 twin of collatz_lab._pure.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    return PyModuleDef_Init(&module);
}
