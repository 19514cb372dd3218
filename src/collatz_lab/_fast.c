/* Compiled integer kernels: the uint64 twin of collatz_lab._pure.

   Built only on request, in place, with the gcc line in README "Install";
   `collatz_lab.kernels` then binds these functions in place of _pure's.

   Every kernel runs a fixed-width uint64 fast path and calls the _pure
   function of the same name, with the caller's arguments, whenever a value
   might not fit: an argument that is negative or >= 2^64, a budget outside
   long long, a product that would pass 2^64 mid-orbit (the whole count then
   restarts in _pure), or a zero that ctz would see.  Only OverflowError is
   taken as "does not fit"; any other conversion error propagates.  So every
   result equals _pure's on the kernels' domain, which is all the checked
   public API passes; outside it (emapt_stopping of an odd u, say) the two
   may differ.

   The stopping counters and covering_chain are literal loops, one parity
   run (or one step) at a time, not block jumps, so comparing them with
   _pure's block walk tests the Terras and (R + 1) / 2 identities. */

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

static int two_args(const char *name, Py_ssize_t nargs)
{
    if (nargs == 2)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly 2 arguments (%zd given)",
                 name, nargs);
    return -1;
}

/* (n, budget): 1 when both fit, 0 when _pure takes the call, -1 on error. */
static int orbit_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
                      u64 *n, long long *budget)
{
    if (two_args(name, nargs) < 0)
        return -1;
    int fits = to_u64(args[0], n);
    return fits <= 0 ? fits : to_ll(args[1], budget);
}

/* (lo, hi), likewise. */
static int range_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
                      u64 *lo, u64 *hi)
{
    if (two_args(name, nargs) < 0)
        return -1;
    int fits = to_u64(args[0], lo);
    return fits <= 0 ? fits : to_u64(args[1], hi);
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

typedef struct {
    u64 *data;
    Py_ssize_t size, cap;
} Buf;

static int push(Buf *b, u64 v)
{
    if (b->size == b->cap) {
        Py_ssize_t cap = b->cap ? 2 * b->cap : 128;
        u64 *grown = PyMem_Realloc(b->data, cap * sizeof *grown);
        if (grown == NULL)
            return -1;
        b->data = grown;
        b->cap = cap;
    }
    b->data[b->size++] = v;
    return 0;
}

/* Pushes x and its orbit under step until 1 or `budget` steps: 1 when it
   reached 1, 0 when the budget ran out, -1 when a step does not fit or
   memory ran out. */
static inline __attribute__((always_inline)) int
fill(Buf *b, u64 x, long long budget, int (*step)(u64, u64 *))
{
    if (push(b, x) < 0)
        return -1;
    for (; x != 1 && budget > 0; budget--)
        if (!step(x, &x) || push(b, x) < 0)
            return -1;
    return x == 1;
}

/* Whether inner is an ordered subsequence of outer. */
static int subseq(const Buf *inner, const Buf *outer)
{
    Py_ssize_t j = 0;
    for (Py_ssize_t i = 0; i < inner->size; i++, j++) {
        while (j < outer->size && outer->data[j] != inner->data[i])
            j++;
        if (j == outer->size)
            return 0;
    }
    return 1;
}

static PyObject *covering_chain(PyObject *Py_UNUSED(self), PyObject *const *args,
                                Py_ssize_t nargs)
{
    u64 n;
    long long budget;
    int fits = orbit_args("covering_chain", args, nargs, &n, &budget);
    if (fits <= 0)
        return fits < 0 ? NULL : pure_call("covering_chain", args, nargs);
    Buf c = {0}, t = {0}, a = {0};
    int rc, rt, ra;
    PyObject *result;
    /* The accelerated orbit first: it declines n = 0 at once, where the
       other two would fill the whole budget with zeros. */
    if ((ra = fill(&a, n, budget, apt_u64)) < 0
        || (rt = fill(&t, n, budget, t_u64)) < 0
        || (rc = fill(&c, n, budget, c_u64)) < 0)
        result = pure_call("covering_chain", args, nargs);
    else if (rc && rt && ra)
        result = Py_BuildValue("(nnni)", c.size, t.size, a.size,
                               subseq(&a, &t) && subseq(&t, &c));
    else
        result = Py_BuildValue("(nnni)", rc ? c.size : -1, rt ? t.size : -1,
                               ra ? a.size : -1, -1);
    PyMem_Free(c.data);
    PyMem_Free(t.data);
    PyMem_Free(a.data);
    return result;
}

/* Steps from n to target under step, -1 once the budget runs out, or -2
   when a step does not fit. */
static inline __attribute__((always_inline)) long long
stopping(u64 n, u64 target, long long budget, int (*step)(u64, u64 *))
{
    long long steps = 0;
    for (; n != target; steps++) {
        if (steps >= budget)
            return -1;
        if (!step(n, &n))
            return -2;
    }
    return steps;
}

static PyObject *apt_stopping(PyObject *Py_UNUSED(self), PyObject *const *args,
                              Py_ssize_t nargs)
{
    u64 n;
    long long budget, steps;
    int fits = orbit_args("apt_stopping", args, nargs, &n, &budget);
    if (fits < 0)
        return NULL;
    if (fits && (steps = stopping(n, 1, budget, apt_u64)) != -2)
        return PyLong_FromLongLong(steps);
    return pure_call("apt_stopping", args, nargs);
}

static PyObject *emapt_stopping(PyObject *Py_UNUSED(self), PyObject *const *args,
                                Py_ssize_t nargs)
{
    u64 u;
    long long budget, steps;
    int fits = orbit_args("emapt_stopping", args, nargs, &u, &budget);
    if (fits < 0)
        return NULL;
    if (fits && (steps = stopping(u, 2, budget, emapt_pq_u64)) != -2)
        return PyLong_FromLongLong(steps);
    return pure_call("emapt_stopping", args, nargs);
}

/* --- range scans; each returns the list of violating inputs --------------- */

/* Whether _pure's scan `name` flags the single value v; -1 on error. */
static int pure_flags(const char *name, u64 v)
{
    PyObject *obj = PyLong_FromUnsignedLongLong(v);
    if (obj == NULL)
        return -1;
    PyObject *args[2] = {obj, obj};
    PyObject *bad = pure_call(name, args, 2);
    Py_DECREF(obj);
    if (bad == NULL)
        return -1;
    int flagged = PyObject_IsTrue(bad);
    Py_DECREF(bad);
    return flagged;
}

/* The values lo, lo + stride, ... <= hi for which flag (1 bad, 0 good, -1
   error) says bad.  Never steps past hi, so never wraps. */
static inline __attribute__((always_inline)) PyObject *
scan(u64 lo, u64 hi, u64 stride, int (*flag)(u64))
{
    PyObject *bad = PyList_New(0);
    if (bad == NULL || lo > hi)
        return bad;
    for (u64 v = lo, left = (hi - lo) / stride;; v += stride, left--) {
        int f = flag(v);
        if (f) {
            PyObject *obj = f < 0 ? NULL : PyLong_FromUnsignedLongLong(v);
            int failed = obj == NULL || PyList_Append(bad, obj) < 0;
            Py_XDECREF(obj);
            if (failed) {
                Py_DECREF(bad);
                return NULL;
            }
        }
        if (left == 0)
            return bad;
    }
}

/* (2 p(n) + 1) 2^q(n) must rebuild 2(n + 1), and its predecessor 2n + 1. */
static int index_rep_bad(u64 n)
{
    u64 e = (2 * p_u64(n) + 1) << q_u64(n);
    return e != 2 * (n + 1) || e - 1 != 2 * n + 1;
}

/* The ruler of e / 2 must equal q(n). */
static int ruler_identity_bad(u64 n)
{
    int q = q_u64(n);
    u64 e = (2 * p_u64(n) + 1) << q;
    return ctz(e >> 1) + 1 != q;
}

static int p3n_bad(u64 n) { return p_u64(3 * n) % 3 == 1; }

static int x_residue_bad(u64 x)
{
    u64 out;
    if (!x_u64(x, &out))
        return pure_flags("scan_x_residues", x);
    return out % 3 == 2;
}

static int emapt_forms_bad(u64 u)
{
    u64 via_pq, via_ruler;
    if (!emapt_pq_u64(u, &via_pq) || !emapt_ruler_u64(u, &via_ruler))
        return pure_flags("scan_emapt_forms", u);
    return via_pq != via_ruler;
}

/* Scans [first, hi] in steps of stride; _pure takes the call when lo or hi
   does not fit, or when hi reaches the scan's cutoff. */
#define SCAN(name, cutoff, first, stride, flag)                              \
    static PyObject *name(PyObject *Py_UNUSED(self), PyObject *const *args, \
                          Py_ssize_t nargs)                                  \
    {                                                                        \
        u64 lo, hi;                                                          \
        int fits = range_args(#name, args, nargs, &lo, &hi);                 \
        if (fits < 0)                                                        \
            return NULL;                                                     \
        if (!fits || (cutoff))                                               \
            return pure_call(#name, args, nargs);                            \
        return scan(first, hi, stride, flag);                                \
    }

SCAN(scan_index_reps, hi >= SAFE_N, lo, 1, index_rep_bad)
SCAN(scan_ruler_identities, hi >= SAFE_N, lo, 1, ruler_identity_bad)
SCAN(scan_p3n, hi > SAFE3, lo, 1, p3n_bad)
SCAN(scan_x_residues, 0, lo, 1, x_residue_bad)
/* Even u from 2 on.  Rounding lo up to even must not wrap 2^64 - 1 to 0; a
   lo past hi gives no values either way. */
SCAN(scan_emapt_forms, hi >= U64_MAX - 1,
     lo < 2 ? 2 : lo + ((lo & 1) && lo <= hi), 2, emapt_forms_bad)

/* --- module ---------------------------------------------------------------- */

#define ONE(name) {#name, name, METH_O, NULL}
#define TWO(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL}

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
    TWO(covering_chain),
    TWO(apt_stopping),
    TWO(emapt_stopping),
    TWO(scan_index_reps),
    TWO(scan_ruler_identities),
    TWO(scan_p3n),
    TWO(scan_x_residues),
    TWO(scan_emapt_forms),
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
