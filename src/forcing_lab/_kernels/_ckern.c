/* Compiled bitset kernels, written directly against the CPython API.
 *
 * Mirrors _kernels/pure.py exactly: ten of its twelve functions, with the
 * same return values, witnesses and node counts. The other two stay
 * pure-only: graph_facts here runs k_connected's cut walk itself, and
 * unpack_triangle here does triangle_masks's work inside augment and
 * graph6_masks. The exhaustive level scans are Python loops in _kernels on
 * this file's closure and connected_in; the brute-force oracle's runs on
 * pure.py's closure, so it stays independent of this file. Keep the two
 * files in sync; the differential tests compare them kernel by kernel.
 *
 * The exact solver is wavefront (the forcing number, by best-first search
 * over closed sets) followed by one search_level_pruned at that size (the
 * lexicographically smallest witness). Both only ever close a closed set
 * plus a few vertices, so they restart the rule from that set
 * (close_from); the closure kernel restarts it from the empty set.
 * Enumeration calls augment once per parent class, packed as its cache
 * holds it: canonical augmentation, which returns one child per class that
 * has the parent as its canonical parent, each as the parent's mask with
 * the new vertex's neighborhood as the last column. It tries one
 * neighborhood per orbit of the parent's automorphism group (from
 * generators found by backtracking over colour-preserving bijections, the
 * colours those of refine) and keeps a child when its new vertex wins the
 * deletion cuts: invariant and non-cut on stack masks, then the refine
 * colour, then place, the one labeling search that canonical_mask also
 * runs. The enumeration writes each child with triangle_graph6.
 * A packed triangle (triangle_words) or a graph6 payload is read into
 * words, which unpack_triangle alone, knowing the pair order, turns into
 * neighbor masks; graph_facts gives the degrees and decides the degree
 * bound's hypotheses, k-connectivity cut by cut.
 * verify_line is a sweep's whole kernel work on one graph6 line in one
 * call: it frames the line by parse_graph6's rules, decodes its payload
 * and runs graph_facts and, when the bound applies, wavefront, through the
 * same static helpers as graph6_masks and graph_facts, so the decoding and
 * the hypotheses are written once.
 * Two kernels allocate memory of their own: wavefront its closed-set table
 * and cost buckets, which grow by at most one entry per node, so the node
 * budget bounds them, and augment its automorphism generators and orbit
 * marks (one bit per vertex subset, taken only when the parent has an
 * automorphism besides the identity). Each frees what it took on every
 * exit, and a failed allocation raises MemoryError.
 *
 * A graph arrives as a sequence of neighbor bitmasks (nbrs[v] has bit u set
 * iff uv is an edge) and a vertex subset as one int. Both are held in
 * uint64 masks, so graphs are capped at 62 vertices (the graph6 cap); a
 * larger graph raises ValueError and the dispatcher uses pure.py instead.
 * augment, triangle_graph6 and graph6_masks take the order n as an
 * argument and refuse n > 62 in the same way, augment n = 62 too, since
 * its children are one vertex larger; verify_line reads n from the line's
 * size byte, which names at most 62. Only canonical_mask and augment
 * return ints wider than 64 bits: a mask has n(n-1)/2 bits, built in one
 * uint64 up to n = 11.
 *
 * Every kernel takes its arguments by position only (METH_VARARGS and
 * PyArg_UnpackTuple): no caller names one, so no call pays for parsing
 * keywords.
 *
 * Build in place with: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

#define MAX_N 62
#define ONE ((u64)1)

typedef struct {
    int n;
    u64 full;            /* mask of all n vertices */
    u64 nbrs[MAX_N];
} graph;

enum { EXHAUSTED, FOUND, ABORTED, NO_MEMORY };


/* -- kernels on uint64 masks ---------------------------------------------- */

/* The closure of closed | added for a set closed that the rule leaves
 * unchanged: the rule is tried on the vertices of added outside closed and
 * their colored neighbors, and after each force on the vertices it colored
 * and their colored neighbors; see pure._close_from. The empty set is
 * closed, so from it this is the closure of any start (py_closure). */
static u64 close_from(const u64 *nbrs, long long k, u64 closed, u64 added)
{
    u64 colored = closed | added, todo = added & ~closed;
    for (u64 m = todo; m; m &= m - 1)
        todo |= nbrs[__builtin_ctzll(m)];
    todo &= colored;
    while (todo) {
        u64 w = nbrs[__builtin_ctzll(todo)] & ~colored;
        todo &= todo - 1;
        if (w && __builtin_popcountll(w) <= k) {
            colored |= w;
            todo |= w;
            for (u64 m = w; m; m &= m - 1)
                todo |= nbrs[__builtin_ctzll(m)];
            todo &= colored;
        }
    }
    return colored;
}

static int connected_in_u64(const u64 *nbrs, u64 mask)
{
    if (mask == 0)
        return 1;
    u64 seen = mask & (0 - mask);
    u64 frontier = seen;
    while (frontier) {
        u64 next = 0;
        for (u64 m = frontier; m; m &= m - 1)
            next |= nbrs[__builtin_ctzll(m)];
        next &= mask & ~seen;
        seen |= next;
        frontier = next;
    }
    return seen == mask;
}

static int pruned(const graph *g, long long k, long long size,
                  long long budget, u64 *witness, long long *nodes)
{
    int n = g->n;
    int chosen[MAX_N], cand[MAX_N];
    u64 base_cl[MAX_N + 1];
    if (size < 1 || size > n)
        return EXHAUSTED;
    base_cl[0] = 0;
    cand[0] = 0;
    int depth = 0;
    while (depth >= 0) {
        int v = cand[depth];
        if (v > n - (size - depth)) {
            if (--depth >= 0)
                cand[depth]++;
            continue;
        }
        if (base_cl[depth] >> v & 1) {
            cand[depth]++;
            continue;
        }
        if (*nodes >= budget)
            return ABORTED;
        ++*nodes;
        u64 new_cl = close_from(g->nbrs, k, base_cl[depth], ONE << v);
        if (depth + 1 == size) {
            if (new_cl == g->full) {
                *witness = ONE << v;
                for (int i = 0; i < depth; i++)
                    *witness |= ONE << chosen[i];
                return FOUND;
            }
            cand[depth]++;
        } else {
            chosen[depth] = v;
            base_cl[depth + 1] = new_cl;
            cand[++depth] = v + 1;
        }
    }
    return EXHAUSTED;
}

/* Closed sets seen by wavefront and the best cost of each: open addressing
 * with linear probing, at most half full. A slot holding EMPTY is free; no
 * mask of at most 62 vertices has bit 63 set. */
#define EMPTY (~(u64)0)

typedef struct {
    u64 *keys;
    unsigned char *costs;
    int bits;                     /* capacity is 2^bits */
    size_t used;
} table;

/* One bucket per cost, popped first in first out. */
typedef struct {
    u64 *items;
    size_t len, cap;
} bucket;

static int table_init(table *t, int bits)
{
    size_t capacity = (size_t)1 << bits;
    t->keys = malloc(capacity * sizeof *t->keys);
    t->costs = malloc(capacity);
    t->bits = bits;
    t->used = 0;
    if (t->keys == NULL || t->costs == NULL)
        return -1;
    for (size_t i = 0; i < capacity; i++)
        t->keys[i] = EMPTY;
    return 0;
}

/* Slot holding key, or the free slot where it belongs. */
static size_t table_slot(const table *t, u64 key)
{
    size_t mask = ((size_t)1 << t->bits) - 1;
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> (64 - t->bits));
    while (t->keys[i] != key && t->keys[i] != EMPTY)
        i = (i + 1) & mask;
    return i;
}

static int table_grow(table *t)
{
    table bigger;
    if (table_init(&bigger, t->bits + 1) < 0) {
        free(bigger.keys);
        free(bigger.costs);
        return -1;
    }
    for (size_t i = 0; i < (size_t)1 << t->bits; i++) {
        if (t->keys[i] != EMPTY) {
            size_t j = table_slot(&bigger, t->keys[i]);
            bigger.keys[j] = t->keys[i];
            bigger.costs[j] = t->costs[i];
        }
    }
    bigger.used = t->used;
    free(t->keys);
    free(t->costs);
    *t = bigger;
    return 0;
}

static int bucket_push(bucket *b, u64 set)
{
    if (b->len == b->cap) {
        size_t cap = b->cap ? 2 * b->cap : 16;
        u64 *items = realloc(b->items, cap * sizeof *items);
        if (items == NULL)
            return -1;
        b->items = items;
        b->cap = cap;
    }
    b->items[b->len++] = set;
    return 0;
}

/* Best-first search over closed sets; see pure.wavefront. On FOUND *value
 * is the forcing number, on ABORTED the cost being expanded. */
static int wavefront(const graph *g, long long k, long long budget,
                     long long *value, long long *nodes)
{
    int n = g->n, limit = n, cost = 0, outcome = FOUND;
    bucket buckets[MAX_N + 1] = {{0}};
    table seen;
    if (table_init(&seen, 6) < 0 || bucket_push(&buckets[0], 0) < 0) {
        outcome = NO_MEMORY;
        goto done;
    }
    size_t start = table_slot(&seen, 0);
    seen.keys[start] = 0;
    seen.costs[start] = 0;
    seen.used = 1;
    for (cost = 0; cost < limit; cost++) {
        bucket *b = &buckets[cost];
        for (size_t i = 0; i < b->len; i++) {
            u64 s = b->items[i];
            if (seen.costs[table_slot(&seen, s)] != cost)
                continue;
            for (int v = 0; v < n; v++) {
                u64 out = g->nbrs[v] & ~s;
                int inside = s >> v & 1;
                if (inside && !out)
                    continue;
                /* Unsigned, so that no k (clamped to 64 bits) overflows. */
                int outside = __builtin_popcountll(out);
                u64 wide = (u64)cost + !inside
                           + (outside > k ? (u64)outside - (u64)k : 0);
                if (wide >= (u64)limit)
                    continue;
                int step = (int)wide;
                if (*nodes >= budget) {
                    outcome = ABORTED;
                    goto done;
                }
                ++*nodes;
                u64 t = close_from(g->nbrs, k, s, ONE << v | g->nbrs[v]);
                if (t == g->full) {
                    limit = step;
                    continue;
                }
                if (step + 1 >= limit)
                    continue;
                size_t j = table_slot(&seen, t);
                if (seen.keys[j] == EMPTY) {
                    if (2 * (seen.used + 1) > (size_t)1 << seen.bits) {
                        if (table_grow(&seen) < 0) {
                            outcome = NO_MEMORY;
                            goto done;
                        }
                        j = table_slot(&seen, t);
                    }
                    seen.keys[j] = t;
                    seen.used++;
                } else if (seen.costs[j] <= step)
                    continue;
                seen.costs[j] = (unsigned char)step;
                if (bucket_push(&buckets[step], t) < 0) {
                    outcome = NO_MEMORY;
                    goto done;
                }
            }
        }
        free(b->items);
        *b = (bucket){0};
    }
done:
    *value = outcome == ABORTED ? cost : limit;
    for (int c = 0; c <= MAX_N; c++)
        free(buckets[c].items);
    free(seen.keys);
    free(seen.costs);
    return outcome;
}

/* Branch and bound over the labelings that extend perm[0..pos) by placing
 * an unused vertex of cells[p] at each later position p, in ascending
 * order; see pure._place. best[j] is column j of the smallest labeling
 * found so far (1 << j, which has one bit too many for a column, marks
 * "none yet"). Unless bounded, a smaller prefix replaces it; when bounded,
 * best is fixed and the search returns 1 at the first prefix below it. */
static int place(const graph *g, const u64 *cells, int *perm, int pos,
                 u64 used, u64 *best, int bounded)
{
    if (pos == g->n)
        return 0;
    for (u64 m = cells[pos] & ~used; m; m &= m - 1) {
        int v = __builtin_ctzll(m);
        u64 col = 0;
        for (int i = 0; i < pos; i++)
            col = col << 1 | (g->nbrs[v] >> perm[i] & 1);
        if (pos > 0) {
            if (col > best[pos])
                continue;
            if (col < best[pos]) {
                if (bounded)
                    return 1;
                best[pos] = col;
                for (int j = pos + 1; j < g->n; j++)
                    best[j] = ONE << j;
            }
        }
        perm[pos] = v;
        if (place(g, cells, perm, pos + 1, used | ONE << v, best, bounded))
            return 1;
    }
    return 0;
}

/* Vertices a and b by refinement signature: colour, then the sorted
 * colours of the neighbors (a and b have one degree when their colours
 * are equal). */
static int signature_cmp(const int *col, const int *deg,
                         unsigned char (*nbr_cols)[MAX_N], int a, int b)
{
    if (col[a] != col[b])
        return col[a] < col[b] ? -1 : 1;
    return memcmp(nbr_cols[a], nbr_cols[b], (size_t)deg[a]);
}

/* Degree-seeded colour refinement; see pure._refine. Sets col[v] to v's
 * stable colour and returns the number of colours. */
static int refine(const graph *g, int *col)
{
    int n = g->n, deg[MAX_N], present[MAX_N] = {0}, rank[MAX_N];
    int order[MAX_N], next[MAX_N], count = 0;
    unsigned char nbr_cols[MAX_N][MAX_N];
    for (int v = 0; v < n; v++) {
        deg[v] = __builtin_popcountll(g->nbrs[v]);
        present[deg[v]] = 1;
    }
    for (int d = 0; d < n; d++) {
        rank[d] = count;
        count += present[d];
    }
    for (int v = 0; v < n; v++)
        col[v] = rank[deg[v]];
    while (count < n) {
        for (int v = 0; v < n; v++) {
            int k = 0;
            for (u64 m = g->nbrs[v]; m; m &= m - 1) {
                unsigned char c = (unsigned char)col[__builtin_ctzll(m)];
                int i = k++;
                for (; i > 0 && nbr_cols[v][i - 1] > c; i--)
                    nbr_cols[v][i] = nbr_cols[v][i - 1];
                nbr_cols[v][i] = c;
            }
        }
        for (int v = 0; v < n; v++) {
            int i = v;
            for (; i > 0 && signature_cmp(col, deg, nbr_cols, order[i - 1], v) > 0; i--)
                order[i] = order[i - 1];
            order[i] = v;
        }
        int colours = 1;
        next[order[0]] = 0;
        for (int i = 1; i < n; i++) {
            colours += signature_cmp(col, deg, nbr_cols, order[i - 1], order[i]) != 0;
            next[order[i]] = colours - 1;
        }
        if (colours == count)
            break;
        count = colours;
        memcpy(col, next, (size_t)n * sizeof *col);
    }
    return count;
}

/* Whether mapping i to x keeps i's adjacency to 0..i-1, whose images are
 * img[0..i). */
static int fits(const graph *g, const int *img, int i, int x)
{
    for (int j = 0; j < i; j++)
        if ((g->nbrs[i] >> j & 1) != (g->nbrs[x] >> img[j] & 1))
            return 0;
    return 1;
}

/* Extends img[0..i) to an automorphism that keeps colours; used holds the
 * images taken. Returns 1 when it did. */
static int extend(const graph *g, const int *col, int *img, int i, u64 used)
{
    if (i == g->n)
        return 1;
    for (int x = 0; x < g->n; x++) {
        if (used >> x & 1 || col[x] != col[i] || !fits(g, img, i, x))
            continue;
        img[i] = x;
        if (extend(g, col, img, i + 1, used | ONE << x))
            return 1;
    }
    return 0;
}

/* Generators of Aut(g), n image bytes each, written to gens (room for
 * n^2 of them; there are at most n(n-1)/2); see pure._automorphism_generators. Returns their
 * number. */
static int automorphism_generators(const graph *g, unsigned char *gens)
{
    int n = g->n, col[MAX_N], img[MAX_N], count = 0;
    refine(g, col);
    for (int i = 0; i < n; i++) {
        for (int x = i + 1; x < n; x++) {
            for (int j = 0; j < i; j++)
                img[j] = j;
            if (col[x] != col[i] || !fits(g, img, i, x))
                continue;
            img[i] = x;
            if (!extend(g, col, img, i + 1, ((ONE << i) - 1) | ONE << x))
                continue;
            for (int v = 0; v < n; v++)
                gens[count * n + v] = (unsigned char)img[v];
            count++;
        }
    }
    return count;
}

/* Cuts 2 to 4 of augment: whether the last vertex w of c stays in the
 * canonical deletion class against rivals, the other non-cut vertices
 * whose invariant equals w's; see pure._wins_deletion. */
static int wins_deletion(const graph *c, u64 rivals)
{
    int n = c->n, w = n - 1, col[MAX_N], perm[MAX_N];
    u64 members[MAX_N] = {0}, cells[MAX_N], key[MAX_N], ties = 0;
    int colours = refine(c, col);
    for (u64 m = rivals; m; m &= m - 1) {
        int u = __builtin_ctzll(m);
        if (col[u] < col[w])
            return 0;
        if (col[u] == col[w])
            ties |= ONE << u;
    }
    if (!ties)
        return 1;
    /* Position 0 holds the first vertex, the rest the others by colour. */
    for (int v = 0; v < n; v++)
        members[col[v]] |= ONE << v;
    int pos = 1;
    for (int k = 0; k < colours; k++)
        for (int size = __builtin_popcountll(members[k]) - (k == col[w]);
             size > 0; size--)
            cells[pos++] = members[k];
    cells[0] = ONE << w;
    for (int j = 0; j < n; j++)
        key[j] = ONE << j;
    place(c, cells, perm, 0, 0, key, 0);
    for (u64 m = ties; m; m &= m - 1) {
        cells[0] = m & (0 - m);
        if (place(c, cells, perm, 0, 0, key, 1))
            return 0;
    }
    return 1;
}


/* -- conversions ---------------------------------------------------------- */

/* Saturating int conversion. Every integer argument is only compared with
 * values below 2^63, so clamping gives the same results as pure.py. */
static int as_ll(PyObject *obj, long long *out)
{
    int overflow;
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *out = PyLong_AsLongLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (overflow)
        *out = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* A vertex mask of g. Bits past the last vertex are refused: the kernels
 * would read neighbor masks beyond the array (pure.py raises IndexError). */
static int as_mask(PyObject *obj, const graph *g, u64 *out)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    if (*out == (u64)-1 && PyErr_Occurred())
        return -1;
    if (*out & ~g->full) {
        PyErr_SetString(PyExc_ValueError, "mask has bits beyond the last vertex");
        return -1;
    }
    return 0;
}

static int load(PyObject *nbrs, graph *g)
{
    PyObject *seq = PySequence_Fast(nbrs, "nbrs must be a sequence of masks");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int ok = n <= MAX_N;
    if (!ok)
        PyErr_SetString(PyExc_ValueError,
                        "compiled kernels support at most 62 vertices");
    else {
        g->n = (int)n;
        g->full = (ONE << n) - 1;
        PyObject **items = PySequence_Fast_ITEMS(seq);
        for (int v = 0; ok && v < g->n; v++)
            ok = as_mask(items[v], g, &g->nbrs[v]) == 0;
    }
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

/* Column j of the best labeling lands at bits j(j-1)/2 .. j(j+1)/2 - 1 with
 * its first row lowest, so the highest column is shifted in first. */
static u64 column_bits(const u64 *best, int j)
{
    u64 col = 0;
    for (int i = 0; i < j; i++)
        col |= (best[j] >> (j - 1 - i) & 1) << i;
    return col;
}

/* The packed upper triangle whose column j, bits j(j-1)/2 .. j(j+1)/2 - 1,
 * is cols[j] (row i at bit i), built in one u64 when its n(n-1)/2 bits
 * fit. */
static PyObject *pack_columns(const u64 *cols, int n)
{
    if (n * (n - 1) / 2 <= 64) {
        u64 out = 0;
        for (int j = n - 1; j >= 1; j--)
            out = out << j | cols[j];
        return PyLong_FromUnsignedLongLong(out);
    }
    PyObject *out = PyLong_FromLong(0);
    for (int j = n - 1; j >= 1 && out != NULL; j--) {
        PyObject *width = PyLong_FromLong(j);
        PyObject *bits = PyLong_FromUnsignedLongLong(cols[j]);
        PyObject *shifted = width && bits ? PyNumber_Lshift(out, width) : NULL;
        Py_DECREF(out);
        out = shifted ? PyNumber_Or(shifted, bits) : NULL;
        Py_XDECREF(shifted);
        Py_XDECREF(width);
        Py_XDECREF(bits);
    }
    return out;
}

/* The canonical certificate of g: the minimum upper-triangle mask over all
 * relabelings, the search of place with every vertex allowed everywhere. */
static PyObject *certificate(const graph *g)
{
    u64 best[MAX_N], cells[MAX_N], cols[MAX_N];
    int perm[MAX_N], n = g->n;
    for (int j = 0; j < n; j++) {
        best[j] = ONE << j;
        cells[j] = g->full;
    }
    place(g, cells, perm, 0, 0, best, 0);
    for (int j = 1; j < n; j++)
        cols[j] = column_bits(best, j);
    return pack_columns(cols, n);
}

/* An order n for the kernels that take it as an argument. */
static int as_order(PyObject *obj, int *n)
{
    long long value;
    if (as_ll(obj, &value) < 0)
        return -1;
    if (value < 0 || value > MAX_N) {
        PyErr_SetString(PyExc_ValueError,
                        value < 0 ? "vertex count must be non-negative"
                                  : "compiled kernels support at most 62 vertices");
        return -1;
    }
    *n = (int)value;
    return 0;
}

/* Bit p of the packed upper triangle, in little-endian 64-bit words. */
#define PAIR_WORDS ((MAX_N * (MAX_N - 1) / 2 + 63) / 64)

/* Sets g to the n-vertex graph whose pair i < j is bit j(j-1)/2 + i of
 * words (column-major, the graph6 order). Bits past the triangle are not
 * read. */
static void unpack_triangle(const u64 *words, int n, graph *g)
{
    int p = 0;
    g->n = n;
    g->full = (ONE << n) - 1;
    memset(g->nbrs, 0, sizeof g->nbrs);
    for (int j = 1; j < n; j++)
        for (int i = 0; i < j; i++, p++)
            if (words[p >> 6] >> (p & 63) & 1) {
                g->nbrs[i] |= ONE << j;
                g->nbrs[j] |= ONE << i;
            }
}

/* Reads the int bits, the packed upper triangle of an n-vertex graph, into
 * words, which start zeroed; returns 0, or -1 with an exception set:
 * ValueError when bits has a bit beyond the triangle. */
static int triangle_words(PyObject *bits, int n, u64 *words)
{
    int pairs = n * (n - 1) / 2;
    /* Take the words off the low end; what is left must be 0 (a negative
     * int never shifts down to 0). */
    PyObject *width = PyLong_FromLong(64);
    PyObject *rest = width ? PyNumber_Index(bits) : NULL;
    for (int w = 0; rest != NULL && 64 * w < pairs; w++) {
        words[w] = PyLong_AsUnsignedLongLongMask(rest);
        Py_SETREF(rest, PyNumber_Rshift(rest, width));
    }
    int beyond = rest ? PyObject_IsTrue(rest) : -1;
    Py_XDECREF(rest);
    Py_XDECREF(width);
    if (beyond < 0)
        return -1;
    if (beyond || (pairs % 64 && words[pairs / 64] >> pairs % 64)) {
        PyErr_SetString(PyExc_ValueError,
                        "mask has bits beyond the upper triangle");
        return -1;
    }
    return 0;
}

/* Sets g to the n-vertex graph of the graph6 payload chars, which holds
 * exactly ceil(n(n-1)/12) characters; returns 0, or -1 when one of them
 * lies outside '?'..'~'. Padding bits past the triangle are ignored. */
static int decode_payload(const Py_UCS1 *chars, int n, graph *g)
{
    u64 words[PAIR_WORDS] = {0};
    int need = (n * (n - 1) / 2 + 5) / 6;
    for (int pos = 0; pos < need; pos++) {
        unsigned val = chars[pos] - 63u;
        if (val > 63)
            return -1;
        /* Six pairs a character, the first in its high bit. */
        for (int r = 0; r < 6; r++) {
            int p = 6 * pos + r;
            words[p >> 6] |= (u64)(val >> (5 - r) & 1) << (p & 63);
        }
    }
    unpack_triangle(words, n, g);
    return 0;
}

/* g's neighbor masks as a tuple of ints. */
static PyObject *masks_tuple(const graph *g)
{
    PyObject *out = PyTuple_New(g->n);
    for (int v = 0; out != NULL && v < g->n; v++) {
        PyObject *mask = PyLong_FromUnsignedLongLong(g->nbrs[v]);
        if (mask == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, v, mask);
    }
    return out;
}


/* -- module functions ----------------------------------------------------- */

static PyObject *py_closure(PyObject *self, PyObject *args)
{
    PyObject *nbrs, *k_obj, *colored_obj;
    graph g;
    long long k;
    u64 colored;
    if (!PyArg_UnpackTuple(args, "closure", 3, 3, &nbrs, &k_obj, &colored_obj)
        || load(nbrs, &g) < 0 || as_ll(k_obj, &k) < 0
        || as_mask(colored_obj, &g, &colored) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(close_from(g.nbrs, k, 0, colored));
}

static PyObject *py_connected_in(PyObject *self, PyObject *args)
{
    PyObject *nbrs, *mask_obj;
    graph g;
    u64 mask;
    if (!PyArg_UnpackTuple(args, "connected_in", 2, 2, &nbrs, &mask_obj)
        || load(nbrs, &g) < 0 || as_mask(mask_obj, &g, &mask) < 0)
        return NULL;
    return PyBool_FromLong(connected_in_u64(g.nbrs, mask));
}

/* Returns (witness or None, nodes, aborted). */
static PyObject *py_search_level_pruned(PyObject *self, PyObject *args)
{
    PyObject *nbrs, *k_obj, *size_obj, *budget_obj;
    graph g;
    long long k, size, budget, nodes = 0;
    u64 witness = 0;
    if (!PyArg_UnpackTuple(args, "search_level_pruned", 4, 4, &nbrs, &k_obj,
                           &size_obj, &budget_obj)
        || load(nbrs, &g) < 0 || as_ll(k_obj, &k) < 0
        || as_ll(size_obj, &size) < 0 || as_ll(budget_obj, &budget) < 0)
        return NULL;
    int outcome = pruned(&g, k, size, budget, &witness, &nodes);
    PyObject *found = outcome == FOUND ? PyLong_FromUnsignedLongLong(witness)
                                       : Py_NewRef(Py_None);
    return Py_BuildValue("(NLN)", found, nodes, PyBool_FromLong(outcome == ABORTED));
}

static PyObject *py_wavefront(PyObject *self, PyObject *args)
{
    PyObject *nbrs, *k_obj, *budget_obj;
    graph g;
    long long k, budget, value = 0, nodes = 0;
    if (!PyArg_UnpackTuple(args, "wavefront", 3, 3, &nbrs, &k_obj, &budget_obj)
        || load(nbrs, &g) < 0 || as_ll(k_obj, &k) < 0
        || as_ll(budget_obj, &budget) < 0)
        return NULL;
    int outcome = wavefront(&g, k, budget, &value, &nodes);
    if (outcome == NO_MEMORY)
        return PyErr_NoMemory();
    return Py_BuildValue("(LLN)", value, nodes,
                         PyBool_FromLong(outcome == ABORTED));
}

static PyObject *py_canonical_mask(PyObject *self, PyObject *args)
{
    PyObject *nbrs;
    graph g;
    if (!PyArg_UnpackTuple(args, "canonical_mask", 1, 1, &nbrs)
        || load(nbrs, &g) < 0)
        return NULL;
    return certificate(&g);
}

/* Upper-triangle masks of the children of the n-vertex parent packed in
 * bits, one per class of child that has it as canonical parent; see
 * pure.augment. The child has one vertex more than the parent, so the
 * parent may have at most 61. */
static PyObject *py_augment(PyObject *self, PyObject *args)
{
    PyObject *bits, *n_obj;
    u64 words[PAIR_WORDS] = {0}, cols[MAX_N + 1];
    graph p, c;
    int n, deg[MAX_N], nsum[MAX_N];
    if (!PyArg_UnpackTuple(args, "augment", 2, 2, &bits, &n_obj)
        || as_order(n_obj, &n) < 0 || triangle_words(bits, n, words) < 0)
        return NULL;
    if (n == MAX_N) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled kernels support at most 62 vertices");
        return NULL;
    }
    unpack_triangle(words, n, &p);
    PyObject *out = PyList_New(0);
    if (out == NULL || !connected_in_u64(p.nbrs, p.full))
        return out;
    for (int v = 0; v < n; v++)
        deg[v] = __builtin_popcountll(p.nbrs[v]);
    for (int v = 0; v < n; v++) {
        nsum[v] = 0;
        for (u64 m = p.nbrs[v]; m; m &= m - 1)
            nsum[v] += deg[__builtin_ctzll(m)];
        cols[v] = p.nbrs[v] & ((ONE << v) - 1);
    }
    c.n = n + 1;
    c.full = (ONE << c.n) - 1;
    /* The orbits of Aut(p) on subsets: seen has one bit per subset, set
     * once the subset's orbit has been met, and orbit is the search's
     * stack. */
    unsigned char *gens = malloc((size_t)n * n * n + 1);
    int ngens = gens ? automorphism_generators(&p, gens) : 0;
    u64 *seen = NULL;
    bucket orbit = {0};
    if (gens == NULL
        || (ngens && (seen = calloc(((ONE << n) + 63) >> 6, sizeof *seen)) == NULL)) {
        Py_CLEAR(out);
        PyErr_NoMemory();
        goto done;
    }
    for (u64 s = 1; s < ONE << n; s++) {
        /* A large parent has 2^n candidates: let Ctrl-C stop the loop. */
        if ((s & 0xFFFF) == 0 && PyErr_CheckSignals() < 0) {
            Py_CLEAR(out);
            goto done;
        }
        if (ngens) {
            if (seen[s >> 6] >> (s & 63) & 1)
                continue;
            seen[s >> 6] |= ONE << (s & 63);
            orbit.len = 0;
            for (u64 t = s;;) {
                for (int i = 0; i < ngens; i++) {
                    const unsigned char *img = gens + (size_t)i * n;
                    u64 image = 0;
                    for (u64 m = t; m; m &= m - 1)
                        image |= ONE << img[__builtin_ctzll(m)];
                    if (seen[image >> 6] >> (image & 63) & 1)
                        continue;
                    seen[image >> 6] |= ONE << (image & 63);
                    if (bucket_push(&orbit, image) < 0) {
                        Py_CLEAR(out);
                        PyErr_NoMemory();
                        goto done;
                    }
                }
                if (orbit.len == 0)
                    break;
                t = orbit.items[--orbit.len];
            }
        }
        int k = __builtin_popcountll(s), sw = k, keep = 1;
        for (u64 m = s; m; m &= m - 1)
            sw += deg[__builtin_ctzll(m)];
        for (int v = 0; v < n; v++)
            c.nbrs[v] = p.nbrs[v] | (s >> v & 1) << n;
        c.nbrs[n] = s;
        u64 rivals = 0;
        for (int u = 0; keep && u < n; u++) {
            int inside = s >> u & 1, du = deg[u] + inside;
            if (du > k)
                continue;
            int su = nsum[u] + __builtin_popcountll(p.nbrs[u] & s) + inside * k;
            if (du == k && su > sw)
                continue;
            if (connected_in_u64(c.nbrs, c.full & ~(ONE << u))) {
                if (du < k || su < sw)
                    keep = 0;
                else
                    rivals |= ONE << u;
            }
        }
        if (!keep || (rivals && !wins_deletion(&c, rivals)))
            continue;
        cols[n] = s;
        PyObject *mask = pack_columns(cols, n + 1);
        if (mask == NULL || PyList_Append(out, mask) < 0) {
            Py_XDECREF(mask);
            Py_CLEAR(out);
            goto done;
        }
        Py_DECREF(mask);
    }
done:
    free(gens);
    free(seen);
    free(orbit.items);
    return out;
}

/* The graph6 line of the n-vertex graph whose packed upper triangle is bits;
 * see pure.triangle_graph6. */
static PyObject *py_triangle_graph6(PyObject *self, PyObject *args)
{
    PyObject *bits, *n_obj;
    u64 words[PAIR_WORDS] = {0};
    int n;
    if (!PyArg_UnpackTuple(args, "triangle_graph6", 2, 2, &bits, &n_obj)
        || as_order(n_obj, &n) < 0 || triangle_words(bits, n, words) < 0)
        return NULL;
    int need = (n * (n - 1) / 2 + 5) / 6;
    PyObject *line = PyUnicode_New(1 + need, 127);
    if (line == NULL)
        return NULL;
    Py_UCS1 *chars = PyUnicode_1BYTE_DATA(line);
    chars[0] = (Py_UCS1)(63 + n);
    /* Six pairs a character, the first in its high bit; the bits past the
     * triangle are 0, so the padding is too. */
    for (int pos = 0; pos < need; pos++) {
        unsigned val = 0;
        for (int p = 6 * pos; p < 6 * pos + 6; p++)
            val = val << 1 | (unsigned)(words[p >> 6] >> (p & 63) & 1);
        chars[1 + pos] = (Py_UCS1)(63 + val);
    }
    return line;
}

/* The str argument named name, or NULL with TypeError set. */
static PyObject *as_str(PyObject *obj, const char *name)
{
    if (PyUnicode_Check(obj))
        return obj;
    return PyErr_Format(PyExc_TypeError, "%s() argument 1 must be str, not %.50s",
                        name, Py_TYPE(obj)->tp_name);
}

/* None when a character lies outside '?'..'~'; see pure.graph6_masks. */
static PyObject *py_graph6_masks(PyObject *self, PyObject *args)
{
    PyObject *payload, *n_obj;
    graph g;
    int n;
    if (!PyArg_UnpackTuple(args, "graph6_masks", 2, 2, &payload, &n_obj)
        || as_str(payload, "graph6_masks") == NULL || as_order(n_obj, &n) < 0)
        return NULL;
    Py_ssize_t need = (n * (n - 1) / 2 + 5) / 6;
    if (PyUnicode_GET_LENGTH(payload) != need)
        return PyErr_Format(PyExc_ValueError,
                            "graph6 payload length must be %zd for n=%d",
                            need, n);
    /* '?'..'~' is ASCII, so a string that is not holds a character outside. */
    if (!PyUnicode_IS_ASCII(payload)
        || decode_payload(PyUnicode_1BYTE_DATA(payload), n, &g) < 0)
        Py_RETURN_NONE;
    return masks_tuple(&g);
}

/* 1 when g has more than k vertices and removing any set of 1 to k - 1
 * vertices leaves it connected, 0 when not, -1 with an exception set when a
 * signal handler raised. Removal sets are tried by size and then in
 * ascending mask order (Gosper's hack). Whether g itself is connected is
 * the caller's test. */
static int no_small_cut(const graph *g, long long k)
{
    u64 tried = 0;
    if (g->n <= k)
        return 0;
    for (int size = 1; size < k; size++) {
        u64 cut = (ONE << size) - 1, last = cut << (g->n - size);
        for (;;) {
            /* C(n, k - 1) cuts can be astronomically many: let Ctrl-C stop
             * the walk. */
            if ((++tried & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
                return -1;
            if (!connected_in_u64(g->nbrs, g->full & ~cut))
                return 0;
            if (cut == last)
                break;
            u64 c = cut & (0 - cut), r = cut + c;
            cut = ((r ^ cut) >> 2) / c | r;
        }
    }
    return 1;
}

/* The reasons graph_facts gives, in the order it checks them. */
enum { APPLIES, DISCONNECTED, MAX_DEGREE_BELOW_2, NOT_K_CONNECTED };

/* Sets *dmax and *dmin to g's degree extremes and returns the reason the
 * bound at k does not apply (APPLIES when it does), or -1 with an exception
 * set when a signal handler raised; see pure.graph_facts. */
static int facts(const graph *g, long long k, int *dmax, int *dmin)
{
    *dmax = 0;
    *dmin = g->n ? MAX_N : 0;
    for (int v = 0; v < g->n; v++) {
        int d = __builtin_popcountll(g->nbrs[v]);
        *dmax = d > *dmax ? d : *dmax;
        *dmin = d < *dmin ? d : *dmin;
    }
    if (!connected_in_u64(g->nbrs, g->full))
        return DISCONNECTED;
    if (*dmax < 2)
        return MAX_DEGREE_BELOW_2;
    if (k < 2)
        return APPLIES;
    int ok = no_small_cut(g, k);
    return ok < 0 ? -1 : ok ? APPLIES : NOT_K_CONNECTED;
}

/* (max degree, min degree, reason); see pure.graph_facts. */
static PyObject *py_graph_facts(PyObject *self, PyObject *args)
{
    PyObject *nbrs, *k_obj;
    graph g;
    long long k;
    int dmax, dmin, reason;
    if (!PyArg_UnpackTuple(args, "graph_facts", 2, 2, &nbrs, &k_obj)
        || load(nbrs, &g) < 0 || as_ll(k_obj, &k) < 0
        || (reason = facts(&g, k, &dmax, &dmin)) < 0)
        return NULL;
    return Py_BuildValue("(iii)", dmax, dmin, reason);
}

/* The optional graph6 header. */
#define HEADER ">>graph6<<"
#define HEADER_LEN ((Py_ssize_t)sizeof HEADER - 1)

/* None for a malformed line, else (n, max degree, min degree, reason,
 * value, nodes, aborted); see pure.verify_line. */
static PyObject *py_verify_line(PyObject *self, PyObject *args)
{
    PyObject *line, *k_obj, *budget_obj;
    graph g;
    long long k, budget, value = 0, nodes = 0;
    int dmax, dmin, reason;
    if (!PyArg_UnpackTuple(args, "verify_line", 3, 3, &line, &k_obj, &budget_obj)
        || as_str(line, "verify_line") == NULL || as_ll(k_obj, &k) < 0
        || as_ll(budget_obj, &budget) < 0)
        return NULL;
    /* Every character of a well-formed line is ASCII. */
    if (!PyUnicode_IS_ASCII(line))
        Py_RETURN_NONE;
    const Py_UCS1 *chars = PyUnicode_1BYTE_DATA(line);
    Py_ssize_t len = PyUnicode_GET_LENGTH(line);
    if (len >= HEADER_LEN && memcmp(chars, HEADER, HEADER_LEN) == 0) {
        chars += HEADER_LEN;
        len -= HEADER_LEN;
    }
    if (len == 0 || chars[0] < 63 || chars[0] > 63 + MAX_N)
        Py_RETURN_NONE;
    int n = chars[0] - 63;
    if (len - 1 != (n * (n - 1) / 2 + 5) / 6 || decode_payload(chars + 1, n, &g) < 0)
        Py_RETURN_NONE;
    if ((reason = facts(&g, k, &dmax, &dmin)) < 0)
        return NULL;
    if (reason != APPLIES)
        return Py_BuildValue("(iiiiOiO)", n, dmax, dmin, reason, Py_None, 0,
                             Py_False);
    int outcome = wavefront(&g, k, budget, &value, &nodes);
    if (outcome == NO_MEMORY)
        return PyErr_NoMemory();
    return Py_BuildValue("(iiiiLLN)", n, dmax, dmin, reason, value, nodes,
                         PyBool_FromLong(outcome == ABORTED));
}


/* -- module --------------------------------------------------------------- */

#define KERNEL(name, args) \
    {#name, py_##name, METH_VARARGS, \
     #name "($module, " args ", /)\n--\n\nSee pure." #name "."}

static PyMethodDef methods[] = {
    KERNEL(closure, "nbrs, k, colored"),
    KERNEL(connected_in, "nbrs, mask"),
    KERNEL(search_level_pruned, "nbrs, k, size, node_budget"),
    KERNEL(wavefront, "nbrs, k, node_budget"),
    KERNEL(canonical_mask, "nbrs"),
    KERNEL(augment, "bits, n"),
    KERNEL(triangle_graph6, "bits, n"),
    KERNEL(graph6_masks, "payload, n"),
    KERNEL(graph_facts, "nbrs, k"),
    KERNEL(verify_line, "line, k, node_budget"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_ckern",
    .m_doc = "Compiled bitset kernels (uint64 masks, n <= 62); see pure.py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckern(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
